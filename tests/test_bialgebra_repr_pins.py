"""sha256 pins of the ``repr`` of the bialgebra checks' reports.

``==`` cannot tell ``Fraction(1)`` from ``1`` or ``GF3(0)`` from ``0``, and
the byte pins of the CLI print every scalar through ``to_str``, so neither
sees the type of a kept value.  These pins do: on four fixed inputs that
break Ca1/Ca2, D1-D9 and CD3-CD10 alike (over Q with denominators, over Q
with plain ints, over GF(3) with plain ints, some of them multiples of 3, and
over GF(3) with field elements), the ``repr`` of the reports of
``check_coalgebra``, ``check_d_bialgebra`` and
``check_coboundary_conditions``, each in both modes, and of
``coboundary_coproducts`` is hashed.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction as Q

import pytest

from adw.algebra import ADAlgebra, BilinearOp
from adw.bialgebra import (CoproductPair, check_coalgebra, check_coboundary_conditions,
                           check_d_bialgebra, coboundary_coproducts)
from adw.fields import RATIONALS, PrimeField

GF3 = PrimeField(3)

# the nonzero entries each input draws from, and its field
POOLS = {
    "q-fractions": ([Q(1, 2), Q(-2, 3), Q(3, 7), Q(5, 6), Q(1), Q(-3)], RATIONALS),
    "q-ints": ([1, -1, 2, -3], RATIONALS),
    "gf3-ints": ([1, 2, 4, -1, 3, 6], GF3),
    "gf3-elements": ([GF3.coerce(1), GF3.coerce(2)], GF3),
}

PINS = {
    "q-fractions": "e644de5e0493a4161f7c582d6886e7acf811636f15c17ba6c18b0150ec2461dc",
    "q-ints": "749adea0154af5fc618777cd2c35be9cc4a3468cd692cff990aaa2760d353579",
    "gf3-ints": "cfa7a5e66e02e09791399416e83580246c76aaaa66148537d577e7aa683f8b3d",
    "gf3-elements": "1e0131d7f23bc718977720d1941e2c947dfe0ea341f01f29e62efc99a1554302",
}


def draw(rng, pool, dims):
    """A tensor of shape ``dims``, about a third of its entries nonzero."""
    if len(dims) == 1:
        return tuple(rng.choice(pool) if rng.random() < 0.35 else 0 for _ in range(dims[0]))
    return tuple(draw(rng, pool, dims[1:]) for _ in range(dims[0]))


def inputs(kind):
    pool, field = POOLS[kind]
    rng = random.Random(kind)
    n = 3
    alg = ADAlgebra(n, ("e1", "e2", "e3"), BilinearOp(n, draw(rng, pool, (n, n, n))),
                    BilinearOp(n, draw(rng, pool, (n, n, n))), field)
    rs, rp = draw(rng, pool, (n, n)), draw(rng, pool, (n, n))
    cp = CoproductPair(n, draw(rng, pool, (n, n, n)), draw(rng, pool, (n, n, n)), field)
    return alg, rs, rp, cp


def reports(kind):
    alg, rs, rp, cp = inputs(kind)
    out = []
    for exhaustive in (False, True):
        out += [check_coalgebra(cp, exhaustive), check_d_bialgebra(alg, cp, exhaustive),
                check_coboundary_conditions(alg, rs, rp, exhaustive)]
    return out, coboundary_coproducts(alg, rs, rp)


@pytest.mark.parametrize("kind", sorted(POOLS))
def test_reports_print_as_pinned(kind):
    found, cop = reports(kind)
    # every input breaks every check, in both modes, with kept values
    assert all(not r.passed and r.violations for r in found)
    labels = {v.equation for r in found for v in r.violations}
    assert {"Ca1", "Ca2", "D1", "D7", "CD3", "CD8"} <= labels
    text = repr((found, cop))
    assert hashlib.sha256(text.encode()).hexdigest() == PINS[kind]
