"""The residue paths against the field-element code they replaced
(``frozen_field_elements``).

Over GF(2), GF(3), GF(5), GF(7) and Q: random tables of dimension 1-4 whose
entries mix int 0, the field's own zero, nonzero ints (over GF(p) also p
itself, truthy but zero in the field) and field elements; verified algebras
under random basis changes; and those algebras with one entry perturbed.
The A1/A2 check must give equal ``Report``s, normal and exhaustive, with
equal rendered violations whose values are field elements; the YE6 quadratic form must be equal list for
list; a permutation basis change must give equal tables with the entry types
of the dense one.
"""

from __future__ import annotations

import random
from fractions import Fraction as Q

from hypothesis import given, settings
from hypothesis import strategies as st

from adw.algebra import ADAlgebra, BilinearOp, change_basis, check_anti_dendriform, direct_sum
from adw.bialgebra import _ye6_form
from adw.fields import RATIONALS, GFElement, PrimeField
from adw.linalg import inverse, matmul
from adw.reps import regular_representation, semidirect_product

from . import frozen_field_elements as frozen

PRIMES = tuple(PrimeField(p) for p in (2, 3, 5, 7))
FIELDS = PRIMES + (RATIONALS,)
SETTINGS = settings(derandomize=True, deadline=None, max_examples=150)


def nonzeros(field):
    if field is RATIONALS:
        return [-2, -1, 1, 2, Q(1), Q(-1), Q(1, 2), Q(-3), Q(2, 3)]
    return [-2, -1, 1, 2, field.p] + field.elements()[1:]


def pool(data, field):
    """Entries of which about 10%, 40% or 90% are nonzero; the zeros are int 0
    and the field's own zero."""
    nz = nonzeros(field)
    zeros, n = [0, field.zero], len(nz)
    return data.draw(st.sampled_from([zeros * (9 * n // 2) + nz, zeros * (3 * n // 4) + nz,
                                      zeros + nz * 4]))


def random_table(data, field, n):
    flat = iter(data.draw(st.lists(st.sampled_from(pool(data, field)),
                                   min_size=n ** 3, max_size=n ** 3)))
    return BilinearOp(n, tuple(tuple(tuple(next(flat) for _ in range(n)) for _ in range(n))
                               for _ in range(n)))


def verified(field):
    one = field.one
    nil = ADAlgebra.make(2, succ_entries=[(0, 0, 1, one)], field=field)
    flip = ADAlgebra(2, nil.basis, nil.prec, nil.succ, field)
    return [nil, flip, direct_sum(nil, ADAlgebra.zero(1, field)), direct_sum(nil, flip),
            semidirect_product(regular_representation(nil)),
            semidirect_product(regular_representation(flip))]


def invertible(data, field, n):
    """perm * L * U with unit triangular L and U, entries in {-1, 0, 1, 2}."""
    coeff = st.sampled_from([field.zero, field.zero] + [field.coerce(c) for c in (-1, 1, 2)])
    perm = data.draw(st.permutations(range(n)))
    low = [[field.one if r == c else (data.draw(coeff) if r > c else field.zero)
            for c in range(n)] for r in range(n)]
    up = [[field.one if r == c else (data.draw(coeff) if r < c else field.zero)
           for c in range(n)] for r in range(n)]
    return tuple(matmul(low, up)[perm[r]] for r in range(n))


def perturbed(data, alg):
    """alg with one entry of one table changed by a nonzero amount."""
    n, field = alg.dim, alg.field
    i, j, k = (data.draw(st.integers(0, n - 1)) for _ in range(3))
    delta = data.draw(st.sampled_from(nonzeros(field)))
    which = data.draw(st.booleans())
    op = alg.succ if which else alg.prec
    op = op.add(BilinearOp.from_entries(n, [(i, j, k, delta)]))
    return ADAlgebra(n, alg.basis, op if which else alg.succ, alg.prec if which else op, field)


def draw_algebra(data, fields=FIELDS):
    field = data.draw(st.sampled_from(fields))
    kind = data.draw(st.sampled_from(["random", "verified", "perturbed"]))
    if kind == "random":
        n = data.draw(st.integers(1, 4))
        return ADAlgebra(n, tuple("e%d" % (i + 1) for i in range(n)),
                         random_table(data, field, n), random_table(data, field, n), field)
    alg = data.draw(st.sampled_from(verified(field)))
    if data.draw(st.booleans()):
        alg = frozen.change_basis(alg, invertible(data, field, alg.dim))
    return perturbed(data, alg) if kind == "perturbed" else alg


def rendered(rep, field):
    return [v.render(field.to_str) for v in rep.violations]


def in_field(alg):
    """alg with every nonzero coefficient taken into its field.

    The frozen check compares plain-int values as ints, so over GF(p) it
    is an oracle only where each nonzero coefficient is a field element.
    """
    def take(op):
        return BilinearOp(op.dim, tuple(tuple(tuple(alg.field.coerce(x) if x else x for x in v)
                                              for v in row) for row in op.table))

    return ADAlgebra(alg.dim, alg.basis, take(alg.succ), take(alg.prec), alg.field)


@SETTINGS
@given(st.data())
def test_anti_dendriform_check_matches_frozen(data):
    alg = draw_algebra(data)
    field = alg.field
    for exhaustive in (False, True):
        for given_alg in (alg, in_field(alg)):
            new = check_anti_dendriform(given_alg, exhaustive)
            if field is RATIONALS:
                old = frozen.check_anti_dendriform(given_alg, exhaustive)
                assert repr(new) == repr(old)
            else:
                old = frozen.check_anti_dendriform(in_field(alg), exhaustive)
                # lifted: every value is a field element
                assert all(type(x) is GFElement for v in new.violations for x in v.lhs + v.rhs)
            assert new == old
            assert rendered(new, field) == rendered(old, field)


def test_int_coefficients_are_read_mod_p():
    """e>e = 2e is the zero product in GF(2); the field-element check compared
    the ints 4 and -4 and reported a violation whose sides both print 0."""
    alg = ADAlgebra.make(1, [(0, 0, 0, 2)], field=PrimeField(2))
    assert check_anti_dendriform(alg).passed
    old = frozen.check_anti_dendriform(alg)
    assert not old.passed and rendered(old, alg.field)[0]["lhs"] == ["0"] == \
        rendered(old, alg.field)[0]["rhs"]


def test_anti_dendriform_check_matches_frozen_at_dim_8():
    """A GF(3) basis change of R(R(nil2)) with no zero entry, as given and
    perturbed."""
    field = PrimeField(3)
    one = field.one
    alg = verified(field)[4]
    alg = semidirect_product(regular_representation(alg))
    rng = random.Random(1)
    while True:
        pmat = tuple(tuple(field.coerce(rng.randrange(1, 3)) for _ in range(8)) for _ in range(8))
        if inverse(pmat) is not None:
            break
    alg = frozen.change_basis(alg, pmat)
    bad = ADAlgebra(8, alg.basis, alg.succ.add(BilinearOp.from_entries(8, [(1, 2, 3, one)])),
                    alg.prec, field)
    for a, passed in ((alg, True), (bad, False)):
        new = check_anti_dendriform(a, exhaustive=True)
        assert new.passed is passed and new.checked == 1024
        assert new == frozen.check_anti_dendriform(a, exhaustive=True)


@SETTINGS
@given(st.data())
def test_ye6_form_matches_frozen(data):
    alg = draw_algebra(data)
    field, k = alg.field, alg.dim * (alg.dim - 1) // 2
    reduce = field.coerce if field is RATIONALS else (lambda x: field.coerce(x).v)
    assert _ye6_form(alg, k) == frozen._ye6_form(alg, k, reduce)


def table_from(rng, n, draw, share):
    """An n x n x n table with about ``share`` of its entries ``draw(rng)``
    and int 0 elsewhere."""
    return BilinearOp(n, tuple(tuple(tuple(draw(rng) if rng.random() < share else 0
                                           for _ in range(n)) for _ in range(n))
                               for _ in range(n)))


def digit_bound_algebras():
    """Tables whose form digits come near the packing's bound: over GF(251)
    every nonzero entry is 250 (its largest residue), over Q the lowered ints
    are wide (denominators 7, 9 and 11, numerators up to 10**6, scale 693)
    and all near 63 * 10**6 in size, so that digits of aligned signs come
    near the sum of the largest entries; all-zero tables, whose width is the
    least; and dimensions 0-2, where k is 0 or 1."""
    gf251, rng = PrimeField(251), random.Random(27)
    top = gf251.coerce(250)

    def wide(signs):
        def draw(r):
            den = r.choice((7, 9, 11))
            return Q(r.choice(signs) * (63 * 10 ** 6 * den // 693 - r.randint(0, 1000)), den)
        return draw

    for n in (3, 4):
        for share, signs in ((0.5, (-1, 1)), (1.0, (1,))):
            yield ADAlgebra(n, tuple("e%d" % i for i in range(n)),
                            table_from(rng, n, lambda r: top, share),
                            table_from(rng, n, lambda r: top, share), gf251)
            yield ADAlgebra(n, tuple("e%d" % i for i in range(n)),
                            table_from(rng, n, wide(signs), share),
                            table_from(rng, n, wide(signs), share), RATIONALS)
    for field in (RATIONALS, gf251, PrimeField(2)):
        yield ADAlgebra.zero(4, field)
        for n in range(3):
            yield ADAlgebra(n, tuple("e%d" % i for i in range(n)),
                            table_from(rng, n, lambda r: field.coerce(r.randint(1, 250)), 0.7),
                            table_from(rng, n, lambda r: field.coerce(r.randint(1, 250)), 0.7),
                            field)


def test_ye6_form_matches_frozen_at_the_digit_bound():
    for alg in digit_bound_algebras():
        field, k = alg.field, alg.dim * (alg.dim - 1) // 2
        reduce = field.coerce if field is RATIONALS else (lambda x: field.coerce(x).v)
        assert _ye6_form(alg, k) == frozen._ye6_form(alg, k, reduce)


def entry_types(alg):
    return [type(c) for op in (alg.succ, alg.prec) for c in
            (x for plane in op.table for row in plane for x in row)]


@SETTINGS
@given(st.data())
def test_permutation_basis_change_matches_frozen(data):
    alg = draw_algebra(data)
    n, field = alg.dim, alg.field
    perm = data.draw(st.permutations(range(n)))
    pmat = tuple(tuple(field.one if c == perm[r] else field.zero for c in range(n))
                 for r in range(n))
    new, old = change_basis(alg, pmat), frozen.change_basis(alg, pmat)
    assert new.equal_tables(old) and new.field == old.field and new.basis == old.basis
    assert entry_types(new) == entry_types(old)
    # a permutation of plain ints gives the same tables
    ints = tuple(tuple(int(c == perm[r]) for c in range(n)) for r in range(n))
    assert change_basis(alg, ints).equal_tables(old)
