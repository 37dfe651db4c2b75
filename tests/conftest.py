"""Shared builders: small verified algebras, random exact data, oracles."""

from __future__ import annotations

import random
from dataclasses import fields, is_dataclass, replace
from fractions import Fraction as Q

import pytest

from adw.actions import ActionFamily
from adw.algebra import ADAlgebra, BilinearOp, direct_sum
from adw.fields import InputError
from adw.linalg import inverse, shape
from adw.reps import ADRep, regular_representation, semidirect_product
from adw.tensors import add_contraction, cell_map, from_cells, legs, t2_cells, table_cells
from .frozen_bialgebra import t3_dims


def q(a, b=1):
    return Q(a, b)


def nilpotent2() -> ADAlgebra:
    """The 2-dimensional algebra with e1 > e1 = e2 and every other product zero."""
    return ADAlgebra.make(2, succ_entries=[(0, 0, 1, Q(1))])


def rnil2(field):
    """R(nil2) = semidirect_product(regular_representation(nil2)) over ``field``."""
    nil = ADAlgebra.make(2, succ_entries=[(0, 0, 1, field.one)], field=field)
    return semidirect_product(regular_representation(nil))


def rand_scalar(rng, span=2):
    return Q(rng.randint(-span, span), rng.choice([1, 1, 2]))


def rand_vec(rng, n, span=2):
    return tuple(rand_scalar(rng, span) for _ in range(n))


def rand_matrix(rng, rows, cols, span=2):
    return tuple(tuple(rand_scalar(rng, span) for _ in range(cols)) for _ in range(rows))


def rand_invertible(rng, n, span=2):
    while True:
        m = rand_matrix(rng, n, n, span)
        if inverse(m) is not None:
            return m


def rand_family(rng, alg_dim, mod_dim, span=1):
    return ActionFamily(alg_dim, mod_dim,
                        tuple(rand_matrix(rng, mod_dim, mod_dim, span)
                              for _ in range(alg_dim)))


def datum_in_field(obj, field):
    """An algebra, table, family, representation or datum with every nonzero
    coefficient of its tables taken into ``field``."""
    if isinstance(obj, BilinearOp):
        return obj.from_table(obj.dims, datum_in_field(obj.table, field))
    if is_dataclass(obj):
        parts = [f.name for f in fields(obj)
                 if f.name in ("table", "mats") or is_dataclass(getattr(obj, f.name))]
        return replace(obj, **{name: datum_in_field(getattr(obj, name), field)
                               for name in parts})
    if isinstance(obj, tuple):
        return tuple(datum_in_field(x, field) for x in obj)
    return field.coerce(obj) if obj else obj


def conjugate_rep(rep: ADRep, pmat) -> ADRep:
    """Transport a representation along an invertible module map."""
    pinv = inverse(pmat)
    from adw.linalg import matmul

    def conj(fam):
        return ActionFamily(fam.alg_dim, fam.mod_dim,
                            tuple(matmul(pmat, matmul(m, pinv)) for m in fam.mats))

    return ADRep(rep.algebra, rep.mod_dim, conj(rep.lsucc), conj(rep.rsucc),
                 conj(rep.lprec), conj(rep.rprec))


# leg permutations of cubic Tensor3s, for identities of the YE6 residual

def sigma(t, perm):
    """Permute the legs of a cubic Tensor3.

    ``perm`` is a triple p meaning: output slot s carries what was in input
    slot p[s].  All three dimensions must agree.
    """
    d = t3_dims(t)
    if not (d[0] == d[1] == d[2]):
        raise InputError("sigma: legs have unequal dimensions %r" % (d,))
    if sorted(perm) != [0, 1, 2]:
        raise InputError("sigma: %r is not a permutation of (0,1,2)" % (perm,))
    n = d[0]
    inv = [0, 0, 0]
    for s in range(3):
        inv[perm[s]] = s
    # (sigma t)[i0][i1][i2] = t[j0][j1][j2] with j_t = i_{inv[t]}
    return tuple(
        tuple(
            tuple(t[(i0, i1, i2)[inv[0]]][(i0, i1, i2)[inv[1]]][(i0, i1, i2)[inv[2]]]
                  for i2 in range(n))
            for i1 in range(n)
        )
        for i0 in range(n)
    )


def sigma123(t):
    """x (x) y (x) z  ->  z (x) x (x) y."""
    return sigma(t, (2, 0, 1))


def sigma132(t):
    """x (x) y (x) z  ->  y (x) z (x) x."""
    return sigma(t, (1, 2, 0))


def contracted(u, v, table, how):
    """The dense contraction ``how`` (``tensors.C12_13``, ``C13_23`` or
    ``C23_12``) of two order-2 tensors against a product table, by the
    library's one contraction kernel, ``tensors.add_contraction``: an entry
    that no term reaches is int 0."""
    cells = cell_map()
    dims = add_contraction(cells, legs(t2_cells(u), *shape(u)), legs(t2_cells(v), *shape(v)),
                           table_cells(table), how)
    return from_cells(dims, cells)


@pytest.fixture(scope="session")
def algebra_zoo():
    """Verified algebras of dimensions 1..4 with varied structure."""
    nil = nilpotent2()
    zoo = [
        ADAlgebra.zero(1),
        ADAlgebra.zero(2),
        ADAlgebra.zero(3),
        nil,
        ADAlgebra(2, nil.basis, nil.prec, nil.succ, nil.field),  # transposed variant
        direct_sum(nil, ADAlgebra.zero(1)),
        direct_sum(nil, nil),
        semidirect_product(regular_representation(nil)),
    ]
    for alg in zoo:
        assert alg.is_verified
    return zoo


@pytest.fixture(scope="session")
def valid_reps_pool():
    """A pool of representations known to satisfy the axioms, over nilpotent2."""
    from adw.reps import dual_representation

    nil = nilpotent2()
    rng = random.Random(20240817)
    pool = [ADRep.zero(nil, 1), ADRep.zero(nil, 2),
            regular_representation(nil),
            dual_representation(regular_representation(nil))]
    base = list(pool[2:])
    for _ in range(60):
        src = rng.choice(base)
        pool.append(conjugate_rep(src, rand_invertible(rng, src.mod_dim)))
    return pool


# ---------------------------------------------------------------------------
# independent oracles (deliberately different machinery from the library:
# dict-of-dicts products and direct identity expansion)

def oracle_product(entries, n):
    """entries: {(i,j): {k: coeff}} -> function on dense coordinate tuples."""

    def mult(u, v):
        out = [Q(0)] * n
        for (i, j), ks in entries.items():
            f = u[i] * v[j]
            if f:
                for k, c in ks.items():
                    out[k] += f * c
        return tuple(out)

    return mult


def oracle_is_anti_dendriform(succ_entries, prec_entries, n):
    """Brute-force expansion of both defining identities on all basis triples."""
    succ = oracle_product(succ_entries, n)
    prec = oracle_product(prec_entries, n)

    def dot(u, v):
        return tuple(a + b for a, b in zip(succ(u, v), prec(u, v)))

    def e(i):
        return tuple(Q(1) if t == i else Q(0) for t in range(n))

    for i in range(n):
        for j in range(n):
            for k in range(n):
                x, y, z = e(i), e(j), e(k)
                t1 = succ(x, succ(y, z))
                t2 = tuple(-a for a in succ(dot(x, y), z))
                t3 = tuple(-a for a in prec(x, dot(y, z)))
                t4 = prec(prec(x, y), z)
                if not (t1 == t2 == t3 == t4):
                    return False
                if prec(succ(x, y), z) != succ(x, prec(y, z)):
                    return False
    return True


def op_to_oracle_entries(op):
    out = {}
    for (i, j, k, c) in op.entries():
        out.setdefault((i, j), {})[k] = c
    return out
