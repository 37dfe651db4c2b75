"""The cell-map leg kernels and the coboundary check against the dense
code they replaced (``frozen_dense_kernels``), and the paper's statement that
CD3-CD10 hold exactly when the coboundary pair is a D-bialgebra.

Draws mix int 0, the field's own zero and nonzero ints and field elements
(over GF(5) also the int 5, truthy but zero in the field), over Q and GF(5),
in every shape the kernels accept.
"""

from __future__ import annotations

from fractions import Fraction as Q
from functools import cache

from hypothesis import given, settings
from hypothesis import strategies as st

from adw.algebra import ADAlgebra, BilinearOp, change_basis, direct_sum
from adw.bialgebra import (check_coalgebra, check_coboundary_conditions,
                           check_d_bialgebra, coboundary_coproducts,
                           search_skew_solutions)
from adw.fields import RATIONALS, PrimeField
from adw.linalg import inverse, matmul
from adw.tensors import (C12_13, C13_23, C23_12, add_cells, add_first, add_last, cell_map,
                         from_cells, t2_cells, zeros)
from . import frozen_dense_kernels as frozen
from .conftest import contracted, nilpotent2, rnil2

GF5 = PrimeField(5)
FIELDS = (RATIONALS, GF5)
SETTINGS = settings(derandomize=True, deadline=None, max_examples=100)


def entry_pools(field):
    """Pools of entries in which about 10%, 40% and 90% are nonzero: the zeros
    are int 0 and the field's own zero."""
    if field is RATIONALS:
        nonzero = [-2, -1, 1, 2, Q(1), Q(-1), Q(1, 2), Q(-3), Q(2, 3), Q(-1, 3)]
    else:
        nonzero = [-2, -1, 1, 2, 5] + field.elements()[1:]
    zeros = [0, field.zero]
    n = len(nonzero)
    return [zeros * (9 * n // 2) + nonzero, zeros * (3 * n // 4) + nonzero,
            zeros + nonzero * 4]


POOLS = {field: entry_pools(field) for field in FIELDS}


def draw_tensor(data, field, dims):
    pool = data.draw(st.sampled_from(POOLS[field]))
    size = 1
    for d in dims:
        size *= d
    flat = iter(data.draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size)))

    def build(ds):
        if len(ds) == 1:
            return tuple(next(flat) for _ in range(ds[0]))
        return tuple(build(ds[1:]) for _ in range(ds[0]))

    return build(dims)


dims = st.integers(1, 4)


def columns(mat, cols):
    """A matrix as the leg kernels read it: column c lists the nonzero (r, m)."""
    return [[(r, row[c]) for r, row in enumerate(mat) if row[c]] for c in range(cols)]


@SETTINGS
@given(st.data())
def test_leg_kernels_and_matmul_match_frozen(data):
    """``add_first`` and ``add_last`` on the cells of a tensor, made dense
    again by ``from_cells``, against the dense leg maps: into a cell map on
    order-2 tensors, into a flat accumulator on order-3 ones."""
    field = data.draw(st.sampled_from(FIELDS))
    d = [data.draw(dims) for _ in range(3)]
    m = data.draw(st.integers(0, 4))
    t2 = draw_tensor(data, field, d[:2])
    mat = draw_tensor(data, field, (m, d[0]))
    got = add_first(cell_map(), columns(mat, d[0]), t2_cells(t2), d[1])
    assert from_cells((m, d[1]), got) == frozen.t2_apply(mat, t2, 1)
    mat = draw_tensor(data, field, (m, d[1]))
    got = add_last(cell_map(), columns(mat, d[1]), t2_cells(t2), d[1], m)
    assert from_cells((d[0], m), got) == frozen.t2_apply(mat, t2, 2)
    t3 = draw_tensor(data, field, d)
    t3_cells = {(i * d[1] + j) * d[2] + k: x for i, plane in enumerate(t3)
                for j, row in enumerate(plane) for k, x in enumerate(row) if x}
    mat = draw_tensor(data, field, (m, d[0]))
    got = add_first(zeros(m, d[1], d[2]), columns(mat, d[0]), t3_cells, d[1] * d[2])
    assert from_cells((m, d[1], d[2]), got) == frozen.t3_apply(mat, t3, 1)
    mat = draw_tensor(data, field, (m, d[2]))
    got = add_last(zeros(d[0], d[1], m), columns(mat, d[2]), t3_cells, d[2], m)
    assert from_cells((d[0], d[1], m), got) == frozen.t3_apply(mat, t3, 3)
    a = draw_tensor(data, field, (max(m, 1), d[0]))
    b = draw_tensor(data, field, (d[0], d[1]))
    assert matmul(a, b) == frozen.matmul(a, b)


@SETTINGS
@given(st.data())
def test_add_cells_equals_the_dense_sum(data):
    """``add_cells`` sums nonzero cells only, into a cell map or a flat
    accumulator; the values are those of the sum over every entry."""
    field = data.draw(st.sampled_from(FIELDS))
    na, nb = data.draw(st.integers(0, 4)), data.draw(dims)
    ts = [draw_tensor(data, field, (na, nb)) for _ in range(data.draw(st.integers(1, 3)))]
    dense = tuple(tuple(sum(t[i][j] for t in ts) for j in range(nb)) for i in range(na))
    for acc in (cell_map(), zeros(na, nb)):
        for t in ts:
            add_cells(acc, t2_cells(t))
        assert from_cells((na, nb), acc) == dense


@SETTINGS
@given(st.data())
def test_contractions_match_frozen_by_repr(data):
    field = data.draw(st.sampled_from(FIELDS))
    n, s, t = (data.draw(dims) for _ in range(3))
    table = draw_tensor(data, field, (n, n, n))
    cases = ((C12_13, frozen.contract_12_13, (n, s), (n, t)),
             (C13_23, frozen.contract_13_23, (s, n), (t, n)),
             (C23_12, frozen.contract_23_12, (n, s), (t, n)))
    for how, old, du, dv in cases:
        u, v = draw_tensor(data, field, du), draw_tensor(data, field, dv)
        # repr: an entry no term reached is int 0, every other keeps its type
        assert repr(contracted(u, v, table, how)) == repr(old(u, v, table))


# ---------------------------------------------------------------------------
# coboundary pairs

def verified_algebras():
    nil = nilpotent2()
    return [ADAlgebra.zero(1), ADAlgebra.zero(2), nil,
            ADAlgebra(2, nil.basis, nil.prec, nil.succ, nil.field),
            direct_sum(nil, ADAlgebra.zero(1)), direct_sum(nil, nil), rnil2(RATIONALS)]


@cache
def skew_solutions(alg_index, field):
    """Skew Yang-Baxter solutions of a base algebra: the coboundary pair of
    each is a D-bialgebra, so they give passing cases."""
    alg = rnil2(field) if alg_index is None else verified_algebras()[alg_index]
    values = field.elements() if field is GF5 else [Q(-1), Q(0), Q(1)]
    return search_skew_solutions(alg, values)


def draw_invertible(data, field, n):
    """L U with L unit lower triangular and U upper triangular with a nonzero
    diagonal, entries in {-1, 0, 1, 2}."""
    entries = iter(data.draw(st.lists(st.integers(-1, 2), min_size=n * n, max_size=n * n)))
    lower, upper = [], []
    for i in range(n):
        row = [field.coerce(next(entries)) for _ in range(n)]
        lower.append(tuple(row[:i]) + (field.one,) + (field.zero,) * (n - i - 1))
        upper.append((field.zero,) * i + (row[i] if row[i] else field.one,) + tuple(row[i + 1:]))
    return frozen.matmul(tuple(lower), tuple(upper))


def transport(r, pinv):
    """Coordinates of a tensor in the basis whose old coordinates are the
    columns of p, given p^-1: r' = p^-1 r p^-T."""
    return frozen.matmul(frozen.matmul(pinv, r), tuple(zip(*pinv)))


def draw_tensors(data, field, n, solutions=(), pinv=None):
    """Two tensors: equal, different, zero, or one skew solution (moved to the
    basis of ``pinv``) twice."""
    kind = data.draw(st.sampled_from(["equal", "different", "zero", "solution"]))
    if kind == "solution" and solutions:
        r = data.draw(st.sampled_from(solutions))
        r = r if pinv is None else transport(r, pinv)
        return r, r
    if kind == "zero":
        z = tuple((field.zero,) * n for _ in range(n))
        return z, z
    rs = draw_tensor(data, field, (n, n))
    return rs, (rs if kind == "equal" else draw_tensor(data, field, (n, n)))


def draw_verified_case(data):
    """A verified algebra of dim 1-4 with two tensors: a fixed algebra over Q,
    or a basis change of R(nil2) over Q or GF(5)."""
    if not data.draw(st.booleans()):
        index = data.draw(st.integers(0, len(verified_algebras()) - 1))
        alg = verified_algebras()[index]
        sols = skew_solutions(index, RATIONALS)
        return (alg,) + draw_tensors(data, RATIONALS, alg.dim, sols)
    field = data.draw(st.sampled_from(FIELDS))
    p = draw_invertible(data, field, 4)
    return (change_basis(rnil2(field), p),) + draw_tensors(
        data, field, 4, skew_solutions(None, field), inverse(p))


def draw_table_case(data):
    """Random product tables of dim 1-4, anti-dendriform or not."""
    field = data.draw(st.sampled_from(FIELDS))
    n = data.draw(dims)
    succ, prec = (BilinearOp(n, draw_tensor(data, field, (n, n, n))) for _ in range(2))
    alg = ADAlgebra(n, tuple("e%d" % (i + 1) for i in range(n)), succ, prec, field)
    return (alg,) + draw_tensors(data, field, n)


def report_fields(rep):
    return rep.name, rep.checked, rep.violation_count, rep.violations


def in_field(field, t):
    """A tensor with every nonzero entry taken into ``field`` over GF(p), as
    it is over Q."""
    if isinstance(t, tuple):
        return tuple(in_field(field, x) for x in t)
    return field.coerce(t) if t and field != RATIONALS else t


@settings(derandomize=True, deadline=None, max_examples=30)
@given(st.data())
def test_coboundary_check_matches_frozen(data):
    """The frozen check compares plain-int values as ints, so over GF(p) it
    gets the draw with every nonzero entry taken into the field; the live
    check reads an int such as 5 mod p and so gets the raw draw."""
    draw = data.draw(st.sampled_from([draw_verified_case, draw_table_case]))
    alg, rs, rp = draw(data)
    f = alg.field
    alg_f = ADAlgebra(alg.dim, alg.basis, BilinearOp(alg.dim, in_field(f, alg.succ.table)),
                      BilinearOp(alg.dim, in_field(f, alg.prec.table)), f)
    for exhaustive in (False, True):
        assert report_fields(check_coboundary_conditions(alg, rs, rp, exhaustive)) == \
            report_fields(frozen.check_coboundary_conditions(
                alg_f, in_field(f, rs), in_field(f, rp), exhaustive))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.data())
def test_cd_holds_iff_coboundary_pair_is_d_bialgebra(data):
    """CD3-CD10 hold for (r>, r<) exactly when the coboundary coproducts
    satisfy the coalgebra axioms and D1-D9."""
    alg, rs, rp = draw_verified_case(data)
    cp = coboundary_coproducts(alg, rs, rp)
    assert check_coboundary_conditions(alg, rs, rp).passed == \
        (check_coalgebra(cp).passed and check_d_bialgebra(alg, cp).passed)
