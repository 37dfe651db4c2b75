"""The ``accumulate`` product kernel on a table's cells and the merged ``BilinearOp``.

``accumulate`` on the cells of a row (e_i o x) and of a column (x o e_j) of
a table, and ``BilinearOp.apply``, are compared by ``==`` with the pair loop
that products ran on before the kernel, frozen in
``frozen_split_engine.apply``: over Q and GF(5), on tables that mix int 0,
field zeros and nonzero entries, with ``out_dim`` different from ``dim``,
zero vectors and dim-0 sources.  The A and associativity checks keep their
verdict and ``checked`` under ``change_basis``.  A ragged matrix, whose rows
are not all of one length, is refused wherever a square one is required.
"""

import re
from fractions import Fraction as Q

import pytest
from hypothesis import assume, given, settings, strategies as st

from adw.actions import ActionFamily
from adw.algebra import (ADAlgebra, BilinearOp, change_basis, check_anti_dendriform,
                         check_associative, direct_sum)
from adw.bialgebra import (BilinearForm, CoproductPair, adybe_residual,
                           check_coboundary_conditions, coboundary_coproducts, is_ybe_solution)
from adw.crossed import CrossedDatum, GH2Tuple
from adw.fields import RATIONALS, GFElement, InputError, PrimeField
from adw.linalg import has_shape, inverse, matmul, unit
from adw.matched import MatchedPairDatum
from adw.reps import ADRep, regular_representation, semidirect_product
from adw.linalg import accumulate
from adw.tensors import operators, table_cells
from adw.unified import ExtendingDatum

from .frozen_split_engine import apply as frozen_apply

GF5 = PrimeField(5)
FIELDS = (RATIONALS, GF5)
KERNEL = settings(derandomize=True, max_examples=300, deadline=None)
INVARIANCE = settings(derandomize=True, max_examples=60, deadline=None)


def scalar(draw, field):
    """int 0, the field's zero, or a small field element (often nonzero)."""
    kind = draw(st.sampled_from(("int0", "zero") + ("value",) * 4))
    if kind == "int0":
        return 0
    if kind == "zero":
        return field.zero
    if field is RATIONALS:
        return Q(draw(st.integers(-2, 2)), draw(st.integers(1, 3)))
    return GF5.coerce(draw(st.integers(0, 4)))


def vector(draw, field, n):
    if draw(st.integers(0, 7)) == 0:
        return (0,) * n if draw(st.booleans()) else (field.zero,) * n
    return tuple(scalar(draw, field) for _ in range(n))


@st.composite
def ops_and_vectors(draw):
    field = draw(st.sampled_from(FIELDS))
    dim, out_dim = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    table = tuple(tuple(tuple(scalar(draw, field) for _ in range(out_dim))
                        for _ in range(dim)) for _ in range(dim))
    return (BilinearOp(dim, table, out_dim), vector(draw, field, dim),
            vector(draw, field, dim))


@KERNEL
@given(ops_and_vectors())
def test_kernel_matches_the_frozen_pair_loop(case):
    op, u, v = case
    n = op.dim
    assert op.apply(u, v) == frozen_apply(op, u, v)
    assert len(op.apply(u, v)) == op.out_dim
    left, right = operators(table_cells(op.table))
    ux, vx = ([(k, c) for k, c in enumerate(x) if c] for x in (u, v))
    for i in range(n):
        assert accumulate(op.out_dim, left[i], vx) == frozen_apply(op, unit(n, i), v)
        assert accumulate(op.out_dim, right[i], ux) == frozen_apply(op, u, unit(n, i))


def test_out_dim_is_stored_and_checked():
    assert BilinearOp.zero(2).out_dim == 2
    assert BilinearOp.from_entries(1, [(0, 0, 1, Q(1))], 2).table == (((0, Q(1)),),)
    with pytest.raises(InputError, match="structure-constant index"):
        BilinearOp.from_entries(1, [(0, 0, 1, Q(1))])
    with pytest.raises(InputError, match="does not match dimension"):
        BilinearOp(1, (((0, 0),),))
    # a product with the wrong target is no algebra table
    with pytest.raises(InputError, match="product tables do not match dimension 1"):
        ADAlgebra(1, ("e1",), BilinearOp.zero(1, 2), BilinearOp.zero(1))


def test_fold_maps_and_cocycles_check_their_target():
    """A fold map from a dim-0 V still carries its target, so a wrong A is caught."""
    base = ADAlgebra.zero(2)
    a_on_v, v_on_a = ActionFamily.zero(2, 0), ActionFamily.zero(0, 2)
    with pytest.raises(InputError, match=r"fold map has shape \(0,3\), expected \(0,2\)"):
        ExtendingDatum(base, 0, *(a_on_v,) * 4, *(v_on_a,) * 4,
                       BilinearOp.zero(0, 3), BilinearOp.zero(0, 2),
                       BilinearOp.zero(0), BilinearOp.zero(0))
    c = CrossedDatum.split(base, ADAlgebra.zero(1))
    with pytest.raises(InputError, match=r"cocycle has shape \(1,1\), expected \(2,1\)"):
        CrossedDatum(base, c.valgebra, c.lsucc, c.rsucc, c.lprec, c.rprec,
                     BilinearOp.zero(1, 1), c.omega2)


def test_every_datum_names_its_misshapen_part():
    """The one ``PARTS`` check names the attribute, its kind and both shapes."""
    base, fibre = ADAlgebra.zero(2), ADAlgebra.zero(1)
    a_on_v, v_on_a = ActionFamily.zero(2, 1), ActionFamily.zero(1, 2)
    folds = (BilinearOp.zero(1, 2),) * 2

    def refused(message, cls, *parts):
        with pytest.raises(InputError, match="^%s$" % re.escape(message)):
            cls(*parts)

    refused("rprec: action family has shape (2,2), expected (2,1)",
            ADRep, base, 1, a_on_v, a_on_v, a_on_v, ActionFamily.zero(2, 2))
    refused("mu_succ: action family has shape (2,1), expected (1,2)",
            ExtendingDatum, base, 1, *(a_on_v,) * 4, v_on_a, a_on_v, v_on_a, v_on_a,
            *folds, BilinearOp.zero(1), BilinearOp.zero(1))
    refused("prec_v: product has shape (2,2), expected (1,1)",
            ExtendingDatum, base, 1, *(a_on_v,) * 4, *(v_on_a,) * 4,
            *folds, BilinearOp.zero(1), BilinearOp.zero(2))
    refused("omega2: cocycle has shape (2,2), expected (2,1)",
            CrossedDatum, base, fibre, *(a_on_v,) * 4, BilinearOp.zero(2, 1),
            BilinearOp.zero(2))
    refused("l2p: action family has shape (2,1), expected (1,2)",
            MatchedPairDatum, base, fibre, *(a_on_v,) * 4, v_on_a, v_on_a, a_on_v, v_on_a)
    refused("mod_dim: expected a non-negative integer",
            ADRep, ADAlgebra.zero(0), -1, *(ActionFamily.zero(0, -1),) * 4)


RAGGED = ((0, 1), (1,))


def test_ragged_matrices_are_refused():
    """Every row is read, not only the first; ``()`` stays 0 x c."""
    assert has_shape((), 0, 3) and has_shape(((1, 0), (0, 1)), 2, 2)
    assert not has_shape(RAGGED, 2, 2) and not has_shape(((1,), (0, 1)), 2, 1)
    nil, zero = nil2(RATIONALS), ((0, 0), (0, 0))

    def refused(message, make):
        with pytest.raises(InputError, match="^%s$" % re.escape(message)):
            make()

    refused("tensor must be 2x2", lambda: adybe_residual(nil, RAGGED))
    refused("tensor must be 2x2", lambda: is_ybe_solution(nil, RAGGED))
    refused("tensors must be 2x2", lambda: check_coboundary_conditions(nil, RAGGED, zero))
    refused("tensors must be 2x2", lambda: coboundary_coproducts(nil, zero, RAGGED))
    refused("coproduct tables do not match dimension 2",
            lambda: CoproductPair(2, (RAGGED, zero), (zero, zero)))
    refused("gram matrix is not 2x2", lambda: BilinearForm(2, ((1, 0), (0,))))
    refused("matrix C is not 2x2", lambda: GH2Tuple(2, zero, zero, RAGGED, zero, (0, 0), (0, 0)))
    refused("matmul: inner dimensions 1 and 2 differ", lambda: matmul(((1, 0), (1,)), zero))


# ---------------------------------------------------------------------------
# verdict invariance under change of basis

def nil2(field):
    return ADAlgebra.make(2, succ_entries=[(0, 0, 1, field.one)], field=field)


def known(field):
    nil = nil2(field)
    return (ADAlgebra.zero(2, field), nil, ADAlgebra(2, nil.basis, nil.prec, nil.succ, field),
            direct_sum(nil, ADAlgebra.zero(1, field)),
            semidirect_product(regular_representation(nil)))


KNOWN = {field: known(field) for field in FIELDS}


@st.composite
def algebras_and_bases(draw):
    field = draw(st.sampled_from(FIELDS))
    if draw(st.booleans()):
        alg = draw(st.sampled_from(KNOWN[field]))
    else:
        n = draw(st.integers(1, 3))

        def entries():
            idx = st.integers(0, n - 1)
            return [(i, j, k, field.coerce(c)) for i, j, k, c in draw(st.lists(
                st.tuples(idx, idx, idx, st.integers(1, 4)), max_size=4))]

        alg = ADAlgebra.make(n, entries(), entries(), field=field)
    n = alg.dim
    pmat = tuple(tuple(field.coerce(draw(st.integers(-1, 2))) for _ in range(n))
                 for _ in range(n))
    assume(inverse(pmat) is not None)
    return alg, pmat


@INVARIANCE
@given(algebras_and_bases())
def test_checks_are_invariant_under_change_of_basis(case):
    alg, pmat = case
    changed = change_basis(alg, pmat)
    element = Q if alg.field is RATIONALS else GFElement
    assert all(isinstance(c, element) for op in (changed.succ, changed.prec)
               for row in op.table for v in row for c in v)
    before, after = check_anti_dendriform(alg), check_anti_dendriform(changed)
    assert (before.passed, before.checked) == (after.passed, after.checked)
    before, after = check_associative(alg.assoc), check_associative(changed.assoc)
    assert (before.passed, before.checked) == (after.passed, after.checked)
