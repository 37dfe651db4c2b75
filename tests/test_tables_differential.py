"""Action families as bilinear tables against their matrix predecessor.

An action family is stored as its table A x V -> V and read as matrices
only through ``mats``; ``frozen_tables`` keeps the family that stored the
matrices, with the code that built and read them.  Over Q with
denominators, GF(2), GF(5) and plain ints, with zeros of either kind, the
tests require:

- ``mats``, ``entries()``, ``add``, ``neg``, the transpose, ``zero`` and
  ``is_zero`` equal the frozen family's, by ``==`` and by ``repr``, and
  ``act`` equal by ``==``;
- a malformed family is refused with the frozen family's message, word for
  word;
- the multiplication operators, ``op_from_left_family``, the
  table/coproduct transposes, the dual representation, the induced
  bimodules and the double construction's families, and the glued tables
  of every datum kind, equal the frozen ones by ``==`` and ``repr``;
- every datum writer's JSON bytes equal the frozen writers' on the frozen
  families;
- ``oop check``, ``inducible``, ``unified equiv`` and ``crossed
  cohomologous`` keep the same violations, rendered byte for byte as the
  command line renders them, as the frozen checks on the frozen families.
"""

import json
from dataclasses import fields
from fractions import Fraction as Q
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from adw import serialize as io
from adw.actions import ActionFamily
from adw.algebra import ADAlgebra, BilinearOp, multiplication_operators, op_from_left_family
from adw.bialgebra import (algebra_from_coproducts, build_double_construction,
                           check_o_operator, dualize_algebra)
from adw.cli import _fmt_scalar
from adw.crossed import AutPair, CrossedDatum, check_cocycles_cohomologous, check_inducible
from adw.fields import RATIONALS, InputError, PrimeField
from adw.linalg import identity, inverse
from adw.matched import AssocMatchedPair, MatchedPairDatum
from adw.reps import (ADRep, dual_representation, induced_associative_reps, semidirect_table,
                      transposed)
from adw.unified import EquivWitness, ExtendingDatum, check_equivalence

from . import frozen_maps, frozen_serialize
from . import frozen_tables as frozen

GF2, GF5 = PrimeField(2), PrimeField(5)
DIFF = settings(derandomize=True, max_examples=150, deadline=None)
# (field, scalars): Q with denominators, GF(2), GF(5) and plain ints, each
# with zeros of both kinds where the field has two
POOLS = (
    (RATIONALS, (0, Q(0), Q(1, 2), Q(-3, 4), Q(2), 1, -1)),
    (GF2, (0, GF2.zero, GF2.one, 1)),
    (GF5, (0, GF5.zero, GF5.coerce(2), GF5.coerce(4), 3)),
    (RATIONALS, (0, 1, -1, 2, -3)),
)
NAMES = ("lsucc", "rsucc", "lprec", "rprec")


def same(new, old):
    assert new == old and repr(new) == repr(old)


def old(fam):
    """The frozen family of ``fam``'s matrices."""
    return frozen.ActionFamily(fam.alg_dim, fam.mod_dim, fam.mats)


def frozen_view(d):
    """``d`` with every action family frozen, for the frozen readers of families."""
    view = SimpleNamespace(**{f.name: getattr(d, f.name) for f in fields(d)})
    for name, part in vars(view).items():
        if isinstance(part, ActionFamily):
            setattr(view, name, old(part))
    if isinstance(d, CrossedDatum):
        view.vdim = d.vdim
    return view


def rendered(report):
    """What the command line prints of a report's verdict and kept violations."""
    return json.dumps([report.checked, report.violation_count,
                       [v.render(_fmt_scalar(report.field)) for v in report.violations]])


def matrix(draw, pool, rows, cols):
    return tuple(tuple(draw(st.sampled_from(pool)) for _ in range(cols)) for _ in range(rows))


def sparse(draw, pool, *dims):
    """A few (index..., scalar) entries, or none when an index is empty."""
    if not all(dims):
        return []
    entry = st.tuples(*(st.integers(0, d - 1) for d in dims), st.sampled_from(pool))
    return draw(st.lists(entry, max_size=4))


def families(draw, pool, a, m):
    """(library family, frozen family) of the same matrices or entries."""
    if draw(st.booleans()):
        mats = tuple(matrix(draw, pool, m, m) for _ in range(a))
        return ActionFamily(a, m, mats), frozen.ActionFamily(a, m, mats)
    entries = sparse(draw, pool, a, m, m)
    return (ActionFamily.from_entries(a, m, entries),
            frozen.ActionFamily.from_entries(a, m, entries))


def family(draw, pool, a, m):
    return families(draw, pool, a, m)[0]


def algebra(draw, field, pool, n):
    return ADAlgebra.make(n, sparse(draw, pool, n, n, n), sparse(draw, pool, n, n, n),
                          field=field)


def table(draw, pool, dim, out):
    return BilinearOp.from_entries(dim, sparse(draw, pool, dim, dim, out), out)


def rep(draw, field, pool, n, m):
    return ADRep(algebra(draw, field, pool, n), m, *(family(draw, pool, n, m) for _ in NAMES))


def extending(draw, pool, alg, m):
    n = alg.dim
    return ExtendingDatum(alg, m, *(family(draw, pool, n, m) for _ in range(4)),
                          *(family(draw, pool, m, n) for _ in range(4)),
                          table(draw, pool, m, n), table(draw, pool, m, n),
                          table(draw, pool, m, m), table(draw, pool, m, m))


def crossed(draw, pool, alg, fibre):
    n, m = alg.dim, fibre.dim
    return CrossedDatum(alg, fibre, *(family(draw, pool, n, m) for _ in range(4)),
                        table(draw, pool, n, m), table(draw, pool, n, m))


@DIFF
@given(st.data())
def test_family_views_and_arithmetic_match_frozen(data):
    draw = data.draw
    _, pool = draw(st.sampled_from(POOLS))
    a, m = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    (new, fam), (new2, fam2) = families(draw, pool, a, m), families(draw, pool, a, m)
    same(new.mats, fam.mats)
    same(list(new.entries()), list(fam.entries()))
    assert (new.alg_dim, new.mod_dim, new.is_zero()) == (fam.alg_dim, fam.mod_dim, fam.is_zero())
    same(new.add(new2).mats, fam.add(fam2).mats)
    same(new.neg().mats, fam.neg().mats)
    same(transposed(new).mats, fam.transpose().mats)
    same(ActionFamily.zero(a, m).mats, frozen.ActionFamily.zero(a, m).mats)
    assert ActionFamily(a, m, new.mats) == new and type(new.add(new2)) is ActionFamily
    x, w = (tuple(draw(st.sampled_from(pool)) for _ in range(k)) for k in (a, m))
    assert new.act(x, w) == fam.act(x, w)


@DIFF
@given(st.data())
def test_malformed_families_are_refused_with_the_frozen_messages(data):
    draw = data.draw
    _, pool = draw(st.sampled_from(POOLS))
    a, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    mats = [matrix(draw, pool, m, m) for _ in range(a)]
    kind = draw(st.sampled_from(("count", "rows", "cols", "entry")))
    k, delta = draw(st.integers(0, a - 1)), draw(st.sampled_from((-1, 1)))
    if kind == "count":
        mats = mats[:-1] if delta < 0 else mats + mats[:1]
    elif kind == "rows":
        mats[k] = mats[k][:-1] if delta < 0 else mats[k] + mats[k][:1]
    elif kind == "cols":
        mats[k] = (mats[k][0][:-1] if delta < 0 else mats[k][0] + (0,),) + mats[k][1:]
    entries = [(a if delta > 0 else -1, 0, 0, 1)]
    messages = []
    for cls in (ActionFamily, frozen.ActionFamily):
        with pytest.raises(InputError) as refused:
            if kind == "entry":
                cls.from_entries(a, m, entries)
            else:
                cls(a, m, tuple(mats))
        messages.append(str(refused.value))
    assert messages[0] == messages[1]


@DIFF
@given(st.data())
def test_operators_and_transposes_match_frozen(data):
    draw = data.draw
    field, pool = draw(st.sampled_from(POOLS))
    alg = algebra(draw, field, pool, draw(st.integers(0, 3)))
    new, ops = multiplication_operators(alg), frozen.multiplication_operators(alg)
    for name in NAMES:
        same(getattr(new, name).mats, getattr(ops, name).mats)
    for name in ("lsucc", "lprec"):
        same(op_from_left_family(getattr(new, name)).table,
             frozen.op_from_left_family(getattr(ops, name)).table)
    cp = dualize_algebra(alg)
    same((cp.dsucc, cp.dprec), (frozen._table_to_cop(alg.succ.table),
                                frozen._table_to_cop(alg.prec.table)))
    back = algebra_from_coproducts(cp, field)
    same((back.succ.table, back.prec.table), (frozen._cop_to_table(cp.dsucc),
                                              frozen._cop_to_table(cp.dprec)))


@DIFF
@given(st.data())
def test_dual_and_induced_families_match_frozen(data):
    draw = data.draw
    field, pool = draw(st.sampled_from(POOLS))
    r = rep(draw, field, pool, draw(st.integers(0, 3)), draw(st.integers(0, 3)))
    view = frozen_view(r)
    for new, fam in zip(dual_representation(r, precheck=False).families(),
                        frozen.dual_representation(view)):
        same(new.mats, fam.mats)
    ls, rs, lp, rp = (getattr(view, name) for name in NAMES)
    lsT, rsT, lpT, rpT = (f.transpose() for f in (ls, rs, lp, rp))
    candidates = ((ls.neg(), rp.neg()), (ls.add(lp), rs.add(rp)), (rpT.neg(), lsT.neg()),
                  (rpT.add(rsT), lpT.add(lsT)))
    for (arep, _), (left, right) in zip(induced_associative_reps(r, precheck=False), candidates):
        same((arep.left.mats, arep.right.mats), (left.mats, right.mats))


@pytest.mark.parametrize("field, pool", POOLS[:3])
def test_double_construction_families_match_frozen(field, pool):
    nil = ADAlgebra.make(2, succ_entries=[(0, 0, 1, pool[-1])], field=field)
    for alg in (nil, ADAlgebra(2, nil.basis, nil.prec, nil.succ, field), ADAlgebra.zero(2, field)):
        amp = build_double_construction(alg, nil).matched
        ops_a, ops_b = (frozen.multiplication_operators(x) for x in (alg, nil))
        want = (ops_a.rprec, ops_a.lsucc, ops_b.rprec, ops_b.lsucc)
        for new, fam in zip((amp.l1, amp.r1, amp.l2, amp.r2), want):
            same(new.mats, fam.transpose().neg().mats)


@DIFF
@given(st.data())
def test_glued_tables_and_writers_match_frozen(data):
    draw = data.draw
    field, pool = draw(st.sampled_from(POOLS))
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    alg, fibre = algebra(draw, field, pool, n), algebra(draw, field, pool, m)
    r, d = rep(draw, field, pool, n, m), extending(draw, pool, alg, m)
    c = crossed(draw, pool, alg, fibre)
    mp = MatchedPairDatum(alg, fibre, *(family(draw, pool, n, m) for _ in range(4)),
                          *(family(draw, pool, m, n) for _ in range(4)))
    amp = AssocMatchedPair(alg.assoc, fibre.assoc, family(draw, pool, n, m),
                           family(draw, pool, n, m), family(draw, pool, m, n),
                           family(draw, pool, m, n), field)
    glue = frozen.glue
    ra = r.algebra
    same(r.glued(), (glue(n, m, (ra.succ.table, None), (None, r.lsucc.mats),
                          (None, r.rsucc.mats), (None, None)),
                     glue(n, m, (ra.prec.table, None), (None, r.lprec.mats),
                          (None, r.rprec.mats), (None, None))))
    same(semidirect_table(alg.assoc, m, r.lsucc, r.rprec),
         glue(n, m, (alg.assoc.table, None), (None, r.lsucc.mats), (None, r.rprec.mats),
              (None, None)))
    same(d.glued(), (glue(n, m, (alg.succ.table, None), (d.mu_succ.mats, d.lsucc.mats),
                          (d.rho_succ.mats, d.rsucc.mats), (d.varpi1.table, d.succ_v.table)),
                     glue(n, m, (alg.prec.table, None), (d.mu_prec.mats, d.lprec.mats),
                          (d.rho_prec.mats, d.rprec.mats), (d.varpi2.table, d.prec_v.table))))
    same(c.glued(), (glue(n, m, (alg.succ.table, c.omega1.table), (None, c.lsucc.mats),
                          (None, c.rsucc.mats), (None, fibre.succ.table)),
                     glue(n, m, (alg.prec.table, c.omega2.table), (None, c.lprec.mats),
                          (None, c.rprec.mats), (None, fibre.prec.table))))
    same(mp.glued(), (glue(n, m, (alg.succ.table, None), (mp.r2s.mats, mp.l1s.mats),
                           (mp.l2s.mats, mp.r1s.mats), (None, fibre.succ.table)),
                      glue(n, m, (alg.prec.table, None), (mp.r2p.mats, mp.l1p.mats),
                           (mp.l2p.mats, mp.r1p.mats), (None, fibre.prec.table))))
    same(amp.glued(), glue(n, m, (alg.assoc.table, None), (amp.r2.mats, amp.l1.mats),
                           (amp.l2.mats, amp.r1.mats), (None, fibre.assoc.table)))
    for datum, writer in ((r, "rep_to_dict"), (d, "datum_to_dict"), (c, "crossed_to_dict"),
                          (mp, "matched_to_dict")):
        new = json.dumps(getattr(io, writer)(datum), sort_keys=True, indent=2)
        assert new == json.dumps(getattr(frozen_serialize, writer)(frozen_view(datum)),
                                 sort_keys=True, indent=2)


@DIFF
@given(st.data())
def test_kept_violations_render_as_on_frozen_families(data):
    draw = data.draw
    field, pool = draw(st.sampled_from(POOLS))
    n, m = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    alg, fibre = algebra(draw, field, pool, n), algebra(draw, field, pool, m)
    exhaustive = draw(st.booleans())

    # oop check
    r = rep(draw, field, pool, n, m)
    tmat = matrix(draw, pool, n, m)
    new = check_o_operator(tmat, r, exhaustive)
    want = frozen.check_o_operator(tmat, frozen_view(r), exhaustive)
    assert new == want and rendered(new) == rendered(want)

    # unified equiv, in both modes
    d1, d2 = extending(draw, pool, alg, m), extending(draw, pool, alg, m)
    eta = matrix(draw, pool, m, m)
    cohomologous = inverse(eta) is None
    w = EquivWitness(matrix(draw, pool, n, m),
                     identity(m, field.one) if cohomologous else eta)
    new = check_equivalence(d1, d2, w, cohomologous, exhaustive)
    want = frozen_maps.check_equivalence(frozen_view(d1), frozen_view(d2), w, cohomologous,
                                         exhaustive)
    assert new == want and rendered(new) == rendered(want)

    # crossed cohomologous
    c1, c2 = crossed(draw, pool, alg, fibre), crossed(draw, pool, alg, fibre)
    zeta = matrix(draw, pool, m, n)
    new = check_cocycles_cohomologous(c1, c2, zeta, exhaustive)
    want = frozen_maps.check_cocycles_cohomologous(frozen_view(c1), frozen_view(c2), zeta,
                                                   exhaustive)
    assert new == want and rendered(new) == rendered(want)

    # inducible, on the identity pair; a passing check also builds the
    # crossed product, which reads the library datum
    pair = AutPair(identity(n, field.one), identity(m, field.one))
    phi = matrix(draw, pool, m, n)
    new = check_inducible(c1, pair, phi, exhaustive)
    want = frozen_maps.check_inducible(c1 if new.passed else frozen_view(c1), pair, phi,
                                       exhaustive)
    assert new == want and rendered(new) == rendered(want)
