"""R1-R7 and the bimodule axioms as glued columns against the frozen matrix checker.

Random representations of the verified algebras of dimensions 1..3, over Q
and GF(5), with module dimension 1..3 (so mostly dim V != dim A): regular,
dual-regular, zero and random quadruples, half of them perturbed so that
they fail.  Every report of ``check_representation`` (in both exhaustive
modes) and of ``check_assoc_bimodule`` on the four induced bimodules must
equal what the matrix checker in ``frozen_reps`` produces.  Over GF(5),
plain-int coefficients must give the reports of field elements.
"""

from hypothesis import given, settings, strategies as st

from adw.actions import ActionFamily
from adw.algebra import ADAlgebra
from adw.fields import GFElement
from adw.matched import MatchedPairDatum, check_matched_pair
from adw.reps import (ADRep, check_assoc_bimodule, check_representation,
                      dual_representation, induced_associative_reps, regular_representation)
from adw.unified import ExtendingDatum, check_extending_structure

from . import frozen_reps as frozen
from .test_glue_differential import FIELDS, GF5, ZOO, family

DIFF = settings(derandomize=True, max_examples=80, deadline=None)


@st.composite
def representations(draw):
    field = draw(st.sampled_from(FIELDS))
    alg = draw(st.sampled_from(ZOO[field]))
    n, m = alg.dim, draw(st.integers(1, 3))
    kind = draw(st.sampled_from(("regular", "dual", "zero", "random")))
    if kind == "regular":
        rep = regular_representation(alg)
    elif kind == "dual":
        rep = dual_representation(regular_representation(alg), precheck=False)
    elif kind == "zero":
        rep = ADRep.zero(alg, m)
    else:
        rep = ADRep(alg, m, *(family(draw, field, n, m) for _ in range(4)))
    if draw(st.booleans()):
        fams = list(rep.families())
        k = draw(st.integers(0, 3))
        fams[k] = fams[k].add(family(draw, field, n, rep.mod_dim))
        rep = ADRep(alg, rep.mod_dim, *fams)
    return rep


def scalars(report):
    """Every scalar of every recorded matrix."""
    return [x for v in report.violations for mat in (v.lhs, v.rhs) for row in mat for x in row]


@DIFF
@given(representations())
def test_representation_reports_match_frozen_checker(rep):
    for exhaustive in (False, True):
        new = check_representation(rep, exhaustive)
        assert new == frozen.check_representation(rep, exhaustive)
        # compared as int residues, recorded as elements of the field
        if rep.algebra.field is GF5:
            assert all(isinstance(x, GFElement) for x in scalars(new))


@DIFF
@given(representations())
def test_bimodule_reports_match_frozen_checker(rep):
    for arep, report in induced_associative_reps(rep, precheck=False):
        assert report == frozen.check_assoc_bimodule(arep)
        assert check_assoc_bimodule(arep, True) == frozen.check_assoc_bimodule(arep, True)


def test_strategy_reaches_passing_and_failing_reps():
    """The draws above include both verdicts and dim V != dim A."""
    seen = set()

    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(representations())
    def collect(rep):
        seen.add((check_representation(rep).passed, rep.mod_dim == rep.algebra.dim))

    collect()
    assert {(True, False), (False, False), (True, True), (False, True)} <= seen


def test_zero_dimensional_module():
    """With V = 0 every R and bimodule matrix is empty and every check passes."""
    rep = ADRep.zero(ZOO[FIELDS[0]][3], 0)
    assert check_representation(rep) == frozen.check_representation(rep)
    for arep, report in induced_associative_reps(rep):
        assert report.passed and report == frozen.check_assoc_bimodule(arep)


@DIFF
@given(st.integers(1, 3), st.lists(st.tuples(st.integers(0, 3), st.integers(0, 1),
                                             st.integers(0, 2), st.integers(0, 2),
                                             st.integers(-7, 7)), max_size=6))
def test_plain_int_coefficients_are_read_mod_p(m, entries):
    """Over GF(5) a representation whose coefficients are plain ints (5 and 10
    among them, which are 0) gets the R, S and M reports of its copy with
    every coefficient taken into the field."""
    def reports(coeff):
        alg = ADAlgebra.make(2, [(0, 0, 1, coeff(6))], field=GF5)
        fams = [ActionFamily.from_entries(2, m, [(x, r % m, c % m, coeff(v))
                                                 for f, x, r, c, v in entries if f == k])
                for k in range(4)]
        rep, z = ADRep(alg, m, *fams), ActionFamily.zero(m, 2)
        return (check_representation(rep, True),
                check_extending_structure(ExtendingDatum.from_representation(rep), True),
                check_matched_pair(MatchedPairDatum(alg, ADAlgebra.zero(m, GF5), *fams,
                                                    z, z, z, z), True))

    assert reports(int) == reports(GF5.coerce)
