"""Extraction through ``unglue`` against the frozen per-vector extraction loops.

Random ambient algebras of dimension 2..5 over Q and GF(5) are split three
ways: along a random adapted basis P (the inclusion is the first dim-A
columns of P, the projection the first dim-A rows of P^-1; the same pair
serves as section and projection), and along a random partition of the
coordinates for ``factorize``.  The ambient tables are written in the
adapted basis first, with the blocks that decide subalgebra closure and the
homomorphism property zeroed or left random, so passes and failures both
occur.  Every result must equal what ``frozen_extraction`` returns: datum
components, complement basis and report, or the same exception with the
same message and report.
"""

from fractions import Fraction as Q

from hypothesis import given, settings, strategies as st

from adw.algebra import ADAlgebra, BilinearOp, change_basis, direct_sum
from adw.crossed import cocycle_from_section
from adw.fields import RATIONALS, InputError, PrimeField
from adw.linalg import inverse, matmul
from adw.matched import factorize
from adw.reporting import PreconditionFailure
from adw.reps import regular_representation, semidirect_product
from adw.unified import extract_extending_datum

from . import frozen_extraction as frozen

GF5 = PrimeField(5)
FIELDS = (RATIONALS, GF5)
COEFFS = {
    RATIONALS: (Q(1), Q(-1), Q(2), Q(1, 2)),
    GF5: tuple(GF5.coerce(k) for k in (1, 2, 3, 4)),
}
DIFF = settings(derandomize=True, max_examples=60, deadline=None)


def known_algebras(field):
    """Anti-dendriform algebras of dimension 2..5 with nontrivial splits."""
    nil = ADAlgebra.make(2, succ_entries=[(0, 0, 1, field.one)], field=field)
    rnil = semidirect_product(regular_representation(nil))
    return (nil, rnil, direct_sum(nil, ADAlgebra.zero(1, field)),
            direct_sum(nil, nil), direct_sum(rnil, ADAlgebra.zero(1, field)))


KNOWN = {field: known_algebras(field) for field in FIELDS}


def random_table(draw, field, n, na):
    """A sparse table on A (+) V whose deciding blocks are zero or not at will.

    ``closed`` zeroes the V-part of A x A (A is a subalgebra); ``ideal``
    zeroes the A-parts of A x V, V x A and V x V (V is an ideal).
    """
    coeff = st.sampled_from(COEFFS[field])
    entries = draw(st.lists(st.tuples(*(st.integers(0, n - 1),) * 3, coeff), max_size=10))
    closed, ideal = draw(st.booleans()), draw(st.booleans())
    acc = [[[0] * n for _ in range(n)] for _ in range(n)]
    for i, j, k, c in entries:
        in_a = (i < na, j < na, k < na)
        if closed and in_a == (True, True, False):
            continue
        if ideal and in_a[2] and not (in_a[0] and in_a[1]):
            continue
        acc[i][j][k] = acc[i][j][k] + c
    return BilinearOp(n, tuple(tuple(tuple(v) for v in row) for row in acc))


@st.composite
def ambient(draw):
    """(field, algebra in an adapted basis, dim A)."""
    field = draw(st.sampled_from(FIELDS))
    if draw(st.booleans()):
        alg = draw(st.sampled_from(KNOWN[field]))
        return field, alg, draw(st.integers(1, alg.dim))
    n = draw(st.integers(2, 5))
    na = draw(st.integers(1, n))
    succ = random_table(draw, field, n, na)
    prec = random_table(draw, field, n, na)
    return field, ADAlgebra(n, tuple("e%d" % (i + 1) for i in range(n)), succ, prec,
                            field), na


def invertible(draw, field, n):
    """perm * L * U with unit-diagonal triangular L and U."""
    coeff = st.sampled_from((0, 0) + COEFFS[field])
    perm = draw(st.permutations(range(n)))
    low = [[field.one if r == c else (draw(coeff) if r > c else 0) for c in range(n)]
           for r in range(n)]
    up = [[field.one if r == c else (draw(coeff) if r < c else 0) for c in range(n)]
          for r in range(n)]
    return tuple(matmul(low, up)[perm[r]] for r in range(n))


@st.composite
def adapted_splits(draw):
    """(ambient algebra, inclusion/section, projection)."""
    field, alg, na = draw(ambient())
    n = alg.dim
    pmat = invertible(draw, field, n)
    pinv = inverse(pmat)
    ealg = change_basis(alg, pinv)  # its basis, written in P's columns, is alg's
    include = tuple(row[:na] for row in pmat)
    proj = pinv[:na]
    if draw(st.integers(0, 7)) == 7:  # a projection that is no left inverse
        proj = tuple(row[1:] + row[:1] for row in proj)
    return ealg, include, proj


@st.composite
def partitions(draw):
    """(ambient algebra, A indices, V indices): the coordinates relabelled at random."""
    _, alg, na = draw(ambient())
    n = alg.dim
    order = draw(st.permutations(range(n)))  # coordinate order[i] carries e_i
    at = {g: i for i, g in enumerate(order)}

    def relabel(op):
        return BilinearOp(n, tuple(tuple(tuple(op.table[at[gi]][at[gj]][at[g]] for g in range(n))
                                         for gj in range(n)) for gi in range(n)))

    ealg = ADAlgebra(n, alg.basis, relabel(alg.succ), relabel(alg.prec), alg.field)
    return (ealg, draw(st.permutations(order[:na])), draw(st.permutations(order[na:])))


def outcome(rep):
    return rep.name, rep.checked, rep.violation_count, rep.violations


def run(fn, *args):
    """The result, or the exception's type, message and attached report."""
    try:
        return "ok", fn(*args)
    except (InputError, PreconditionFailure) as exc:
        rep = getattr(exc, "report", None)
        return type(exc), str(exc), None if rep is None else outcome(rep)


def assert_same_datum(new, old):
    assert type(new) is type(old)
    for name in new.__dataclass_fields__:
        assert getattr(new, name) == getattr(old, name), name


def assert_same(new, old):
    assert new[0] == old[0]
    if new[0] != "ok":
        assert new == old
        return
    new, old = new[1], old[1]
    assert_same_datum(new.datum, old.datum)
    assert new.v_basis == old.v_basis
    assert outcome(new.report) == outcome(old.report)


@DIFF
@given(adapted_splits())
def test_extraction_matches_frozen(split):
    assert_same(run(extract_extending_datum, *split), run(frozen.extract_extending_datum, *split))


@DIFF
@given(adapted_splits())
def test_section_matches_frozen(split):
    ealg, section, proj = split
    assert_same(run(cocycle_from_section, ealg, proj, section),
                run(frozen.cocycle_from_section, ealg, proj, section))


@DIFF
@given(partitions())
def test_factorize_matches_frozen(case):
    new, old = run(factorize, *case), run(frozen.factorize, *case)
    assert new[0] == old[0]
    if new[0] != "ok":  # a factor that is not anti-dendriform
        assert new == old
        return
    (datum, rep), (old_datum, old_rep) = new[1], old[1]
    assert (datum is None) == (old_datum is None)
    if datum is not None:
        assert_same_datum(datum, old_datum)
    assert outcome(rep) == outcome(old_rep)



def test_factorize_records_one_leak_per_span():
    # e1 > e1 = e2 + e3 leaks out of span(e1); e2 > e3 = e1 leaks out of
    # span(e2, e3): one closure violation each, A's first, and no more
    one = RATIONALS.one
    alg = ADAlgebra.make(3, succ_entries=[(0, 0, 1, one), (0, 0, 2, one), (1, 2, 0, one),
                                          (2, 1, 0, one)])
    new, old = run(factorize, alg, [0], [1, 2]), run(frozen.factorize, alg, [0], [1, 2])
    assert new[0] == old[0] == "ok"
    rep = new[1][1]
    assert new[1][0] is None and outcome(rep) == outcome(old[1][1])
    assert rep.violation_count == 2
    assert [v.detail for v in rep.violations] == ["A-span is not a subalgebra"]
