"""Every system compares in its field: plain-int tables over GF(p) give the
verdicts of their field-element copies.

Over GF(2), GF(3) and GF(5) a verified algebra of dimension 2-4, possibly
with one entry perturbed, is written as int representatives: each entry v
(0 <= v < p) becomes v, v - p or v + p, so a zero may be the truthy int p.
The field-element copy coerces every entry of those ints.  Both copies go
through the same constructions, which only index or multiply tables (the
regular representation, ``unglue`` at a split A (+) V, the coboundary
coproducts of two random tensors), and each of A, R, S, C, M, AM, the four
induced bimodules, CD, D and the coalgebra axioms must give the same
verdict, ``checked`` count and first violation, or the same refusal.
"""

from hypothesis import given, settings, strategies as st

from adw.algebra import ADAlgebra, BilinearOp, check_anti_dendriform, direct_sum
from adw.bialgebra import (check_coalgebra, check_coboundary_conditions,
                           check_d_bialgebra, coboundary_coproducts)
from adw.crossed import CrossedDatum, check_crossed_system
from adw.fields import PrimeField
from adw.matched import MatchedPairDatum, check_matched_pair, induced_associative_matched_pair
from adw.reporting import PreconditionFailure
from adw.reps import (check_representation, induced_associative_reps,
                      regular_representation, semidirect_product)
from adw.unified import ExtendingDatum, check_extending_structure, unglue

PRIMES = tuple(PrimeField(p) for p in (2, 3, 5))
SETTINGS = settings(derandomize=True, deadline=None, max_examples=60)


def verified(field):
    """(algebra, na): verified algebras whose first na coordinates span A."""
    nil = ADAlgebra.make(2, succ_entries=[(0, 0, 1, field.one)], field=field)
    flip = ADAlgebra(2, nil.basis, nil.prec, nil.succ, field)
    return [(nil, 1), (direct_sum(nil, ADAlgebra.zero(1, field)), 2), (direct_sum(nil, flip), 2),
            (semidirect_product(regular_representation(nil)), 2),
            (semidirect_product(regular_representation(flip)), 2)]


def residue(c):
    return c if type(c) is int else c.v


def lifted(data, field, table):
    """``table`` with every entry an int representative of it."""
    shift = st.sampled_from([0, 0, 0, -1, 1])
    if type(table) is tuple:
        return tuple(lifted(data, field, t) for t in table)
    return residue(table) + field.p * data.draw(shift)


def coerced(field, table):
    if type(table) is tuple:
        return tuple(coerced(field, t) for t in table)
    return field.coerce(table)


def source(data, field):
    """(int tables, na, n): a verified algebra, perhaps with one entry perturbed."""
    alg, na = data.draw(st.sampled_from(verified(field)))
    n = alg.dim
    tables = [lifted(data, field, op.table) for op in (alg.succ, alg.prec)]
    if data.draw(st.booleans()):
        t, i, j, k = (data.draw(st.integers(0, b)) for b in (1, n - 1, n - 1, n - 1))
        step = data.draw(st.integers(1, field.p - 1))
        flat = [[list(v) for v in row] for row in tables[t]]
        flat[i][j][k] += step
        tables[t] = tuple(tuple(tuple(v) for v in row) for row in flat)
    return tables, na, n


def tensor(data, field, n):
    v = st.sampled_from([0, 0, 0] + list(range(1, field.p)))
    return lifted(data, field, tuple(tuple(data.draw(v) for _ in range(n)) for _ in range(n)))


def outcome(check):
    """(passed, checked, violation_count, first violation), or the refusal."""
    try:
        rep = check()
    except PreconditionFailure as exc:
        return "refused", str(exc), exc.report and outcome(lambda: exc.report)
    if isinstance(rep, list):
        return [outcome(lambda r=r: r) for r in rep]
    head = rep.violations[0] if rep.violations else None
    return (rep.passed, rep.checked, rep.violation_count,
            head and (head.equation, head.witness, head.lhs, head.rhs))


def outcomes(field, tables, na, n, rs, rp):
    """Every system on the algebra with these tables, split at na."""
    alg = ADAlgebra(n, tuple("e%d" % i for i in range(n)),
                    *(BilinearOp(n, t) for t in tables), field)
    blocks = [unglue(t, range(na), range(na, n)) for t in tables]
    (aa_s, _, _, vv_s), (aa_p, _, _, vv_p) = blocks
    alg_a = ADAlgebra(na, alg.basis[:na], BilinearOp(na, aa_s[0]), BilinearOp(na, aa_p[0]), field)
    alg_v = ADAlgebra(n - na, alg.basis[na:], BilinearOp(n - na, vv_s[1]),
                      BilinearOp(n - na, vv_p[1]), field)
    rr = regular_representation(alg)
    pair = MatchedPairDatum.unglued(alg_a, alg_v, *blocks)
    cp = coboundary_coproducts(alg, rs, rp)
    checks = {
        "A": lambda: check_anti_dendriform(alg),
        "R": lambda: check_representation(rr, require_verified_algebra=False),
        "S": lambda: check_extending_structure(ExtendingDatum.unglued(alg_a, *blocks)),
        "C": lambda: check_crossed_system(CrossedDatum.unglued(alg_a, alg_v, *blocks)),
        "M": lambda: check_matched_pair(pair),
        "AM": lambda: induced_associative_matched_pair(pair, precheck=False)[1],
        "bimodule": lambda: [rep for _, rep in induced_associative_reps(rr, precheck=False)],
        "CD": lambda: check_coboundary_conditions(alg, rs, rp),
        "D": lambda: check_d_bialgebra(alg, cp),
        "coalgebra": lambda: check_coalgebra(cp),
    }
    return {name: outcome(check) for name, check in checks.items()}


@SETTINGS
@given(st.data())
def test_int_tables_compare_as_their_field_elements(data):
    field = data.draw(st.sampled_from(PRIMES))
    tables, na, n = source(data, field)
    rs, rp = tensor(data, field, n), tensor(data, field, n)
    as_ints = outcomes(field, tables, na, n, rs, rp)
    as_elements = outcomes(field, [coerced(field, t) for t in tables], na, n,
                           coerced(field, rs), coerced(field, rp))
    assert as_ints == as_elements
