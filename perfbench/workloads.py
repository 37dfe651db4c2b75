"""Seeded inputs and request lists of the library workloads.

Every request builds its own adw objects from plain data (nested tuples of
scalars) made at set-up, so no request sees a ``cached_property`` (such as
``ADAlgebra.is_verified``) that an earlier request already filled.

The inputs are built on the tower R^k(nil2): nil2 is the 2-dimensional
algebra with e0 > e0 = e1, and R(X) is semidirect_product(regular_representation(X)).
Its prec table is zero, its left multiplications are nilpotent, and its
annihilator is spanned by the odd-numbered basis vectors.  That fixes the
expected verdict of most requests:

* the tower, its regular representation, the S-system of that representation,
  the split crossed datum with fibre X and regular actions (whose product is
  isomorphic to X x X), and every basis change of these pass;
* a tensor r supported on annihilator x annihilator solves YE6 and passes CD;
* adding t*I to l>(e0) (t != -d0, where d0 is the e0-coefficient of e0.e0)
  breaks R1, hence R, S, C and M; adding 1 to e0 > e0's e0-coefficient breaks
  A1; adding e0 (x) e0 to an annihilator-supported r breaks YE6 and CD7.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

ONE = Fraction(1)


# ---------------------------------------------------------------------------
# plain exact data

def tower_entries(k):
    """(dim, succ entries) of R^k(nil2)."""
    ents = [(0, 0, 1, ONE)]
    n = 2
    for _ in range(k):
        ents = (ents + [(i, n + j, n + c, v) for i, j, c, v in ents]
                + [(n + i, j, n + c, v) for i, j, c, v in ents])
        n *= 2
    return n, ents


def semidirect_entries(n, ents):
    """Entries of R(X) from the entries of X (block placement)."""
    return (list(ents) + [(i, n + j, n + c, v) for i, j, c, v in ents]
            + [(n + i, j, n + c, v) for i, j, c, v in ents])


def permute(ents, perm):
    return [(perm[i], perm[j], perm[k], v) for i, j, k, v in ents]


def left_mats(table):
    """Matrices of x -> e_i o x (the regular representation's left family)."""
    n = len(table)
    return tuple(tuple(tuple(table[i][c][r] for c in range(n)) for r in range(n))
                 for i in range(n))


def plus_identity(mats, i, t):
    n = len(mats[i])
    m = tuple(tuple(x + t if r == c else x for c, x in enumerate(row))
              for r, row in enumerate(mats[i]))
    return mats[:i] + (m,) + mats[i + 1:]


def perturb_shift(table_s, table_p, i):
    """t with (L_i + tI)^2 != -l>(e_i.e_i): any t other than 0 and -d_i."""
    d = table_s[i][i][i] + table_p[i][i][i]
    return 2 if d == -1 else 1


def inverse_mod(m, p):
    """Inverse of a square matrix over GF(p), or None when it is singular."""
    n = len(m)
    rows = [[x % p for x in row] + [1 if r == c else 0 for c in range(n)]
            for r, row in enumerate(m)]
    for c in range(n):
        piv = next((r for r in range(c, n) if rows[r][c]), None)
        if piv is None:
            return None
        rows[c], rows[piv] = rows[piv], rows[c]
        inv = pow(rows[c][c], -1, p)
        rows[c] = [x * inv % p for x in rows[c]]
        for r in range(n):
            f = rows[r][c]
            if r != c and f:
                rows[r] = [(x - f * y) % p for x, y in zip(rows[r], rows[c])]
    return tuple(tuple(row[n:]) for row in rows)


def transport_tensor(pinv, r, p):
    """Coordinates P^-1 r P^-T over GF(p) of a 2-tensor after the basis change P."""
    n = len(r)
    return tuple(tuple(sum(pinv[a][i] * r[i][j] * pinv[b][j]
                           for i in range(n) for j in range(n)) % p
                       for b in range(n)) for a in range(n))


def tensor_on(n, cells, rng, count):
    """A {-1,0,1} tensor with exactly ``count`` nonzeros among ``cells``."""
    t = [[0] * n for _ in range(n)]
    for i, j in rng.sample(cells, count):
        t[i][j] = Fraction(rng.choice((-1, 1)))
    return tuple(tuple(row) for row in t)


def plus_unit(r, i, j):
    rows = [list(row) for row in r]
    rows[i][j] = rows[i][j] + 1
    return tuple(tuple(row) for row in rows)


def digest(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def table_shares(tables):
    """(nonzero share of all entries, share of zeros stored as a field element)."""
    total = nonzero = field_zeros = 0
    for table in tables:
        for row in table:
            for vec in row:
                for x in vec:
                    total += 1
                    if x:
                        nonzero += 1
                    elif type(x) is not int:
                        field_zeros += 1
    zeros = total - nonzero
    return nonzero / total, (field_zeros / zeros if zeros else 0.0)


# ---------------------------------------------------------------------------
# requests

class Request:
    """One call into the library.

    ``call`` runs it and returns the raw result; ``observe`` turns that into
    comparable fields (verdict, checked, violation count, first violation,
    digests); ``expect`` holds the fields the mathematics fixes; ``verify``
    optionally returns a list of problems with constructed objects.
    """

    __slots__ = ("id", "call", "observe", "expect", "verify", "points")

    def __init__(self, rid, call, observe, expect=None, verify=None, points=0):
        self.id = rid
        self.call = call
        self.observe = observe
        self.expect = expect or {}
        self.verify = verify
        self.points = points


def report_obs(rep, **extra):
    first = None
    if rep.violations:
        v = rep.violations[0]
        first = [v.equation, list(v.witness)]
    obs = {"passed": rep.passed, "checked": rep.checked,
           "violations": rep.violation_count, "first": first}
    obs.update(extra)
    return obs


PASS = {"passed": True, "violations": 0}
FAIL = {"passed": False}


class Lib:
    """Constructors over the current adw modules."""

    def __init__(self, api):
        self.api = api
        self.basis = {}

    def names(self, n):
        if n not in self.basis:
            self.basis[n] = tuple("e%d" % (i + 1) for i in range(n))
        return self.basis[n]

    def alg(self, succ, prec, field=None):
        a = self.api.algebra
        n = len(succ)
        return a.ADAlgebra(n, self.names(n), a.BilinearOp(n, succ), a.BilinearOp(n, prec),
                           field if field is not None else self.api.fields.RATIONALS)

    def fam(self, mats):
        n = len(mats)
        return self.api.actions.ActionFamily(n, len(mats[0]), mats)

    def rep_with_left(self, alg, lmats):
        rr = self.api.reps.regular_representation(alg)
        return self.api.reps.ADRep(alg, alg.dim, self.fam(lmats), rr.rsucc, rr.lprec, rr.rprec)

    def split_crossed(self, alg, fibre, rep):
        return self.api.crossed.CrossedDatum.split(alg, fibre, rep.lsucc, rep.rsucc,
                                                   rep.lprec, rep.rprec)


def ye6_obs(lib, residual):
    zero = lib.api.tensors.t3_is_zero(residual)
    return {"passed": zero, "violations": 0 if zero else 1,
            "first": None if zero else ["YE6", []], "residual": digest(residual)}


def check_requests(lib, succ, prec, kinds):
    """A, R, S, C requests on one algebra given by its tables."""
    api = lib.api
    n = len(succ)
    out = []
    if "A" in kinds:
        out.append(Request("A%d" % n, lambda: api.algebra.check_anti_dendriform(
            lib.alg(succ, prec)), report_obs, PASS))
    if "R" in kinds:
        out.append(Request("R%d" % n, lambda: api.reps.check_representation(
            api.reps.regular_representation(lib.alg(succ, prec))), report_obs, PASS))
    if "S" in kinds:
        out.append(Request("S%d" % n, lambda: api.unified.check_extending_structure(
            api.unified.ExtendingDatum.from_representation(
                api.reps.regular_representation(lib.alg(succ, prec)))), report_obs, PASS))
    if "C" in kinds:
        def crossed():
            alg = lib.alg(succ, prec)
            return api.crossed.check_crossed_system(
                lib.split_crossed(alg, lib.alg(succ, prec), api.reps.regular_representation(alg)))
        out.append(Request("C%d" % n, crossed, report_obs, PASS))
    return out


def perturbed_requests(lib, succ, prec, bad_succ, bad_prec, i0, systems):
    """One failing copy per system: A on perturbed tables, R/S/C/M on l>(e_i0) + tI."""
    api = lib.api
    n = len(succ)
    lmats = plus_identity(left_mats(succ), i0, perturb_shift(succ, prec, i0))
    out = []
    if "A" in systems:
        out.append(Request("A%d-bad" % n, lambda: api.algebra.check_anti_dendriform(
            lib.alg(bad_succ, bad_prec)), report_obs, FAIL))
    if "R" in systems:
        out.append(Request("R%d-bad" % n, lambda: api.reps.check_representation(
            lib.rep_with_left(lib.alg(succ, prec), lmats)), report_obs, FAIL))
    if "S" in systems:
        out.append(Request("S%d-bad" % n, lambda: api.unified.check_extending_structure(
            api.unified.ExtendingDatum.from_representation(
                lib.rep_with_left(lib.alg(succ, prec), lmats))), report_obs, FAIL))
    if "C" in systems:
        def crossed():
            alg = lib.alg(succ, prec)
            return api.crossed.check_crossed_system(
                lib.split_crossed(alg, lib.alg(succ, prec), lib.rep_with_left(alg, lmats)))
        out.append(Request("C%d-bad" % n, crossed, report_obs, FAIL))
    if "M" in systems:
        def matched():
            m = api.matched
            alg = lib.alg(succ, prec)
            rep = lib.rep_with_left(alg, lmats)
            z = api.actions.ActionFamily.zero(n, n)
            return m.check_matched_pair(m.MatchedPairDatum(
                alg, api.algebra.ADAlgebra.zero(n), rep.lsucc, rep.rsucc, rep.lprec,
                rep.rprec, z, z, z, z))
        out.append(Request("M%d-bad" % n, matched, report_obs, FAIL))
    return out


def tensor_requests(lib, tag, succ, prec, r, expect_pass, cd=True):
    api = lib.api
    n = len(succ)
    expect = PASS if expect_pass is True else FAIL if expect_pass is False else None
    out = [Request("YE%d-%s" % (n, tag),
                   lambda: api.bialgebra.adybe_residual(lib.alg(succ, prec), r),
                   lambda res: ye6_obs(lib, res), expect, points=1)]
    if cd:
        out.append(Request("CD%d-%s" % (n, tag), lambda: api.bialgebra.check_coboundary_conditions(
            lib.alg(succ, prec), r, r), report_obs, expect))
    return out


# ---------------------------------------------------------------------------
# tower-sparse

def tower_sparse(api, seed):
    """Checks and constructions over Q on permuted R^k(nil2), k = 1, 2, 3."""
    rng = random.Random(seed)
    lib = Lib(api)
    from_entries = api.algebra.BilinearOp.from_entries
    data = {}
    for k in (1, 2, 3):
        n, ents = tower_entries(k)
        perm = list(range(n))
        rng.shuffle(perm)
        pents = permute(ents, perm)
        succ = from_entries(n, pents).table
        prec = from_entries(n, []).table
        bad = from_entries(n, pents + [(perm[0], perm[0], perm[0], ONE)]).table
        ann = [perm[i] for i in range(1, n, 2)]
        cells = [(i, j) for i in range(n) for j in range(n)]
        data[n] = dict(perm=perm, ents=pents, succ=succ, prec=prec, bad=bad,
                       r_rand=tensor_on(n, cells, rng, round(n * n / 3)),
                       r_ann=tensor_on(n, [(i, j) for i in ann for j in ann], rng,
                                       round(2 * len(ann) ** 2 / 3)))
    reqs = []
    for n in (4, 8, 16):
        d = data[n]
        reqs += check_requests(lib, d["succ"], d["prec"], {4: "ARSC", 8: "ARS", 16: "A"}[n])
    d4 = data[4]
    reqs += perturbed_requests(lib, d4["succ"], d4["prec"], d4["bad"], d4["prec"],
                               d4["perm"][0], "RSCM")
    reqs += perturbed_requests(lib, data[8]["succ"], data[8]["prec"], data[8]["bad"],
                               data[8]["prec"], data[8]["perm"][0], "A")
    reqs.append(factorize_request(lib, data[8]))
    for n in (4, 8, 16):
        reqs += tensor_requests(lib, "rand", data[n]["succ"], data[n]["prec"],
                                data[n]["r_rand"], None, cd=n < 16)
    p0 = d4["perm"][0]
    reqs += tensor_requests(lib, "ann", d4["succ"], d4["prec"], d4["r_ann"], True)
    reqs += tensor_requests(lib, "bad", d4["succ"], d4["prec"],
                            plus_unit(d4["r_ann"], p0, p0), False)
    # YE6 at 16 on two more seeded tensors and on the annihilator-supported
    # pair: points_per_s then rests on about 0.6 s a pass instead of 0.2 s
    d16 = data[16]
    p16 = d16["perm"][0]
    cells16 = [(i, j) for i in range(16) for j in range(16)]
    for tag in ("rand2", "rand3"):
        reqs += tensor_requests(lib, tag, d16["succ"], d16["prec"],
                                tensor_on(16, cells16, rng, round(16 * 16 / 3)), None, cd=False)
    reqs += tensor_requests(lib, "ann", d16["succ"], d16["prec"], d16["r_ann"], True, cd=False)
    reqs += tensor_requests(lib, "bad", d16["succ"], d16["prec"],
                            plus_unit(d16["r_ann"], p16, p16), False, cd=False)
    reqs.append(extract_request(lib, data[8]))
    for n in (4, 8):
        reqs.append(z1_request(lib, data[n]))
    reqs.append(semidirect_request(lib, d4))
    tables = [data[n][key] for n in data for key in ("succ", "prec")]
    return reqs, tables


def factorize_request(lib, d):
    api = lib.api
    n = len(d["succ"])
    first = [d["perm"][i] for i in range(n // 2)]
    second = [d["perm"][i] for i in range(n // 2, n)]

    def call():
        return api.matched.factorize(lib.alg(d["succ"], d["prec"]), first, second)

    def observe(res):
        datum, rep = res
        return report_obs(rep, datum=datum is not None)

    return Request("M%d" % n, call, observe, dict(PASS, datum=True))


def extract_request(lib, d):
    """Split R(X) back into X and the module V, check S on it, rebuild it."""
    api = lib.api
    n = len(d["succ"])
    na = n // 2
    perm = d["perm"]
    incl = tuple(tuple(ONE if r == perm[c] else 0 for c in range(na)) for r in range(n))
    proj = tuple(tuple(ONE if c == perm[r] else 0 for c in range(n)) for r in range(na))
    # the rebuilt algebra's basis: A in include order, then V by ambient index
    order = perm[:na] + sorted(perm[na:])
    want = tuple(tuple(tuple(d["succ"][order[i]][order[j]][order[k]] for k in range(n))
                       for j in range(n)) for i in range(n))

    def call():
        res = api.unified.extract_extending_datum(lib.alg(d["succ"], d["prec"]), incl, proj)
        rep = api.unified.check_extending_structure(res.datum)
        return res, rep, api.unified.unified_product(res.datum, precheck=False)

    def observe(res):
        ex, rep, alg = res
        return report_obs(rep, extraction=ex.report.passed)

    def verify(res):
        alg = res[2]
        ok = alg.succ.table == want and alg.prec.is_zero()
        return [] if ok else ["unified product does not rebuild the ambient algebra"]

    return Request("X%d-%d" % (n, na), call, observe, dict(PASS, extraction=True), verify)


def z1_request(lib, d):
    api = lib.api
    n = len(d["succ"])

    def call():
        alg = lib.alg(d["succ"], d["prec"])
        return api.crossed.z1_cocycles(lib.split_crossed(
            alg, lib.alg(d["succ"], d["prec"]), api.reps.regular_representation(alg)))

    return Request("Z%d" % n, call,
                   lambda basis: {"dimension": len(basis), "basis": digest(basis)})


def semidirect_request(lib, d):
    api = lib.api
    n = len(d["succ"])
    want = api.algebra.BilinearOp.from_entries(2 * n, semidirect_entries(n, d["ents"])).table

    def call():
        return api.reps.semidirect_product(api.reps.regular_representation(
            lib.alg(d["succ"], d["prec"])))

    def verify(alg):
        ok = alg.succ.table == want and alg.prec.is_zero()
        return [] if ok else ["semidirect product differs from R(X)"]

    return Request("SD%d" % n, call, lambda alg: {"dim": alg.dim}, {"dim": 2 * n}, verify)


# ---------------------------------------------------------------------------
# search-gf

GF_P = 3


def gf_bases():
    """Dimension-4 verified algebras, as (name, succ entries, prec entries)."""
    nil = [(0, 0, 1, 1)]
    shifted = [(i + 2, j + 2, k + 2, c) for i, j, k, c in nil]
    return [
        ("R(nil2)", semidirect_entries(2, nil), []),
        ("R(nil2^t)", [], semidirect_entries(2, nil)),
        ("nil2+nil2", nil + shifted, []),
        ("nil2+nil2^t", nil, shifted),
    ]


def grid_key(r):
    n = len(r)
    return tuple(r[i][j] for i in range(n) for j in range(i + 1, n))


def random_invertible(rng, n, p):
    """A seeded invertible n x n matrix over GF(p) with no zero entry, and its inverse.

    A search or check costs roughly in proportion to the nonzeros of the
    changed tables.  With zero entries allowed, their count varies so much
    from seed to seed (a dimension-4 search 0.5 to 1.0 s) that the seed, not
    the program, would set the medians; without them every changed table is
    about equally dense.
    """
    while True:
        pmat = tuple(tuple(rng.randrange(1, p) for _ in range(n)) for _ in range(n))
        pinv = inverse_mod(pmat, p)
        if pinv is not None:
            return pmat, pinv


def search_gf(api, seed, base_solutions, copies=3):
    """Exhaustive skew YE6 search over GF(3) on seeded basis changes.

    The solutions of a basis-changed algebra are the transported solutions of
    the base algebra, so ``base_solutions`` (name -> list of upper-entry
    tuples, as ints) fixes the expected result and its order for every seed.
    Each base algebra X also gives two A1/A2 checks of seeded basis changes
    of R(X), of dimension 8: a check of a dimension-4 basis change costs 2 to
    16 ms depending on how dense the seed makes its tables, too little and
    too varied for checked_per_s to be steady from seed to seed.
    """
    rng = random.Random(seed)
    lib = Lib(api)
    field = api.fields.PrimeField(GF_P)
    reqs = []
    tables = []

    def changed(alg, pmat):
        alg = api.algebra.change_basis(alg, tuple(tuple(field.coerce(x) for x in row)
                                                  for row in pmat))
        tables.extend((alg.succ.table, alg.prec.table))
        return tuple(tuple(tuple(tuple(x.v for x in v) for v in row) for row in t)
                     for t in (alg.succ.table, alg.prec.table))

    for name, s_ents, p_ents in gf_bases():
        n = 4
        base = api.algebra.ADAlgebra.make(
            n, [(i, j, k, field.coerce(c)) for i, j, k, c in s_ents],
            [(i, j, k, field.coerce(c)) for i, j, k, c in p_ents], field=field)
        for copy in range(copies):
            pmat, pinv = random_invertible(rng, n, GF_P)
            succ, prec = changed(base, pmat)
            expected = None
            if base_solutions is not None:
                expected = sorted(grid_key(transport_tensor(
                    pinv, skew_from_uppers(n, uppers, GF_P), GF_P))
                    for uppers in base_solutions[name])
            reqs.append(gf_search_request(lib, "%s#%d" % (name, copy), succ, prec, field,
                                          expected))
        big = api.reps.semidirect_product(api.reps.regular_representation(base))
        for copy in range(2):
            succ, prec = changed(big, random_invertible(rng, big.dim, GF_P)[0])
            reqs.append(Request("A8 R(%s)#%d" % (name, copy),
                                gf_check(lib, succ, prec, field), report_obs, PASS))
    return reqs, tables


def skew_from_uppers(n, uppers, mod):
    t = [[0] * n for _ in range(n)]
    it = iter(uppers)
    for i in range(n):
        for j in range(i + 1, n):
            v = next(it)
            t[i][j] = v % mod
            t[j][i] = -v % mod
    return tuple(tuple(row) for row in t)


def gf_tables(field, succ, prec):
    c = field.coerce
    return (tuple(tuple(tuple(c(x) for x in v) for v in row) for row in succ),
            tuple(tuple(tuple(c(x) for x in v) for v in row) for row in prec))


def gf_check(lib, succ, prec, field):
    def call():
        s, p = gf_tables(field, succ, prec)
        return lib.api.algebra.check_anti_dendriform(lib.alg(s, p, field))
    return call


def gf_search_request(lib, rid, succ, prec, field, expected):
    api = lib.api
    values = field.elements()
    points = len(values) ** 6

    def call():
        s, p = gf_tables(field, succ, prec)
        return api.bialgebra.search_skew_solutions(lib.alg(s, p, field), field.elements())

    def observe(sols):
        keys = [tuple(x.v for x in grid_key(r)) for r in sols]
        return {"solutions": len(sols), "list": digest(keys)}

    def verify(sols):
        if expected is None:
            return []
        got = [tuple(x.v for x in grid_key(r)) for r in sols]
        return [] if got == expected else ["solution list differs from the transported base list"]

    return Request("search " + rid, call, observe, None, verify, points=points)
