"""The three extraction loops as they stood before ``unglue``, kept as an oracle.

``extract_extending_datum``, ``cocycle_from_section`` and ``factorize`` each
split an ambient algebra with their own coordinate splitter: the first two
solve a linear system for every product vector, the third walks index maps.
They are deliberately independent of ``adw.unified.unglue`` and
``adw.algebra.change_basis``; ``test_extraction_differential`` compares them
with the library versions.  Do not optimise or refactor them.
"""

from __future__ import annotations

from adw.actions import ActionFamily
from adw.algebra import ADAlgebra, BilinearOp
from adw.crossed import CrossedDatum, SectionResult
from adw.fields import InputError
from adw.linalg import identity, matmul, matvec, nullspace, shape, solve_linear, unit, vsub
from adw.matched import MatchedPairDatum, bicrossed_product, check_matched_pair
from adw.reporting import PreconditionFailure, Report
from adw.unified import ExtendingDatum, ExtractionResult


def extract_extending_datum(ealg: ADAlgebra, include_a, proj_a) -> ExtractionResult:
    """Split an ambient algebra along a projection onto a subalgebra.

    ``include_a`` is the (ambient x sub) inclusion matrix, ``proj_a`` the
    (sub x ambient) linear projection with proj o include = id.  The
    complement is ker(proj) with its deterministic nullspace basis.  Returns
    the twelve-component datum; its report records the subalgebra-closure and
    projection checks.
    """
    report = Report("extraction")
    ne = ealg.dim
    na = len(proj_a)
    if len(include_a) != ne or len(include_a[0]) != na or len(proj_a[0]) != ne:
        raise InputError("inclusion/projection shapes do not match the ambient algebra")
    if matmul(proj_a, include_a) != identity(na, ealg.field.one):
        raise InputError("projection is not a left inverse of the inclusion")

    def incl(v):
        return matvec(include_a, v)

    def proj(v):
        return matvec(proj_a, v)

    acols = [tuple(include_a[r][c] for r in range(ne)) for c in range(na)]
    # subalgebra closure and the induced structure constants on A
    sub_succ, sub_prec = [], []
    for op, store, tag in ((ealg.succ, sub_succ, ">"), (ealg.prec, sub_prec, "<")):
        for i in range(na):
            row = []
            for j in range(na):
                w = op.apply(acols[i], acols[j])
                pw = proj(w)
                if w != incl(pw):
                    report.record("subalgebra", (i, j), tuple(w), tuple(incl(pw)),
                                  "A is not closed under %s" % tag)
                row.append(pw)
            store.append(tuple(row))
    if not report.passed:
        raise PreconditionFailure("the designated subspace is not a subalgebra", report)
    alg_a = ADAlgebra(na, tuple("a%d" % (i + 1) for i in range(na)),
                      BilinearOp(na, tuple(sub_succ)), BilinearOp(na, tuple(sub_prec)),
                      ealg.field)

    vbasis = nullspace(proj_a)
    m = len(vbasis)
    if na + m != ne:
        raise InputError("projection rank defect: dim A + dim V != dim E")
    vmat = tuple(tuple(vbasis[c][r] for c in range(m)) for r in range(ne))

    def vcoords(w):
        sol = solve_linear(vmat, w)
        if sol is None:
            raise InputError("internal: vector not in the complement")
        return sol[0]

    def split(w):
        pw = proj(w)
        return pw, vcoords(tuple(a - b for a, b in zip(w, incl(pw))))

    zl = [[None] * m for _ in range(na)]
    data = {}
    for name in ("lsucc", "rsucc", "lprec", "rprec"):
        data[name] = [[[0] * m for _ in range(m)] for _ in range(na)]
    for name in ("rho_succ", "mu_succ", "rho_prec", "mu_prec"):
        data[name] = [[[0] * na for _ in range(na)] for _ in range(m)]

    for x in range(na):
        for a in range(m):
            for op, lname, rname, rhon, mun in (
                    (ealg.succ, "lsucc", "rsucc", "rho_succ", "mu_succ"),
                    (ealg.prec, "lprec", "rprec", "rho_prec", "mu_prec")):
                w1 = op.apply(acols[x], vbasis[a])       # x o a
                pa, va = split(w1)
                for r in range(m):
                    data[lname][x][r][a] = va[r]
                for r in range(na):
                    data[mun][a][r][x] = pa[r]
                w2 = op.apply(vbasis[a], acols[x])       # a o x
                pb, vb = split(w2)
                for r in range(m):
                    data[rname][x][r][a] = vb[r]
                for r in range(na):
                    data[rhon][a][r][x] = pb[r]

    varpi = {1: [], 2: []}
    vprod = {1: [], 2: []}
    for tag, op in ((1, ealg.succ), (2, ealg.prec)):
        for a in range(m):
            arow, vrow = [], []
            for b in range(m):
                pa, va = split(op.apply(vbasis[a], vbasis[b]))
                arow.append(pa)
                vrow.append(va)
            varpi[tag].append(tuple(arow))
            vprod[tag].append(tuple(vrow))

    def fam(name, adim, mdim):
        return ActionFamily(adim, mdim, tuple(tuple(tuple(r) for r in mats)
                                              for mats in data[name]))

    datum = ExtendingDatum(
        alg_a, m,
        fam("lsucc", na, m), fam("rsucc", na, m), fam("lprec", na, m), fam("rprec", na, m),
        fam("rho_succ", m, na), fam("mu_succ", m, na),
        fam("rho_prec", m, na), fam("mu_prec", m, na),
        BilinearOp(m, tuple(varpi[1]), na), BilinearOp(m, tuple(varpi[2]), na),
        BilinearOp(m, tuple(vprod[1])), BilinearOp(m, tuple(vprod[2])),
    )
    report.tick()
    return ExtractionResult(datum, vbasis, report)



def cocycle_from_section(ealg: ADAlgebra, proj, section) -> "SectionResult":
    """Extract the crossed datum of a quotient map from a chosen section.

    ``proj`` is the (quotient x ambient) matrix of an algebra epimorphism p,
    ``section`` an (ambient x quotient) right inverse s.  The base algebra is
    the quotient with its induced products; the fibre is ker(p) with its
    restricted products (ker p is an ideal when p is a homomorphism).
    """
    ne = ealg.dim
    na = len(proj)
    if shape(section) != (ne, na) or shape(proj) != (na, ne):
        raise InputError("projection/section shapes do not match the ambient algebra")
    if matmul(proj, section) != identity(na, ealg.field.one):
        raise InputError("p o s is not the identity on the quotient")

    scols = [tuple(section[r][c] for r in range(ne)) for c in range(na)]

    def p(v):
        return matvec(proj, v)

    # quotient structure constants through the section, then homomorphism check
    qsucc, qprec = [], []
    for op, store in ((ealg.succ, qsucc), (ealg.prec, qprec)):
        for i in range(na):
            store.append(tuple(p(op.apply(scols[i], scols[j])) for j in range(na)))
    alg_a = ADAlgebra(na, tuple("q%d" % (i + 1) for i in range(na)),
                      BilinearOp(na, tuple(qsucc)), BilinearOp(na, tuple(qprec)),
                      ealg.field)
    hom = Report("projection homomorphism")
    for op, qop, tag in ((ealg.succ, alg_a.succ, ">"), (ealg.prec, alg_a.prec, "<")):
        for i in range(ne):
            pi = tuple(proj[r][i] for r in range(na))
            for j in range(ne):
                pj = tuple(proj[r][j] for r in range(na))
                hom.require_equal("p-hom", (i, j), p(op.apply(unit(ne, i), unit(ne, j))),
                                  qop.apply(pi, pj),
                                  "p(u %s v) != p(u) %s p(v)" % (tag, tag))
    if not hom.passed:
        raise PreconditionFailure("projection is not an algebra homomorphism", hom)

    vbasis = nullspace(proj)
    m = len(vbasis)
    if na + m != ne:
        raise InputError("projection rank defect: dim quotient + dim kernel != dim E")
    vmat = tuple(tuple(vbasis[c][r] for c in range(m)) for r in range(ne))

    def vcoords(w):
        sol = solve_linear(vmat, w)
        if sol is None:
            raise InputError("internal: vector not in ker p")
        return sol[0]

    def into_v(w):
        # w must lie in ker p when p is a homomorphism
        return vcoords(vsub(w, matvec(section, p(w))))

    fams = {k: [] for k in ("lsucc", "rsucc", "lprec", "rprec")}
    for name_l, name_r, op in (("lsucc", "rsucc", ealg.succ), ("lprec", "rprec", ealg.prec)):
        ml = [[[0] * m for _ in range(m)] for _ in range(na)]
        mr = [[[0] * m for _ in range(m)] for _ in range(na)]
        for x in range(na):
            for a in range(m):
                la = vcoords(op.apply(scols[x], vbasis[a]))
                ra = vcoords(op.apply(vbasis[a], scols[x]))
                for r in range(m):
                    ml[x][r][a] = la[r]
                    mr[x][r][a] = ra[r]
        fams[name_l] = ActionFamily(na, m, tuple(tuple(tuple(r) for r in mm) for mm in ml))
        fams[name_r] = ActionFamily(na, m, tuple(tuple(tuple(r) for r in mm) for mm in mr))

    om = {}
    for tag, op, sub in ((1, ealg.succ, alg_a.succ), (2, ealg.prec, alg_a.prec)):
        t = []
        for i in range(na):
            row = []
            for j in range(na):
                w = vsub(op.apply(scols[i], scols[j]),
                         matvec(section, sub.table[i][j]))
                row.append(vcoords(w))
            t.append(tuple(row))
        om[tag] = BilinearOp(na, tuple(t), m)

    vs, vp = [], []
    for op, store in ((ealg.succ, vs), (ealg.prec, vp)):
        for a in range(m):
            store.append(tuple(into_v(op.apply(vbasis[a], vbasis[b])) for b in range(m)))
    valg = ADAlgebra(m, tuple("k%d" % (i + 1) for i in range(m)),
                     BilinearOp(m, tuple(vs)), BilinearOp(m, tuple(vp)), ealg.field)

    datum = CrossedDatum(alg_a, valg, fams["lsucc"], fams["rsucc"],
                         fams["lprec"], fams["rprec"], om[1], om[2])
    return SectionResult(datum, vbasis, hom)


def factorize(calg: ADAlgebra, basis_a, basis_b):
    """Split an algebra through two complementary sub-basis index sets.

    Checks that both spans are subalgebras, reads off the eight action
    families from the mixed products, runs the matched-pair check, and
    verifies that the bicrossed product reproduces the original tables.
    Returns (MatchedPairDatum or None, Report).
    """
    out = Report("factorization")
    basis_a, basis_b = tuple(basis_a), tuple(basis_b)
    idx = sorted(basis_a + basis_b)
    if idx != list(range(calg.dim)) or set(basis_a) & set(basis_b):
        raise InputError("basis index sets must partition 0..%d" % (calg.dim - 1))
    pos_a = {g: i for i, g in enumerate(basis_a)}
    pos_b = {g: i for i, g in enumerate(basis_b)}
    n, m = len(basis_a), len(basis_b)

    def split(vec, witness, tag):
        va = [0] * n
        vb = [0] * m
        for g, c in enumerate(vec):
            if not c:
                continue
            if g in pos_a:
                va[pos_a[g]] = c
            else:
                vb[pos_b[g]] = c
        return tuple(va), tuple(vb)

    def sub_table(op, ids, pos, dim, tag):
        table = []
        for gi in ids:
            row = []
            for gj in ids:
                vec = op.table[gi][gj]
                inside = [0] * dim
                for g, c in enumerate(vec):
                    if not c:
                        continue
                    if g in pos:
                        inside[pos[g]] = c
                    else:
                        out.record("closure", (gi, gj), tuple(vec), (),
                                   "%s-span is not a subalgebra" % tag)
                        return None
                row.append(tuple(inside))
            table.append(tuple(row))
        return BilinearOp(dim, tuple(table))

    ops = {}
    for name, op in (("as", calg.succ), ("ap", calg.prec)):
        ta = sub_table(op, basis_a, pos_a, n, "A")
        tb = sub_table(op, basis_b, pos_b, m, "B")
        if ta is None or tb is None:
            return None, out
        ops[name] = (ta, tb)
    alg_a = ADAlgebra(n, tuple(calg.basis[g] for g in basis_a),
                      ops["as"][0], ops["ap"][0], calg.field)
    alg_b = ADAlgebra(m, tuple(calg.basis[g] for g in basis_b),
                      ops["as"][1], ops["ap"][1], calg.field)

    fams = {}
    for lname, rname, l2name, r2name, op in (("l1s", "r1s", "l2s", "r2s", calg.succ),
                                             ("l1p", "r1p", "l2p", "r2p", calg.prec)):
        m1 = [[[0] * m for _ in range(m)] for _ in range(n)]
        m2 = [[[0] * m for _ in range(m)] for _ in range(n)]
        m3 = [[[0] * n for _ in range(n)] for _ in range(m)]
        m4 = [[[0] * n for _ in range(n)] for _ in range(m)]
        for i, gx in enumerate(basis_a):
            for j, gb in enumerate(basis_b):
                va, vb = split(op.table[gx][gb], (gx, gb), "x o b")
                for r in range(m):
                    m1[i][r][j] = vb[r]        # l1(x)b: fibre part of x o b
                for r in range(n):
                    m4[j][r][i] = va[r]        # r2(b)x: base part of x o b
                va2, vb2 = split(op.table[gb][gx], (gb, gx), "b o x")
                for r in range(m):
                    m2[i][r][j] = vb2[r]       # r1(x)b: fibre part of b o x
                for r in range(n):
                    m3[j][r][i] = va2[r]       # l2(b)x: base part of b o x
        fams[lname] = ActionFamily(n, m, tuple(tuple(tuple(r) for r in mm) for mm in m1))
        fams[rname] = ActionFamily(n, m, tuple(tuple(tuple(r) for r in mm) for mm in m2))
        fams[l2name] = ActionFamily(m, n, tuple(tuple(tuple(r) for r in mm) for mm in m3))
        fams[r2name] = ActionFamily(m, n, tuple(tuple(tuple(r) for r in mm) for mm in m4))

    datum = MatchedPairDatum(alg_a, alg_b, fams["l1s"], fams["r1s"], fams["l1p"],
                             fams["r1p"], fams["l2s"], fams["r2s"], fams["l2p"],
                             fams["r2p"])
    mp = check_matched_pair(datum)
    out.absorb(mp)
    if not mp.passed:
        return None, out
    rebuilt = bicrossed_product(datum, precheck=False)
    perm = tuple(basis_a) + tuple(basis_b)
    for op_r, op_c, tag in ((rebuilt.succ, calg.succ, ">"), (rebuilt.prec, calg.prec, "<")):
        for i in range(calg.dim):
            for j in range(calg.dim):
                got = op_r.table[i][j]
                want = op_c.table[perm[i]][perm[j]]
                want_p = [0] * calg.dim
                for g, c in enumerate(want):
                    want_p[perm.index(g)] = c
                out.require_equal("reconstruction", (i, j), tuple(got), tuple(want_p),
                                  "bicrossed product does not reproduce %s" % tag)
    if not out.passed:
        return None, out
    return datum, out
