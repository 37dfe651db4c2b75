"""The map layer as it stood before ``check_homomorphism``, kept as an oracle.

The equivalence, cohomologous-cocycle and inducibility checks, the
conjugated cocycle, the dense homomorphism test and the three block-matrix
builders, verbatim: every check writes each of its equation rows by hand,
``is_homomorphism`` compares raw values with ``!=``, and
``transformed_cocycle`` conjugates the actions and cocycles with its own
loops instead of carrying the crossed product along (alpha, beta).
``test_maps_differential`` compares them with the library versions.  Do not
optimise or refactor them.
"""

from __future__ import annotations

from adw.actions import ActionFamily
from adw.algebra import ADAlgebra, BilinearOp
from adw.crossed import AutPair, CrossedDatum, crossed_product
from adw.fields import InputError
from adw.linalg import (identity, inverse, mat_add, matmul, matvec, shape, unit,
                        vadd, vneg, vsub, vzero, zeros_mat)
from adw.reporting import PreconditionFailure, Report
from adw.unified import EquivWitness, ExtendingDatum
from .frozen_reps import mat_scale


def is_homomorphism(phi, src: ADAlgebra, dst: ADAlgebra) -> bool:
    """phi: dst.dim x src.dim matrix; checks phi(x o y) = phi(x) o phi(y) for both products."""
    for op_s, op_d in ((src.succ, dst.succ), (src.prec, dst.prec)):
        for i in range(src.dim):
            ci = tuple(phi[r][i] for r in range(dst.dim))
            for j in range(src.dim):
                cj = tuple(phi[r][j] for r in range(dst.dim))
                if matvec(phi, op_s.table[i][j]) != op_d.apply(ci, cj):
                    return False
    return True


def is_isomorphism(phi, src: ADAlgebra, dst: ADAlgebra) -> bool:
    return inverse(phi) is not None and is_homomorphism(phi, src, dst)


def is_automorphism(alg: ADAlgebra, m) -> bool:
    return is_isomorphism(m, alg, alg)


def check_equivalence(d1: ExtendingDatum, d2: ExtendingDatum, w: EquivWitness,
                      cohomologous: bool = False, exhaustive: bool = False) -> Report:
    """Verify the morphism equations h1-h10 for psi(x,a) = (x + zeta(a), eta(a)).

    ``d1`` is the source structure, ``d2`` the target (primed) one.  In
    equivalence mode eta must be invertible; in cohomologous mode eta must be
    the identity.  h5's displayed form does not typecheck in the source
    presentation; it is implemented in the shape forced by the morphism
    property (see the equation catalogue).
    """
    if d1.algebra.dim != d2.algebra.dim or d1.vdim != d2.vdim:
        raise InputError("data live over different (A, V) shapes")
    if d1.algebra.succ.table != d2.algebra.succ.table or \
       d1.algebra.prec.table != d2.algebra.prec.table:
        raise InputError("data have different base algebras")
    n, m = d1.algebra.dim, d1.vdim
    zeta, eta = w.zeta, w.eta
    if len(zeta) != n or len(zeta[0]) != m or len(eta) != m or len(eta[0]) != m:
        raise InputError("witness shapes do not match (dim A, dim V)")
    mode = "cohomologous" if cohomologous else "equivalence"
    if cohomologous:
        if eta != identity(m, d1.algebra.field.one):
            raise PreconditionFailure("cohomologous mode requires eta = id")
    elif inverse(eta) is None:
        raise PreconditionFailure("equivalence mode requires an invertible eta")

    out = Report("extending-structure %s" % mode, exhaustive=exhaustive,
                 field=d1.algebra.field)
    alg = d1.algebra

    def zv(a):
        return matvec(zeta, a)

    def ev(a):
        return matvec(eta, a)

    for x in range(n):
        ex = unit(n, x)
        for a in range(m):
            ea = unit(m, a)
            eta_a = ev(ea)
            zeta_a = zv(ea)
            # h1/h2: eta intertwines the A-on-V actions
            out.require_equal("h1", (x, a), ev(d1.lsucc.act(ex, ea)),
                              d2.lsucc.act(ex, eta_a), "eta(l>(x)a) != l'>(x)eta(a)")
            out.require_equal("h1", (x, a), ev(d1.rsucc.act(ex, ea)),
                              d2.rsucc.act(ex, eta_a), "eta(r>(x)a) != r'>(x)eta(a)")
            out.require_equal("h2", (x, a), ev(d1.lprec.act(ex, ea)),
                              d2.lprec.act(ex, eta_a), "eta(l<(x)a) != l'<(x)eta(a)")
            out.require_equal("h2", (x, a), ev(d1.rprec.act(ex, ea)),
                              d2.rprec.act(ex, eta_a), "eta(r<(x)a) != r'<(x)eta(a)")
            # h3-h6: zeta against the V-on-A actions
            out.require_equal("h3", (x, a), zv(d1.lsucc.act(ex, ea)),
                              vadd(alg.succ.apply(ex, zeta_a),
                                   vneg(d1.mu_succ.act(ea, ex)),
                                   d2.mu_succ.act(eta_a, ex)),
                              "zeta(l>(x)a) != x>zeta(a) - mu>(a)x + mu'>(eta a)x")
            out.require_equal("h4", (x, a), zv(d1.rsucc.act(ex, ea)),
                              vadd(alg.succ.apply(zeta_a, ex),
                                   vneg(d1.rho_succ.act(ea, ex)),
                                   d2.rho_succ.act(eta_a, ex)),
                              "zeta(r>(x)a) != zeta(a)>x - rho>(a)x + rho'>(eta a)x")
            out.require_equal("h5", (x, a), zv(d1.lprec.act(ex, ea)),
                              vadd(alg.prec.apply(ex, zeta_a),
                                   vneg(d1.mu_prec.act(ea, ex)),
                                   d2.mu_prec.act(eta_a, ex)),
                              "zeta(l<(x)a) != x<zeta(a) - mu<(a)x + mu'<(eta a)x "
                              "[normalized reading]")
            out.require_equal("h6", (x, a), zv(d1.rprec.act(ex, ea)),
                              vadd(alg.prec.apply(zeta_a, ex),
                                   vneg(d1.rho_prec.act(ea, ex)),
                                   d2.rho_prec.act(eta_a, ex)),
                              "zeta(r<(x)a) != zeta(a)<x - rho<(a)x + rho'<(eta a)x")
    for a in range(m):
        ea = unit(m, a)
        eta_a, zeta_a = ev(ea), zv(ea)
        for b in range(m):
            eb = unit(m, b)
            eta_b, zeta_b = ev(eb), zv(eb)
            out.require_equal("h7", (a, b), ev(d1.succ_v.table[a][b]),
                              vadd(d2.succ_v.apply(eta_a, eta_b),
                                   d2.lsucc.act(zeta_a, eta_b),
                                   d2.rsucc.act(zeta_b, eta_a)),
                              "eta(a >_V b) mismatch")
            out.require_equal("h8", (a, b),
                              vadd(zv(d1.succ_v.table[a][b]), d1.varpi1.table[a][b]),
                              vadd(alg.succ.apply(zeta_a, zeta_b),
                                   d2.rho_succ.act(eta_a, zeta_b),
                                   d2.mu_succ.act(eta_b, zeta_a),
                                   d2.varpi1.apply(eta_a, eta_b)),
                              "zeta(a >_V b) + varpi1(a,b) mismatch")
            out.require_equal("h9", (a, b), ev(d1.prec_v.table[a][b]),
                              vadd(d2.prec_v.apply(eta_a, eta_b),
                                   d2.lprec.act(zeta_a, eta_b),
                                   d2.rprec.act(zeta_b, eta_a)),
                              "eta(a <_V b) mismatch")
            out.require_equal("h10", (a, b),
                              vadd(zv(d1.prec_v.table[a][b]), d1.varpi2.table[a][b]),
                              vadd(alg.prec.apply(zeta_a, zeta_b),
                                   d2.rho_prec.act(eta_a, zeta_b),
                                   d2.mu_prec.act(eta_b, zeta_a),
                                   d2.varpi2.apply(eta_a, eta_b)),
                              "zeta(a <_V b) + varpi2(a,b) mismatch")
    return out


def equivalence_morphism_matrix(d: ExtendingDatum, w: EquivWitness):
    """Matrix of psi(x,a) = (x + zeta(a), eta(a)) on A (+) V coordinates."""
    n, m = d.algebra.dim, d.vdim
    one = d.algebra.field.one
    rows = []
    for r in range(n):
        rows.append(tuple((one if r == c else 0) for c in range(n)) + tuple(w.zeta[r]))
    for r in range(m):
        rows.append(vzero(n) + tuple(w.eta[r]))
    return tuple(rows)


def check_cocycles_cohomologous(c1: CrossedDatum, c2: CrossedDatum, zeta,
                                exhaustive: bool = False) -> Report:
    """Verify N1-N5 for a supplied zeta : A -> V (a vdim x dim(A) matrix).

    ``c1`` is the unprimed system, ``c2`` the primed one:

        N1: l<(x) = l'<(x) + zeta(x) <_V -     and the > version
        N2: r<(x) = r'<(x) + - <_V zeta(x)     and the > version
        N3: omega1(x,y) + zeta(x>y) = omega1'(x,y) + l'>(x)zeta(y)
                                      + r'>(y)zeta(x) + zeta(x) >_V zeta(y)
        N4: the < version of N3
        N5: both fibres carry the same products
    """
    n, m = c1.algebra.dim, c1.vdim
    if (n, m) != (c2.algebra.dim, c2.vdim):
        raise InputError("cocycles live over different (A, V) shapes")
    if shape(zeta) != (m, n):
        raise InputError("zeta must be a %dx%d matrix" % (m, n))
    out = Report("cohomologous cocycles", exhaustive=exhaustive, field=c1.algebra.field)
    out.require_equal("N5", (), c1.valgebra.succ.table, c2.valgebra.succ.table,
                      "fibre > products differ")
    out.require_equal("N5", (), c1.valgebra.prec.table, c2.valgebra.prec.table,
                      "fibre < products differ")
    vsucc, vprec = c2.valgebra.succ, c2.valgebra.prec

    def z(x):
        return matvec(zeta, x)

    for x in range(n):
        ex = unit(n, x)
        zx = z(ex)
        for a in range(m):
            ea = unit(m, a)
            out.require_equal("N1", (x, a), c1.lprec.act(ex, ea),
                              vadd(c2.lprec.act(ex, ea), vprec.apply(zx, ea)),
                              "l<(x)a != l'<(x)a + zeta(x) <_V a")
            out.require_equal("N1", (x, a), c1.lsucc.act(ex, ea),
                              vadd(c2.lsucc.act(ex, ea), vsucc.apply(zx, ea)),
                              "l>(x)a != l'>(x)a + zeta(x) >_V a")
            out.require_equal("N2", (x, a), c1.rprec.act(ex, ea),
                              vadd(c2.rprec.act(ex, ea), vprec.apply(ea, zx)),
                              "r<(x)a != r'<(x)a + a <_V zeta(x)")
            out.require_equal("N2", (x, a), c1.rsucc.act(ex, ea),
                              vadd(c2.rsucc.act(ex, ea), vsucc.apply(ea, zx)),
                              "r>(x)a != r'>(x)a + a >_V zeta(x)")
    for x in range(n):
        ex = unit(n, x)
        zx = z(ex)
        for y in range(n):
            ey = unit(n, y)
            zy = z(ey)
            out.require_equal("N3", (x, y),
                              vadd(c1.omega1.table[x][y], z(c1.algebra.succ.table[x][y])),
                              vadd(c2.omega1.table[x][y], c2.lsucc.act(ex, zy),
                                   c2.rsucc.act(ey, zx), vsucc.apply(zx, zy)),
                              "omega1 + zeta(x>y) mismatch")
            out.require_equal("N4", (x, y),
                              vadd(c1.omega2.table[x][y], z(c1.algebra.prec.table[x][y])),
                              vadd(c2.omega2.table[x][y], c2.lprec.act(ex, zy),
                                   c2.rprec.act(ey, zx), vprec.apply(zx, zy)),
                              "omega2 + zeta(x<y) mismatch")
    return out


def crossed_isomorphism_matrix(c: CrossedDatum, zeta):
    """Matrix of (x,a) -> (x, zeta(x) + a) on A (+) V coordinates."""
    n, m = c.algebra.dim, c.vdim
    one = c.algebra.field.one
    rows = [tuple((one if r == c_ else 0) for c_ in range(n)) + vzero(m)
            for r in range(n)]
    rows += [tuple(zeta[r]) + tuple((one if r == c_ else 0) for c_ in range(m))
             for r in range(m)]
    return tuple(rows)


def check_aut_pair(c: CrossedDatum, pair: AutPair) -> Report:
    out = Report("automorphism pair", field=c.algebra.field)
    out.require_equal("alpha-aut", (), is_automorphism(c.algebra, pair.alpha), True,
                      "alpha is not an automorphism of the base")
    out.require_equal("beta-aut", (), is_automorphism(c.valgebra, pair.beta), True,
                      "beta is not an automorphism of the fibre")
    return out


def check_inducible(c: CrossedDatum, pair: AutPair, phi,
                    exhaustive: bool = False) -> Report:
    """The lifting criterion for (alpha, beta) with candidate phi : A -> B.

        Iam1: beta(l>(x)a) - l>(ax)beta(a) = phi(x) >_B beta(a)
              beta(r>(x)a) - r>(ax)beta(a) = beta(a) >_B phi(x)
        Iam2: the < versions
        Iam3: beta om1(x,y) - om1(ax,ay)
                  = phi(x)>_B phi(y) - phi(x>y) + l>(ax)phi(y) + r>(ay)phi(x)
        Iam4: the < version

    On success the lift gamma(x,a) = (alpha x, phi x + beta a) is materialized
    and re-verified as an automorphism of the crossed product commuting with
    the inclusion and projection.
    """
    n, m = c.algebra.dim, c.vdim
    if shape(phi) != (m, n):
        raise InputError("phi must be a %dx%d matrix" % (m, n))
    pre = check_aut_pair(c, pair)
    if not pre.passed:
        raise PreconditionFailure("not a pair of automorphisms", pre)
    out = Report("inducibility", exhaustive=exhaustive, field=c.algebra.field)
    al, be = pair.alpha, pair.beta
    vs, vp = c.valgebra.succ, c.valgebra.prec

    def ph(x):
        return matvec(phi, x)

    for x in range(n):
        ex = unit(n, x)
        ax = matvec(al, ex)
        phx = ph(ex)
        for a in range(m):
            ea = unit(m, a)
            ba = matvec(be, ea)
            for eq, fam, prod, flip in (("Iam1", c.lsucc, vs, False),
                                        ("Iam1", c.rsucc, vs, True),
                                        ("Iam2", c.lprec, vp, False),
                                        ("Iam2", c.rprec, vp, True)):
                lhs = vsub(matvec(be, fam.act(ex, ea)), fam.act(ax, ba))
                rhs = prod.apply(ba, phx) if flip else prod.apply(phx, ba)
                out.require_equal(eq, (x, a), lhs, rhs,
                                  "twisted action defect is not the phi-product")
    for x in range(n):
        ex = unit(n, x)
        ax = matvec(al, ex)
        phx = ph(ex)
        for y in range(n):
            ey = unit(n, y)
            ay = matvec(al, ey)
            phy = ph(ey)
            lhs1 = vsub(matvec(be, c.omega1.table[x][y]), c.omega1.apply(ax, ay))
            rhs1 = vadd(vs.apply(phx, phy), vneg(ph(c.algebra.succ.table[x][y])),
                        c.lsucc.act(ax, phy), c.rsucc.act(ay, phx))
            out.require_equal("Iam3", (x, y), lhs1, rhs1, "omega1 defect mismatch")
            lhs2 = vsub(matvec(be, c.omega2.table[x][y]), c.omega2.apply(ax, ay))
            rhs2 = vadd(vp.apply(phx, phy), vneg(ph(c.algebra.prec.table[x][y])),
                        c.lprec.act(ax, phy), c.rprec.act(ay, phx))
            out.require_equal("Iam4", (x, y), lhs2, rhs2, "omega2 defect mismatch")
    if out.passed:
        ext = crossed_product(c, precheck=False)
        gamma = lift_matrix(c, pair, phi)
        ok = is_automorphism(ext, gamma)
        out.require_equal("gamma-aut", (), ok, True,
                          "materialized lift is not an automorphism")
        one = c.algebra.field.one
        pmat = tuple(tuple(one if r == cc else 0 for cc in range(n + m)) for r in range(n))
        imat = tuple(tuple(one if r - n == cc else 0 for cc in range(m)) for r in range(n + m))
        out.require_equal("p.gamma=alpha.p", (), matmul(pmat, gamma), matmul(al, pmat))
        out.require_equal("gamma.i=i.beta", (), matmul(gamma, imat), matmul(imat, be))
    return out


def lift_matrix(c: CrossedDatum, pair: AutPair, phi):
    """gamma(x,a) = (alpha x, phi x + beta a) on A (+) B coordinates."""
    n, m = c.algebra.dim, c.vdim
    rows = [tuple(pair.alpha[r]) + vzero(m) for r in range(n)]
    rows += [tuple(phi[r]) + tuple(pair.beta[r]) for r in range(m)]
    return tuple(rows)


def transformed_cocycle(c: CrossedDatum, pair: AutPair, precheck: bool = True) -> CrossedDatum:
    """Conjugate a cocycle by a pair of automorphisms:

        l'(x)  = beta l(inv(alpha) x) inv(beta)     (all four families)
        om'(x,y) = beta om(inv(alpha) x, inv(alpha) y)
    """
    if precheck:
        pre = check_aut_pair(c, pair)
        if not pre.passed:
            raise PreconditionFailure("not a pair of automorphisms", pre)
    n, m = c.algebra.dim, c.vdim
    ainv = inverse(pair.alpha)
    binv = inverse(pair.beta)
    if ainv is None or binv is None:
        raise InputError("automorphism pair is singular")

    def conj_family(fam):
        mats = []
        for i in range(n):
            acc = zeros_mat(m, m)
            for k in range(n):
                if ainv[k][i]:
                    acc = mat_add(acc, mat_scale(ainv[k][i],
                                                 matmul(pair.beta, matmul(fam.mats[k], binv))))
            mats.append(acc)
        return ActionFamily(n, m, tuple(mats))

    def conj_cocycle(om):
        table = []
        for i in range(n):
            ai = tuple(ainv[r][i] for r in range(n))
            row = []
            for j in range(n):
                aj = tuple(ainv[r][j] for r in range(n))
                row.append(matvec(pair.beta, om.apply(ai, aj)))
            table.append(tuple(row))
        return BilinearOp(n, tuple(table), m)

    return CrossedDatum(c.algebra, c.valgebra,
                        conj_family(c.lsucc), conj_family(c.rsucc),
                        conj_family(c.lprec), conj_family(c.rprec),
                        conj_cocycle(c.omega1), conj_cocycle(c.omega2))
