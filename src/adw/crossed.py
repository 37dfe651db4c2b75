"""Crossed products, non-abelian cocycles, and the automorphism-lifting story.

A crossed datum couples a base algebra A to a fibre algebra V through four
actions of A on V and two cocycles omega1, omega2 : A x A -> V.  The crossed
product lives on A (+) V:

    (x,a) > (y,b) = (x>y, omega1(x,y) + l>(x)b + r>(y)a + a >_V b)
    (x,a) < (y,b) = (x<y, omega2(x,y) + l<(x)b + r<(y)a + a <_V b)

The compatibility system C1-C11 is the component-wise content of the defining
identities on basis triples (C1/C8 sit on pure-A triples since the cocycles
make those products leak into V); C12 says the fibre is itself an algebra.

Two corrections to commonly printed forms, both forced by the product: the
third expression of C4 carries ``a <_V omega(x,y)`` (not ``>_V``), and the
vector relation of the rank-one model below reads A.theta0 = D.epsilon0
(without a sign).  See the equation catalogue in the README.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .actions import ActionFamily
from .algebra import (ADAlgebra, BilinearOp, change_basis, check_homomorphism, check_parts,
                      is_automorphism, lowered_walk)
from .fields import RATIONALS, InputError
from .linalg import (block_matrix, has_shape, identity, inverse, mat_add, mat_neg, matmul,
                     matvec, solve_linear, sparse_nullspace, sparse_solve, unit, vadd,
                     vneg, vsub, zeros_mat)
from .reporting import PreconditionFailure, Report
from .tensors import table_cells
from .unified import (adapted_blocks, check_glued, glue_parts, glued_algebra, split_slots,
                      unglue, unglue_parts)


@dataclass(frozen=True)
class CrossedDatum:
    """A pre-crossed datum; also serves as a non-abelian 2-cocycle record."""

    algebra: ADAlgebra    # the base A
    valgebra: ADAlgebra   # the fibre V with its two products
    lsucc: ActionFamily
    rsucc: ActionFamily
    lprec: ActionFamily
    rprec: ActionFamily
    omega1: BilinearOp  # A x A -> V
    omega2: BilinearOp

    PARTS = (("algebra", "algebra", "algebra", "A", ""),
             ("valgebra", "valgebra", "algebra", "V", ""),
             *((k, k, "family", "AV", place) for k, place in (
                 ("lsucc", "l>"), ("rsucc", "r>"), ("lprec", "l<"), ("rprec", "r<"))),
             ("omega1", "omega1", "cocycle", "AV", ">"), ("omega2", "omega2", "cocycle", "AV", "<"))
    __post_init__ = check_parts
    glued, unglued = glue_parts, classmethod(unglue_parts)

    @staticmethod
    def split(algebra: ADAlgebra, valgebra: ADAlgebra,
              lsucc=None, rsucc=None, lprec=None, rprec=None) -> "CrossedDatum":
        n, m = algebra.dim, valgebra.dim
        z = ActionFamily.zero(n, m)
        return CrossedDatum(algebra, valgebra, lsucc or z, rsucc or z,
                            lprec or z, rprec or z,
                            BilinearOp.zero(n, m), BilinearOp.zero(n, m))

    @property
    def vdim(self) -> int:
        return self.valgebra.dim

    def fibre_abelian(self) -> bool:
        field = self.algebra.field  # a plain int is read mod p
        return self.valgebra.succ.is_zero(field) and self.valgebra.prec.is_zero(field)


# V-component slots of the defining identities; A-components are either the
# base algebra's own axioms (pure-A triples, a precondition) or vanish.
_A1_CROSSED = {
    ("A", "A", "A"): (None, "C1"),
    ("A", "A", "V"): (None, "C2"),
    ("A", "V", "A"): (None, "C3"),
    ("V", "A", "A"): (None, "C4"),
    ("A", "V", "V"): (None, "C5"),
    ("V", "A", "V"): (None, "C6"),
    ("V", "V", "A"): (None, "C7"),
}
_A2_CROSSED = {
    ("A", "A", "A"): (None, "C8"),
    ("A", "A", "V"): (None, "C9"),
    ("A", "V", "A"): (None, "C9"),
    ("V", "A", "A"): (None, "C10"),
    ("A", "V", "V"): (None, "C10"),
    ("V", "A", "V"): (None, "C11"),
    ("V", "V", "A"): (None, "C11"),
}
_CROSSED_SLOTS = split_slots(_A1_CROSSED, _A2_CROSSED)


def check_crossed_system(d: CrossedDatum, exhaustive: bool = False,
                         include_fibre: bool = True) -> Report:
    """C1-C11 by basis enumeration; C12 (the fibre axioms) via the algebra checker.

    Passing is equivalent to the crossed product being anti-dendriform.  With
    ``include_fibre`` False only the local system C1-C11 is checked, which is
    the non-abelian 2-cocycle condition for a fixed fibre algebra.
    """
    if not d.algebra.is_verified:
        raise PreconditionFailure("base algebra is not anti-dendriform", d.algebra.check())
    out = Report("crossed system", exhaustive=exhaustive, field=d.algebra.field)
    if include_fibre:
        fib = d.valgebra.check(exhaustive=exhaustive)
        fib.violations = [replace(v, equation="C12", detail="fibre algebra violates %s: %s"
                                  % (v.equation, v.detail)) for v in fib.violations]
        out.absorb(fib)
    walk = lowered_walk(out, *d.glued())
    check_glued(walk, d.algebra.dim, d.vdim, _CROSSED_SLOTS)
    return out.absorb(walk.part)


def check_cocycle(d: CrossedDatum, exhaustive: bool = False) -> Report:
    """The local system C1-C11 only (fibre algebra taken as given)."""
    return check_crossed_system(d, exhaustive=exhaustive, include_fibre=False)


def crossed_product(d: CrossedDatum, precheck: bool = True) -> ADAlgebra:
    """The algebra on A (+) V defined by the datum; refuses failing data."""
    if precheck:
        rep = check_crossed_system(d)
        if not rep.passed:
            raise PreconditionFailure("datum is not a crossed system", rep)
    return glued_algebra(d)


# ---------------------------------------------------------------------------
# cocycles from sections

def cocycle_from_section(ealg: ADAlgebra, proj, section) -> "SectionResult":
    """Extract the crossed datum of a quotient map from a chosen section.

    ``proj`` is the (quotient x ambient) matrix of an algebra epimorphism p,
    ``section`` an (ambient x quotient) right inverse s.  The base algebra is
    the quotient with its induced products; the fibre is ker(p) with its
    restricted products (ker p is an ideal when p is a homomorphism).  Both,
    with the actions and cocycles, are read off the ambient tables in the
    basis adapted to s(A) (+) ker p; the homomorphism check runs over pairs
    of ambient basis vectors.
    """
    ne = ealg.dim
    na = len(proj)
    if not (has_shape(section, ne, na) and has_shape(proj, na, ne)):
        raise InputError("projection/section shapes do not match the ambient algebra")
    if matmul(proj, section) != identity(na, ealg.field.one):
        raise InputError("p o s is not the identity on the quotient")
    vbasis, (succ, prec) = adapted_blocks(ealg, section, proj)

    # the quotient products are the A-parts of s(x) o s(y)
    alg_a = ADAlgebra(na, tuple("q%d" % (i + 1) for i in range(na)),
                      BilinearOp(na, succ[0][0]), BilinearOp(na, prec[0][0]), ealg.field)
    hom = check_homomorphism(Report("projection homomorphism", field=ealg.field), "p-hom",
                             proj, ealg, alg_a)
    if not hom.passed:
        raise PreconditionFailure("projection is not an algebra homomorphism", hom)
    m = ne - na
    valg = ADAlgebra(m, tuple("k%d" % (i + 1) for i in range(m)),
                     BilinearOp(m, succ[3][1]), BilinearOp(m, prec[3][1]), ealg.field)
    return SectionResult(CrossedDatum.unglued(alg_a, valg, succ, prec), vbasis, hom)


@dataclass(frozen=True)
class SectionResult:
    datum: CrossedDatum
    v_basis: tuple
    report: Report


# ---------------------------------------------------------------------------
# cohomologous cocycles

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
    if not has_shape(zeta, m, n):
        raise InputError("zeta must be a %dx%d matrix" % (m, n))
    out = Report("cohomologous cocycles", exhaustive=exhaustive, field=c1.algebra.field)
    out.require_equal("N5", (), c1.valgebra.succ.table, c2.valgebra.succ.table,
                      "fibre > products differ")
    out.require_equal("N5", (), c1.valgebra.prec.table, c2.valgebra.prec.table,
                      "fibre < products differ")
    vs, vp = c2.valgebra.succ, c2.valgebra.prec
    # (label, unprimed and primed family, fibre product, zeta(x) on the right, detail)
    actions = (("N1", c1.lprec, c2.lprec, vp, False, "l<(x)a != l'<(x)a + zeta(x) <_V a"),
               ("N1", c1.lsucc, c2.lsucc, vs, False, "l>(x)a != l'>(x)a + zeta(x) >_V a"),
               ("N2", c1.rprec, c2.rprec, vp, True, "r<(x)a != r'<(x)a + a <_V zeta(x)"),
               ("N2", c1.rsucc, c2.rsucc, vs, True, "r>(x)a != r'>(x)a + a >_V zeta(x)"))
    # (label, unprimed cocycle and product, primed cocycle, families and fibre product)
    cocycles = (("N3", c1.omega1, c1.algebra.succ, c2.omega1, c2.lsucc, c2.rsucc, vs,
                 "omega1 + zeta(x>y) mismatch"),
                ("N4", c1.omega2, c1.algebra.prec, c2.omega2, c2.lprec, c2.rprec, vp,
                 "omega2 + zeta(x<y) mismatch"))

    def z(x):
        return matvec(zeta, x)

    for x in range(n):
        ex = unit(n, x)
        zx = z(ex)
        for a in range(m):
            ea = unit(m, a)
            for eq, fam1, fam2, prod, right, detail in actions:
                out.require_equal(eq, (x, a), fam1.act(ex, ea),
                                  vadd(fam2.act(ex, ea),
                                       prod.apply(ea, zx) if right else prod.apply(zx, ea)),
                                  detail)
    for x in range(n):
        ex = unit(n, x)
        zx = z(ex)
        for y in range(n):
            ey = unit(n, y)
            zy = z(ey)
            for eq, om1, prod1, om2, lf, rf, prod, detail in cocycles:
                out.require_equal(eq, (x, y), vadd(om1.table[x][y], z(prod1.table[x][y])),
                                  vadd(om2.table[x][y], lf.act(ex, zy), rf.act(ey, zx),
                                       prod.apply(zx, zy)), detail)
    return out


def find_cohomologous_zeta(c1: CrossedDatum, c2: CrossedDatum):
    """Abelian fast path: solve N1-N4 for zeta when the fibre products vanish.

    With an abelian fibre N1/N2 force equal action families and N3/N4 are
    linear in zeta.  Returns (zeta, report); zeta is None when the system is
    infeasible (a certificate that no witness exists).
    """
    n, m = c1.algebra.dim, c1.vdim
    if not (c1.fibre_abelian() and c2.fibre_abelian()):
        raise InputError("fast path requires abelian fibres on both sides")
    probe = Report("cohomologous fast path")
    residues = c1.algebra.field.residues  # a plain int is read mod p
    for name in ("lsucc", "rsucc", "lprec", "rprec"):
        if residues(getattr(c1, name).table) != residues(getattr(c2, name).table):
            probe.record(name, (), (), (),
                         "action families differ with abelian fibre: no witness exists")
            return None, probe
    rows, rhs = [], []
    systems = [(om1.table, om2.table, table_cells(prod.table), _rows_of(lf), _rows_of(rf))
               for om1, om2, lf, rf, prod in (
                   (c1.omega1, c2.omega1, c2.lsucc, c2.rsucc, c1.algebra.succ),
                   (c1.omega2, c2.omega2, c2.lprec, c2.rprec, c1.algebra.prec))]
    for x in range(n):
        for y in range(n):
            for om1, om2, cells, lrows, rrows in systems:
                rows += _derivation_rows(cells[x][y], lrows[x], rrows[y], x, y, n)
                rhs += vsub(om2[x][y], om1[x][y])
    sol = sparse_solve(rows, rhs, m * n, c1.algebra.field)
    probe.tick(len(rows))
    if sol is None:
        probe.record("N3-N4", (), (), (), "linear system infeasible: no witness exists")
        return None, probe
    zeta = tuple(tuple(sol[0][r * n + c] for c in range(n)) for r in range(m))
    return zeta, probe


def _rows_of(fam):
    """rows[x][r] lists the nonzero (s, coefficient) of row r of the matrix
    of l(e_x), s ascending, read off the cells of the family's table."""
    m = fam.out_dim
    out = []
    for cols in table_cells(fam.table):
        rows = [[] for _ in range(m)]
        for s, cell in enumerate(cols):
            for r, v in cell:
                rows[r].append((s, v))
        out.append(rows)
    return out


def _derivation_rows(sxy, lrows, rrows, x, y, n):
    """The rows of phi(x o y) - l(x)phi(y) - r(y)phi(x) in the unknowns
    phi[r][c] (column r*n + c), one per fibre coordinate r, as dicts
    {column: coefficient} over an int 0; ``sxy`` lists the nonzero (c, v)
    of x o y, and ``lrows`` and ``rrows`` the rows of the matrices l(x) and
    r(y) (``_rows_of``)."""
    rows = []
    for r, (lrow, rrow) in enumerate(zip(lrows, rrows)):
        row = {r * n + c: v for c, v in sxy} if sxy else {}
        for s, v in lrow:
            k = s * n + y
            row[k] = row[k] - v if k in row else -v
        for s, v in rrow:
            k = s * n + x
            row[k] = row[k] - v if k in row else -v
        rows.append(row)
    return rows


def crossed_isomorphism_matrix(c: CrossedDatum, zeta):
    """Matrix of (x,a) -> (x, zeta(x) + a) on A (+) V coordinates."""
    one = c.algebra.field.one
    return block_matrix(identity(c.algebra.dim, one), 0, zeta, identity(c.vdim, one))


# ---------------------------------------------------------------------------
# the rank-one model: six-tuples of matrices

@dataclass(frozen=True)
class GH2Tuple:
    """Cocycle data of a one-dimensional abelian base acting on an abelian fibre.

    Encoded by matrices A, B, C, D (the four actions) and vectors theta0,
    epsilon0 (the two cocycle values).
    """

    n: int
    a: tuple
    b: tuple
    c: tuple
    d: tuple
    theta0: tuple
    epsilon0: tuple
    field: object = RATIONALS

    def __post_init__(self):
        for mname in ("a", "b", "c", "d"):
            if not has_shape(getattr(self, mname), self.n, self.n):
                raise InputError("matrix %s is not %dx%d" % (mname.upper(), self.n, self.n))
        if len(self.theta0) != self.n or len(self.epsilon0) != self.n:
            raise InputError("vectors must have length %d" % self.n)


def check_gh2_tuple(t: GH2Tuple, exhaustive: bool = False) -> Report:
    """The full relation list of the rank-one model.

    Derived from C1-C11 specialized to a one-dimensional abelian base and an
    abelian fibre; the vector chain ends in +D.epsilon0.
    """
    out = Report("rank-one cocycle relations", exhaustive=exhaustive, field=t.field)
    A, B, C, D = t.a, t.b, t.c, t.d
    th, ep = t.theta0, t.epsilon0
    zn = zeros_mat(t.n, t.n)
    soq = vadd(th, ep)
    AB = matmul(A, B)
    out.require_equal("A^2=0", (), matmul(A, A), zn)
    out.require_equal("C(A+C)=0", (), matmul(C, mat_add(A, C)), zn)
    out.require_equal("AB=DC", (), AB, matmul(D, C))
    out.require_equal("AB=-B(A+C)", (), AB, mat_neg(matmul(B, mat_add(A, C))))
    out.require_equal("AB=-C(B+D)", (), AB, mat_neg(matmul(C, mat_add(B, D))))
    out.require_equal("D^2=0", (), matmul(D, D), zn)
    out.require_equal("B(B+D)=0", (), matmul(B, mat_add(B, D)), zn)
    out.require_equal("AC=0", (), matmul(A, C), zn)
    out.require_equal("DB=0", (), matmul(D, B), zn)
    out.require_equal("AD=DA", (), matmul(A, D), matmul(D, A))
    ath = matvec(A, th)
    out.require_equal("Ath=-B(th+ep)", (), ath, vneg(matvec(B, soq)))
    out.require_equal("Ath=-C(th+ep)", (), ath, vneg(matvec(C, soq)))
    out.require_equal("Ath=Dep", (), ath, matvec(D, ep))
    out.require_equal("Dth=Aep", (), matvec(D, th), matvec(A, ep))
    return out


def gh2_to_crossed(t: GH2Tuple) -> CrossedDatum:
    """The crossed datum of a six-tuple: 1-dim abelian base, abelian fibre."""
    base = ADAlgebra.zero(1, t.field)
    fibre = ADAlgebra.zero(t.n, t.field)
    return CrossedDatum(
        base, fibre,
        ActionFamily(1, t.n, (t.a,)), ActionFamily(1, t.n, (t.b,)),
        ActionFamily(1, t.n, (t.c,)), ActionFamily(1, t.n, (t.d,)),
        BilinearOp(1, ((tuple(t.theta0),),), t.n),
        BilinearOp(1, ((tuple(t.epsilon0),),), t.n),
    )


def gh2_tuples_cohomologous(t1: GH2Tuple, t2: GH2Tuple):
    """Decide theta0 - theta0' = (A+B)w, epsilon0 - epsilon0' = (C+D)w.

    Requires equal matrices.  Returns (w, report); w is None when no witness
    exists (the stacked linear system is infeasible).
    """
    out = Report("rank-one cohomologous test")
    if t1.n != t2.n:
        raise InputError("tuples have different sizes")
    for mname in ("a", "b", "c", "d"):
        if getattr(t1, mname) != getattr(t2, mname):
            out.record("matrices", (mname,), getattr(t1, mname), getattr(t2, mname),
                       "matrix %s differs: not cohomologous" % mname.upper())
            return None, out
    stacked = tuple(mat_add(t1.a, t1.b)) + tuple(mat_add(t1.c, t1.d))
    target = tuple(vsub(t1.theta0, t2.theta0)) + tuple(vsub(t1.epsilon0, t2.epsilon0))
    sol = solve_linear(stacked, target)
    out.tick(len(stacked))
    if sol is None:
        out.record("w-system", (), t1.theta0, t2.theta0,
                   "no w solves the cohomologous relations")
        return None, out
    return sol[0], out


# ---------------------------------------------------------------------------
# automorphism pairs, inducibility, Wells machinery

@dataclass(frozen=True)
class AutPair:
    alpha: tuple  # automorphism of the base A
    beta: tuple   # automorphism of the fibre B


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
    if not has_shape(phi, m, n):
        raise InputError("phi must be a %dx%d matrix" % (m, n))
    pre = check_aut_pair(c, pair)
    if not pre.passed:
        raise PreconditionFailure("not a pair of automorphisms", pre)
    out = Report("inducibility", exhaustive=exhaustive, field=c.algebra.field)
    al, be = pair.alpha, pair.beta
    vs, vp = c.valgebra.succ, c.valgebra.prec

    # (label, cocycle, base and fibre product, left and right families, detail)
    cocycles = (("Iam3", c.omega1, c.algebra.succ, vs, c.lsucc, c.rsucc,
                 "omega1 defect mismatch"),
                ("Iam4", c.omega2, c.algebra.prec, vp, c.lprec, c.rprec,
                 "omega2 defect mismatch"))

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
            for eq, om, prod, vprod, lf, rf, detail in cocycles:
                out.require_equal(eq, (x, y),
                                  vsub(matvec(be, om.table[x][y]), om.apply(ax, ay)),
                                  vadd(vprod.apply(phx, phy), vneg(ph(prod.table[x][y])),
                                       lf.act(ax, phy), rf.act(ay, phx)), detail)
    if out.passed:
        ext = crossed_product(c, precheck=False)
        gamma = lift_matrix(c, pair, phi)
        out.require_equal("gamma-aut", (), is_automorphism(ext, gamma), True,
                          "materialized lift is not an automorphism")
        ident = identity(n + m, c.algebra.field.one)
        pmat, imat = ident[:n], tuple(row[n:] for row in ident)
        out.require_equal("p.gamma=alpha.p", (), matmul(pmat, gamma), matmul(al, pmat))
        out.require_equal("gamma.i=i.beta", (), matmul(gamma, imat), matmul(imat, be))
    return out


def lift_matrix(c: CrossedDatum, pair: AutPair, phi):
    """gamma(x,a) = (alpha x, phi x + beta a) on A (+) B coordinates; phi may
    be 0."""
    return block_matrix(pair.alpha, 0, phi, pair.beta)


def transformed_cocycle(c: CrossedDatum, pair: AutPair, precheck: bool = True) -> CrossedDatum:
    """Conjugate a cocycle by a pair of automorphisms:

        l'(x)  = beta l(inv(alpha) x) inv(beta)     (all four families)
        om'(x,y) = beta om(inv(alpha) x, inv(alpha) y)

    that is, the crossed product carried along (alpha, beta): its tables in
    the basis (inv(alpha), inv(beta)), read back as a datum over A and V.
    """
    if precheck:
        pre = check_aut_pair(c, pair)
        if not pre.passed:
            raise PreconditionFailure("not a pair of automorphisms", pre)
    ainv = inverse(pair.alpha)
    binv = inverse(pair.beta)
    if ainv is None or binv is None:
        raise InputError("automorphism pair is singular")
    moved = change_basis(crossed_product(c, precheck=False),
                         lift_matrix(c, AutPair(ainv, binv), 0))
    ia, iv = range(c.algebra.dim), range(c.algebra.dim, moved.dim)
    return CrossedDatum.unglued(c.algebra, c.valgebra,
                                *(unglue(op.table, ia, iv) for op in (moved.succ, moved.prec)))


@dataclass(frozen=True)
class WellsRecord:
    """The class difference assigned to an automorphism pair."""

    original: CrossedDatum
    transformed: CrossedDatum
    vanishes: object        # True / False / None (undecided)
    zeta: object            # witness when vanishing is certified
    report: Report


def wells_map(c: CrossedDatum, pair: AutPair, zeta=None) -> WellsRecord:
    """Pair the conjugated cocycle against the original and decide vanishing.

    With a supplied zeta the witness is verified directly.  With an abelian
    fibre the linear fast path searches for a witness and its infeasibility
    certifies non-vanishing.  Otherwise the class is left undecided.
    """
    tc = transformed_cocycle(c, pair)
    if zeta is not None:
        rep = check_cocycles_cohomologous(tc, c, zeta)
        return WellsRecord(c, tc, rep.passed, zeta if rep.passed else None, rep)
    if c.fibre_abelian():
        found, rep = find_cohomologous_zeta(tc, c)
        return WellsRecord(c, tc, found is not None, found, rep)
    rep = Report("wells class (undecided)")
    rep.tick()
    return WellsRecord(c, tc, None, None, rep)


def phi_from_wells_witness(pair: AutPair, zeta):
    """Reconstruct the inducibility candidate phi = zeta o alpha from a witness."""
    return matmul(zeta, pair.alpha)


# ---------------------------------------------------------------------------
# non-abelian 1-cocycles

def z1_cocycles(c: CrossedDatum):
    """Exact basis of the space of 1-cocycles phi : A -> B.

    Constraints: phi(x) annihilates B under all four fibre products, and

        phi(x>y) = l>(x)phi(y) + r>(y)phi(x)
        phi(x<y) = l<(x)phi(y) + r<(y)phi(x)

    (the phi(x) o phi(y) terms vanish identically on the annihilation
    subspace, so the whole system is linear).  Returns a list of vdim x dim(A)
    matrices.
    """
    n, m = c.algebra.dim, c.vdim
    # the annihilation pattern of each (a, product, side, k): the nonzero
    # (r, coefficient) of coordinate k of e_r o e_a (left) or e_a o e_r
    # (right), r ascending; its row for x sits in the columns r*n + x
    patterns = []
    for op in (c.valgebra.succ, c.valgebra.prec):
        cells = table_cells(op.table)
        left, right = ([[[] for _ in range(m)] for _ in range(m)] for _ in range(2))
        for r in range(m):
            for a in range(m):
                for k, coef in cells[r][a]:
                    left[a][k].append((r, coef))
                for k, coef in cells[a][r]:
                    right[a][k].append((r, coef))
        patterns.append((left, right))
    (sl, sr), (pl, pr) = patterns
    ordered = [pat for a in range(m) for side in (sl, sr, pl, pr) for pat in side[a]]
    rows = []   # {column r*n + c of phi[r][c]: coefficient}, every other entry int 0
    for x in range(n):
        rows += [{r * n + x: coef for r, coef in pat} if pat else {} for pat in ordered]
    derivations = [(table_cells(prod.table), _rows_of(lf), _rows_of(rf))
                   for prod, lf, rf in ((c.algebra.succ, c.lsucc, c.rsucc),
                                        (c.algebra.prec, c.lprec, c.rprec))]
    for x in range(n):
        for y in range(n):
            for cells, lrows, rrows in derivations:
                rows += _derivation_rows(cells[x][y], lrows[x], rrows[y], x, y, n)
    basis = sparse_nullspace(rows, m * n, c.algebra.field)
    return [tuple(tuple(vec[r * n + cc] for cc in range(n)) for r in range(m))
            for vec in basis]
