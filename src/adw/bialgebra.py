"""Invariant forms, double constructions, D-bialgebras and Yang-Baxter machinery.

Coproducts are stored per basis element as order-2 tensors.  The
D-bialgebra equations (Ca1/Ca2, D1-D9, the coboundary coproducts CD1/CD2
and conditions CD3-CD10) are data, formulas in README's notation that
compile once into Python.  The Yang-Baxter residual of a tensor r is

    r_12 . r_13  +  r_23 > r_12  -  r_13 < r_23

with the leg conventions of the tensors module; r is a solution when the
residual vanishes identically.

The checks, the residual and the YE6 form of ``ybe search`` compute on plain
ints: ``field.lowering`` takes a check's inputs (tables, tensors r,
coproducts) together to int residues over GF(p), and over Q to ints scaled
by one d, the lcm of all their denominators.  A value of degree k in them
(an equation's degree: 2 for D1-D9 and Ca1/Ca2, 3 for CD3-CD6 and YE6, 4 for
CD7-CD10) compares at the scale d**k, and what leaves a check (a kept
violation, a residual cell, a form coefficient) is lifted.  The checks read
the tables as their lowered cells (``algebra.lowered_cells``), hold tensors
as cell maps, apply leg maps over nonzero cells only and contract tensors
grouped once by leg (``tensors``); only a kept violation is made dense
(``Report.require_cells``).
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from functools import cache, partial
from itertools import accumulate, groupby

from .actions import ActionFamily
from .algebra import (ADAlgebra, BilinearOp, check_anti_dendriform,
                      check_associative, lowered_cells, multiplication_operators)
from .fields import RATIONALS, InputError, PrimeField
from .linalg import _reduced, has_shape, inverse, matvec, shape, unit, vadd
from .matched import (AssocMatchedPair, assoc_bicrossed_product,
                      check_assoc_matched_pair)
from .reporting import PreconditionFailure, Report
from .reps import ADRep, dual_representation, semidirect_product, transposed
from .tensors import (C12_13, C13_23, C23_12, add_cells, add_contraction, add_first, add_last,
                      cell_map, cells_sum, flip, from_cells, legs, operators, t2_cells, t2_neg,
                      t2_zero, t3_from_entries, t3_is_zero, t3_reorder, table_cells, zeros)


# ---------------------------------------------------------------------------
# invariant bilinear forms

@dataclass(frozen=True)
class BilinearForm:
    dim: int
    gram: tuple

    def __post_init__(self):
        if not has_shape(self.gram, self.dim, self.dim):
            raise InputError("gram matrix is not %dx%d" % (self.dim, self.dim))

    def pair(self, u, v):
        return sum(u[i] * self.gram[i][j] * v[j]
                   for i in range(self.dim) for j in range(self.dim))


def check_connes_cocycle(op: BilinearOp, form: BilinearForm,
                         exhaustive: bool = False, field=RATIONALS) -> Report:
    """Symmetry plus the cyclic identity w(x.y,z) + w(y.z,x) + w(z.x,y) = 0,
    on an associative product, compared in ``field``."""
    if op.dim != form.dim:
        raise InputError("form and product have different dimensions")
    pre = check_associative(op, field=field)
    if not pre.passed:
        raise PreconditionFailure("product is not associative", pre)
    out = Report("commutative invariant cocycle", exhaustive=exhaustive, field=field)
    n = op.dim
    for i in range(n):
        for j in range(n):
            out.require_equal("sym", (i, j), form.gram[i][j], form.gram[j][i],
                              "form is not symmetric")
    for i in range(n):
        ei = unit(n, i)
        for j in range(n):
            ej = unit(n, j)
            for k in range(n):
                ek = unit(n, k)
                total = (form.pair(op.table[i][j], ek)
                         + form.pair(op.table[j][k], ei)
                         + form.pair(op.table[k][i], ej))
                out.require_equal("cyc", (i, j, k), total, 0,
                                  "cyclic sum does not vanish")
    return out


def derive_compatible_ad(op: BilinearOp, form: BilinearForm,
                         precheck: bool = True, field=RATIONALS) -> ADAlgebra:
    """Split an associative product along a nondegenerate cyclic form.

    The two products are defined by the pairings

        w(x > y, z) = -w(y, z.x)        w(x < y, z) = -w(x, y.z)

    and are recovered by applying the inverse gram matrix to the right-hand
    sides.  (Some presentations attach the two pairings to the opposite
    products; this assignment is the one under which the split structure on a
    double construction restricts to the original products on both halves,
    and it matches the computations in the source derivations.)  The output
    is verified anti-dendriform with sum equal to the input product, and is
    an algebra over ``field``, the field of the product and the form.
    """
    if op.dim != form.dim:
        raise InputError("form and product have different dimensions")
    ginv = inverse(form.gram)
    if ginv is None:
        raise PreconditionFailure("form is degenerate")
    if precheck:
        pre = check_connes_cocycle(op, form, field=field)
        if not pre.passed:
            raise PreconditionFailure("form is not a commutative invariant cocycle", pre)
    n, t = op.dim, op.table
    prec_t, succ_t = [], []
    for i in range(n):
        ei = unit(n, i)
        prow, srow = [], []
        for j in range(n):
            ej = unit(n, j)
            rhs_s = tuple(-form.pair(ej, t[k][i]) for k in range(n))
            rhs_p = tuple(-form.pair(ei, t[j][k]) for k in range(n))
            prow.append(matvec(ginv, rhs_p))
            srow.append(matvec(ginv, rhs_s))
        prec_t.append(tuple(prow))
        succ_t.append(tuple(srow))
    alg = ADAlgebra(n, tuple("e%d" % (i + 1) for i in range(n)),
                    BilinearOp(n, tuple(succ_t)), BilinearOp(n, tuple(prec_t)), field)
    post = Report("derived compatible structure", field=field)
    post.require_equal("sum", (), alg.assoc.table, op.table,
                       "derived > + < does not reproduce the product")
    post.absorb(check_anti_dendriform(alg))
    if not post.passed:
        raise PreconditionFailure("derived structure failed verification", post)
    return alg


# ---------------------------------------------------------------------------
# double construction

@dataclass(frozen=True)
class DoubleConstruction:
    matched: AssocMatchedPair
    matched_report: Report
    assembled: BilinearOp          # associative product on A (+) A*
    form: BilinearForm             # the hyperbolic pairing
    form_report: Report
    passed: bool


def build_double_construction(alg: ADAlgebra, dual_alg: ADAlgebra) -> DoubleConstruction:
    """Glue an algebra and a dual-space algebra along negated transposes.

    The candidate associative matched pair is

        l1 = -R<*,  r1 = -L>*   (from the first algebra)
        l2 = -R<*,  r2 = -L>*   (from the second, acting back)

    On success the glued associative product on A (+) A* carries the
    hyperbolic symmetric form, which is verified to be a commutative
    invariant cocycle.
    """
    if alg.dim != dual_alg.dim:
        raise InputError("dual-space algebra must have the same dimension")
    for a, tag in ((alg, "first"), (dual_alg, "second")):
        if not a.is_verified:
            raise PreconditionFailure("%s algebra is not anti-dendriform" % tag, a.check())
    n = alg.dim
    ops_a = multiplication_operators(alg)
    ops_b = multiplication_operators(dual_alg)
    l1 = transposed(ops_a.rprec).neg()
    r1 = transposed(ops_a.lsucc).neg()
    l2 = transposed(ops_b.rprec).neg()
    r2 = transposed(ops_b.lsucc).neg()
    amp = AssocMatchedPair(alg.assoc, dual_alg.assoc, l1, r1, l2, r2, alg.field)
    mrep = check_assoc_matched_pair(amp)
    one = alg.field.one
    gram = tuple(tuple(one if abs(r - c) == n else 0 for c in range(2 * n))
                 for r in range(2 * n))
    form = BilinearForm(2 * n, gram)
    if not mrep.passed:
        return DoubleConstruction(amp, mrep, BilinearOp.zero(2 * n), form,
                                  Report("skipped"), False)
    big = assoc_bicrossed_product(amp)
    frep = check_connes_cocycle(big, form, field=alg.field)
    return DoubleConstruction(amp, mrep, big, form, frep,
                              mrep.passed and frep.passed)


# ---------------------------------------------------------------------------
# coalgebras and D-bialgebras

@dataclass(frozen=True)
class CoproductPair:
    """Coproducts D>(e_k), D<(e_k) with scalars in ``field`` (unchecked:
    GF(p) elements under the default Q are read in GF(p))."""

    dim: int
    dsucc: tuple  # per basis element: an order-2 tensor
    dprec: tuple
    field: object = RATIONALS

    def __post_init__(self):
        for part in (self.dsucc, self.dprec):
            if len(part) != self.dim or not all(has_shape(t, self.dim, self.dim) for t in part):
                raise InputError("coproduct tables do not match dimension %d" % self.dim)

    @staticmethod
    def zero(dim):
        z = tuple(t2_zero(dim) for _ in range(dim))
        return CoproductPair(dim, z, z)

    @staticmethod
    def from_entries(dim, succ_entries, prec_entries, field=RATIONALS):
        dims = (dim, dim, dim)
        return CoproductPair(dim, t3_from_entries(dims, succ_entries, "coproduct entry"),
                             t3_from_entries(dims, prec_entries, "coproduct entry"), field)


# A coproduct part D(e_k) = sum part[k][i][j] e_i (x) e_j is the product
# table t[i][j][k] on the dual space read with its last index first: the one
# reordering (2, 0, 1) takes a table to its coproduct part, (1, 2, 0) back.
TO_COP, TO_TABLE = (2, 0, 1), (1, 2, 0)


def dualize_algebra(alg: ADAlgebra) -> CoproductPair:
    """Transpose structure constants into coproducts on the same space."""
    return CoproductPair(alg.dim, t3_reorder(alg.succ.table, TO_COP),
                         t3_reorder(alg.prec.table, TO_COP), alg.field)


def algebra_from_coproducts(cp: CoproductPair, field=RATIONALS) -> ADAlgebra:
    """Transpose coproducts into products on the dual space."""
    n = cp.dim
    return ADAlgebra(n, tuple("f%d" % (i + 1) for i in range(n)),
                     BilinearOp(n, t3_reorder(cp.dsucc, TO_TABLE)),
                     BilinearOp(n, t3_reorder(cp.dprec, TO_TABLE)), field)


# ---------------------------------------------------------------------------
# the bialgebra equations as data

# An equation is (label, degree, indices, formula, detail).  A check compares
# its sides at every basis index x, or pair (x, y), in the part
# ``at(degree)``; a kept violation carries ``detail``, or with None the first
# broken link of the chain of sides.  A side sums signed terms: factors
# applied right to left to a base tensor, a bracketed sum or a contraction
# u_ab o v_cd (``tensors``) against > (succ), < (prec) or . (dot).  A factor
# sums leg maps M (x) I or I (x) M (one I more on order 3), M one of L>, R>,
# L<, R<, L., R. at x, y or a cell such as x<y, a product of them, or a
# coproduct Ds, Dp or D = Ds + Dp read as a map, with A (x) B meaning
# (A (x) I)(I (x) B).  tau X is the twist of the legs of X, and a coproduct
# written without an index is read at x.
COALGEBRA = (
    ("Ca1", 2, "x", "(Ds (x) I)Dp = (I (x) Dp)Ds", None),
    ("Ca2", 2, "x", "(I (x) Ds)Ds = -(D (x) I)Ds = (Dp (x) I)Dp = -(I (x) D)Dp", None))
D_EQUATIONS = (
    ("D1", 2, "xy", "Dp(x.y) = (R.(y) (x) I)Dp(x) - (I (x) L>(x))Dp(y)",
     "coproduct of x.y mismatch (prec side)"),
    ("D2", 2, "xy", "Ds(x.y) = (I (x) L.(x))Ds(y) - (R<(y) (x) I)Ds(x)",
     "coproduct of x.y mismatch (succ side)"),
    ("D3", 2, "xy", "(I (x) R.(y) + L>(y) (x) I)Ds(x) - (R<(x) (x) I + I (x) L.(x))tau Dp(y)"
     " = 0", "mixed compatibility does not vanish"),
    ("D4", 2, "xy", "D(x<y) = (R<(y) (x) I)D(x) - (I (x) L<(x))Ds(y)",
     "coproduct of x<y mismatch"),
    ("D5", 2, "xy", "D(x>y) = (I (x) L>(x))D(y) - (R>(y) (x) I)Dp(x)",
     "coproduct of x>y mismatch"),
    ("D6", 2, "xy", "(L>(x) (x) I - I (x) R<(x))D(y) + (R>(y) (x) I)tau Ds(x)"
     " - (I (x) L<(y))tau Dp(x) = 0", "mixed compatibility does not vanish"))
# D7-D9: D1-D3 for the transposed structure on the dual space
D_DUAL = tuple(("D%d" % (k + 7),) + e[1:] for k, e in enumerate(D_EQUATIONS[:3]))
# Ds(x) and Dp(x) of a coboundary pair
COBOUNDARY = (("CD1", 2, "x", "-(R<(x) (x) I + I (x) L.(x))r>", None),
              ("CD2", 2, "x", "(R.(x) (x) I + I (x) L>(x))r<", None))
COBOUNDARY_CONDITIONS = (
    ("CD3", 3, "xy", "(R<(x) (x) I + I (x) L.(x))(L>(y) (x) I + I (x) R.(y))(r> + tau r<) = 0",
     "CD3 does not vanish"),
    ("CD4", 3, "xy", "(I (x) L>(x<y) - R<(y) (x) L>(x) + R<(x<y) (x) I + R<(x.y) (x) I)"
     "(r> - r<) = 0", "CD4 does not vanish"),
    ("CD5", 3, "xy", "(I (x) L>(x>y) + I (x) L>(x.y) + R<(x>y) (x) I - R<(y) (x) L>(x))"
     "(r> - r<) = 0", "CD5 does not vanish"),
    ("CD6", 3, "xy", "(L>(x) (x) I)[(R>(y) (x) I)(r< + tau r>) - (I (x) L<(y))(r> + tau r<)"
     " - (R<(y) (x) I + I (x) L>(y))(r> - r<)] + (I (x) R<(x))[(I (x) L<(y))(r> + tau r<)"
     " + (I (x) L>(y))(r> - r<)] - (R>(y) (x) R<(x))(r< + tau r>) + (R<(y) (x) R<(x))(r> - r<)"
     " = 0", "CD6 does not vanish"),
    ("CD7", 4, "x", "(R<(x) (x) I (x) I - I (x) I (x) L>(x))"
     "(r>_12 < r<_13 + r<_23 . r>_12 + r>_13 > r<_23) = 0", "CD7 does not vanish"),
    ("CD8", 4, "x", "(r> - r<)_12 < [(R<(x) (x) I)r>]_13 + [(R<(x) (x) I)r>]_23 > (r> - r<)_12"
     " + (I (x) I (x) L.(x))(r>_13 . r>_23 - r<_12 . r>_13 - r>_23 > r<_12 + r>_12 < r>_13"
     " + r>_23 . r>_12) + (R<(x) (x) I (x) I)(r>_13 . r>_23 + r>_23 < r>_12 - r<_12 > r>_13)"
     " = 0", "CD8 does not vanish"),
    ("CD9", 4, "x", "[(I (x) L>(x))r<]_13 > (r< - r>)_23 + (r< - r>)_23 < [(I (x) L>(x))r<]_12"
     " + (R.(x) (x) I (x) I)(r<_12 . r<_13 - r>_23 < r<_12 - r<_13 . r>_23 + r<_23 . r<_12"
     " + r<_13 > r<_23) + (I (x) I (x) L>(x))(r<_12 . r<_13 + r<_23 > r<_12 - r<_13 < r>_23)"
     " = 0", "CD9 does not vanish"),
    ("CD10", 4, "x", "-[(R<(x) (x) I)r>]_23 < r>_12 + [(R<(x) (x) I)r<]_23 < r<_12"
     " + (R<(x) (x) I (x) I)(r>_13 . r>_23 + r>_23 < r>_12 - r<_12 > r<_13)"
     " - (I (x) I (x) L>(x))(r<_12 . r<_13 + r<_23 > r<_12 - r>_13 < r>_23) = 0",
     "CD10 does not vanish"))

_TOKEN = re.compile(r"[LR][<>.]\([^)]*\)|D[sp]?|I|\(x\)")
_CONTRACTION = re.compile(r"(.+?)_(12|13|23)([<>.])(.+)_(12|13|23)$")
_HOW = {"1213": C12_13, "1323": C13_23, "2312": C23_12}
# the kernels the compiled runs call, read from this module's globals as they run
_KERNELS = (add_cells, add_contraction, add_first, add_last, cell_map, flip, from_cells, legs,
            operators, partial, t2_cells, zeros)


def _depths(s):
    """The bracket depth after each character of s."""
    return list(accumulate((c in "([") - (c in ")]") for c in s))


def _signed(s):
    """[(sign, summand)] of s, cut at each + and - outside brackets."""
    depth = _depths(s)
    cuts = [0] + [k for k in range(1, len(s)) if s[k] in "+-" and not depth[k]] + [len(s)]
    return [(-1 if s[a] == "-" else 1, s[a:b].lstrip("+-")) for a, b in zip(cuts, cuts[1:])]


def _node(s):
    """The node of a sum.  A term's factors, its leading brackets that hold
    only leg maps, apply right to left to its operand."""
    terms = []
    for sign, term in _signed(s):
        factors = []
        while term[0] == "(":
            k = _depths(term).index(0) + 1
            if "(x)" not in term[:k] or _TOKEN.sub("", term[1:k - 1]).strip("+-"):
                break
            factors.insert(0, term[1:k - 1])
            term = term[k:]
        node = _operand(term)
        for factor in factors:
            node = _sum([(a, _chain(product, node)) for a, product in _signed(factor)])
        terms.append((sign, node))
    return _sum(terms)


def _chain(product, node):
    """A product of leg maps applied to node: A (x) B is (A (x) I)(I (x) B),
    and the maps on one leg apply right to left."""
    on_leg = [[]]
    for token in _TOKEN.findall(product):
        if token == "(x)":
            on_leg.append([])
        elif token != "I":
            on_leg[-1].append(token.partition("("))
    for leg, maps in ((-1, on_leg[-1]), (0, on_leg[0])):
        for op, _, at in reversed(maps):
            node = _map(op, at[:-1] or None, leg, node)
    return node


def _operand(s):
    """The node of a bracketed sum, a contraction or a base tensor."""
    if s[0] in "([" and _depths(s).index(0) == len(s) - 1:
        return _node(s[1:-1])
    contraction = _CONTRACTION.match(s)
    if contraction:
        u, a, o, v, b = contraction.groups()
        u, v = _operand(u), _operand(v)
        return _make("con", "<%s_%s%s%s_%s>" % (u[4], a, o, v[4], b), u[2] + v[2], 3,
                     _HOW[a + b], o, u, v)
    name, _, at = s.partition("(")
    at = at[:-1] or ("x" if name in ("Ds", "Dp") else None)
    return _make("base", "%s(%s)" % (name, at), at or "", 2, name, at)


def _map(op, at, leg, node):
    return _make("map", "%s(%s)%d{%s}" % (op, at, leg, node[4]), (at or "") + node[2],
                 node[3] + (op[0] == "D"), op, at, leg, node)


def _sum(terms):
    if len(terms) == 1 and terms[0][0] == 1:
        return terms[0][1]
    return _make("sum", "[%s]" % "".join("%+d%s" % (a, c[4]) for a, c in terms),
                 "".join(c[2] for _, c in terms), terms[0][1][3], tuple(terms))


def _make(kind, text, reads, order, *data):
    """The node (kind, key, reads, order, text, *data): reads is the indices
    it reads ('', 'x', 'y' or 'xy'), order its tensor order, and key its
    text, with y read as x when it reads y alone, so that the two twins
    share one value."""
    reads = "".join(v for v in "xy" if v in reads)
    return (kind, text.replace("y", "x") if reads == "y" else text, reads, order, text) + data


@cache
def _compiled(equations):
    """For each run of equations that share their indices, (run, degrees):
    run(parts, B, T, n) checks them at every basis index x, or pair (x, y),
    in turn through ``parts``, on the base tensors B and product cells T of
    one input.  The run is Python making one kernel call per term, as a
    hand-written check would; a node that is a value (a leg map's operand,
    a contraction's factor, a map at a product cell, a node the run reads
    twice) is computed once for the indices it reads, before the loops if
    it reads fewer than the run."""
    runs = []
    for indices, group in groupby(equations, lambda e: e[2]):
        run = []
        for label, degree, _, formula, detail in group:
            sides = [side for side in formula.replace(" ", "").split("=") if side != "0"]
            run.append((label, degree, [_node(side) for side in sides], detail or tuple(sides)))
        runs.append((_compiled_run(run, indices == "xy"), [e[1] for e in run]))
    return runs


def _compiled_run(equations, pairs):
    """The run function of compiled equations (label, degree, sides, detail):
    the statements ``pre`` before its loops, then at each index or pair the
    statements ``top``, which make the values that read every loop index,
    and ``body``, which evaluates each equation's sides into accumulators
    and compares them."""
    pre, top, body, names, index = [], [], [], {}, {"x": "i", "y": "j"}

    def nodes(node):
        """The keys of node and of every node under it."""
        yield node[1]
        for child in ([c for _, c in node[5]] if node[0] == "sum" else
                      node[7:9] if node[0] == "con" else node[8:9] if node[0] == "map" else ()):
            yield from nodes(child)

    uses = Counter(key for *_, sides, _ in equations for side in sides for key in nodes(side))

    def local(expr, where=pre):
        """A name bound to expr once, in pre or in top."""
        if expr not in names:
            names[expr] = "u%d" % len(names)
            where.append("%s = %s" % (names[expr], expr))
        return names[expr]

    def base(name):
        """The cells of B[name], of the twist tau X of X, or of D = Ds + Dp."""
        if name.startswith("tau"):
            x = base(name[3:])
            return local("[flip(t, n) for t in %s]" % x if name[3] == "D" else "flip(%s, n)" % x)
        if name == "D":
            return local("[add_cells(cell_map(a), b) for a, b in zip(%s, %s)]"
                         % (base("Ds"), base("Dp")))
        return local(("[t2_cells(t) for t in B[%r]]" if name[0] == "D" else "t2_cells(B[%r])")
                     % name)

    def value(node, k=None):
        """The value of node at (e_i, e_j), or at e_k."""
        kind, key, reads = node[:3]
        if kind == "base" and len(reads) < 2:
            return base(node[5]) + ("[%s]" % index[reads] if reads else "")
        listed = pairs and len(reads) == 1
        if key not in names:
            names[key] = name = "v%d" % len(names)
            lines = ["a = cell_map()"] + add(node, "a", 1, False) + ["%s = a" % name]
            if listed:
                lines = ["%s = []" % name, "for i in range(n):", "    j = i"] + [
                    "    " + s.replace("\n", "\n    ") for s in lines[:-1] + [name + ".append(a)"]]
            (top if reads and not listed else pre).extend(lines)
        return names[key] + ("[%s]" % (k or index[reads]) if listed else "")

    def add(node, acc, sign, share=True):
        """Statements adding sign node at (e_i, e_j) into acc; a node that the
        run reads twice is added as its value."""
        kind = node[0]
        if share and uses[node[1]] > 1 and kind != "base":
            return ["add_cells(%s, %s, %d)" % (acc, value(node), sign)]
        if kind == "sum":
            return [s for a, child in node[5] for s in add(child, acc, sign * a)]
        if kind == "con":
            how, o, u, v = node[5:]
            su, sv = (1, sign) if len(v[2]) < len(u[2]) else (sign, 1)
            u, v = (local("legs(%s, n, n)" % (value(t) if s == 1 else
                                              "add_cells(cell_map(), %s, -1)" % value(t)),
                          top if t[2] else pre) for t, s in ((u, su), (v, sv)))
            return ["add_contraction(%s, %s, %s, %s, %r)" % (acc, u, v, local("T[%r]" % o), how)]
        at = node[6]
        if at and len(at) == 3:
            piece = base(node[5]) if kind == "base" else value(_map(node[5], "x", *node[7:]), "k")
            return ["for k, c in %s[i][j]:\n    add_cells(%s, %s, %d * c)"
                    % (local("T[%r]" % at[1]), acc, piece + "[k]" * (kind == "base"), sign)]
        if kind == "base":
            return ["add_cells(%s, %s, %d)" % (acc, value(node), sign)]
        op, at, leg, child = node[5:]
        cols = local("[list(c.items()) for c in %s]" % base(op) if op[0] == "D" else
                     "operators(T[%r])[%d]" % (op[1], op[0] == "R"))
        cols += "[%s]" % index[at] if at else ""
        if leg == 0:
            return ["add_first(%s, %s, %s, %s, %d)"
                    % (acc, cols, value(child), local("n ** %d" % (child[3] - 1)), sign)]
        return ["add_last(%s, %s, %s, n, %s, %d)"
                % (acc, cols, value(child), "n * n" if op[0] == "D" else "n", sign)]

    for m, (label, _, sides, detail) in enumerate(equations):
        accs = ["a%d" % s for s in range(len(sides))]
        for acc, side in zip(accs, sides):
            body.append("%s = %s" % (acc, "cell_map()" if len(sides) == 1 and side[3] == 3 else
                                     "zeros(%s)" % local("n ** %d" % side[3])))
            body += add(side, acc, 1)
        body.append("parts[%d](%r, (i%s), (%s,), %s, %r)"
                    % (m, label, ", j" if pairs else ",", ", ".join(accs),
                       local("partial(from_cells, (n,) * %d)" % sides[0][3]), detail))
    inner = "\n" + "    " * (1 + pairs)
    lines = pre + ["for i in range(n):", "    for j in range(n):" if pairs else "    j = i"]
    lines += [inner[1:] + s.replace("\n", inner) for s in top + body]
    scope = {}
    exec("def run(parts, B, T, n):" + "".join(
        "\n    " + line for s in lines for line in s.split("\n")), globals(), scope)
    return scope["run"]


def _check(out, at, n, checks):
    """Check each (equations, bases, product cells), each equation in the
    part ``at(degree)``, and absorb the parts into out in their first order."""
    parts = {}
    for equations, bases, tables in checks:
        for run, degrees in _compiled(equations):
            for d in degrees:
                if d not in parts:
                    parts[d] = out.part(at(d))
            run([parts[d].require_cells for d in degrees], bases, tables, n)
    for part in parts.values():
        out.absorb(part)
    return out


def check_coalgebra(cp: CoproductPair, exhaustive: bool = False) -> Report:
    """Ca1 and Ca2 (``COALGEBRA``) at every basis element, on the coproducts
    lowered; a kept violation is lifted."""
    lower, at = cp.field.lowering(cp.dsucc, cp.dprec)
    return _check(Report("coalgebra axioms", exhaustive=exhaustive, field=cp.field), at, cp.dim,
                  [(COALGEBRA, {"Ds": lower(cp.dsucc), "Dp": lower(cp.dprec)}, {})])


def check_d_bialgebra(alg: ADAlgebra, cp: CoproductPair, exhaustive: bool = False) -> Report:
    """D1-D6 (``D_EQUATIONS``) and D7-D9 (``D_DUAL``, reported rather than
    presumed redundant) at every basis pair, on the tables and coproducts
    lowered together; a kept violation is lifted.  The coalgebra axioms are
    a separate precondition (check_coalgebra)."""
    if alg.dim != cp.dim:
        raise InputError("algebra and coproducts have different dimensions")
    lower, at = lowering = alg.field.lowering(alg.succ.table, alg.prec.table,
                                              cp.dsucc, cp.dprec)
    ds, dp = lower(cp.dsucc), lower(cp.dprec)
    tables = lowered_cells(lowering, alg.succ.table, alg.prec.table)
    dual = table_cells(t3_reorder(ds, TO_TABLE)), table_cells(t3_reorder(dp, TO_TABLE))
    dual += (cells_sum(*dual, at(1).residues),)
    dual_cop = [t3_reorder(lower(op.table), TO_COP) for op in (alg.succ, alg.prec)]
    checks = [(D_EQUATIONS, {"Ds": ds, "Dp": dp}, dict(zip("><.", tables))),
              (D_DUAL, dict(zip(("Ds", "Dp"), dual_cop)), dict(zip("><.", dual)))]
    return _check(Report("D-bialgebra compatibilities", exhaustive=exhaustive, field=alg.field),
                  at, alg.dim, checks)


# ---------------------------------------------------------------------------
# coboundary pairs

def coboundary_coproducts(alg: ADAlgebra, rsucc, rprec) -> CoproductPair:
    """The coboundary coproduct pair of two tensors (``COBOUNDARY``), on the
    scalars as given."""
    n = alg.dim
    if not (has_shape(rsucc, n, n) and has_shape(rprec, n, n)):
        raise InputError("tensors must be %dx%d" % (n, n))
    ds, dp = [], []

    def keep(part):
        """In place of a report part: keep each value, dense."""
        return lambda label, witness, values, dense, detail: part.append(dense(values[0]))

    (run, _), = _compiled(COBOUNDARY)
    run([keep(ds), keep(dp)], {"r>": rsucc, "r<": rprec},
        {o: table_cells(op.table) for o, op in zip("><.", (alg.succ, alg.prec, alg.assoc))}, n)
    return CoproductPair(n, tuple(ds), tuple(dp), alg.field)


def check_coboundary_conditions(alg: ADAlgebra, rsucc, rprec,
                                exhaustive: bool = False) -> Report:
    """The conditions CD3-CD10 (``COBOUNDARY_CONDITIONS``) of a coboundary
    pair, on the tables and both tensors lowered together; a kept violation
    is lifted.  Passing is equivalent to the pair meeting the coalgebra
    axioms and D1-D6, which the test suite exercises."""
    n = alg.dim
    if not (has_shape(rsucc, n, n) and has_shape(rprec, n, n)):
        raise InputError("tensors must be %dx%d" % (n, n))
    lower, at = lowering = alg.field.lowering(alg.succ.table, alg.prec.table, rsucc, rprec)
    tables = lowered_cells(lowering, alg.succ.table, alg.prec.table)
    return _check(Report("coboundary conditions", exhaustive=exhaustive, field=alg.field), at, n,
                  [(COBOUNDARY_CONDITIONS, {"r>": lower(rsucc), "r<": lower(rprec)},
                    dict(zip("><.", tables)))])


# ---------------------------------------------------------------------------
# the Yang-Baxter residual and r-to-map conversion

def adybe_residual(alg: ADAlgebra, r):
    """The residual tensor  r_12 . r_13  +  r_23 > r_12  -  r_13 < r_23.

    A cell that no term reaches is int 0.  Over Q, when some table
    coefficient is a ``Fraction``, the terms run on the tables and r lowered
    together (degree 1 in the tables and 2 in r) and each reached cell is
    lifted to a ``Fraction``, the type it has on such tables as given.  Over
    GF(p), and on plain-int tables, the terms run on the scalars as given.
    """
    n = _ye6_dim(alg, r)
    tables = (alg.succ.table, alg.prec.table)
    # over Q every coefficient is an int or a Fraction
    has_fraction = not isinstance(alg.field, PrimeField) and any(
        x and type(x) is not int for t in tables for row in t for v in row if any(v) for x in v)
    if not has_fraction:
        return from_cells((n, n, n), _residual_cells(
            r, r, *map(table_cells, (alg.assoc.table,) + tables)))
    r, tables, at = _lowered_ye6(alg, r)
    return from_cells((n, n, n), _residual_cells(r, r, *tables), at(3).lift)


def _ye6_dim(alg, r):
    n = alg.dim
    if not has_shape(r, n, n):
        raise InputError("tensor must be %dx%d" % (n, n))
    return n


def _lowered_ye6(alg, r):
    """(r, (dot, succ, prec), at): r and the tables' cells lowered together."""
    lower, at = lowering = alg.field.lowering(alg.succ.table, alg.prec.table, r)
    succ, prec, dot = lowered_cells(lowering, alg.succ.table, alg.prec.table)
    return lower(r), (dot, succ, prec), at


def _residual_cells(u, v, dot, succ, prec):
    """B(u, v) = u_12 . v_13 + u_23 > v_12 - u_13 < v_23 on the cells of given
    product tables as {cell: value}, over the cells some term reached
    (``add_contraction``); the residual of r is B(r, r)."""
    n = len(u)
    cells, u2 = cell_map(), legs(t2_cells(u), n, n)
    v2 = u2 if v is u else legs(t2_cells(v), n, n)
    add_contraction(cells, u2, v2, dot, C12_13)
    add_contraction(cells, u2, v2, succ, C23_12)
    add_contraction(cells, legs(t2_cells(t2_neg(u)), n, n), v2, prec, C13_23)
    return cells


def is_ybe_solution(alg: ADAlgebra, r) -> bool:
    """True iff the residual vanishes in the algebra's field.  The terms run
    on the tables and r lowered together, and no tensor is built."""
    _ye6_dim(alg, r)
    r, tables, at = _lowered_ye6(alg, r)
    residues = at(3).residues
    return not any(residues(x) for x in _residual_cells(r, r, *tables).values())


def t_r(r):
    """The map from the dual space induced by a tensor: w* -> sum <w*,a_i> b_i.

    In dual/primal coordinate bases this is the transpose of r's coefficient
    matrix, so a skew tensor yields a skew-symmetric matrix.
    """
    na, nb = shape(r)
    return tuple(tuple(r[k][j] for k in range(na)) for j in range(nb))


def is_skew(r) -> bool:
    na, nb = shape(r)
    return na == nb and all(r[i][j] == -r[j][i] for i in range(na) for j in range(na))


# ---------------------------------------------------------------------------
# O-operators

def _check_o_rows(out, tmat, m, rows):
    """T(u) o T(v) = T(l(Tu)v + r(Tv)u) for every basis pair (u, v) of V and,
    within a pair, every row (label, product o, family l, family r, detail)."""
    n = len(tmat)
    tcols = [tuple(tmat[r][c] for r in range(n)) for c in range(m)]
    for u in range(m):
        tu, eu = tcols[u], unit(m, u)
        for v in range(m):
            tv, ev = tcols[v], unit(m, v)
            for label, op, left, right, detail in rows:
                out.require_equal(label, (u, v), op.apply(tu, tv),
                                  matvec(tmat, vadd(left.act(tu, ev), right.act(tv, eu))),
                                  detail)
    return out


def check_o_operator(tmat, rep: ADRep, exhaustive: bool = False) -> Report:
    """T(u) o T(v) = T(l_o(T u)v + r_o(T v)u) for both products, all pairs."""
    n, m = rep.algebra.dim, rep.mod_dim
    if not has_shape(tmat, n, m):
        raise InputError("operator matrix must be %dx%d" % (n, m))
    alg = rep.algebra
    return _check_o_rows(Report("O-operator identities", exhaustive=exhaustive,
                                field=alg.field), tmat, m, (
        ("O-succ", alg.succ, rep.lsucc, rep.rsucc, "T(u)>T(v) != T(l>(Tu)v + r>(Tv)u)"),
        ("O-prec", alg.prec, rep.lprec, rep.rprec, "T(u)<T(v) != T(l<(Tu)v + r<(Tv)u)")))


def check_o_operator_assoc(tmat, op: BilinearOp, left: ActionFamily,
                           right: ActionFamily, exhaustive: bool = False,
                           field=RATIONALS) -> Report:
    """Associative-mode identity T(u).T(v) = T(l(Tu)v + r(Tv)u), compared in
    ``field``."""
    n, m = op.dim, left.mod_dim
    if not has_shape(tmat, n, m):
        raise InputError("operator matrix must be %dx%d" % (n, m))
    if left.alg_dim != n or right.alg_dim != n or right.mod_dim != m:
        raise InputError("action families do not match the product and module")
    return _check_o_rows(Report("associative O-operator identity", exhaustive=exhaustive,
                                field=field), tmat, m, (
        ("O-assoc", op, left, right, "T(u).T(v) != T(l(Tu)v + r(Tv)u)"),))


def tr_ybe_identity(alg: ADAlgebra, r, exhaustive: bool = False) -> Report:
    """The operator form of the Yang-Baxter condition for skew r:

        T(u).T(v) + T(R<*(Tu)v + L>*(Tv)u) = 0

    i.e. T_r is an associative-mode O-operator for (-R<*, -L>*) on the dual.
    """
    ops = multiplication_operators(alg)
    return check_o_operator_assoc(t_r(r), alg.assoc,
                                  transposed(ops.rprec).neg(),
                                  transposed(ops.lsucc).neg(),
                                  exhaustive=exhaustive, field=alg.field)


@dataclass(frozen=True)
class LiftResult:
    ambient: ADAlgebra
    r: tuple
    residual: tuple
    is_solution: bool
    operator_report: Report
    consistent: bool


def o_operator_to_ybe(tmat, rep: ADRep) -> LiftResult:
    """Lift an operator to a skew tensor on the split extension by the dual module.

    The ambient algebra is A semidirect V* (via the dual representation); the
    operator embeds as sum T(v_i) (x) v_i* and r = T - tau(T).  The final
    verdict records whether zero residual agrees with the operator check.
    """
    n, m = rep.algebra.dim, rep.mod_dim
    if not has_shape(tmat, n, m):
        raise InputError("operator matrix must be %dx%d" % (n, m))
    drep = dual_representation(rep)
    ambient = semidirect_product(drep, precheck=False)
    big = n + m
    t = {p * big + n + i: x for p in range(n) for i, x in enumerate(tmat[p]) if x}
    r = from_cells((big, big), add_cells(cell_map(t), flip(t, big), -1))
    residual = adybe_residual(ambient, r)
    orep = check_o_operator(tmat, rep)
    solved = t3_is_zero(ambient.field.residues(residual))
    return LiftResult(ambient, r, residual, solved, orep, solved == orep.passed)


# ---------------------------------------------------------------------------
# exhaustive skew search

def skew_tensor_from_uppers(n, uppers):
    """Build a skew tensor from its strictly-upper entries (row-major)."""
    t = [[0] * n for _ in range(n)]
    it = iter(uppers)
    for i in range(n):
        for j in range(i + 1, n):
            v = next(it)
            t[i][j] = v
            t[j][i] = -v
    return tuple(tuple(row) for row in t)


def _ye6_form(alg: ADAlgebra, k):
    """YE6 at r = sum_a x_a S_a as a quadratic form in the upper entries x_a.

    S_a is the skew unit tensor of the a-th strictly-upper entry (row-major).
    The residual is B(r, r) (``_residual_cells``), so a component has c_aa =
    B(S_a, S_a) and c_ab = B(S_a, S_b) + B(S_b, S_a), a < b.  On the
    ``lowered`` tables, the signed w-bit digit a + k b of B(sum_a S_a 2**(w a),
    sum_b S_b 2**(w k b)) is B(S_a, S_b) (Kronecker substitution): a column
    of S_a has one nonzero, +-1, so a cell of B(S_a, S_b) sums at most one
    entry of each table, and M < 2**(w-1) for M the sum of their largest
    sizes.  Returns, for each t < k, the components whose highest variable
    is x_t, by lowest (b, a) and then by cell, each a list of (a, b, c) in
    increasing (b, a), c = ``alg.field.residues`` of the coefficient, nonzero.
    """
    n, field = alg.dim, alg.field
    lowering = field.lowering(alg.succ.table, alg.prec.table)
    succ, prec, dot = tables = lowered_cells(lowering, alg.succ.table, alg.prec.table)
    # over Q a coefficient, of degree 1 in the tables, is lifted
    reduce = (lambda c, p=field.p: c % p) if isinstance(field, PrimeField) \
        else lowering[1](1).lift
    top = sum(max((abs(c) for row in t for cell in row for _, c in cell), default=0)
              for t in tables)
    w = top.bit_length() + 1
    shifts, half, mask = range(0, w * k * k, w), 1 << w - 1, (1 << w) - 1
    # with half added to every digit, each reads as a plain w-bit field
    offset = sum(half << s for s in shifts)
    u, v = (skew_tensor_from_uppers(n, [1 << w * step * a for a in range(k)]) for step in (1, k))
    pairs = [(a, b) for b in range(k) for a in range(b + 1)]
    comps = []
    for key, x in _residual_cells(u, v, dot, succ, prec).items():
        x += offset
        d = [(x >> s & mask) - half for s in shifts]
        terms = [(a, b, c) for a, b in pairs
                 if (c := reduce(d[a + k * b] + d[b + k * a] if a < b else d[a + k * a]))]
        if terms:
            comps.append((terms[0][1], terms[0][0], key, terms))
    by_last = [[] for _ in range(k)]
    for *_, terms in sorted(comps):
        by_last[terms[-1][1]].append(terms)
    return by_last


def _ye6_rows(alg: ADAlgebra, k):
    """The rows the skew search prunes on: the pivot rows of the reduced
    echelon form (``_reduced``) of ``_ye6_form``'s components, over the
    monomials highest variable first, (k-1, k-1), (k-2, k-1), ..., (0, 0),
    filed by their pivot's highest variable and listed as the components
    are.  A component of level t combines rows of levels <= t only, so the
    rows vanish on every solution and drop a prefix no later."""
    field = alg.field
    monomials = [(a, b) for b in reversed(range(k)) for a in reversed(range(b + 1))]
    column = {m: c for c, m in enumerate(monomials)}
    rows = [({column[a, b]: c for a, b, c in terms}, 0)
            for level in _ye6_form(alg, k) for terms in level]
    levels = [[] for _ in range(k)]
    for (entries, _), pivot in zip(*_reduced(rows, len(monomials), field)):
        levels[monomials[pivot][1]].append(
            [(*monomials[c], field.residues(x)) for c, x in entries.items() if x])
    return levels


def search_skew_solutions(alg: ADAlgebra, values):
    """Exhaust skew tensors with upper entries drawn from ``values``.

    Returns the solutions of the Yang-Baxter condition in deterministic
    lexicographic grid order (the order of ``itertools.product(values,
    repeat=k)`` over the k = n(n-1)/2 strictly-upper entries), each built from
    the caller's own value objects.  Every value and every nonzero table
    coefficient must be an int or an element of ``alg.field``.

    YE6 is expanded once into echelon rows (``_ye6_rows``); the walk assigns
    the upper entries in order and drops a prefix as soon as a row whose
    variables are all assigned is nonzero.  Over GF(p) it computes with int
    residues mod p, so an int is read mod p.  Dimensions above 4 are refused:
    the grid grows as len(values)**(n(n-1)/2).
    """
    n = alg.dim
    if n > 4:
        raise InputError("skew search supports dimension <= 4")
    field = alg.field
    p = field.p if isinstance(field, PrimeField) else 0
    # coerce raises InputError on a value outside the field; ADAlgebra has
    # already checked the table coefficients
    values = list(values)
    xs = [field.residues(field.coerce(x)) for x in values]
    k = n * (n - 1) // 2
    levels = _ye6_rows(alg, k)
    found, row, picks = [], [None] * k, [None] * k

    def walk(t):
        if t == k:
            found.append(skew_tensor_from_uppers(n, [values[i] for i in picks]))
            return
        for i, x in enumerate(xs):
            row[t] = x
            for terms in levels[t]:
                s = sum([c * row[a] * row[b] for a, b, c in terms])
                if s % p if p else s:
                    break
            else:
                picks[t] = i
                walk(t + 1)

    walk(0)
    return found
