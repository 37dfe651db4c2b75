"""Extending data and unified products.

An extending datum through a complement space V packs twelve components: four
actions of A on V (lsucc, rsucc, lprec, rprec), four actions of V on A
(rho_succ, mu_succ, rho_prec, mu_prec), two fold maps varpi1, varpi2 from
V x V into A, and two candidate products succ_v, prec_v on V.  The unified
product lives on A (+) V:

    (x,a) > (y,b) = (x>y + rho>(a)y + mu>(b)x + varpi1(a,b),
                     l>(x)b + r>(y)a + a >_V b)
    (x,a) < (y,b) = (x<y + rho<(a)y + mu<(b)x + varpi2(a,b),
                     l<(x)b + r<(y)a + a <_V b)

The compatibility system S1-S17 is exactly the component-wise content of the
defining identities on mixed basis triples; the checker evaluates those
components and labels each slot with its equation id.  Six further component
identities (the second defining identity on triples with two V-entries) carry
no printed number in the usual presentation and are labelled S19a-S19f here.
One layout glues every datum with a ``PARTS`` table (``glue_parts``,
``unglue_parts``, ``glued_algebra``).  The glued tables are lowered once per
check to their sparse cells (``lowered_walk``).  ``check_glued`` walks each
triple type by ``adw.algebra.walk_pairs``, and ``check_columns`` the module
columns, on the row tests of each identity and summand (``Walk.rows``): only
a broken slot that the report keeps is evaluated, a dense vector on A (+) V
summed by the one product kernel, its A and V components slices.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct
from operator import itemgetter

from .actions import ActionFamily
from .algebra import (AD_IDENTITIES, ASSOC, ADAlgebra, BilinearOp, assoc_pair, change_basis,
                      check_parts, lowered_walk, walk_pairs)
from .fields import InputError
from .linalg import (block_matrix, has_shape, identity, inverse, matmul, matvec, nullspace,
                     sparse_solve, unit, vadd, vneg, vzero)
from .reporting import PreconditionFailure, Report

A1_CHAIN_TERMS = ("u>(v>w)", "-(u.v)>w", "-u<(v.w)", "(u<v)<w")
A2_TERMS = tuple(("(u>v)<w", "u>(v<w) [%s-component]" % tag) for tag in "AV")
ASSOC_TERMS = tuple(("(uv)w", "u(vw) [%s component]" % tag) for tag in ("first", "second"))


# ---------------------------------------------------------------------------
# glued products on A (+) V: block-placed tables and one slot-labelled checker

def glue(na, nv, aa, av, va, vv):
    """Structure constants of a product on A (+) V, placed block by block.

    Each block is a pair (source of the A-part, source of the V-part); None
    marks a zero part.  With e_i in A and f_j in V:

        e_i o e_j = (aa[0][i][j], aa[1][i][j])          A x A -> A, V
        e_i o f_j = (av[0][j][i], av[1][i][j])          V x A -> A, A x V -> V
        f_i o e_j = (va[0][i][j], va[1][j][i])          V x A -> A, A x V -> V
        f_i o f_j = (vv[0][i][j], vv[1][i][j])          V x V -> A, V

    Every block is a ``BilinearOp.table``: an action family of V on A
    (av[0], va[0]) or of A on V (av[1], va[1]) is its table, so the action
    of one summand's e_k on the other's e_c is the cell [k][c].
    """
    za, zv = vzero(na), vzero(nv)

    def cell(table, i, j, zero):
        return zero if table is None else tuple(table[i][j])

    rows = []
    for i in range(na):
        rows.append(tuple(cell(aa[0], i, j, za) + cell(aa[1], i, j, zv) for j in range(na))
                    + tuple(cell(av[0], j, i, za) + cell(av[1], i, j, zv) for j in range(nv)))
    for i in range(nv):
        rows.append(tuple(cell(va[0], i, j, za) + cell(va[1], j, i, zv) for j in range(na))
                    + tuple(cell(vv[0], i, j, za) + cell(vv[1], i, j, zv) for j in range(nv)))
    return tuple(rows)


def unglue(table, ia, iv):
    """The blocks (aa, av, va, vv) of a table on A (+) V: the inverse of ``glue``.

    ``ia``/``iv`` list the coordinates of the A and V basis vectors, in
    order; the blocks come back in ``glue``'s argument layout, so
    ``glue(na, nv, *unglue(t, range(na), range(na, na + nv))) == t``.  Pure
    indexing: no entry is computed.
    """
    def cells(rows, cols, part, swapped=False):
        # cell [r][c] is the part of r o c, or of c o r when swapped
        return tuple(tuple(tuple((table[c][r] if swapped else table[r][c])[k] for k in part)
                           for c in cols) for r in rows)

    return ((cells(ia, ia, ia), cells(ia, ia, iv)),
            (cells(iv, ia, ia, True), cells(ia, iv, iv)),
            (cells(iv, ia, ia), cells(ia, iv, iv, True)),
            (cells(iv, iv, ia), cells(iv, iv, iv)))


# the blocks of ``glue``, named by the summands of their two factors
_BLOCKS = ("AA", "AV", "VA", "VV")


def _placed(shape, place):
    """The indices (product, block, part) in ``glue``'s arguments of a
    ``PARTS`` component row: a left ("l") action of the source summand has
    factors (source, target), a right ("r") one (target, source), and a
    table (source, source); the part is that of the target."""
    src, dst = shape
    factors = {"l": src + dst, "r": dst + src, "": src + src}[place[:-1]]
    return "><".index(place[-1]), _BLOCKS.index(factors), "AV".index(dst)


def glue_parts(d):
    """Glued (succ, prec) tables on A (+) V of a datum, each ``PARTS`` row in
    its place (``_placed``); an algebra fills its own summand's block."""
    dims, blocks = {}, [[[None, None] for _ in _BLOCKS] for _ in "><"]
    for attr, _, kind, shape, place in d.PARTS:
        part = getattr(d, attr)
        if kind == "algebra":
            dims[shape] = part.dim
            for op, placed in zip((part.succ, part.prec), blocks):
                placed[_BLOCKS.index(shape * 2)]["AV".index(shape)] = op.table
        elif kind == "dim":
            dims[shape] = part
        else:
            product, block, target = _placed(shape, place)
            blocks[product][block][target] = part.table
    return tuple(glue(dims["A"], dims["V"], *placed) for placed in blocks)


def unglue_parts(cls, *args):
    """The inverse of ``glue_parts``, ``cls.unglued(algebras..., succ, prec)``:
    the datum over the algebras read off the ``unglue`` blocks of both
    tables (the algebras' own blocks are not read)."""
    *algebras, succ, prec = args
    algebras, dims, parts = iter(algebras), {}, []
    for _, _, kind, shape, place in cls.PARTS:
        if kind == "algebra":
            part = next(algebras)
            dims[shape] = part.dim
        elif kind == "dim":
            part = dims[shape] = len(succ[_BLOCKS.index(shape * 2)][0])
        else:
            product, block, target = _placed(shape, place)
            src, dst = dims[shape[0]], dims[shape[1]]
            table = (succ, prec)[product][block][target]
            part = (ActionFamily.from_table((src, dst, dst), table) if kind == "family"
                    else BilinearOp.from_table((src, src, dst), table))
        parts.append(part)
    return cls(*parts)


def glued_algebra(d) -> ADAlgebra:
    """The algebra of ``d.glued()`` over the first algebra's field; its basis
    is each algebra's labels, or v1, v2, ... for a summand given by its dim."""
    basis = ()
    for attr, _, kind, _, _ in d.PARTS:
        part = getattr(d, attr)
        if kind == "algebra":
            basis += part.basis
        elif kind == "dim":
            basis += tuple("v%d" % (i + 1) for i in range(part))
    n, (succ, prec) = len(basis), d.glued()
    return ADAlgebra(n, basis, BilinearOp(n, succ), BilinearOp(n, prec),
                     getattr(d, d.PARTS[0][0]).field)


def split_slots(a1_labels, a2_labels):
    """Per-type slot labels ((A1 A-id, A1 V-id), (A2 A-id, A2 V-id)) in walk order.

    A ``None`` id skips the slot (delegated to another checker or a standing
    precondition); types with no labelled slot are left out.
    """
    none = (None, None)
    return {t: (a1_labels.get(t, none), a2_labels.get(t, none))
            for t in iproduct("AV", repeat=3)
            if a1_labels.get(t, none) != none or a2_labels.get(t, none) != none}


A1, A2 = AD_IDENTITIES
# each slot's identity, as ``adw.algebra`` writes it: (label, spell, terms, slabs)
IDENTITIES = {"A1": A1, "A2": A2, "assoc": ASSOC,
              "assoc, sides swapped": ASSOC[:1] + (lambda *at: assoc_pair(*at)[::-1],)
              + ASSOC[2:]}


def check_glued(walk, na, nv, slots) -> None:
    """Check a glued product on A (+) V slot by slot over typed basis triples.

    ``walk`` is the ``lowered_walk`` of glued tables from ``glue``.  With
    both products, ``slots`` (from ``split_slots``) labels the components of
    A1/A2; with one, ``slots`` maps each type to the (A-id, V-id) of its
    associativity components.  Triple types run in the order of ``slots``,
    each one ``walk_pairs`` over the summands of its type, the A and V
    components (the two slices of the glued vectors) its cells; a witness is
    (type, i, j, k) with indices local to each summand.
    """
    n = na + nv
    comps = (slice(0, na), slice(na, n))
    summand = {"A": range(na), "V": range(na, n)}
    for ttype, labels in slots.items():
        parts = ((("assoc", labels, ASSOC_TERMS),) if walk.tables[1] is None else
                 (("A1", labels[0], (A1_CHAIN_TERMS,) * 2), ("A2", labels[1], A2_TERMS)))
        # per identity: (component, label, terms) of its labelled slots
        checks = [(IDENTITIES[identity], cells) for identity, ids, terms in parts
                  if (cells := [cell for cell in zip(comps, ids, terms) if cell[1]])]
        walk_pairs(walk, checks, *(summand[t] for t in ttype), ("".join(ttype),))


def check_columns(walk, na, nv, slots, acting="A") -> None:
    """Check the actions of the ``acting`` summand of a glued product on the other.

    Each slot (label, placement, identity, terms) is checked once per ordered
    pair (x, y) of acting basis vectors, witness (i, j) local to the summand:
    column w of each matrix is the identity at the triple that ``placement``
    spells in x, y and the module basis vector w, cut to the module
    component.  A broken slot (``_breaks``) is evaluated column by column if
    the report keeps its violation, else ticked and counted, as in
    ``check_glued``.
    """
    n = na + nv
    summand = {"A": range(na), "V": range(na, n)}
    xs = summand[acting]
    module, cut = ((summand["V"], slice(na, n)) if acting == "A" else
                   (summand["A"], slice(0, na)))
    tables, part, ticks = walk.tables, walk.part, 0
    slots = [(label, itemgetter(*("xyw".index(p) for p in placement)), IDENTITIES[identity],
              terms, _breaks(walk, placement, identity, xs, module, cut))
             for label, placement, identity, terms in slots]
    for i, x in enumerate(xs):
        marks = [breaks and breaks(x) for *_, breaks in slots]
        for j, y in enumerate(xs):
            for (label, place, identity, terms, _), mark in zip(slots, marks):
                if mark is not None and not (mark[j] and (part.exhaustive or not part.violations)):
                    ticks += 1
                    part.violation_count += bool(mark[j])
                    continue
                cols = [identity[1](tables, *place((x, y, w))) for w in module]
                part.require_chain(
                    label, (i, j), terms,
                    tuple(tuple(zip(*(col[t][cut] for col in cols))) for t in range(len(terms))))
    part.tick_each(ticks)


def _breaks(walk, placement, identity, xs, module, cut):
    """x -> per y the cut digits, nonzero where the slot breaks, of its row
    tests at (x, y) for "xyw", or of block y at every (w, x) for "wxy" and
    (x, w) for "xwy"; None on scalars as given."""
    ws, vs = (module, xs) if placement[2] == "w" else (xs, module if placement[1] == "w" else xs)
    if (packs := walk.packs[ws]) is None:
        return None
    rows = walk.rows(IDENTITIES[identity], ws, vs)
    if placement[2] == "w":
        mask = packs.mask(cut)
        return lambda x: [rows[x].get(y, 0) & mask for y in xs]
    masks = [packs.mask(cut, j) for j in range(len(xs))]

    def marks(x):
        diff = 0
        for d in rows[x].values() if placement[0] == "x" else (rows[w].get(x, 0) for w in module):
            diff |= d
        return [diff & mask for mask in masks]
    return marks


# Column slots (label, placement, identity, terms) of the axioms of a
# representation (V, l>, r>, l<, r<) over A: the V-components of A1, A2 and
# associativity of x.y on A semidirect V at (x, y, w), (w, x, y), (x, w, y)
R_SLOTS = (
    ("R1", "xyw", "A1", ("l>(x)l>(y)", "-l>(x.y)", "-l<(x)l.(y)", "l<(x<y)")),
    ("R2", "wxy", "A1", ("r>(x>y)", "-r>(y)r.(x)", "-r<(x.y)", "r<(y)r<(x)")),
    ("R3", "xwy", "A1", ("l>(x)r>(y)", "-r>(y)l.(x)", "-l<(x)r.(y)", "r<(y)l<(x)")),
    ("R4", "xyw", "A2", ("l<(x>y)", "l>(x)l<(y)")),
    ("R5", "wxy", "A2", ("r<(y)r>(x)", "r>(x<y)")),
    ("R6", "xwy", "A2", ("r<(y)l>(x)", "l>(x)r<(y)")),
    ("R7", "xwy", "assoc", ("r.(y)l.(x)", "l.(x)r.(y)")),
)
# ... and of an associative bimodule (V, l, r): associativity on A semidirect V
BIMOD_SLOTS = (
    ("bimod-l", "xyw", "assoc", ("l(x.y)", "l(x)l(y)")),
    ("bimod-r", "wxy", "assoc, sides swapped", ("r(x.y)", "r(y)r(x)")),
    ("bimod-c", "xwy", "assoc", ("r(y)l(x)", "l(x)r(y)")),
)


# ---------------------------------------------------------------------------
# the extending datum

@dataclass(frozen=True)
class ExtendingDatum:
    algebra: ADAlgebra
    vdim: int
    lsucc: ActionFamily
    rsucc: ActionFamily
    lprec: ActionFamily
    rprec: ActionFamily
    rho_succ: ActionFamily
    mu_succ: ActionFamily
    rho_prec: ActionFamily
    mu_prec: ActionFamily
    varpi1: BilinearOp  # V x V -> A
    varpi2: BilinearOp
    succ_v: BilinearOp
    prec_v: BilinearOp

    PARTS = (("algebra", "algebra", "algebra", "A", ""), ("vdim", "vDim", "dim", "V", ""),
             *((k, k, "family", "AV", place) for k, place in (
                 ("lsucc", "l>"), ("rsucc", "r>"), ("lprec", "l<"), ("rprec", "r<"))),
             *((k, key, "family", "VA", place) for k, key, place in (
                 ("rho_succ", "rhoSucc", "l>"), ("mu_succ", "muSucc", "r>"),
                 ("rho_prec", "rhoPrec", "l<"), ("mu_prec", "muPrec", "r<"))),
             ("varpi1", "varpi1", "fold", "VA", ">"), ("varpi2", "varpi2", "fold", "VA", "<"),
             ("succ_v", "succV", "product", "VV", ">"), ("prec_v", "precV", "product", "VV", "<"))
    __post_init__ = check_parts
    glued, unglued = glue_parts, classmethod(unglue_parts)

    @staticmethod
    def from_representation(rep) -> "ExtendingDatum":
        n, m = rep.algebra.dim, rep.mod_dim
        return ExtendingDatum(rep.algebra, m, rep.lsucc, rep.rsucc, rep.lprec, rep.rprec,
                              ActionFamily.zero(m, n), ActionFamily.zero(m, n),
                              ActionFamily.zero(m, n), ActionFamily.zero(m, n),
                              BilinearOp.zero(m, n), BilinearOp.zero(m, n),
                              BilinearOp.zero(m), BilinearOp.zero(m))


# slot labels: (A-component id, V-component id) per basis triple type.
# Slots delegated elsewhere are None: the V-components of triples with one
# V-entry are the representation identities (the R_SLOTS columns), and
# pure-A triples reduce to the base algebra's own axioms.
_A1_EXT = {
    ("A", "A", "V"): ("S2", None),
    ("A", "V", "A"): ("S3", None),
    ("V", "A", "A"): ("S4", None),
    ("A", "V", "V"): ("S5", "S6"),
    ("V", "A", "V"): ("S7", "S8"),
    ("V", "V", "A"): ("S9", "S10"),
    ("V", "V", "V"): ("S11", "S12"),
}
_A2_EXT = {
    ("A", "A", "V"): ("S13", None),
    ("A", "V", "A"): ("S14", None),
    ("V", "A", "A"): ("S15", None),
    ("A", "V", "V"): ("S19a", "S19b"),
    ("V", "A", "V"): ("S19c", "S19d"),
    ("V", "V", "A"): ("S19e", "S19f"),
    ("V", "V", "V"): ("S16", "S17"),
}
_EXT_SLOTS = split_slots(_A1_EXT, _A2_EXT)


def check_extending_structure(d: ExtendingDatum, exhaustive: bool = False) -> Report:
    """S1 (R1-R7) as module columns, then S2-S17 (and S19a-f), on the glued tables.

    Passing is equivalent to the unified product being anti-dendriform.
    """
    if not d.algebra.is_verified:
        raise PreconditionFailure("base algebra is not anti-dendriform", d.algebra.check())
    out = Report("extending structure", exhaustive=exhaustive, field=d.algebra.field)
    na, nv, walk = d.algebra.dim, d.vdim, lowered_walk(out, *d.glued())
    check_columns(walk, na, nv, R_SLOTS)
    check_glued(walk, na, nv, _EXT_SLOTS)
    return out.absorb(walk.part)


def unified_product(d: ExtendingDatum, precheck: bool = True) -> ADAlgebra:
    """The algebra on A (+) V defined by the datum; refuses failing data."""
    if precheck:
        rep = check_extending_structure(d)
        if not rep.passed:
            raise PreconditionFailure("datum is not an extending structure", rep)
    return glued_algebra(d)


# ---------------------------------------------------------------------------
# extraction from an algebra with a distinguished subalgebra

@dataclass(frozen=True)
class ExtractionResult:
    datum: ExtendingDatum
    v_basis: tuple  # columns: ambient coordinates of the complement basis
    report: Report


def adapted_blocks(ealg: ADAlgebra, cols, proj):
    """Split an ambient algebra along the basis adapted to A (+) ker(proj).

    The basis is the columns of ``cols`` (with proj o cols = id) followed by
    the nullspace basis of ``proj``; every entry is taken into the field.
    Returns that nullspace basis and the ``unglue`` blocks of both tables in
    the adapted basis.
    """
    coerce = ealg.field.coerce
    # a projection onto a 0-dim summand has no rows: its kernel is a zero row's
    vbasis = nullspace(proj or (vzero(ealg.dim),))
    pmat = tuple(tuple(coerce(x) for x in tuple(row) + tuple(v[r] for v in vbasis))
                 for r, row in enumerate(cols))
    adapted = change_basis(ealg, pmat)
    ia, iv = range(len(proj)), range(len(proj), ealg.dim)
    return vbasis, tuple(unglue(op.table, ia, iv) for op in (adapted.succ, adapted.prec))


def extract_extending_datum(ealg: ADAlgebra, include_a, proj_a) -> ExtractionResult:
    """Split an ambient algebra along a projection onto a subalgebra.

    ``include_a`` is the (ambient x sub) inclusion matrix, ``proj_a`` the
    (sub x ambient) linear projection with proj o include = id.  The
    complement is ker(proj) with its deterministic nullspace basis.  Returns
    the twelve-component datum, read off the ambient tables in the adapted
    basis; its report records the subalgebra-closure check.
    """
    report = Report("extraction")
    ne = ealg.dim
    na = len(proj_a)
    if not (has_shape(include_a, ne, na) and has_shape(proj_a, na, ne)):
        raise InputError("inclusion/projection shapes do not match the ambient algebra")
    if matmul(proj_a, include_a) != identity(na, ealg.field.one):
        raise InputError("projection is not a left inverse of the inclusion")
    vbasis, (succ, prec) = adapted_blocks(ealg, include_a, proj_a)

    # A is closed iff the V-parts of its products vanish
    acols = [tuple(include_a[r][c] for r in range(ne)) for c in range(na)]
    for op, (aa, _, _, _), tag in ((ealg.succ, succ, ">"), (ealg.prec, prec, "<")):
        for i in range(na):
            for j in range(na):
                if any(aa[1][i][j]):
                    report.record("subalgebra", (i, j), tuple(op.apply(acols[i], acols[j])),
                                  matvec(include_a, aa[0][i][j]),
                                  "A is not closed under %s" % tag)
    if not report.passed:
        raise PreconditionFailure("the designated subspace is not a subalgebra", report)
    alg_a = ADAlgebra(na, tuple("a%d" % (i + 1) for i in range(na)),
                      BilinearOp(na, succ[0][0]), BilinearOp(na, prec[0][0]), ealg.field)
    report.tick()
    return ExtractionResult(ExtendingDatum.unglued(alg_a, succ, prec), vbasis, report)


def canonical_projection(ealg: ADAlgebra, na: int):
    """Inclusion/projection of the first-na-coordinates summand."""
    one = ealg.field.one
    ne = ealg.dim
    incl = tuple(tuple(one if (r == c and r < na) else 0 for c in range(na))
                 for r in range(ne))
    proj = tuple(tuple(one if (r == c) else 0 for c in range(ne)) for r in range(na))
    return incl, proj


# ---------------------------------------------------------------------------
# equivalence and cohomologous tests for extending structures

@dataclass(frozen=True)
class EquivWitness:
    zeta: tuple  # (dim A) x (dim V) matrix: V -> A
    eta: tuple   # (dim V) x (dim V) matrix: V -> V


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
    if not (has_shape(zeta, n, m) and has_shape(eta, m, m)):
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

    # h1/h2, eta intertwines the A-on-V actions: (label, source and target family, detail)
    actions = (("h1", d1.lsucc, d2.lsucc, "eta(l>(x)a) != l'>(x)eta(a)"),
               ("h1", d1.rsucc, d2.rsucc, "eta(r>(x)a) != r'>(x)eta(a)"),
               ("h2", d1.lprec, d2.lprec, "eta(l<(x)a) != l'<(x)eta(a)"),
               ("h2", d1.rprec, d2.rprec, "eta(r<(x)a) != r'<(x)eta(a)"))
    # h3-h6, zeta against the V-on-A actions: (label, A-on-V family, product,
    # zeta(a) on the right, source and target V-on-A family, detail)
    folds = (("h3", d1.lsucc, alg.succ, False, d1.mu_succ, d2.mu_succ,
              "zeta(l>(x)a) != x>zeta(a) - mu>(a)x + mu'>(eta a)x"),
             ("h4", d1.rsucc, alg.succ, True, d1.rho_succ, d2.rho_succ,
              "zeta(r>(x)a) != zeta(a)>x - rho>(a)x + rho'>(eta a)x"),
             ("h5", d1.lprec, alg.prec, False, d1.mu_prec, d2.mu_prec,
              "zeta(l<(x)a) != x<zeta(a) - mu<(a)x + mu'<(eta a)x [normalized reading]"),
             ("h6", d1.rprec, alg.prec, True, d1.rho_prec, d2.rho_prec,
              "zeta(r<(x)a) != zeta(a)<x - rho<(a)x + rho'<(eta a)x"))
    # h7-h10 per product: (labels, source complement product and fold map, base
    # product, the target's complement product, families and fold map, tag)
    products = ((("h7", "h8"), d1.succ_v, d1.varpi1, alg.succ, d2.succ_v, d2.lsucc, d2.rsucc,
                 d2.rho_succ, d2.mu_succ, d2.varpi1, (">", "1")),
                (("h9", "h10"), d1.prec_v, d1.varpi2, alg.prec, d2.prec_v, d2.lprec, d2.rprec,
                 d2.rho_prec, d2.mu_prec, d2.varpi2, ("<", "2")))

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
            for eq, fam1, fam2, detail in actions:
                out.require_equal(eq, (x, a), ev(fam1.act(ex, ea)), fam2.act(ex, eta_a), detail)
            for eq, fam, prod, right, va1, va2, detail in folds:
                out.require_equal(eq, (x, a), zv(fam.act(ex, ea)),
                                  vadd(prod.apply(zeta_a, ex) if right
                                       else prod.apply(ex, zeta_a),
                                       vneg(va1.act(ea, ex)), va2.act(eta_a, ex)), detail)
    for a in range(m):
        ea = unit(m, a)
        eta_a, zeta_a = ev(ea), zv(ea)
        for b in range(m):
            eb = unit(m, b)
            eta_b, zeta_b = ev(eb), zv(eb)
            for (eq_v, eq_a), v1, w1, prod, v2, lf, rf, rho, mu, w2, (tag, k) in products:
                out.require_equal(eq_v, (a, b), ev(v1.table[a][b]),
                                  vadd(v2.apply(eta_a, eta_b), lf.act(zeta_a, eta_b),
                                       rf.act(zeta_b, eta_a)),
                                  "eta(a %s_V b) mismatch" % tag)
                out.require_equal(eq_a, (a, b), vadd(zv(v1.table[a][b]), w1.table[a][b]),
                                  vadd(prod.apply(zeta_a, zeta_b), rho.act(eta_a, zeta_b),
                                       mu.act(eta_b, zeta_a), w2.apply(eta_a, eta_b)),
                                  "zeta(a %s_V b) + varpi%s(a,b) mismatch" % (tag, k))
    return out


def equivalence_morphism_matrix(d: ExtendingDatum, w: EquivWitness):
    """Matrix of psi(x,a) = (x + zeta(a), eta(a)) on A (+) V coordinates."""
    return block_matrix(identity(d.algebra.dim, d.algebra.field.one), w.zeta, 0, w.eta)


def find_cohomologous_witness(d1: ExtendingDatum, d2: ExtendingDatum):
    """Linear fast path for a cohomologous witness (eta = id).

    Only available when the quadratic terms of h7-h10 vanish structurally:
    both complement products are zero and the base algebra product vanishes.
    Returns (zeta, report) on success, (None, report) when the linear system
    is infeasible; raises InputError when the fast path does not apply.
    """
    n, m = d1.algebra.dim, d1.vdim
    field = d1.algebra.field  # a plain int is read mod p
    if not all(op.is_zero(field) for op in (d1.succ_v, d1.prec_v, d2.succ_v, d2.prec_v)):
        raise InputError("fast path needs zero complement products on both data")
    if not (d1.algebra.succ.is_zero(field) and d1.algebra.prec.is_zero(field)):
        raise InputError("fast path needs an abelian base algebra")
    # with eta = id, h1/h2 require equal A-on-V families
    probe = Report("fast-path family comparison")
    residues = field.residues
    for name in ("lsucc", "rsucc", "lprec", "rprec"):
        if residues(getattr(d1, name).table) != residues(getattr(d2, name).table):
            probe.record(name, (), (), (), "A-on-V families differ; no witness exists")
            return None, probe
    # unknowns: zeta[r][c], r < n, c < m; equations from h3-h6, h8, h10;
    # a row is {column r*m + c of zeta[r][c]: coefficient}, every other entry int 0
    rows, rhs = [], []

    # h3-h6: zeta(fam(x)a) = (mu' - mu)(a)x    (the x>zeta(a) terms vanish)
    for x in range(n):
        ex = unit(n, x)
        for a in range(m):
            ea = unit(m, a)
            for (fam1, mu1, mu2) in ((d1.lsucc, d1.mu_succ, d2.mu_succ),
                                     (d1.rsucc, d1.rho_succ, d2.rho_succ),
                                     (d1.lprec, d1.mu_prec, d2.mu_prec),
                                     (d1.rprec, d1.rho_prec, d2.rho_prec)):
                lv = fam1.act(ex, ea)  # a V-vector; lhs = zeta(lv)
                diff = vadd(mu2.act(ea, ex), vneg(mu1.act(ea, ex)))
                for r in range(n):
                    rows.append({r * m + c: v for c, v in enumerate(lv) if v})
                    rhs.append(diff[r])
    # h7/h9: l'(zeta(a))b + r'(zeta(b))a = 0   (complement products vanish)
    # h8/h10: rho'(a)zeta(b) + mu'(b)zeta(a) = varpi - varpi'
    for a in range(m):
        for b in range(m):
            for lfam, rfam in ((d2.lsucc, d2.rsucc), (d2.lprec, d2.rprec)):
                for r in range(m):
                    row = {}
                    for x in range(n):
                        row[x * m + a] = row.get(x * m + a, 0) + lfam.table[x][b][r]
                        row[x * m + b] = row.get(x * m + b, 0) + rfam.table[x][a][r]
                    rows.append(row)
                    rhs.append(0)
            for rho2, mu2, v1, v2 in ((d2.rho_succ, d2.mu_succ, d1.varpi1, d2.varpi1),
                                      (d2.rho_prec, d2.mu_prec, d1.varpi2, d2.varpi2)):
                diff = vadd(v1.table[a][b], vneg(v2.table[a][b]))
                # rho'(a) and mu'(b) as tables: column s of each matrix
                pcols, mcols = rho2.table[a], mu2.table[b]
                for r in range(n):
                    row = {}
                    for s in range(n):
                        row[s * m + b] = row.get(s * m + b, 0) + pcols[s][r]
                        row[s * m + a] = row.get(s * m + a, 0) + mcols[s][r]
                    rows.append(row)
                    rhs.append(diff[r])
    sol = sparse_solve(rows, rhs, n * m, d1.algebra.field)
    probe.tick(len(rows))
    if sol is None:
        probe.record("h3-h10", (), (), (), "linear system infeasible: no witness exists")
        return None, probe
    zeta = tuple(tuple(sol[0][r * m + c] for c in range(m)) for r in range(n))
    return zeta, probe
