"""Anti-dendriform algebras given by exact structure constants.

An algebra is a pair of bilinear products (succ, prec) on a finite basis.
The defining identities, checked by full basis-triple enumeration (sufficient
by multilinearity):

    A1:  x>(y>z) = -(x.y)>z = -x<(y.z) = (x<y)<z
    A2:  (x>y)<z = x>(y<z)

where x.y = x>y + x<y is the associated associative product.

Every check computes on plain ints: the field's ``lowering`` takes the
tables to int residues over GF(p), and over Q to ints scaled by the lcm d of
their denominators, straight to sparse cells (``lowered_cells``); GF(p)
elements checked over Q are read in GF(p).  The identities are of degree 2
in the tables, so the walk compares in the field of degree 2
(``lowered_walk``) and a verdict over Q is the one on the tables as given.
A1, A2 and associativity are each written per basis triple (``a1_chain``,
``a2_pair``, ``assoc_pair``) and as slab terms.

One loop, ``walk_pairs``, walks ``check_triples`` and the glued walks of
``adw.unified``.  It tests each row u over every (u, v, w) at once
(``Walk.rows``): the cells are packed into slabs, ints holding one digit per
(w, l) in base 2**b, each term is a map {v: slab} (``row_slabs``), and equal
maps mean the row holds.  The digits where slabs differ are the broken
checks (``row_diffs``), counted, and spelled only for a kept violation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, partial, reduce
from itertools import chain, repeat
from operator import add, itemgetter, lshift, mul, or_

from .fields import RATIONALS, InputError
from .linalg import accumulate, inverse, matvec, vadd, vneg
from .reporting import Report
from .tensors import (cells_sum, operators, packed, spread, t3_entries, t3_from_entries,
                      t3_is_zero, t3_reorder, table_cells)

A1_TERMS = ("x>(y>z)", "-(x.y)>z", "-x<(y.z)", "(x<y)<z")
A2_TERMS = ("(x>y)<z", "x>(y<z)")


def lowered_cells(lowering, succ, prec=None):
    """The ``table_cells`` of the tables the identities read, lowered by
    ``lowering`` = (lower, at) from ``field.lowering``: (succ, prec, dot) with
    x.y = x>y + x<y summed cell by cell and taken to ``at(1).residues`` (mod p
    over GF(p)).  With ``prec`` None, ``succ`` is the one product, returned
    as dot alone."""
    lower, at = lowering
    if prec is None:
        return None, None, table_cells(succ, lower)
    succ, prec = table_cells(succ, lower), table_cells(prec, lower)
    return succ, prec, cells_sum(succ, prec, at(1).residues)


def _spelled(kernel, succ, prec, dot, p=0):
    """The tables the spells read: ``kernel``, taking (cols, x) as
    ``accumulate`` does, the three tables' ``operators`` and the cells of
    -dot, each entry c as p - c, so that over GF(p) it stays a residue."""
    if succ is None:
        return kernel, None, None, operators(dot), None
    return kernel, operators(succ), operators(prec), operators(dot), tuple(
        tuple(tuple((k, p - c) for k, c in cell) for cell in row) for row in dot)


class _Cells(dict):
    """``cells[key]`` is ``make(key)``, made at its first read."""

    __slots__ = ("make",)

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        self[key] = value = self.make(key)
        return value


class Walk:
    """What the walks of one check share: the lowered tables as the spells
    read them, the ``part`` that compares in the lowering's field, and the
    ``packs`` of each range of third vectors and the row tests (``rows``),
    each made at its first use.  Nothing it holds refers back to it, so it
    is freed without the cycle collector."""

    __slots__ = ("tables", "part", "packs", "_rows")

    def __init__(self, tables, part: Report):
        self.tables, self.part = tables, part
        self.packs, self._rows = _Cells(packing(tables, part.field)), {}

    def rows(self, identity, ws, vs):
        """``rows[u]``: the ``row_diffs`` of ``identity`` at u, v in ``vs``, w in
        ``ws``.  With both products associativity holds where A1 and A2 do:
        (u.v)>w = u<(v.w) and (u<v)<w = u>(v>w) by A1, (u>v)<w = u>(v<w) by
        A2."""
        key = identity[0], ws, vs
        if key not in self._rows:
            ad = identity[0] == ASSOC[0] and self.tables[1] is not None and [
                self.rows(a, ws, vs) for a in AD_IDENTITIES]
            self._rows[key] = _Cells(partial(_row, self.packs[ws], identity, vs, ad))
        return self._rows[key]


def _row(packs, identity, vs, ad, u):
    if ad:
        vs = {v for rows in ad for v in rows[u]}
    return row_diffs(packs, identity, u, vs) if vs else {}


def lowered_walk(report, succ, prec=None) -> Walk:
    """The ``Walk`` of identities of degree 2 in the tables (A1, A2,
    associativity, every glued slot) on ``succ``/``prec``; its empty
    ``part`` of ``report`` compares their values in the lowering's field."""
    lowering = report.field.lowering(succ, prec)
    succ, prec, dot = lowered_cells(lowering, succ, prec)
    part = report.part(lowering[1](2))
    return Walk(_spelled(partial(accumulate, len(dot)), succ, prec, dot,
                         getattr(part.field, "p", 0)), part)


def a1_chain(tables, u, v, w):
    """A1 at basis vectors u, v, w of ``lowered_walk`` tables: u>(v>w),
    -(u.v)>w, -u<(v.w), (u<v)<w.  The negated terms are products with -dot,
    so no term is negated afterwards."""
    mul, (sl, sr), (pl, pr), _, neg = tables
    return (mul(sl[u], sl[v][w]), mul(sr[w], neg[u][v]), mul(pl[u], neg[v][w]),
            mul(pr[w], pl[u][v]))


def a2_pair(tables, u, v, w):
    """A2 at basis vectors u, v, w: (u>v)<w and u>(v<w)."""
    mul, (sl, _), (pl, pr) = tables[:3]
    return mul(pr[w], sl[u][v]), mul(sl[u], pl[v][w])


def assoc_pair(tables, u, v, w):
    """Associativity of dot at basis vectors u, v, w: (uv)w and u(vw)."""
    mul, (dl, dr) = tables[0], tables[3]
    return mul(dr[w], dl[u][v]), mul(dl[u], dl[v][w])


# An identity is (label, spell, terms, slab terms).  Its slab terms, read by
# ``row_slabs`` on the tables (succ, prec, dot, -dot) numbered 0 to 3, are
# (a, b, False) for (u o_a v) o_b w and (a, b, True) for u o_b (v o_a w).
ASSOC = ("assoc", assoc_pair, ("(x.y).z", "x.(y.z)"), ((2, 2, False), (2, 2, True)))
AD_IDENTITIES = (("A1", a1_chain, A1_TERMS,
                  ((3, 0, False), (1, 1, False), (0, 0, True), (3, 1, True))),
                 ("A2", a2_pair, A2_TERMS, ((0, 1, False), (1, 0, True))))


class Packing:
    """The ``cells`` of (succ, prec, dot, -dot) packed over the range ``ws``
    in b-bit digits, ``stride`` bits a block w, per table t: ``views[t]``
    (``tensors.packed``, shared by every range), ``rows[t][k]`` packing
    e_k o e_w over every (w, l), and ``spreads[t]`` (``tensors.spread``).
    Two slabs plus ``offset`` (2**(b-1) in every digit) differ by XOR in
    exactly the digits where they differ; ``blocks(x)`` keeps the top bit
    of each block where x is nonzero."""

    __slots__ = ("cells", "views", "rows", "spreads", "b", "stride", "field", "residues", "each",
                 "offset", "high", "low")

    def __init__(self, cells, b, field, views, ws):
        n = len(cells[2])
        self.cells, self.views, self.b, self.stride = cells, views, b, b * n
        self.rows = _Cells(lambda t: tuple(sum(col[w] << b * n * (w - ws.start) for w in ws)
                                           if col else 0 for col in views[t][1]))
        self.spreads = _Cells(lambda t: spread(cells[t], b * n, ws))
        self.field, self.residues = field, field.slab_residues(b, len(ws) * n)
        self.each = each = ((1 << b * n * len(ws)) - 1) // ((1 << b * n) - 1)
        self.offset = each * (((1 << b * n) - 1) // ((1 << b) - 1) << b - 1)
        self.high, self.low = each << b * n - 1, each * ((1 << b * n - 1) - 1)

    def blocks(self, x):
        return ((x & self.low) + self.low | x) & self.high

    def mask(self, comp, j=None):
        """The digits of the coordinates in ``comp`` (all for None), in block j or all."""
        digits = range(self.stride // self.b)[comp or slice(None)]
        one = (1 << self.b * len(digits)) - 1 << self.b * digits.start
        return one * self.each if j is None else one << self.stride * j


def packing(tables, field):
    """ws -> the ``Packing`` of a ``Walk``'s ``tables`` over ws, or None on
    no basis.  A digit sums n products of two entries, |entry| <= M, so b
    bits with n M**2 < 2**(b-1) hold it."""
    _, succ, prec, dot, neg = tables
    if not dot[0]:
        return lambda ws: None
    cells = (succ and succ[0], prec and prec[0], dot[0], neg)
    # over Q dot is -dot negated
    read = cells if succ is None or hasattr(field, "p") else cells[:2] + (neg,)
    top = max(map(abs, map(itemgetter(1), chain.from_iterable(chain.from_iterable(
        chain.from_iterable(t for t in read if t))))), default=0)
    b = (len(dot[0]) * top * top).bit_length() + 1
    return partial(Packing, cells, b, field, _Cells(lambda t: packed(cells[t], b)))


def row_slabs(packs, identity, u, vs):
    """The slab terms of ``identity`` at the pairs (u, v), v in ``vs``, each
    a map {v: nonzero slab after ``residues``}.  (u o_a v) o_b w sums row
    slabs of b over the cell (u, v) of a; u o_b (v o_a w) meets the spread
    coordinates of a at v with the column slabs of b at u block by block."""
    views, residues, out = packs.views, packs.residues, []
    for a, b, inner in identity[3]:
        term = {}
        if inner:
            if cols := views[b][1][u]:
                for v, shifts, coords in packs.spreads[a]:
                    if v in vs:
                        x = sum(map(lshift, map(sum, map(map, repeat(mul), coords, repeat(cols))),
                                    shifts))
                        if x := residues(x) if residues else x:
                            term[v] = x
        elif live := views[a][0][u]:
            rows, cells = packs.rows[b], packs.cells[a][u]
            for v in live:
                if v in vs:
                    x = sum([c * rows[k] for k, c in cells[v]])
                    if x := residues(x) if residues else x:
                        term[v] = x
        out.append(term)
    return out


def row_diffs(packs, identity, u, vs):
    """The row test of ``identity`` at u: {v: diff} where its slab terms
    (``row_slabs``) differ, diff the OR of the XORs of the first term with
    each other one, all plus ``offset``: digit (w, l) of diff is nonzero
    exactly where the chain breaks at (u, v, w) in coordinate l."""
    first, *rest = row_slabs(packs, identity, u, vs)
    if all(term == first for term in rest):
        return {}
    offset, diffs = packs.offset, {}
    for v in set(first).union(*rest):
        x, diff = first.get(v, 0) + offset, 0
        for term in rest:
            diff |= x ^ term.get(v, 0) + offset
        if diff:
            diffs[v] = diff
    return diffs


def walk_pairs(walk, checks, ru, rv, rw, tag) -> None:
    """Walk the basis pairs (u, v) of ``ru`` x ``rv`` over the third vectors
    w of the range ``rw`` in ``walk.part``.  ``checks`` lists per identity
    its cells (component, label, terms), each comparing that slice (all for
    None) of ``spell(walk.tables, u, v, w)``, witness ``tag + (iu, iv, iw)``.
    The digits of the row tests (``Walk.rows``) mark the broken checks,
    spelled in walk order in exhaustive mode, else only one that no kept
    violation precedes; every other check is ticked, one ``tick()`` each,
    and counted if broken."""
    if not rw:
        return
    tables, part, packs = walk.tables, walk.part, walk.packs[rw]
    rows = [walk.rows(identity, rw, rv) for identity, _ in checks]
    masks = [[packs.mask(comp) for comp, _, _ in cells] for _, cells in checks]
    spelled = 0
    for iu, u in enumerate(ru):
        diffs = [row[u] for row in rows]
        for v in sorted(set().union(*diffs)) if any(diffs) else ():
            # per identity and cell, the top bit of each broken block w
            flags = [[packs.blocks(diff.get(v, 0) & mask) for mask in cell_masks]
                     for diff, cell_masks in zip(diffs, masks)]
            part.violation_count += sum(f.bit_count() for fs in flags for f in fs)
            marked = reduce(or_, chain.from_iterable(flags))
            while marked and (part.exhaustive or not part.violations):
                bit = marked & -marked
                marked, iw = marked ^ bit, bit.bit_length() // packs.stride - 1
                for (identity, cells), fs in zip(checks, flags):
                    values = None
                    for (comp, label, terms), f in zip(cells, fs):
                        if f & bit and (part.exhaustive or not part.violations):
                            values = values or identity[1](tables, u, v, rw[iw])
                            part.violation_count -= 1  # counted above
                            part.require_chain(label, tag + (iu, v - rv.start, iw), terms, values
                                               if comp is None else tuple(t[comp] for t in values))
                            spelled += 1
    part.tick_each(len(ru) * len(rv) * len(rw) * sum(len(c) for _, c in checks) - spelled)


def check_triples(report, n, identities, succ, prec=None) -> Report:
    """Each identity (label, spell, terms, slab terms) at every basis triple
    (i, j, k) of an n-dimensional algebra, by ``walk_pairs`` on its
    ``lowered_walk``.  Over Q a kept violation is spelled again on the
    tables as given (``_as_given``), so that its values are the tables' own
    scalars, and ``report`` absorbs the walk."""
    walk = lowered_walk(report, succ, prec)
    walk_pairs(walk, [(identity, [(None, identity[0], identity[2])]) for identity in identities],
               range(n), range(n), range(n), ())
    part = walk.part
    if part.violations and report.field == RATIONALS:
        given = _as_given(succ, prec)
        spells = {label: spell for label, spell, *_ in identities}
        part.violations = [_respelled(v, spells[v.equation](given, *v.witness))
                           for v in part.violations]
    return report.absorb(part)


def _as_given(succ, prec=None):
    """The spells' tables of ``succ``/``prec`` as given, each cell made at its
    first read.  Cells keep every zero but the int 0, and the kernel starts
    a value from the zeros of the first column it reads: a dense product's
    types."""
    def kernel(cols, x):
        out, first = [0] * len(succ), True
        for k, c in x:
            if c:
                for l, t in cols[k]:
                    if t:
                        out[l] += c * t
                    elif first:
                        out[l] = t
                first = False
        return tuple(out)

    def cells(entry):
        def cell(i, j):
            return tuple((k, c) for k, c in enumerate(entry(i, j)) if c or type(c) is not int)
        return _Cells(lambda i: _Cells(partial(cell, i)))

    def ops(entry):
        return cells(entry), cells(lambda j, i: entry(i, j))

    if prec is None:
        return kernel, None, None, ops(lambda i, j: succ[i][j]), None

    def dot(i, j):
        return tuple(map(add, succ[i][j], prec[i][j]))
    return (kernel, ops(lambda i, j: succ[i][j]), ops(lambda i, j: prec[i][j]), ops(dot),
            cells(lambda i, j: tuple(0 - c for c in dot(i, j))))


def _respelled(violation, values):
    """``violation`` with the values of its first broken link taken from ``values``."""
    a = next(a for a in range(len(values) - 1) if values[a] != values[a + 1])
    return replace(violation, lhs=values[a], rhs=values[a + 1])


def check_associative(op: BilinearOp, exhaustive: bool = False,
                      field=RATIONALS) -> Report:
    """(x.y).z = x.(y.z) over all basis triples, compared in ``field``."""
    return check_triples(Report("associativity", exhaustive=exhaustive, field=field), op.dim,
                         (ASSOC,), op.table)


@dataclass(frozen=True)
class BilinearOp:
    """A bilinear map of shape dim x right_dim -> out_dim: table[i][j] is the
    coordinate vector of e_i o e_j.

    A product has ``out_dim == right_dim == dim``; a fold map V x V -> A or a
    cocycle A x A -> V carries the target dimension as ``out_dim``, and an
    action family A x V -> V (``adw.actions``) the module dimension as
    ``right_dim`` and ``out_dim``.
    """

    dim: int
    table: tuple
    out_dim: int = None
    right_dim: int = None

    def __post_init__(self):
        if self.out_dim is None:
            object.__setattr__(self, "out_dim", self.dim)
        if self.right_dim is None:
            object.__setattr__(self, "right_dim", self.dim)
        if len(self.table) != self.dim or any(
                len(row) != self.right_dim or any(len(v) != self.out_dim for v in row)
                for row in self.table):
            raise InputError("bilinear table shape does not match dimension %d" % self.dim)

    @classmethod
    def from_table(cls, dims, table):
        """The map of this class and shape ``dims`` holding ``table``, made as
        ``BilinearOp`` makes it (an ``ActionFamily`` is built from matrices)."""
        op = cls.__new__(cls)
        BilinearOp.__init__(op, dims[0], table, dims[2], dims[1])
        return op

    @property
    def dims(self):
        return self.dim, self.right_dim, self.out_dim

    @staticmethod
    def zero(dim, out_dim=None):
        return BilinearOp.from_entries(dim, (), out_dim)

    @staticmethod
    def from_entries(dim, entries, out_dim=None):
        """entries: iterable of (i, j, k, coefficient)."""
        out_dim = dim if out_dim is None else out_dim
        return BilinearOp(dim, t3_from_entries((dim, dim, out_dim), entries,
                                               "structure-constant index"), out_dim)

    def apply(self, u, v):
        """Product of two coordinate vectors: u o v = sum u_i v_k (e_i o e_k),
        on the cells of the table, column i * right_dim + k holding e_i o e_k."""
        vk, n = [(k, c) for k, c in enumerate(v) if c], self.right_dim
        return accumulate(self.out_dim, self._cells,
                          [(i * n + k, a * c) for i, a in enumerate(u) if a for k, c in vk])

    @cached_property
    def _cells(self):
        return tuple(cell for row in table_cells(self.table) for cell in row)

    def add(self, other):
        if other.dims != self.dims:
            raise InputError("cannot add maps of shapes %r and %r" % (self.dims, other.dims))
        return self.from_table(self.dims, tuple(
            tuple(vadd(self.table[i][j], other.table[i][j]) for j in range(self.right_dim))
            for i in range(self.dim)))

    def neg(self):
        return self.from_table(self.dims, tuple(tuple(vneg(v) for v in row)
                                                for row in self.table))

    def is_zero(self, field=RATIONALS):
        """Every coefficient is zero in ``field`` (a plain int is read mod p)."""
        return t3_is_zero(field.residues(self.table))

    def entries(self):
        return t3_entries(self.table)


def require_field(field, *parts):
    """Raise InputError unless every nonzero coefficient of the parts (product
    tables or action families) is an int or an element of ``field``.  Only a
    part holding some other scalar is coerced entry by entry, so the error
    names its first bad entry as ``field.coerce`` words it."""
    kind, p = type(field.one), getattr(field, "p", None)
    for part in parts:
        if not all(type(c) is int or type(c) is kind and (p is None or c.p == p)
                   for plane in part.table for row in plane if any(row) for c in row):
            for _, _, _, c in part.entries():
                field.coerce(c)


_PART_NOUNS = {"family": "action family", "product": "product", "fold": "fold map",
               "cocycle": "cocycle"}


def check_parts(obj):
    """Check a datum against its class's ``PARTS`` table.

    Each row is (attribute, JSON key, kind, shape, place), in constructor
    order.  An ``algebra`` or ``dim`` row names the dimension of a summand
    ("A" or "V"); a component row (an action ``family``, or a ``product``,
    ``fold`` or ``cocycle`` table) names its (source, target) summands, so
    "VA" reads V -> End(A) for a family and V x V -> A for a table, and its
    place (``adw.unified._placed``) the side of an action, "l" or "r", and
    the glued product, ">" or "<".  Every dimension and shape is checked
    first; then every coefficient of the components and of the other
    algebras' tables must lie in the first algebra's field."""
    dims, algebras, components = {}, [], []
    for attr, _, kind, shape, _ in obj.PARTS:
        part = getattr(obj, attr)
        if kind == "algebra":
            dims[shape] = part.dim
            algebras.append(part)
        elif kind == "dim":
            if part < 0:
                raise InputError("%s: expected a non-negative integer" % attr)
            dims[shape] = part
        else:
            got = (part.dim, part.out_dim)
            want = (dims[shape[0]], dims[shape[1]])
            if got != want:
                raise InputError("%s: %s has shape (%d,%d), expected (%d,%d)"
                                 % ((attr, _PART_NOUNS[kind]) + got + want))
            components.append(part)
    require_field(algebras[0].field, *(op for a in algebras[1:] for op in (a.succ, a.prec)),
                  *components)


@dataclass(frozen=True)
class ADAlgebra:
    dim: int
    basis: tuple
    succ: BilinearOp
    prec: BilinearOp
    field: object = RATIONALS

    def __post_init__(self):
        if len(self.basis) != self.dim:
            raise InputError("basis has %d labels for dimension %d" % (len(self.basis), self.dim))
        if any(op.dims != (self.dim,) * 3 for op in (self.succ, self.prec)):
            raise InputError("product tables do not match dimension %d" % self.dim)
        require_field(self.field, self.succ, self.prec)

    @staticmethod
    def make(dim, succ_entries=(), prec_entries=(), basis=None, field=RATIONALS):
        basis = tuple(basis) if basis else tuple("e%d" % (i + 1) for i in range(dim))
        return ADAlgebra(dim, basis,
                         BilinearOp.from_entries(dim, succ_entries),
                         BilinearOp.from_entries(dim, prec_entries),
                         field)

    @staticmethod
    def zero(dim, field=RATIONALS):
        return ADAlgebra.make(dim, field=field)

    @cached_property
    def assoc(self) -> BilinearOp:
        return self.succ.add(self.prec)

    @cached_property
    def is_verified(self) -> bool:
        return check_anti_dendriform(self).passed

    def check(self, exhaustive: bool = False) -> Report:
        return check_anti_dendriform(self, exhaustive=exhaustive)

    def equal_tables(self, other: "ADAlgebra") -> bool:
        return (self.dim == other.dim and self.succ.table == other.succ.table
                and self.prec.table == other.prec.table)


def check_anti_dendriform(alg: ADAlgebra, exhaustive: bool = False) -> Report:
    """Both defining identities over every basis triple, with witnesses."""
    return check_triples(Report("anti-dendriform axioms", exhaustive=exhaustive, field=alg.field),
                         alg.dim, AD_IDENTITIES, alg.succ.table, alg.prec.table)


def associated_associative(alg: ADAlgebra) -> BilinearOp:
    """The sum product x.y = x>y + x<y."""
    return alg.assoc


def is_anti_zinbiel(alg: ADAlgebra) -> bool:
    """True iff x>y = y<x for all basis pairs."""
    return all(alg.succ.table[i][j] == alg.prec.table[j][i]
               for i in range(alg.dim) for j in range(alg.dim))


@dataclass(frozen=True)
class MulOperators:
    lsucc: BilinearOp
    rsucc: BilinearOp
    lprec: BilinearOp
    rprec: BilinearOp


def multiplication_operators(alg: ADAlgebra) -> MulOperators:
    """Left/right multiplication operators of both products, as action
    families: L(e_i)e_c = e_i o e_c is the product's own table, and
    R(e_i)e_c = e_c o e_i that table with its first two indices swapped."""
    from .actions import ActionFamily  # adw.actions imports this module
    dims = (alg.dim,) * 3

    def left(op):
        return ActionFamily.from_table(dims, op.table)

    def right(op):
        return ActionFamily.from_table(dims, t3_reorder(op.table, (1, 0, 2)))

    return MulOperators(left(alg.succ), right(alg.succ), left(alg.prec), right(alg.prec))


def op_from_left_family(fam) -> BilinearOp:
    """Rebuild a product table from its left-multiplication family, whose
    table it is."""
    return BilinearOp(fam.alg_dim, fam.table)


def _permutation(pmat, field):
    """sigma with pmat[sigma[i]][i] = 1 and every other entry 0, or None."""
    sigma = [None] * len(pmat)
    for r, row in enumerate(pmat):
        nz = [c for c, x in enumerate(row) if x]
        if (len(row) != len(pmat) or len(nz) != 1 or sigma[nz[0]] is not None
                or field.coerce(row[nz[0]]) != field.one):
            return None
        sigma[nz[0]] = r
    return sigma


def change_basis(alg: ADAlgebra, pmat) -> ADAlgebra:
    """Conjugate both product tables by an invertible matrix.

    Column i of pmat holds the old coordinates of the new basis vector f_i.
    A permutation matrix (f_i = e_sigma(i)) only reindexes the tables, taking
    every entry into the field.
    """
    n = alg.dim
    sigma = _permutation(pmat, alg.field) if len(pmat) == n else None
    if sigma is not None:
        coerce = alg.field.coerce

        def conj(op):
            t = op.table
            return BilinearOp(n, tuple(tuple(tuple(coerce(t[si][sj][sk]) for sk in sigma)
                                             for sj in sigma) for si in sigma))
    else:
        pinv = inverse(pmat)
        if pinv is None:
            raise InputError("change of basis matrix is singular")

        def conj(op):
            table = []
            for i in range(n):
                fi = tuple(pmat[r][i] for r in range(n))
                row = []
                for j in range(n):
                    fj = tuple(pmat[r][j] for r in range(n))
                    row.append(matvec(pinv, op.apply(fi, fj)))
                table.append(tuple(row))
            return BilinearOp(n, tuple(table))

    return ADAlgebra(n, alg.basis, conj(alg.succ), conj(alg.prec), alg.field)


def direct_sum(a: ADAlgebra, b: ADAlgebra) -> ADAlgebra:
    """Block-diagonal direct product of two algebras."""
    n, m = a.dim, b.dim

    def block(opa, opb):
        entries = list(opa.entries())
        entries += [(i + n, j + n, k + n, c) for (i, j, k, c) in opb.entries()]
        return BilinearOp.from_entries(n + m, entries)

    return ADAlgebra(n + m, a.basis + b.basis, block(a.succ, b.succ),
                     block(a.prec, b.prec), a.field)


def check_homomorphism(report, label, phi, src: ADAlgebra, dst: ADAlgebra) -> Report:
    """Require phi(u o v) = phi(u) o phi(v) in ``report``'s field, for both
    products and every pair (i, j) of basis vectors of ``src``.

    ``phi`` is a dst.dim x src.dim matrix; its nonzero entries are read once,
    column by column, and phi(u o v) sums over those alone.  ``label`` reads
    "name-hom", and a violation's detail "name(u > v) != name(u) > name(v)".
    """
    if len(phi) != dst.dim or any(len(row) != src.dim for row in phi):
        raise InputError("%s: the map is not a %dx%d matrix" % (report.name, dst.dim, src.dim))
    name = label.rsplit("-", 1)[0]
    cols = [[(r, row[k]) for r, row in enumerate(phi) if row[k]] for k in range(src.dim)]
    images = [tuple(row[k] for row in phi) for k in range(src.dim)]

    def image(v):
        return accumulate(dst.dim, cols, [(k, y) for k, y in enumerate(v) if y])

    for op, dop, tag in ((src.succ, dst.succ, ">"), (src.prec, dst.prec, "<")):
        detail = "%s(u %s v) != %s(u) %s %s(v)" % (name, tag, name, tag, name)
        for i in range(src.dim):
            for j in range(src.dim):
                report.require_equal(label, (i, j), image(op.table[i][j]),
                                     dop.apply(images[i], images[j]), detail)
    return report


def is_homomorphism(phi, src: ADAlgebra, dst: ADAlgebra) -> bool:
    """phi: dst.dim x src.dim matrix; phi(x o y) = phi(x) o phi(y) for both products."""
    return check_homomorphism(Report("homomorphism", field=src.field), "phi-hom",
                              phi, src, dst).passed


def is_isomorphism(phi, src: ADAlgebra, dst: ADAlgebra) -> bool:
    return inverse(phi) is not None and is_homomorphism(phi, src, dst)


def is_automorphism(alg: ADAlgebra, m) -> bool:
    return is_isomorphism(m, alg, alg)
