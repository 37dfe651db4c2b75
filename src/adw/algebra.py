"""Anti-dendriform algebras given by exact structure constants.

An algebra is a pair of bilinear products (succ, prec) on a finite basis.
The defining identities, checked by full basis-triple enumeration (sufficient
by multilinearity):

    A1:  x>(y>z) = -(x.y)>z = -x<(y.z) = (x<y)<z
    A2:  (x>y)<z = x>(y<z)

where x.y = x>y + x<y is the associated associative product.

A1, A2 and associativity are written once per form: per basis triple
(``a1_chain``, ``a2_pair``, ``assoc_pair``) and per basis pair over every
third vector (``a1_slabs``, ``a2_slabs``, ``assoc_slabs``), for
``check_triples`` and the glued walks of ``adw.unified``.
Every check computes on plain ints: the field's ``lowering`` takes the
tables to int residues over GF(p), and over Q to ints scaled by the lcm d of
their denominators, straight to sparse cells (``lowered_cells``): cells[i][j]
lists the nonzero (k, c) of e_i o e_j, and each term of a triple is one call
of the kernel ``linalg.accumulate`` on them.  The identities are of degree 2
in the tables, so the walk compares in the field of degree 2
(``lowered_walk``) and a verdict over Q is the one on the tables as given.

A walk evaluates a basis pair (u, v) over every w of a range at once (every
w in ``check_triples``, those of one summand in the glued walks) by Kronecker
substitution: the cells are packed into slabs, ints holding one digit per
(k, l) in base 2**b (``tensors.packed``), so that each term is a few integer
multiply-adds and each chain a comparison of slabs, after reducing their
digits mod p over GF(p) (``slab_residues``).  b is wide enough for every
digit with its sign, so slabs are equal exactly when every triple's values
are.  One loop, ``walk_pairs``, walks the pairs of ``check_triples`` and of
the glued walks of ``adw.unified``: each pair is tested once, a pair whose
slabs agree ticks its checks, and any other is walked triple by triple, so
the checks, violations and witnesses are those of a walk over every triple.
``check_triples`` compares each pair once; the glued walks share the tables
of pair verdicts of a ``Walk`` (``Walk.verdicts``), each pair compared at
most once per range.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from functools import cached_property, partial
from itertools import repeat

from .fields import RATIONALS, InputError
from .linalg import accumulate, inverse, matvec, vadd, vneg
from .reporting import Report
from .tensors import (cells_sum, operators, packed, t3_entries, t3_from_entries, t3_is_zero,
                      t3_reorder, table_cells)

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


def _negated(dot, p=0):
    """The cells of -dot: each entry c as -c, or as p - c over GF(p), so that
    a lowered entry stays a residue in 0..p-1."""
    return tuple(tuple(tuple((k, p - c) for k, c in cell) for cell in row) for row in dot)


def _spelled(kernel, succ, prec, dot, p=0):
    """The tables the spells read: ``kernel``, taking (cols, x) as
    ``accumulate`` does, the three tables' ``operators`` and the cells of
    -dot, entries p - c over GF(p) (``_negated``)."""
    if succ is None:
        return kernel, None, None, operators(dot), None
    return kernel, operators(succ), operators(prec), operators(dot), _negated(dot, p)


class Walk:
    """What the walks of one check share: the lowered tables as the spells
    read them (``lowered_cells``), the ``part`` that compares values in the
    lowering's field, and the tables of pair verdicts (``verdicts``) on the
    tables' ``packs``, one per range of third vectors, each made at its
    first use.  A plain class: a frozen dataclass costs each command-line
    process about a millisecond to create."""

    __slots__ = ("tables", "part", "packs", "_verdicts")

    def __init__(self, tables, part: Report):
        self.tables, self.part, self.packs, self._verdicts = tables, part, {}, {}

    def verdicts(self, identities, ws):
        """The ``Verdicts`` of the pairs where every identity of
        ``identities`` holds over the third vectors in the range ``ws``, one
        table per walk, read at every pair ``walk_pairs`` or
        ``check_columns`` visits and comparing each pair at most once.  With
        the scalars left as given (no ``packing``) no pair agrees.  With both
        products associativity holds where A1 and A2 do: (u.v)>w = u<(v.w)
        and (u<v)<w = u>(v>w) by A1, (u>v)<w = u>(v<w) by A2, and these are
        the terms of (u.v).w and u.(v.w)."""
        key = tuple(identity[0] for identity in identities), ws
        if key not in self._verdicts:
            if len(identities) > 1:
                table = Verdicts(self, None, ws, [self.verdicts((i,), ws) for i in identities])
            elif identities[0][0] == ASSOC[0] and self.tables[1] is not None:
                table = self.verdicts(AD_IDENTITIES, ws)
            else:
                table = Verdicts(self, identities[0], ws, ())
            self._verdicts[key] = table
        return self._verdicts[key]

    def packing(self, ws):
        """The ``packing`` over the range ``ws``, made at its first use."""
        if ws not in self.packs:
            self.packs[ws] = packing(self, ws)
        return self.packs[ws]


class Verdicts(dict):
    """A table of pair verdicts: ``table[u, v]`` is whether the chain of
    ``identity`` holds at (u, v, w) for every w of the range ``ws``, its
    slabs compared at the first lookup, or with ``parts`` whether each part
    holds there."""

    __slots__ = ("walk", "identity", "ws", "parts")

    def __init__(self, walk, identity, ws, parts):
        super().__init__()
        self.walk, self.identity, self.ws, self.parts = walk, identity, ws, parts

    def __missing__(self, pair):
        if self.parts:
            verdict = True
            for part in self.parts:
                if not part[pair]:
                    verdict = False
                    break
        else:
            packs = self.walk.packing(self.ws)
            verdict = bool(packs) and _agree(packs, self.identity, *pair)
        self[pair] = verdict
        return verdict


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


def _combined(cell, rows):
    """The slab sum c rows[k] over the (k, c) of a cell."""
    return sum(c * rows[k] for k, c in cell) if cell else 0


def _spread(spread, cols):
    """The slab sum over w and k of (e_v o e_w)_k cols[k], shifted into
    block w, for the ``spread`` of v.  Each block's coordinates meet the
    column slabs apart and the sum is shifted after: one product per k of a
    slab spread over every block would also multiply its empty digits, n - 1
    of every n, which costs more than the per-block products once digits
    are wider than a machine word."""
    shifts, coords = spread
    if not (shifts and cols):
        return 0
    return sum(map(operator.lshift,
                   map(sum, map(map, repeat(operator.mul), coords, repeat(cols))), shifts))


def a1_slabs(views, u, v):
    """A1 at the basis pair (u, v) over every w, as slabs of a ``Packing``,
    yielded cheapest first, so that a broken chain stops early: -(u.v)>w,
    (u<v)<w (a cell's multiples of row slabs), u>(v>w), -u<(v.w) (spread
    coordinates against column slabs)."""
    (_, srow, scol, sspread), (prec, prow, pcol, _), _, (neg, _, _, nspread) = views
    yield _combined(neg[u][v], srow)
    yield _combined(prec[u][v], prow)
    yield _spread(sspread[v], scol[u])
    yield _spread(nspread[v], pcol[u])


def a2_slabs(views, u, v):
    """A2 at the basis pair (u, v) over every w: (u>v)<w and u>(v<w)."""
    (succ, _, scol, _), (_, prow, _, pspread) = views[:2]
    return _combined(succ[u][v], prow), _spread(pspread[v], scol[u])


def assoc_slabs(views, u, v):
    """Associativity of dot at the basis pair (u, v) over every w: (uv)w and u(vw)."""
    dot, drow, dcol, dspread = views[2]
    return _combined(dot[u][v], drow), _spread(dspread[v], dcol[u])


ASSOC = ("assoc", assoc_pair, ("(x.y).z", "x.(y.z)"), assoc_slabs)
AD_IDENTITIES = (("A1", a1_chain, A1_TERMS, a1_slabs), ("A2", a2_pair, A2_TERMS, a2_slabs))


class Packing:
    """A walk's tables packed for whole basis pairs (``packing``): ``views``
    holds per table (succ, prec, dot, -dot) the (cells, row, col, spread) of
    ``tensors.packed``, or None for a table the identities do not read, with
    ``count`` digits of ``b`` bits; slabs compare in the walk's ``field``,
    after its ``residues`` (``slab_residues``) if it has them."""

    __slots__ = ("views", "b", "field", "residues")

    def __init__(self, views, b, field, count):
        self.views, self.b, self.field = views, b, field
        self.residues = field.slab_residues(b, count)


def packing(walk, ws):
    """The ``Packing`` of a ``Walk`` over the third vectors w in the range
    ``ws``, or None when the lowering left the scalars as given.  A1 and A2
    read succ, prec and -dot, associativity on one product reads dot alone.

    A digit of a term sums n products of two lowered entries, so with M the
    largest |entry| it lies below n M**2 in absolute value, and b bits with
    n M**2 < 2**(b-1) hold every digit with its sign: two slabs are equal
    exactly when their digits are."""
    if walk.part.field == RATIONALS:
        return None
    _, succ, prec, dot, neg = walk.tables
    n = len(dot[0])
    tables = (None, None, dot[0], None) if succ is None else (succ[0], prec[0], None, neg)
    top = max((abs(c) for t in tables if t for row in t for cell in row for _, c in cell),
              default=0)
    b = (n * top * top).bit_length() + 1
    return Packing(tuple(t and (t,) + packed(t, b, ws) for t in tables), b, walk.part.field,
                   len(ws) * n)


def walk_pairs(walk, checks, ru, rv, rw, tag, agree) -> None:
    """Walk the basis pairs (u, v) of ``ru`` x ``rv`` over the third vectors
    w of the range ``rw`` in ``walk.part``.  ``checks`` lists per identity
    (label, spell, terms, slabs) its cells (component, label, terms), each
    comparing that slice (all for None) of ``spell(walk.tables, u, v, w)``.
    A pair where the pair test ``agree((u, v))`` holds ticks ``len(rw)``
    checks per cell, one ``tick()`` each; any other pair is walked triple by
    triple, witness ``tag + (iu, iv, iw)``, so the report is that of a walk
    over every triple."""
    if not rw:
        return
    tables, part = walk.tables, walk.part
    agreed = 0
    for iu, u in enumerate(ru):
        for iv, v in enumerate(rv):
            if agree((u, v)):
                agreed += 1
                continue
            for iw, w in enumerate(rw):
                for identity, cells in checks:
                    values = identity[1](tables, u, v, w)
                    for comp, label, terms in cells:
                        part.require_chain(label, tag + (iu, iv, iw), terms, values if comp is None
                                           else tuple(t[comp] for t in values))
    part.tick_each(agreed * len(rw) * sum(len(cells) for _, cells in checks))


def check_triples(report, n, identities, succ, prec=None) -> Report:
    """Each identity (label, spell, terms, slabs) at every basis triple (i, j, k)
    of an n-dimensional algebra, by ``walk_pairs`` on its ``lowered_walk``.

    The tables are packed once, before the walk, and the pair test compares
    the slabs ``slabs(views, i, j)`` of that ``packing`` over every k, each
    pair once, so it keeps no table of verdicts; scalars the lowering leaves
    as given are walked triple by triple.  Over Q a kept violation is spelled
    again on the tables as given, so that its values are the tables' own
    scalars, and ``report`` absorbs the walk."""
    walk = lowered_walk(report, succ, prec)
    packs = walk.packing(range(n))

    def agree(pair):
        if packs is None:
            return False
        i, j = pair
        for identity in identities:
            if not _agree(packs, identity, i, j):
                return False
        return True

    walk_pairs(walk, [(identity, [(None, identity[0], identity[2])]) for identity in identities],
               range(n), range(n), range(n), (), agree)
    part = walk.part
    if part.violations and report.field == RATIONALS:
        given = _as_given(succ, prec)
        spells = {label: spell for label, spell, *_ in identities}
        part.violations = [_respelled(v, spells[v.equation](given, *v.witness))
                           for v in part.violations]
    return report.absorb(part)


def _agree(packs, identity, i, j):
    """Does the chain of ``identity`` hold at the pair (i, j) for every k?
    Its slabs compare in the packing's field, up to the first that differs."""
    values = iter(identity[3](packs.views, i, j))
    if packs.residues:
        values = map(packs.residues, values)
    first = next(values)
    for x in values:
        if x != first:
            return False
    return True


def _as_given(succ, prec=None):
    """The spells' tables of ``succ``/``prec`` as given, for a kept violation
    over Q.  The cells keep every zero that is not the int 0, and the kernel
    starts a value from the zeros of the first column it reads, so each value
    has the types a dense product on these tables gives them."""
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

    def cells(table):
        return tuple(tuple(tuple((k, c) for k, c in enumerate(v) if c or type(c) is not int)
                           for v in row) for row in table)

    if prec is None:
        return _spelled(kernel, None, None, cells(succ))
    return _spelled(kernel, cells(succ), cells(prec), cells(tuple(
        tuple(tuple(a + b for a, b in zip(sv, pv)) for sv, pv in zip(srow, prow))
        for srow, prow in zip(succ, prec))))


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
