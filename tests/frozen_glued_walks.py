"""The glued walks as they were before they read a table of pair verdicts.

A verbatim copy of ``adw.unified.check_glued`` and ``check_columns``, and of
the ``adw.algebra`` code they read: ``lowered_walk`` with its ``Walk`` (the
lowered cells and their live pairs), the spells ``a1_chain``, ``a2_pair``
and ``assoc_pair`` and the ``IDENTITIES`` that name them.  These walks
evaluate every live triple, those where (u, v) or (v, w) holds a cell, and
tick the dead ones.  They are the oracle of
``tests/test_glued_pairs_differential.py``.
The product kernel ``linalg.accumulate`` and the cell builders of
``adw.tensors`` are the live ones, checked against the dense row kernels in
``tests/test_cell_kernel_differential.py``.
"""

from __future__ import annotations

from functools import partial
from operator import itemgetter

from adw.linalg import accumulate, vzero
from adw.reporting import Report
from adw.tensors import cells_sum, operators, table_cells


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
    """What the walks of one check share, computed once: the lowered tables
    as the spells read them (``lowered_cells``), their support ``live``
    (``live[u][v]`` is true when (u, v) holds a cell of some lowered table,
    so an entry that is 0 in the field is dead) and the ``part`` that
    compares values in the lowering's field.

    A triple (u, v, w) is live when (u, v) or (v, w) is: every term of A1, A2
    and associativity is a product with a table's value at one of those two
    pairs, so at a dead triple every term is the zero vector and the
    identity holds.  The glued walks of ``adw.unified`` evaluate the live
    triples, in their order, and tick the dead ones (``Report.tick_each``)
    without evaluating them; ``check_triples`` reads the tables alone.
    A plain class: a frozen dataclass costs each command-line process about
    a millisecond to create."""

    __slots__ = ("tables", "live", "part")

    def __init__(self, tables, live, part: Report):
        self.tables, self.live, self.part = tables, live, part


def lowered_walk(report, succ, prec=None) -> Walk:
    """The ``Walk`` of identities of degree 2 in the tables (A1, A2,
    associativity, every glued slot) on ``succ``/``prec``; its empty
    ``part`` of ``report`` compares their values in the lowering's field."""
    lowering = report.field.lowering(succ, prec)
    succ, prec, dot = lowered_cells(lowering, succ, prec)
    live = (tuple(tuple(map(bool, row)) for row in dot) if succ is None else
            tuple(tuple(bool(a or b) for a, b in zip(s, p)) for s, p in zip(succ, prec)))
    part = report.part(lowering[1](2))
    return Walk(_spelled(partial(accumulate, len(dot)), succ, prec, dot,
                         getattr(part.field, "p", 0)), live, part)


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


A1_CHAIN_TERMS = ("u>(v>w)", "-(u.v)>w", "-u<(v.w)", "(u<v)<w")
A2_TERMS = tuple(("(u>v)<w", "u>(v<w) [%s-component]" % tag) for tag in "AV")
ASSOC_TERMS = tuple(("(uv)w", "u(vw) [%s component]" % tag) for tag in ("first", "second"))


IDENTITIES = {"A1": a1_chain, "A2": a2_pair, "assoc": assoc_pair,
              "assoc, sides swapped": lambda *at: assoc_pair(*at)[::-1]}


def check_glued(walk, na, nv, slots) -> None:
    """Check a glued product on A (+) V slot by slot over typed basis triples.

    ``walk`` is the ``lowered_walk`` of glued tables from ``glue``.  With
    both products, ``slots`` (from ``split_slots``) labels the components of
    A1/A2; with one, ``slots`` maps each type to the (A-id, V-id) of its
    associativity components.  Triple types run in the order of ``slots``; a
    witness is (type, i, j, k) with indices local to each summand.  The A and
    V components, the two slices of the glued vectors, are compared in
    ``walk.part`` at the live triples; the dead ones are ticked.
    """
    n = na + nv
    comps = (slice(0, na), slice(na, n))
    summand = {"A": range(na), "V": range(na, n)}
    tables, live, part = walk.tables, walk.live, walk.part
    # the live w of each summand after each v, with their local indices
    after = {s: [[(iw, w) for iw, w in enumerate(ws) if live[v][w]] for v in range(n)]
             for s, ws in summand.items()}
    for ttype, labels in slots.items():
        parts = ((("assoc", labels, ASSOC_TERMS),) if tables[1] is None else
                 (("A1", labels[0], (A1_CHAIN_TERMS,) * 2), ("A2", labels[1], A2_TERMS)))
        # per identity: (component, label, terms) of its labelled slots
        checks = [(IDENTITIES[identity], cells) for identity, ids, terms in parts
                  if (cells := [cell for cell in zip(comps, ids, terms) if cell[1]])]
        tname = "".join(ttype)
        ru, rv, rw = (summand[t] for t in ttype)
        every, dead = list(enumerate(rw)), 0
        for iu, u in enumerate(ru):
            for iv, v in enumerate(rv):
                ws = every if live[u][v] else after[ttype[2]][v]
                dead += len(rw) - len(ws)
                for iw, w in ws:
                    for identity, cells in checks:
                        values = identity(tables, u, v, w)
                        for comp, label, terms in cells:
                            part.require_chain(label, (tname, iu, iv, iw), terms,
                                               tuple(t[comp] for t in values))
        part.tick_each(dead * sum(len(cells) for _, cells in checks))


def check_columns(walk, na, nv, slots, acting="A") -> None:
    """Check the actions of the ``acting`` summand of a glued product on the other.

    Each slot (label, placement, identity, terms) is checked once per ordered
    pair (x, y) of acting basis vectors, witness (i, j) local to the summand:
    column w of each matrix is the identity at the triple that ``placement``
    spells in x, y and the module basis vector w, cut to the module
    component.  Values are compared as in ``check_glued``; a column at a dead
    triple is the zero column, and a slot whose columns are all dead is
    ticked without being evaluated; the matrices are built only to record a
    broken chain.
    """
    n = na + nv
    summand = {"A": range(na), "V": range(na, n)}
    module, cut = ((summand["V"], slice(na, n)) if acting == "A" else
                   (summand["A"], slice(0, na)))
    tables, live, part = walk.tables, walk.live, walk.part
    # out[u][k] / into[u][k]: is (u, w) / (w, u) live, for the k-th module vector w
    out = [[live[u][w] for w in module] for u in range(n)]
    into = [[live[w][u] for w in module] for u in range(n)]
    everywhere = [True] * len(module)

    def alive(placement, at):
        """Per module vector w, whether the triple (u, v, t) that ``placement``
        spells in at["x"], at["y"] and w is live: (u, v) or (v, t) is."""
        first, mid, last = placement
        if last == "w":
            return everywhere if live[at[first]][at[mid]] else out[at[mid]]
        if first == "w":
            return everywhere if live[at[mid]][at[last]] else into[at[mid]]
        return [a or b for a, b in zip(out[at[first]], into[at[last]])]

    slots = [(label, placement, itemgetter(*("xyw".index(p) for p in placement)),
              IDENTITIES[identity], terms, (vzero(n),) * len(terms))
             for label, placement, identity, terms in slots]
    placements = {slot[1] for slot in slots}
    for i, x in enumerate(summand[acting]):
        for j, y in enumerate(summand[acting]):
            at = {"x": x, "y": y}
            flags = {placement: alive(placement, at) for placement in placements}
            for label, placement, place, identity, terms, zero in slots:
                if not any(flags[placement]):
                    part.tick()
                    continue
                cols = [identity(tables, *place((x, y, w))) if flag else zero
                        for w, flag in zip(module, flags[placement])]
                rows = tuple(tuple(col[t][cut] for col in cols) for t in range(len(terms)))
                values = part.field.residues(rows)
                if values.count(values[0]) == len(values):
                    part.tick()
                else:
                    part.require_chain(label, (i, j), terms, tuple(tuple(zip(*r)) for r in rows))

