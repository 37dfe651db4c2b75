"""``unglue`` inverts ``glue``, and extraction inverts the glued products.

No axioms are required: any table splits and reglues to itself, any
extending, crossed or matched datum comes back out of the ``unglue`` blocks
of its own glued tables (``unglued``), any extending datum comes back out of
its unified product, and any crossed datum comes back out of its crossed
product, through the canonical projection (and section) of the first summand.
"""

from fractions import Fraction as Q

from hypothesis import given, settings, strategies as st

from adw.crossed import cocycle_from_section, crossed_product
from adw.unified import (canonical_projection, extract_extending_datum, glue,
                         unified_product, unglue)

from . import test_glue_differential as glue_data

ROUND_TRIP = settings(derandomize=True, max_examples=40, deadline=None)


@st.composite
def split_tables(draw):
    """(table, dim A) with A the first coordinates; entries of mixed types."""
    n = draw(st.integers(1, 5))
    scalar = st.sampled_from((0, 1, -2, Q(0), Q(1, 2)) + glue_data.COEFFS[glue_data.GF5])
    table = tuple(tuple(tuple(draw(scalar) for _ in range(n)) for _ in range(n))
                  for _ in range(n))
    return table, draw(st.integers(0, n))


@ROUND_TRIP
@given(split_tables())
def test_glue_inverts_unglue(case):
    table, na = case
    n = len(table)
    assert glue(na, n - na, *unglue(table, range(na), range(na, n))) == table


def test_unglue_block_layout():
    # e_1 o f_1 = 2 e_1 + 3 f_1 and f_1 o e_1 = 5 e_1 + 7 f_1 on A = V = span(one vector)
    table = (((0, 0), (2, 3)), ((5, 7), (0, 0)))
    aa, av, va, vv = unglue(table, [0], [1])
    assert av == ((((2,),),), (((3,),),))  # V-on-A at f_1, A-on-V at e_1
    assert va == ((((5,),),), (((7,),),))
    assert aa == ((((0,),),), (((0,),),)) and vv == aa


def tables_of(alg):
    return alg.succ.table, alg.prec.table


@ROUND_TRIP
@given(glue_data.extending_data())
def test_extraction_inverts_unified_product(d):
    e = unified_product(d, precheck=False)
    res = extract_extending_datum(e, *canonical_projection(e, d.algebra.dim))
    got = res.datum
    assert tables_of(got.algebra) == tables_of(d.algebra)
    for name in d.__dataclass_fields__:
        if name != "algebra":
            assert getattr(got, name) == getattr(d, name), name


@ROUND_TRIP
@given(glue_data.crossed_data())
def test_section_inverts_crossed_product(c):
    e = crossed_product(c, precheck=False)
    section, proj = canonical_projection(e, c.algebra.dim)
    got = cocycle_from_section(e, proj, section).datum
    assert tables_of(got.algebra) == tables_of(c.algebra)
    assert tables_of(got.valgebra) == tables_of(c.valgebra)
    for name in ("lsucc", "rsucc", "lprec", "rprec", "omega1", "omega2"):
        assert getattr(got, name) == getattr(c, name), name


def reglued(d, *algebras):
    """``d`` read back off the ``unglue`` blocks of its own glued tables."""
    tables = d.glued()
    na, n = algebras[0].dim, len(tables[0])
    return type(d).unglued(*algebras, *(unglue(t, range(na), range(na, n)) for t in tables))


@ROUND_TRIP
@given(st.one_of(glue_data.extending_data().map(lambda d: (d, (d.algebra,))),
                 glue_data.crossed_data().map(lambda d: (d, (d.algebra, d.valgebra))),
                 glue_data.matched_data().map(lambda d: (d, (d.alg1, d.alg2)))))
def test_unglued_inverts_glued(case):
    """Every datum class with a ``PARTS`` layout comes back out of the
    ``unglue`` blocks of its glued tables, whether or not it satisfies its
    axioms."""
    d, algebras = case
    got = reglued(d, *algebras)
    assert got == d
    assert repr(got) == repr(d)
