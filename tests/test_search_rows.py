"""The rows the skew search prunes on (``_ye6_rows``) against the YE6 form
they reduce (``_ye6_form``).

Over GF(2), GF(3) and Q, on random tables, known algebras and basis changes
of R(nil2) of dimension 0..4, at every point of a grid (the whole field, or
a few values of it): the rows must all vanish exactly where every component
of the form vanishes, and each row must sit at the level of its highest
variable, so that the walk tests it as soon as its variables are assigned.
"""

from itertools import product

from hypothesis import given, settings, strategies as st

from adw.algebra import ADAlgebra, change_basis
from adw.bialgebra import _ye6_form, _ye6_rows
from adw.fields import RATIONALS, PrimeField

from .conftest import rnil2
from .test_search_differential import GRID, invertible, known_algebras, random_table

FIELDS = (RATIONALS, PrimeField(2), PrimeField(3))


@st.composite
def grids(draw):
    """(algebra, grid values as the walk reads them)."""
    field, n = draw(st.sampled_from(FIELDS)), draw(st.integers(0, 4))
    kind = draw(st.sampled_from(("random", "known", "rnil2-basis")))
    if kind == "rnil2-basis" and n == 4:
        alg = change_basis(rnil2(field), invertible(draw, field, 4))
    elif kind == "known" and known_algebras(field, n):
        alg = draw(st.sampled_from(known_algebras(field, n)))
    elif n == 0:
        alg = ADAlgebra.zero(0, field)
    else:
        alg = ADAlgebra(n, tuple("e%d" % (i + 1) for i in range(n)),
                        random_table(draw, field, n), random_table(draw, field, n), field)
    if field is RATIONALS:
        values = draw(st.lists(st.sampled_from(GRID), min_size=1, max_size=3))
    else:
        values = field.elements()
    return alg, [field.residues(field.coerce(x)) for x in values]


def vanishes(terms, xs, field):
    return not field.residues(sum(c * xs[a] * xs[b] for a, b, c in terms))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(grids())
def test_rows_vanish_where_the_form_vanishes(case):
    alg, values = case
    field, k = alg.field, alg.dim * (alg.dim - 1) // 2
    comps = [terms for level in _ye6_form(alg, k) for terms in level]
    levels = _ye6_rows(alg, k)
    assert len(levels) == k
    for t, rows in enumerate(levels):
        for terms in rows:
            assert terms and max(b for _, b, _ in terms) == t
    rows = [terms for level in levels for terms in level]
    for xs in product(values, repeat=k):
        assert all(vanishes(r, xs, field) for r in rows) == \
            all(vanishes(c, xs, field) for c in comps)
