import random
from fractions import Fraction as Q
from itertools import permutations

import pytest

from adw.algebra import BilinearOp
from adw.bialgebra import adybe_residual, check_coboundary_conditions, is_ybe_solution
from adw.fields import InputError
from adw.tensors import C12_13, C13_23, C23_12, t2_zero
from .conftest import contracted, nilpotent2, rand_matrix, sigma, sigma123, sigma132
from .frozen_bialgebra import t3_zero, twist


def basis_t2(n, i, j):
    t = [[Q(0)] * n for _ in range(n)]
    t[i][j] = Q(1)
    return tuple(tuple(r) for r in t)


def basis_t3(n, i, j, k):
    t = [[[Q(0)] * n for _ in range(n)] for _ in range(n)]
    t[i][j][k] = Q(1)
    return tuple(tuple(tuple(r) for r in p) for p in t)


def test_twist_examples():
    assert twist(basis_t2(2, 0, 1)) == basis_t2(2, 1, 0)
    sym = ((Q(1), Q(2)), (Q(2), Q(5)))
    assert twist(sym) == sym
    skew = ((Q(0), Q(1)), (Q(-1), Q(0)))
    assert twist(skew) == tuple(tuple(-x for x in r) for r in skew)


def test_twist_involution_and_shape():
    rng = random.Random(3)
    for n in (1, 2, 4):
        t = rand_matrix(rng, n, n)
        assert twist(twist(t)) == t
    with pytest.raises(InputError):
        twist(((Q(1), Q(2), Q(3)),) * 2)


def test_sigma_conventions():
    # slot-content view: sigma123 sends x(x)y(x)z to z(x)x(x)y
    t = basis_t3(3, 0, 1, 2)
    assert sigma123(t) == basis_t3(3, 2, 0, 1)
    assert sigma132(t) == basis_t3(3, 1, 2, 0)


def test_sigma_order_three():
    rng = random.Random(5)
    t = tuple(tuple(tuple(Q(rng.randint(-3, 3)) for _ in range(3)) for _ in range(3))
              for _ in range(3))
    assert sigma123(sigma123(sigma123(t))) == t
    assert sigma132(sigma123(t)) == t  # the two cycles are mutually inverse


def test_sigma_group_composition():
    rng = random.Random(7)
    t = tuple(tuple(tuple(Q(rng.randint(-3, 3)) for _ in range(3)) for _ in range(3))
              for _ in range(3))

    def compose(p, r):
        # apply r then p: output slot s holds input slot r[p[s]]
        return tuple(r[p[s]] for s in range(3))

    for p in permutations(range(3)):
        for r in permutations(range(3)):
            assert sigma(sigma(t, r), p) == sigma(t, compose(p, r))
    with pytest.raises(InputError):
        sigma(t, (0, 0, 1))


def test_contraction_conventions_on_basis_tensors():
    # with u = a (x) b and v = c (x) d placed on the standard legs:
    #   u12 o v13 = (a o c) (x) b (x) d
    #   u13 o v23 = a (x) c (x) (b o d)
    #   u23 o v12 = c (x) (a o d) (x) b
    n = 2
    op = BilinearOp.from_entries(n, [(0, 0, 1, Q(1))]).table  # e1 o e1 = e2
    u = basis_t2(n, 0, 1)  # e1 (x) e2
    v = basis_t2(n, 0, 0)  # e1 (x) e1
    assert contracted(u, v, op, C12_13) == basis_t3(n, 1, 1, 0)   # e2 (x) e2 (x) e1
    # u13 o v23: b o d = e2 o e1 = 0
    assert contracted(u, v, op, C13_23) == t3_zero(n)
    u2 = basis_t2(n, 1, 0)  # e2 (x) e1
    assert contracted(u2, u2, op, C13_23) == basis_t3(n, 1, 1, 1)  # e2 (x) e2 (x) (e1 o e1)
    # u23 o v12 with u = e1 (x) e2, v = e1 (x) e1: c (x) (a o d) (x) b = e1 (x) e2 (x) e2
    assert contracted(u, v, op, C23_12) == basis_t3(n, 0, 1, 1)


def test_contraction_bilinearity():
    rng = random.Random(9)
    n = 3
    op = BilinearOp.from_entries(n, [(0, 0, 1, Q(1)), (1, 2, 0, Q(-2)), (2, 2, 2, Q(3))]).table
    u1, u2, v = (rand_matrix(rng, n, n) for _ in range(3))
    usum = tuple(tuple(a + b for a, b in zip(r1, r2)) for r1, r2 in zip(u1, u2))
    for how in (C12_13, C13_23, C23_12):
        left = contracted(usum, v, op, how)
        a, b = contracted(u1, v, op, how), contracted(u2, v, op, how)
        add = tuple(tuple(tuple(x + y for x, y in zip(r1, r2))
                          for r1, r2 in zip(p1, p2)) for p1, p2 in zip(a, b))
        assert left == add


def test_contraction_dimension_guard():
    """The contractions run behind the YE6 residual and CD7-CD10, which
    refuse a tensor whose legs do not match the algebra's dimension."""
    alg = nilpotent2()
    for r in (t2_zero(3), t2_zero(2, 3), t2_zero(3, 2), ()):
        for check in (adybe_residual, is_ybe_solution):
            with pytest.raises(InputError):
                check(alg, r)
        with pytest.raises(InputError):
            check_coboundary_conditions(alg, r, r)
