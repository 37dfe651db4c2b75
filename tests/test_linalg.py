import random
from fractions import Fraction as Q

import pytest

from adw.algebra import ADAlgebra, change_basis
from adw.fields import InputError, PrimeField
from adw.linalg import (identity, inverse, matmul, matvec, nullspace,
                        rank, rref, solve_linear, transpose, vadd)
from .conftest import rand_matrix, rand_vec
from .frozen_reps import mat_scale


def test_solve_identity():
    sol = solve_linear(identity(2, Q(1)), (Q(1), Q(2)))
    assert sol == ((Q(1), Q(2)), ())


def test_solve_zero_map():
    sol = solve_linear(((Q(0),),), (Q(0),))
    assert sol is not None
    particular, kernel = sol
    assert particular == (Q(0),)
    assert kernel == ((1,),)


def test_solve_inconsistent():
    # row-reducing [[1,1|1],[2,2|3]] leaves a pivot in the augmented column
    assert solve_linear(((Q(1), Q(1)), (Q(2), Q(2))), (Q(1), Q(3))) is None


def test_solve_properties_randomized():
    rng = random.Random(42)
    for _ in range(60):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        a = rand_matrix(rng, rows, cols)
        x = rand_vec(rng, cols)
        b = matvec(a, x)
        sol = solve_linear(a, b)
        assert sol is not None
        particular, kernel = sol
        assert matvec(a, particular) == b
        for v in kernel:
            assert not any(matvec(a, v))
        # kernel basis is linearly independent: its rank equals its size
        if kernel:
            assert rank(tuple(kernel)) == len(kernel)
        assert len(kernel) == cols - rank(a)


def test_nullspace_deterministic_order():
    a = ((Q(1), Q(2), Q(3)),)
    k1 = nullspace(a)
    k2 = nullspace(a)
    assert k1 == k2
    # one free column per non-pivot, in ascending column order
    assert [next(i for i, x in enumerate(v) if x == 1) for v in k1] == [1, 2]


def test_inverse():
    m = ((Q(1), Q(2)), (Q(3), Q(4)))
    mi = inverse(m)
    assert matmul(m, mi) == identity(2, Q(1))
    assert inverse(((Q(1), Q(2)), (Q(2), Q(4)))) is None
    with pytest.raises(InputError):
        inverse(((Q(1), Q(2)),))


def test_rref_pivots_first_nonzero():
    rows, pivots = rref(((Q(0), Q(2)), (Q(3), Q(0))))
    assert pivots == (0, 1)
    assert rows == identity(2, Q(1))


def test_shape_errors():
    with pytest.raises(InputError):
        matvec(((Q(1),),), (Q(1), Q(2)))
    with pytest.raises(InputError):
        solve_linear(((Q(1),),), (Q(1), Q(2)))
    with pytest.raises(InputError):
        vadd((Q(1),), (Q(1), Q(2)))


def test_transpose_scale():
    m = ((Q(1), Q(2)), (Q(3), Q(4)))
    assert transpose(transpose(m)) == m
    assert mat_scale(Q(2), m) == ((Q(2), Q(4)), (Q(6), Q(8)))


def scalars(obj):
    if isinstance(obj, tuple):
        return [x for y in obj for x in scalars(y)]
    return [obj]


def as_fractions(obj):
    return tuple(as_fractions(x) for x in obj) if isinstance(obj, tuple) else Q(obj)


def test_int_input_is_exact():
    # plain ints divide to ints or Fractions, never to floats, and give the
    # same values as the same input written as Fractions
    rng = random.Random(7)
    cases = [((3, 1), (1, 1)), ((2, 1), (1, 1)), ((0, 2, 1), (3, 0, 1), (1, 1, 1))]
    cases += [tuple(tuple(rng.randint(-3, 3) for _ in range(4)) for _ in range(3))
              for _ in range(20)]
    for m in cases:
        b = tuple(range(1, len(m) + 1))
        results = [(nullspace(m), nullspace(as_fractions(m))),
                   (solve_linear(m, b), solve_linear(as_fractions(m), as_fractions(b)))]
        if len(m) == len(m[0]):
            results.append((inverse(m), inverse(as_fractions(m))))
        for got, want in results:
            assert not any(isinstance(x, float) for x in scalars(got))
            assert got == want
    assert inverse(((3, 1), (1, 1))) == ((Q(1, 2), Q(-1, 2)), (Q(-1, 2), Q(3, 2)))


def test_change_basis_int_matrix_is_exact():
    alg = ADAlgebra.make(2, succ_entries=[(0, 0, 1, Q(1))], prec_entries=[(1, 0, 0, Q(2))])
    got = change_basis(alg, ((2, 1), (1, 1)))
    want = change_basis(alg, as_fractions(((2, 1), (1, 1))))
    for op, op_q in ((got.succ, want.succ), (got.prec, want.prec)):
        assert not any(isinstance(x, float) for x in scalars(op.table))
        assert op.table == op_q.table


def test_inverse_mixed_gf_and_int():
    gf5 = PrimeField(5)
    m = ((1, 0), (gf5.coerce(2), gf5.coerce(1)))
    mi = inverse(m)
    assert mi == ((1, 0), (gf5.coerce(3), 1))
    assert matmul(m, mi) == identity(2, gf5.one)
