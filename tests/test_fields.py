import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adw.fields import (GFElement, InputError, PrimeField, RATIONALS, ScaledRationals,
                        field_from_name)


def test_rational_parse_and_canonical_str():
    f = RATIONALS
    assert f.parse("3/6") == Q(1, 2)
    assert f.to_str(Q(2, 4)) == "1/2"
    assert f.to_str(Q(-8, 2)) == "-4"
    assert f.parse("-7") == Q(-7)
    with pytest.raises(InputError):
        f.parse("1/0")
    with pytest.raises(InputError):
        f.parse("x")


def test_rational_field_exactness():
    # recomputing a sum along two different groupings agrees bit-exactly
    rng = random.Random(1)
    for _ in range(200):
        vals = [Q(rng.randint(-50, 50), rng.randint(1, 50)) for _ in range(6)]
        left = ((vals[0] + vals[1]) + (vals[2] + vals[3])) + (vals[4] + vals[5])
        right = vals[5] + (vals[4] + (vals[3] + (vals[2] + (vals[1] + vals[0]))))
        assert left == right
        assert left.denominator > 0


def test_prime_field_arithmetic():
    f = PrimeField(7)
    a, b = f.parse("3"), f.parse("5")
    assert a + b == 1
    assert a * b == 1
    assert a - b == 5
    assert (a / b) * b == a
    assert -a == 4
    assert f.parse("1/2") * 2 == 1
    assert bool(f.zero) is False and bool(f.one) is True
    with pytest.raises(ZeroDivisionError):
        _ = a / f.zero


def test_prime_field_int_mixing():
    f = PrimeField(5)
    a = f.parse("3")
    assert 1 + a == 4 and a + 1 == 4
    assert 2 * a == 1
    assert 0 == f.zero
    assert sum([f.one, f.one, f.one, f.one, f.one]) == 0


def test_mixed_fields_rejected():
    a = PrimeField(5).one
    b = PrimeField(7).one
    with pytest.raises(InputError):
        _ = a + b


def test_field_from_name():
    assert field_from_name("rational") is RATIONALS
    assert field_from_name("fp11").p == 11
    with pytest.raises(InputError):
        field_from_name("fp10")        # not prime
    with pytest.raises(InputError):
        field_from_name("fp257")       # above the cap
    with pytest.raises(InputError):
        field_from_name("real")


def test_prime_field_enumeration():
    f = PrimeField(3)
    assert [e.v for e in f.elements()] == [0, 1, 2]
    with pytest.raises(InputError):
        RATIONALS.elements()


def test_prime_field_parse_rejects_zero_denominator():
    f = PrimeField(7)
    for text in ("1/7", "3/14", "1/0"):
        with pytest.raises(InputError):
            f.parse(text)
    assert f.parse("1/8") == 1


def test_residues_and_lift():
    f = PrimeField(5)
    g = f.coerce
    # scalars, vectors and tables; zeros of any type become int 0
    assert f.residues(g(3)) == 3 and type(f.residues(g(3))) is int
    assert f.residues(-1) == 4 and f.residues(10) == 0
    assert f.residues(Q(0)) == 0 and f.residues(g(0)) == 0
    table = (((g(1), 0), (-2, g(0))), ((7, g(4)), (0, 5)))
    low = f.residues(table)
    assert low == (((1, 0), (3, 0)), ((2, 4), (0, 0)))
    assert all(type(x) is int for plane in low for row in plane for x in row)
    assert f.lift(low) == table
    assert all(type(x) is GFElement for plane in f.lift(low) for row in plane for x in row)
    assert f.lift(f.residues(((),))) == ((),)
    with pytest.raises(InputError, match="cannot coerce Fraction\\(1, 2\\) into GF\\(5\\)"):
        f.residues((g(1), Q(1, 2)))
    with pytest.raises(InputError, match="element of GF\\(3\\) used in GF\\(5\\)"):
        f.residues(((PrimeField(3).one,),))
    # over Q both are the identity
    v = (Q(1, 2), 0, Q(-3))
    assert RATIONALS.residues(v) is v and RATIONALS.lift(v) is v


def test_residues_read_elements_of_the_field_and_refuse_other_primes():
    """A vector's elements of the field give their residues as they are; an
    element of another prime field raises the same error wherever it sits."""
    f = PrimeField(7)
    assert f.residues(tuple(map(f.coerce, range(-3, 9)))) == tuple(k % 7 for k in range(-3, 9))
    for wrong in (PrimeField(5).coerce(3), PrimeField(11).coerce(10)):
        for at in range(3):
            vector = [f.one, 9, f.coerce(6)]
            vector[at] = wrong
            for x in (tuple(vector), (tuple(vector),), wrong):
                with pytest.raises(InputError,
                                   match=r"^element of GF\(%d\) used in GF\(7\)$" % wrong.p):
                    f.residues(x)


def slab(digits, b):
    return sum(d << b * i for i, d in enumerate(digits))


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13, 251])
def test_slab_residues_reduce_every_digit_value(p):
    """Every digit value below 2**(b-1), at an even and at an odd position,
    for every digit width b up to 14, is taken to its residue mod p."""
    field = PrimeField(p)
    for b in range(1, 15):
        every = list(range(1 << (b - 1)))
        for digits in (every, [0] + every):
            assert (field.slab_residues(b, len(digits))(slab(digits, b))
                    == slab([d % p for d in digits], b))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.data())
def test_slab_residues_on_wide_digits(data):
    """Digits of up to 60 bits, the largest ones among them."""
    p = data.draw(st.sampled_from([2, 3, 5, 7, 13, 251]))
    b = data.draw(st.integers(1, 61))
    top = (1 << (b - 1)) - 1
    digits = data.draw(st.lists(st.one_of(st.sampled_from([0, top, top // 2, top - top // 3]),
                                          st.integers(0, top)), max_size=12))
    assert (PrimeField(p).slab_residues(b, len(digits))(slab(digits, b))
            == slab([d % p for d in digits], b))


@pytest.mark.parametrize("scale", [1, 6])
def test_scaled_lift_is_one_fraction_per_int(scale):
    """``ScaledRationals.lift`` over nested tuples holding 0 and negative
    ints gives Fraction(x, scale) for each int x, in value, type and
    ``repr``; a repeated int gives the same ``Fraction``."""
    field = ScaledRationals(scale)
    x = (((0, -3, 5), (12, 0, -12)), ((-1, 6, 0), (0, 0, 7)))
    want = tuple(tuple(tuple(Q(v, scale) for v in row) for row in plane) for plane in x)
    for _ in range(2):
        got = field.lift(x)
        assert got == want and repr(got) == repr(want)
        assert all(type(v) is Q for plane in got for row in plane for v in row)
    assert field.lift(x[1]) == want[1] and repr(field.lift(-12)) == repr(Q(-12, scale))
    assert field.lift(()) == () and field.lift(((), ())) == ((), ())
    assert field.lift(0) is field.lift(x)[1][1][0]
