"""Exact scalar fields.

Two fields are supported: the rationals (arbitrary-precision ``Fraction``
values, always in lowest terms with positive denominator) and small prime
fields GF(p) with p <= 251, used for exhaustive searches.  A run works over
exactly one field; mixing elements of different fields is an error.

Plain Python ints may appear as additive/multiplicative constants (0, 1, -1):
both element types absorb them, so generic code can write ``sum(...)`` or
``-x`` without knowing the field.

``lowering`` is the one way checks compute on plain ints.  Over GF(p) it
lowers scalars to their int residues mod p; over Q it scales every input of
a check by d, the lcm of their denominators, to ints, or over GF(p) if they
hold GF(p) elements; any other scalar is refused.  ``residues`` and ``lift``
are the comparison boundary: a ``Report`` compares the residues of its
values and records the lift of a kept violation.  Over GF(p) they reduce
mod p and return field elements; after a lowering over Q the report compares
in ``ScaledRationals(d**k)``, for values of degree k in the inputs, whose
``residues`` leaves the ints as they are and whose ``lift`` divides by d**k.
An identity that is homogeneous of degree k holds on the inputs exactly when
it holds on their lowering, so a verdict never depends on the path.
"""

from __future__ import annotations

import os
from fractions import Fraction
from math import lcm


class InputError(ValueError):
    """Malformed user input: bad file, bad shape, bad coefficient string."""


class GFElement:
    """An element of GF(p), stored as the canonical representative 0..p-1."""

    __slots__ = ("p", "v")

    def __init__(self, p: int, v: int):
        self.p = p
        self.v = v % p

    def _coerce(self, other):
        if isinstance(other, GFElement):
            if other.p != self.p:
                raise InputError("mixed prime fields GF(%d) and GF(%d)" % (self.p, other.p))
            return other
        if isinstance(other, int):
            return GFElement(self.p, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else GFElement(self.p, self.v + o.v)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else GFElement(self.p, self.v - o.v)

    def __rsub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else GFElement(self.p, o.v - self.v)

    def __mul__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else GFElement(self.p, self.v * o.v)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.v == 0:
            raise ZeroDivisionError("division by zero in GF(%d)" % self.p)
        return GFElement(self.p, self.v * pow(o.v, self.p - 2, self.p))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o.__truediv__(self)

    def __neg__(self):
        return GFElement(self.p, -self.v)

    def __pos__(self):
        return self

    def __eq__(self, other):
        if isinstance(other, GFElement):
            return self.p == other.p and self.v == other.v
        if isinstance(other, int):
            return self.v == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.p, self.v))

    def __bool__(self):
        return self.v != 0

    def __repr__(self):
        return "GF%d(%d)" % (self.p, self.v)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class Rationals:
    name = "rational"
    zero = Fraction(0)
    one = Fraction(1)
    enumerable = False

    def coerce(self, x) -> Fraction:
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        raise InputError("cannot coerce %r into the rational field" % (x,))

    def parse(self, s: str) -> Fraction:
        try:
            return Fraction(s)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError("bad rational coefficient %r: %s" % (s, exc)) from exc

    def to_str(self, x) -> str:
        x = self.coerce(x)
        if x.denominator == 1:
            return str(x.numerator)
        return "%d/%d" % (x.numerator, x.denominator)

    def elements(self):
        raise InputError("the rational field is not enumerable; use a grid or fp<p>")

    def residues(self, x):
        """Rationals compare as they are: x itself."""
        return x

    def lift(self, x):
        """The inverse of ``residues``: x itself."""
        return x

    def lowering(self, *parts):
        """(lower, at) for the nested tuples of scalars in ``parts`` (None is skipped).

        d is the lcm of the denominators of their coefficients.  ``lower``
        takes a nested tuple of those coefficients to the ints d*x, every zero
        to int 0; ``at(k)`` is ``ScaledRationals(d**k)``, where a value of
        degree k in the lowered parts compares and lifts.  A ``GFElement`` of
        GF(p) among them gives ``PrimeField(p).lowering()``; ``coerce`` refuses
        any other scalar that is neither an int nor a ``Fraction``.
        """
        dens = set()
        try:
            for part in parts:
                if part is not None:
                    for vec in _vectors(part):
                        if any(vec):
                            dens.update(x.denominator for x in vec if x)
        except AttributeError:
            x = next(x for part in parts if part is not None for vec in _vectors(part)
                     for x in vec if x and not hasattr(x, "denominator"))
            return PrimeField(x.p).lowering() if type(x) is GFElement else self.coerce(x)
        d = lcm(*dens)

        def lower(x):
            if x and type(x[0]) is tuple:
                return tuple(map(lower, x))
            if not any(x):
                return (0,) * len(x)
            return tuple(y.numerator * (d // y.denominator) if y else 0 for y in x)

        return lower, lambda k: ScaledRationals(d ** k)

    def __repr__(self):
        return "Rationals()"

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("rational")


class _Lifted(dict):
    """{int v: the ``Fraction`` v/scale}, each made once, at its first lookup."""
    __slots__ = ("scale",)

    def __missing__(self, x):
        q = self[x] = Fraction(x) if self.scale == 1 else Fraction(x, self.scale)
        return q


class ScaledRationals:
    """The rationals as ints over a fixed scale: the int v stands for v/scale.

    A check whose inputs were lowered by ``Rationals.lowering`` compares its
    values here: they are already ints at this scale, so ``residues``
    leaves them as they are, and ``lift`` divides them by the scale.
    """

    def __init__(self, scale: int):
        self.scale = scale
        self._lifted = _Lifted()
        self._lifted.scale = scale

    def residues(self, x):
        return x

    def lift(self, x):
        """The ``Fraction`` x/scale of an int, or of each int in a nested tuple."""
        if type(x) is not tuple:
            return self._lifted[x]
        if x and type(x[0]) is tuple:
            return tuple(map(self.lift, x))
        return tuple(map(self._lifted.__getitem__, x))

    def slab_residues(self, b, count):
        """None: slabs (``tensors.packed``) compare as the ints they are."""
        return None

    def __repr__(self):
        return "ScaledRationals(%d)" % self.scale


def _vectors(x):
    """The innermost tuples of scalars of a nested tuple, flattened one level
    at a time."""
    vecs = [x]
    while vecs[0] and type(vecs[0][0]) is tuple:
        vecs = [y for v in vecs for y in v]
    return vecs


class PrimeField:
    enumerable = True

    def __init__(self, p: int):
        if not _is_prime(p) or p > 251:
            raise InputError("prime-field modulus must be a prime <= 251, got %r" % (p,))
        self.p = p
        self.name = "fp%d" % p
        self.zero = GFElement(p, 0)
        self.one = GFElement(p, 1)

    def coerce(self, x) -> GFElement:
        if isinstance(x, GFElement):
            if x.p != self.p:
                raise InputError("element of GF(%d) used in GF(%d)" % (x.p, self.p))
            return x
        if isinstance(x, int):
            return GFElement(self.p, x)
        raise InputError("cannot coerce %r into GF(%d)" % (x, self.p))

    def parse(self, s: str) -> GFElement:
        s = s.strip()
        if "/" in s:
            num, _, den = s.partition("/")
            try:
                n, d = int(num), int(den)
            except ValueError as exc:
                raise InputError("bad coefficient %r" % s) from exc
            if d % self.p == 0:
                raise InputError("bad coefficient %r: denominator is 0 in GF(%d)"
                                 % (s, self.p))
            return self.coerce(n) / self.coerce(d)
        try:
            return self.coerce(int(s))
        except ValueError as exc:
            raise InputError("bad coefficient %r" % s) from exc

    def to_str(self, x) -> str:
        return str(self.coerce(x).v)

    def elements(self):
        return [GFElement(self.p, k) for k in range(self.p)]

    def residues(self, x):
        """x with every scalar as its int residue 0..p-1 and every zero as int 0.

        x is a scalar or a nested tuple of scalars (a vector, a matrix, a
        product table).  A nonzero scalar must be an int or an element of
        this field; ints, such as sums and products of residues, are reduced
        mod p, and an element of this field gives its residue as it is.
        """
        if type(x) is not tuple:
            return self.coerce(x).v if x else 0
        if x and type(x[0]) is tuple:
            return tuple(map(self.residues, x))
        p = self.p
        return tuple(y % p if type(y) is int else
                     y.v if type(y) is GFElement and y.p == p else self.residues(y) for y in x)

    def lift(self, x):
        """The field elements of a residue or a nested tuple of residues."""
        if type(x) is tuple:
            return tuple(map(self.lift, x))
        return GFElement(self.p, x)

    def slab_residues(self, b, count):
        """The map taking a slab (``tensors.packed``) of ``count`` digits of b
        bits, each in 0..2**(b-1)-1, to the slab of their residues mod p.

        The even and the odd digits are reduced apart, so that each digit has
        b free bits above it and one multiplication gives every quotient:
        with s = b - 1 + bitlength(p - 1) and m = ceil(2**s / p), Barrett's
        quotient floor(d m / 2**s) is floor(d / p) for every such digit d
        (Granlund and Montgomery 1994), and d m is below 2**(2b - 1).
        """
        p, s, w = self.p, b - 1 + (self.p - 1).bit_length(), 2 * b
        m, half = -(-(1 << s) // p), range((count + 1) // 2)
        digits = sum(((1 << b) - 1) << w * j for j in half)
        quotients = sum(((1 << max(w - s, 0)) - 1) << w * j for j in half)

        def residues(x):
            even, odd = x & digits, x >> b & digits
            even -= p * (even * m >> s & quotients)
            odd -= p * (odd * m >> s & quotients)
            return even | odd << b
        return residues

    def lowering(self, *parts):
        """(lower, at): ``residues`` lowers, and values of every degree
        compare in this field."""
        return self.residues, lambda k: self

    def __repr__(self):
        return "PrimeField(%d)" % self.p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("fp", self.p))


RATIONALS = Rationals()


def field_from_name(name: str):
    """Resolve 'rational' or 'fp<prime>' to a field object."""
    if name == "rational":
        return RATIONALS
    if name.startswith("fp"):
        try:
            p = int(name[2:])
        except ValueError as exc:
            raise InputError("bad field name %r" % name) from exc
        return PrimeField(p)
    raise InputError("unknown field %r (expected 'rational' or 'fp<prime>')" % name)


def field_from_env():
    """Scalar field selected by the ADW_FIELD environment variable."""
    return field_from_name(os.environ.get("ADW_FIELD", "rational"))
