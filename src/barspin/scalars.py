"""Exact arithmetic in Q(sqrt(2)).

A Scalar is a + b*sqrt(2) with a, b rational.  Each coordinate is an int
when it is integral and a fractions.Fraction (in lowest terms) only when it
is not, as for a quotient or a negative power of sqrt2.  Every character
value we meet lies in Z + Z*sqrt(2), so in practice both coordinates are
ints; Q(sqrt(2)) is the smallest field that holds them and their quotients.
Binary operations take an int, bool or Fraction operand as a Scalar and no
other type (`_scalar_operand`); a Scalar with b = 0 hashes as its a."""

from __future__ import annotations

from fractions import Fraction
from functools import wraps


def _exact(x):
    """x as a coordinate: an int when integral, else a Fraction."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int):
        return int(x)  # a bool or another int subclass
    raise TypeError(f"cannot build an exact rational from {x!r}")


def _scalar_operand(op):
    """op(self, other) for a Scalar other, with an int, bool or Fraction
    operand read as the Scalar it names and any other type NotImplemented."""
    @wraps(op)
    def coerced(self, other):
        if not isinstance(other, Scalar):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Scalar(other)
        return op(self, other)
    return coerced


class Scalar:
    """a + b*sqrt(2) with exact rational a, b: ints when integral."""

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        object.__setattr__(self, "a", _exact(a))
        object.__setattr__(self, "b", _exact(b))

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    # -- ring structure -------------------------------------------------

    @_scalar_operand
    def __add__(self, other):
        return Scalar(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __neg__(self):
        return Scalar(-self.a, -self.b)

    @_scalar_operand
    def __sub__(self, other):
        return Scalar(self.a - other.a, self.b - other.b)

    @_scalar_operand
    def __rsub__(self, other):
        return other - self

    @_scalar_operand
    def __mul__(self, other):
        return Scalar(*mul_pairs(self.a, self.b, other.a, other.b))

    __rmul__ = __mul__

    @_scalar_operand
    def __truediv__(self, other):
        n = other.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt2)")
        # 1/(c + d r) = (c - d r)/(c^2 - 2 d^2)
        a, b = mul_pairs(self.a, self.b, other.a, -other.b)
        return Scalar(Fraction(a, n), Fraction(b, n))

    @_scalar_operand
    def __rtruediv__(self, other):
        return other / self

    # -- field automorphism and norm ------------------------------------

    def conjugate(self):
        """Galois conjugate a + b*sqrt2 -> a - b*sqrt2."""
        return Scalar(self.a, -self.b)

    def norm(self):
        """Field norm a^2 - 2 b^2, a rational: an int when integral."""
        return _exact(self.a * self.a - 2 * self.b * self.b)

    # -- predicates ------------------------------------------------------

    def is_zero(self):
        return self.a == 0 and self.b == 0

    def __bool__(self):
        return not self.is_zero()

    @_scalar_operand
    def __eq__(self, other):
        return self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash((self.a, self.b)) if self.b else hash(self.a)

    # -- display ----------------------------------------------------------

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        if self.b == 1:
            bpart = "sqrt2"
        elif self.b == -1:
            bpart = "-sqrt2"
        else:
            bpart = f"{self.b}*sqrt2"
        if self.a == 0:
            return bpart
        sign = "+" if self.b > 0 else "-"
        mag = bpart.lstrip("-")
        return f"{self.a} {sign} {mag}"

    def __repr__(self):
        return f"Scalar({self.a!r}, {self.b!r})"


def mul_pairs(a, b, c, d):
    """(a + b sqrt2)(c + d sqrt2) as the pair (ac + 2bd, ad + bc)."""
    return a * c + 2 * b * d, a * d + b * c


def mul_sqrt2_pow(a, b, k):
    """(a + b sqrt2) sqrt2^k as a pair, for any integer k: ints stay ints
    for k >= 0, and k < 0 gives Fractions."""
    q, odd = divmod(k, 2)
    if odd:
        a, b = 2 * b, a
    if q < 0:
        return Fraction(a, 1 << -q), Fraction(b, 1 << -q)
    return a * (1 << q), b * (1 << q)


sqrt2 = Scalar(0, 1)


def sqrt2_pow(k):
    """sqrt(2)**k for any integer k, exactly: sqrt2_pow(-1) = sqrt2/2."""
    if not isinstance(k, int):
        raise TypeError("exponent must be an integer")
    return Scalar(*mul_sqrt2_pow(1, 0, k))
