"""Exact arithmetic in Q(sqrt(2)).

A Scalar is a + b*sqrt(2) with a, b rational (fractions.Fraction, always in
lowest terms since Fraction normalises).  This is the smallest field that
holds every character value we meet: spin character values on odd classes lie
in Z + Z*sqrt(2).
"""

from __future__ import annotations

from fractions import Fraction


def _as_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot build an exact rational from {x!r}")


class Scalar:
    """a + b*sqrt(2) with exact rational a, b."""

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        object.__setattr__(self, "a", _as_fraction(a))
        object.__setattr__(self, "b", _as_fraction(b))

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    # -- ring structure -------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Scalar(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __neg__(self):
        return Scalar(-self.a, -self.b)

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Scalar(self.a - other.a, self.b - other.b)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        # (a + b r)(c + d r) = ac + 2bd + (ad + bc) r  with r^2 = 2
        return Scalar(
            self.a * other.a + 2 * self.b * other.b,
            self.a * other.b + self.b * other.a,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        n = other.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt2)")
        # 1/(c + d r) = (c - d r)/(c^2 - 2 d^2)
        num = self * other.conjugate()
        return Scalar(num.a / n, num.b / n)

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("only nonnegative integer powers")
        out = Scalar(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- field automorphism and norm ------------------------------------

    def conjugate(self):
        """Galois conjugate a + b*sqrt2 -> a - b*sqrt2."""
        return Scalar(self.a, -self.b)

    def norm(self):
        """Field norm a^2 - 2 b^2, a rational."""
        return self.a * self.a - 2 * self.b * self.b

    # -- predicates ------------------------------------------------------

    def is_zero(self):
        return self.a == 0 and self.b == 0

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash((self.a, self.b))

    # -- serialisation ----------------------------------------------------

    def to_json(self):
        """JSON-friendly dict with both coordinates as exact 'p/q' strings."""
        return {"a": str(self.a), "b": str(self.b)}

    @classmethod
    def from_json(cls, d):
        return cls(Fraction(d["a"]), Fraction(d["b"]))

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


def _coerce(x):
    if isinstance(x, Scalar):
        return x
    if isinstance(x, (int, Fraction)):
        return Scalar(x)
    return NotImplemented


sqrt2 = Scalar(0, 1)


def sqrt2_pow(k):
    """sqrt(2)**k for any integer k, exactly.

    Even k gives the rational 2**(k/2); odd k gives 2**((k-1)/2) * sqrt2.
    Negative k is fine: sqrt2_pow(-1) = sqrt2/2.
    """
    if not isinstance(k, int):
        raise TypeError("exponent must be an integer")
    q, r = divmod(k, 2)
    rat = Fraction(2) ** q
    if r == 0:
        return Scalar(rat)
    return Scalar(0, rat)
