"""Exact combinatorics of strict partitions, abacus displays and spin
characters of double covers of symmetric groups in characteristic 2.

Everything is exact: integers are ints, a non-integer rational is a
fractions.Fraction, and irrationalities live in Z[sqrt(2)] via the Scalar
type, whose coordinates are ints unless they are not integral.  No floats
anywhere.
"""

from barspin.scalars import Scalar, sqrt2, sqrt2_pow

__all__ = ["Scalar", "sqrt2", "sqrt2_pow"]
