import json
from fractions import Fraction

from hypothesis import given, strategies as st

from barspin.scalars import Scalar, sqrt2, sqrt2_pow

rationals = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)
scalars = st.builds(Scalar, rationals, rationals)


def test_basic_identities():
    assert sqrt2 * sqrt2 == Scalar(2)
    assert (Scalar(1) + sqrt2) * (Scalar(1) - sqrt2) == Scalar(-1)
    assert (Scalar(2) + sqrt2) / sqrt2 == Scalar(1) + sqrt2
    assert Scalar(Fraction(1, 2)) * 2 == Scalar(1)


def test_sqrt2_pow_values():
    assert sqrt2_pow(0) == Scalar(1)
    assert sqrt2_pow(1) == sqrt2
    assert sqrt2_pow(2) == Scalar(2)
    assert sqrt2_pow(3) == Scalar(0, 2)
    assert sqrt2_pow(-1) == Scalar(0, Fraction(1, 2))
    assert sqrt2_pow(-2) == Scalar(Fraction(1, 2))


def test_sqrt2_pow_is_a_homomorphism():
    for j in range(-20, 21):
        for k in range(-20, 21):
            assert sqrt2_pow(j) * sqrt2_pow(k) == sqrt2_pow(j + k)


@given(scalars, scalars, scalars)
def test_ring_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert (x * y) * z == x * (y * z)
    assert x * y == y * x
    assert x * (y + z) == x * y + x * z
    assert x + Scalar(0) == x
    assert x * Scalar(1) == x
    assert x + (-x) == Scalar(0)


@given(scalars)
def test_field_inverse(x):
    if not x.is_zero():
        assert x / x == Scalar(1)
        assert (Scalar(1) / x) * x == Scalar(1)


@given(scalars, scalars)
def test_conjugation_is_ring_hom(x, y):
    assert (x + y).conjugate() == x.conjugate() + y.conjugate()
    assert (x * y).conjugate() == x.conjugate() * y.conjugate()
    assert x.conjugate().conjugate() == x


@given(scalars, scalars)
def test_norm_multiplicative(x, y):
    assert (x * y).norm() == x.norm() * y.norm()


@given(scalars)
def test_json_roundtrip(x):
    blob = json.dumps(x.to_json())
    assert Scalar.from_json(json.loads(blob)) == x


def test_str_forms():
    assert str(Scalar(3)) == "3"
    assert str(sqrt2) == "sqrt2"
    assert str(Scalar(0, -1)) == "-sqrt2"
    assert str(Scalar(1, 2)) == "1 + 2*sqrt2"
    assert str(Scalar(1, -1)) == "1 - sqrt2"
    assert str(Scalar(Fraction(1, 2), Fraction(-3, 4))) == "1/2 - 3/4*sqrt2"


def test_immutable_and_hashable():
    s = Scalar(1, 1)
    try:
        s.a = Fraction(2)
        raised = False
    except AttributeError:
        raised = True
    assert raised
    assert len({Scalar(1, 1), Scalar(1, 1), Scalar(1, 2)}) == 2
