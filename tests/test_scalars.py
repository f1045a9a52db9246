import ast
from fractions import Fraction
from operator import add, mul, sub, truediv
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import barspin
from barspin.scalars import Scalar, mul_pairs, mul_sqrt2_pow, sqrt2, sqrt2_pow

rationals = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)
scalars = st.builds(Scalar, rationals, rationals)
# integer coordinates too, as every character value has
coords = st.one_of(st.integers(), rationals)
mixed_scalars = st.builds(Scalar, coords, coords)


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


def _is_exact(q):
    """An int exactly when integral, else a Fraction; never a float or bool."""
    if type(q) is int:
        return True
    return type(q) is Fraction and q.denominator != 1


@given(mixed_scalars, mixed_scalars, st.integers(min_value=-40, max_value=40))
def test_coordinates_are_int_exactly_when_integral(x, y, k):
    results = [x, x + y, x - y, x * y, -x, x.conjugate(), sqrt2_pow(k)]
    if not y.is_zero():
        results.append(x / y)
    for s in results:
        assert _is_exact(s.a) and _is_exact(s.b), repr(s)
    assert _is_exact(x.norm())


@given(coords, coords, coords, coords, st.integers(min_value=-8, max_value=8))
def test_pair_rules_agree_with_scalar_arithmetic(a, b, c, d, k):
    """The product against Scalar's, and the sqrt2^k rule against |k|
    products with (or quotients by) sqrt2 and against sqrt2_pow."""
    assert Scalar(*mul_pairs(a, b, c, d)) == Scalar(a, b) * Scalar(c, d)
    shifted = mul_sqrt2_pow(a, b, k)
    x = Scalar(a, b)
    for _ in range(abs(k)):
        x = x * sqrt2 if k > 0 else x / sqrt2
    assert Scalar(*shifted) == x == Scalar(a, b) * sqrt2_pow(k)
    if type(a) is type(b) is int:
        if type(c) is type(d) is int:
            assert all(type(x) is int for x in mul_pairs(a, b, c, d))
        if k >= 0:
            assert all(type(x) is int for x in shifted)


def test_constructor_normalizes_and_rejects():
    assert type(Scalar(Fraction(6, 3)).a) is int
    assert type(Scalar(True, False).a) is type(Scalar(True, False).b) is int
    assert Scalar(True, False) == Scalar(1)
    assert type((Scalar(1) / Scalar(2)).a) is Fraction
    assert type((Scalar(4) / Scalar(2)).a) is int
    # an integral norm of non-integral coordinates: 100/49 - 2/49 = 2
    assert type(Scalar(Fraction(10, 7), Fraction(1, 7)).norm()) is int
    for bad in (1.0, "1", None):
        with pytest.raises(TypeError):
            Scalar(bad)
        with pytest.raises(TypeError):
            Scalar(0, bad)


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


def test_int_bool_and_fraction_operands_are_read_as_scalars_on_either_side():
    """An int, a bool or a Fraction operand of + - * / and == is the Scalar
    it names, on the left or on the right."""
    x = Scalar(Fraction(1, 3), -2)
    for q in (3, -4, True, Fraction(3, 2), Fraction(-5, 7)):
        s = Scalar(q)
        pairs = [(x + q, x + s), (q + x, s + x), (x - q, x - s), (q - x, s - x),
                 (x * q, x * s), (q * x, s * x), (x / q, x / s), (q / x, s / x)]
        for got, want in pairs:
            assert type(got) is Scalar and repr(got) == repr(want), (q, got, want)
        assert s == q and q == s and not s != q and not q != s
        assert not x == q and not q == x and x != q and q != x


def test_other_operands_raise_in_arithmetic_and_are_unequal():
    """A float or a str operand is no Scalar: arithmetic with it raises
    TypeError on either side, and == gives False."""
    x = Scalar(2)
    for q in (2.0, 0.5, "2"):
        for op in (add, sub, mul, truediv):
            with pytest.raises(TypeError):
                op(x, q)
            with pytest.raises(TypeError):
                op(q, x)
        assert not x == q and not q == x and x != q and q != x


def test_hash_agrees_with_equality():
    """A Scalar equal to an int or a Fraction hashes as it, so it finds it
    in a set or a dict."""
    for q in (0, 2, -7, True, Fraction(1, 2), Fraction(-5, 3)):
        assert Scalar(q) == q and hash(Scalar(q)) == hash(q), q
    assert len({Scalar(2), 2}) == 1
    assert {2: "x"}.get(Scalar(2)) == "x"
    assert {Fraction(1, 2): "h"}.get(Scalar(Fraction(1, 2))) == "h"
    assert Scalar(Fraction(1, 2)) in {Fraction(1, 2)}


# the exact layers; verify and cli time their cases with perf_counter
EXACT_MODULES = ("scalars", "partitions", "abacus", "symfunc", "charvalues", "charspace",
                 "classify")
INTEGER_MATH = {"factorial", "prod", "comb", "gcd", "isqrt"}


def test_exact_modules_use_no_floats():
    """No float literal, no float() or round() call, and no math function
    other than the integer ones."""
    root = Path(barspin.__file__).parent
    for name in EXACT_MODULES:
        for node in ast.walk(ast.parse((root / f"{name}.py").read_text())):
            where = f"{name}.py:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.Constant):
                assert not isinstance(node.value, (float, complex)), where
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                assert node.func.id not in ("float", "round"), where
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                assert node.value.id != "math" or node.attr in INTEGER_MATH, where
            elif isinstance(node, ast.ImportFrom) and node.module == "math":
                assert {alias.name for alias in node.names} <= INTEGER_MATH, where
