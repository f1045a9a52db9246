"""Tests for the power-sum polynomial layer.

Polynomials are dicts from power-sum indices nu to z_nu times the
coefficient of p_nu, integers wherever the library forms them; `plain`
turns them back into Fraction coefficients.  The closed-form expansions are
pinned against tableau-generating-function evaluations at rational points,
which the oracles compute cell by cell, the closed form of h_r and the
one-row labels of the bar recursion against Newton's recursions, and
Q_alpha and P_alpha, read off the bar recursion, against the Pfaffian of
two-row Q's.  The library's own tableau sum, by the largest letter, is
checked against the cell-by-cell enumeration, and Jacobi-Trudi along the
first column against omega on the conjugate.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from barspin import symfunc as sf
from barspin.partitions import (
    conjugate,
    memo_key,
    odd_partitions_of,
    part_mask,
    partitions_of,
    size,
    staircase,
    strict_partitions_of,
    sum_parts,
)
from oracles import (
    bar_recursion,
    expand_in_P,
    h_poly_newton,
    monomial_schur,
    monomial_schur_q_by_cells,
    omega,
    p_to_P_matrix,
    plain,
    poly_add,
    poly_scale,
    q_poly_newton,
    q_two_row,
    schur_p_pfaffian,
    schur_q_pfaffian,
)


def test_q_poly_frozen():
    assert plain(sf.q_poly(0)) == {(): F(1)}
    assert plain(sf.q_poly(1)) == {(1,): F(2)}
    assert plain(sf.q_poly(2)) == {(1, 1): F(2)}
    assert plain(sf.q_poly(3)) == {(1, 1, 1): F(4, 3), (3,): F(2, 3)}


def test_schur_q_frozen():
    assert plain(sf.schur_q_poly((3, 1))) == {(1, 1, 1, 1): F(4, 3), (3, 1): F(-4, 3)}
    assert plain(sf.schur_p_poly((3, 1))) == {(1, 1, 1, 1): F(1, 3), (3, 1): F(-1, 3)}
    assert sf.schur_q_poly((1,)) == sf.q_poly(1)


def test_schur_frozen():
    assert plain(sf.schur_poly((1, 1))) == {(1, 1): F(1, 2), (2,): F(-1, 2)}
    assert plain(sf.schur_poly((2, 1))) == {(1, 1, 1): F(1, 3), (3,): F(-1, 3)}
    assert plain(sf.h_poly(2)) == {(1, 1): F(1, 2), (2,): F(1, 2)}


def test_closed_generators_match_newton():
    """h_r = sum p_nu/z_nu over nu of r and q_r = sum 2^len(nu) p_nu/z_nu
    over odd nu of r, against Newton's recursions on plain coefficients."""
    for r in range(13):
        assert plain(sf.h_poly(r)) == h_poly_newton(r), r
        assert plain(sf.q_poly(r)) == q_poly_newton(r), r


def test_scaled_coefficients_are_ints():
    """The integer kernel rests on this: no z_nu-scaled coefficient the
    library forms is a Fraction."""
    polys = [sf.h_poly(r) for r in range(13)] + [sf.q_poly(r) for r in range(13)]
    polys += [sf.schur_poly(la) for n in range(11) for la in partitions_of(n)]
    for n in range(13):
        for al in strict_partitions_of(n):
            polys += [sf.schur_q_poly(al), sf.schur_p_poly(al)]
    for poly in polys:
        assert all(type(c) is int for c in poly.values()), poly


def test_polys_hold_no_zero_coefficient():
    """The staircase check compares polynomials with `==`, which rests on
    this: Schur polynomials, their products, Q_alpha and P_alpha hold no
    zero coefficient."""
    schurs = {la: sf.schur_poly(la) for n in range(11) for la in partitions_of(n)}
    polys = list(schurs.values())
    polys += [sf.poly_mul(schurs[la], schurs[mu]) for la in schurs for mu in schurs
              if size(la) + size(mu) <= 10]
    for n in range(13):
        for al in strict_partitions_of(n):
            polys += [sf.schur_q_poly(al), sf.schur_p_poly(al)]
    for poly in polys:
        assert all(poly.values()), poly


def test_poly_mul_scales_by_the_multiplicities():
    """(p_1/z_1)(p_1/z_1) = 2 p_11/z_11 and (p_2 p_1/z_21)(p_1/z_1) = 2 p_211/z_211."""
    assert sf.poly_mul({(1,): 1}, {(1,): 1}) == {(1, 1): 2}
    assert sf.poly_mul({(2, 1): 1}, {(1,): 1}) == {(2, 1, 1): 2}
    assert sf.poly_mul({(2,): 3}, {(1,): 5}) == {(2, 1): 15}


def test_two_row_matches_pfaffian():
    for a in range(1, 6):
        for b in range(0, a):
            assert q_two_row(a, b) == sf.schur_q_poly((a, b) if b else (a,))


def test_schur_q_and_p_match_pfaffian():
    """Q_alpha and P_alpha read off the bar recursion against the Pfaffian
    of two-row Q's, every strict label of size <= 12."""
    for n in range(13):
        for al in strict_partitions_of(n):
            assert sf.schur_q_poly(al) == schur_q_pfaffian(al), al
            assert sf.schur_p_poly(al) == schur_p_pfaffian(al), al


def test_q_series_matches_q_poly():
    xs = [F(1), F(1, 2), F(1, 3)]
    for r in range(0, 6):
        assert sf.q_series_coefficient(r, xs) == sf.evaluate(sf.q_poly(r), xs)


def test_schur_q_matches_shifted_tableaux():
    """Q (primes allowed on the diagonal) and P (none there), read off the
    bar recursion, against marked shifted tableaux filled cell by cell."""
    xs = [F(1), F(1, 2), F(1, 3)]
    for n in range(1, 7):
        for al in strict_partitions_of(n):
            for poly, marked in ((sf.schur_q_poly, True), (sf.schur_p_poly, False)):
                closed = sf.evaluate(poly(al), xs)
                assert closed == monomial_schur_q_by_cells(al, xs, marked), (al, marked)


def test_last_letter_recursion_matches_cell_by_cell_tableaux():
    """The library's sum over marked shifted tableaux by their largest
    letter against the cell-by-cell enumeration: every strict label of
    size <= 8, both markings, zero to five variables, ints and Fractions."""
    points = [[], [2], [1, F(1, 2)], [F(-1, 3), 2, 1], [1, F(1, 2), F(1, 3), 3],
              [F(2, 3), -1, 1, F(1, 5), 2], [12, 6, 4, 3]]
    for n in range(9):
        for al in strict_partitions_of(n):
            for xs in points:
                for marked in (True, False):
                    want = monomial_schur_q_by_cells(al, xs, marked)
                    assert sf.monomial_schur_q(al, xs, marked) == want, (al, xs, marked)


def test_twelve_times_the_point_scales_by_twelve_to_the_degree():
    """The symfunc suite evaluates at (12, 6, 4, 3) = 12 (1, 1/2, 1/3, 1/4).
    Q_alpha, P_alpha, their tableau sums, q_r and the series coefficient
    are homogeneous, so each value there is 12^degree times the value at
    (1, 1/2, 1/3, 1/4), and the tableau and series sums stay ints."""
    ints, fracs = (12, 6, 4, 3), (F(1), F(1, 2), F(1, 3), F(1, 4))
    for n in range(7):
        for al in strict_partitions_of(n):
            for poly, marked in ((sf.schur_q_poly, True), (sf.schur_p_poly, False)):
                scaled = sf.monomial_schur_q(al, ints, marked)
                assert type(scaled) is int, (al, marked)
                assert scaled == 12 ** n * sf.monomial_schur_q(al, fracs, marked), (al, marked)
                assert sf.evaluate(poly(al), ints) == 12 ** n * sf.evaluate(poly(al), fracs)
    for r in range(9):
        scaled = sf.q_series_coefficient(r, ints)
        assert type(scaled) is int, r
        assert scaled == 12 ** r * sf.q_series_coefficient(r, fracs), r
        assert sf.evaluate(sf.q_poly(r), ints) == 12 ** r * sf.evaluate(sf.q_poly(r), fracs)


def test_schur_matches_tableaux():
    xs = [F(2), F(1, 2), F(1, 5)]
    for la in [(2, 1), (2, 2), (3, 1), (3, 2, 1), (4,)]:
        closed = sf.evaluate(sf.schur_poly(la), xs)
        assert closed == monomial_schur(la, xs)


def test_omega_fixes_schur_q_and_conjugates_schur():
    """omega Q_alpha = Q_alpha for every strict label of size <= 10, and
    s_la' = omega s_la for every partition of size <= 10; schur_poly
    expands Jacobi-Trudi for la and la' separately, with no omega."""
    for n in range(11):
        for al in strict_partitions_of(n):
            assert omega(sf.schur_q_poly(al)) == sf.schur_q_poly(al), al
        for la in partitions_of(n):
            assert omega(sf.schur_poly(la)) == sf.schur_poly(conjugate(la)), la


def test_p_of_double_staircase_is_schur_product():
    for r in range(0, 4):
        for s in range(0, r + 1):
            lhs = sf.schur_p_poly(sum_parts(staircase(r), staircase(s)))
            rhs = sf.poly_mul(sf.schur_poly(staircase(r)), sf.schur_poly(staircase(s)))
            assert lhs == rhs


def test_expand_in_P_round_trip():
    for n in range(1, 7):
        for al in strict_partitions_of(n):
            coeffs = expand_in_P(sf.schur_q_poly(al), n)
            assert coeffs == {al: F(2) ** len(al)}


def test_p_in_P_coefficient_frozen():
    assert sf.p_in_P_coefficient((2,), (1, 1)) == 1
    assert sf.p_in_P_coefficient((1,), (1,)) == 1
    assert sf.p_in_P_coefficient((2, 1), (1, 1, 1)) == 1
    assert sf.p_in_P_coefficient((3,), (1, 1, 1)) == 1
    assert sf.p_in_P_coefficient((3,), (3,)) == 1
    assert sf.p_in_P_coefficient((2, 1), (3,)) == -2


def test_bar_recursion_matches_P_matrix_solve():
    """Morris's bar recursion (the production route) against inverting the
    P-to-p transition matrix, every strict label and odd class of size <= 14."""
    for n in range(0, 15):
        alphas, nus, x = p_to_P_matrix(n)
        for al in alphas:
            for nu in nus:
                assert sf.p_in_P_coefficient(al, nu) == x[al][nu], (al, nu)


def test_bar_kernel_matches_tuple_recursion():
    """The part-set kernel against Morris's recursion on tuples over the
    tuple k-bars, every strict label and odd class of size <= 18."""
    for n in range(19):
        for al in strict_partitions_of(n):
            for nu in odd_partitions_of(n):
                assert sf.p_in_P_coefficient(al, nu) == bar_recursion(al, nu), (al, nu)


def test_bar_kernel_reads_the_degree_in_closed_form():
    """At (1^n) the kernel returns Schur's closed form with no recursive
    call, one memo entry per label, and equals Morris's recursion on tuples,
    every strict label of size <= 12."""
    for n in range(13):
        for al in strict_partitions_of(n):
            sf._bar_kernel.cache_clear()
            got = sf._bar_kernel(memo_key((1,) * n, part_mask(al)))
            assert sf._bar_kernel.cache_info().currsize == 1, al
            assert got == bar_recursion(al, (1,) * n), al


def test_p_in_P_coefficient_rejects_bad_input():
    assert sf.p_in_P_coefficient((3,), (1, 1)) == 0
    for al, nu in (((2, 2), (3, 1)), ((3, 0), (3,)), ((2,), (2,)), ((3, 1), (2, 1, 1))):
        with pytest.raises(ValueError):
            sf.p_in_P_coefficient(al, nu)


def test_p_in_P_coefficient_checks_the_label_part_by_part():
    """A bool is not a part, and a negative or float part gets the label's
    message, not an error from the part mask."""
    for al, nu in (((True,), (1,)), ((2, True), (1, 1, 1)), ((-1,), (1,)), ((1.0,), (1,))):
        with pytest.raises(ValueError, match="parts must be positive integers"):
            sf.p_in_P_coefficient(al, nu)


def test_bar_recursion_is_integral():
    for al in strict_partitions_of(10):
        for nu in odd_partitions_of(10):
            assert type(sf.p_in_P_coefficient(al, nu)) is int


@given(st.lists(st.fractions(min_value=F(-3), max_value=F(3)), min_size=1, max_size=3))
@settings(max_examples=25, deadline=None)
def test_poly_algebra_on_random_points(xs):
    f = sf.schur_q_poly((2, 1))
    g = sf.q_poly(2)
    fe, ge = sf.evaluate(f, xs), sf.evaluate(g, xs)
    assert sf.evaluate(sf.poly_mul(f, g), xs) == fe * ge
    assert sf.evaluate(poly_add(f, g), xs) == fe + ge
    assert sf.evaluate(poly_scale(f, F(7, 2)), xs) == fe * F(7, 2)
