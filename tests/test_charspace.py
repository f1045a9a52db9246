"""Tests for vectors of virtual characters and the operators acting on them.

Operator images are frozen from hand computations on the abacus.  The
adjointness of the raising and lowering operators is checked exhaustively
in small sizes, since every branching identity used elsewhere reduces to it.
The composite operators are checked against their defining alternating sums,
summed vector by vector over every a (the reference routes below).
"""

import pytest

from barspin import charspace as cs
from barspin.scalars import Scalar
from barspin.partitions import (
    partitions_of,
    spin_additions,
    spin_removals,
    strict_partitions_of,
)

S = lambda a, b=0: Scalar(a, b)
u = cs.unit


# ---------------------------------------------------------------------------
# vector plumbing

def test_vector_accumulates_duplicate_labels():
    v = cs.vector("spin", 4, [((3, 1), S(1)), ((3, 1), S(2))])
    assert v == cs.scale(u("spin", (3, 1)), S(3))


def test_vector_validation():
    with pytest.raises(ValueError):
        cs.unit("spin", (2, 2))
    with pytest.raises(ValueError):
        cs.vector("linear", 4, [((3, 2), S(1))])
    with pytest.raises(ValueError):
        cs.inner(u("spin", (3, 1)), u("linear", (2, 2)))
    with pytest.raises(ValueError):
        cs.add(u("spin", (3, 1)), u("spin", (4, 1)))


def test_add_scale_inner():
    v = cs.add(u("spin", (3, 1)), cs.scale(u("spin", (3, 1)), S(-1)))
    assert v.is_zero()
    assert cs.inner(u("spin", (3, 1)), u("spin", (3, 1))) == S(1)
    assert cs.inner(u("linear", (2, 2)), u("linear", (2, 1, 1))) == S(0)


# ---------------------------------------------------------------------------
# raising and lowering

def test_apply_e_frozen():
    got = cs.apply_e(u("spin", (6, 3, 2)), 1, r=2)
    assert got == cs.vector("spin", 9, [((5, 3, 1), S(2)), ((6, 2, 1), S(1))])
    got = cs.apply_e(u("linear", (6, 3, 1, 1)), 1, r=2)
    assert got == cs.vector(
        "linear", 9, [((6, 2, 1), S(1)), ((5, 3, 1), S(1)), ((5, 2, 1, 1), S(1))]
    )
    got = cs.apply_e(u("spin", (4, 1)), 0)
    assert got == cs.vector("spin", 4, [((4,), S(1)), ((3, 1), S(0, 1))])


def test_apply_f_frozen():
    got = cs.apply_f(u("spin", (5, 2, 1)), 1)
    assert got == cs.vector("spin", 9, [((6, 2, 1), S(0, 1)), ((5, 3, 1), S(0, 1))])
    got = cs.apply_f(u("linear", (2, 1)), 0)
    assert got == cs.vector(
        "linear", 4, [((3, 1), S(1)), ((2, 2), S(1)), ((2, 1, 1), S(1))]
    )


def test_apply_e_rejects_bad_residue():
    with pytest.raises(ValueError):
        cs.apply_e(u("spin", (3, 1)), 2)


def test_e_f_adjoint_spin():
    for n in range(1, 9):
        for eps in (0, 1):
            for al in strict_partitions_of(n):
                for be in strict_partitions_of(n + 1):
                    lhs = cs.inner(cs.apply_f(u("spin", al), eps), u("spin", be))
                    rhs = cs.inner(u("spin", al), cs.apply_e(u("spin", be), eps))
                    assert lhs == rhs


def test_e_f_adjoint_linear():
    for n in range(1, 8):
        for eps in (0, 1):
            for la in partitions_of(n):
                for mu in partitions_of(n + 1):
                    lhs = cs.inner(cs.apply_f(u("linear", la), eps), u("linear", mu))
                    rhs = cs.inner(u("linear", la), cs.apply_e(u("linear", mu), eps))
                    assert lhs == rhs


# ---------------------------------------------------------------------------
# composites against their defining sums

def runner_swap_reference(v, eps, c, p=2):
    """sum over a of (-1)^a f^(a+c) e^(a) v, one whole vector per a."""
    total = cs.zero(v.basis, v.n + c)
    for a in range(max(0, -c), v.n + 1):
        w = cs.apply_e(v, eps, a, p)
        if w.is_zero():
            continue
        w = cs.apply_f(w, eps, a + c, p)
        if a % 2:
            w = cs.scale(w, -1)
        total = cs.add(total, w)
    return total


def quot_red_reference(v, eps, d):
    """sum over a of (-1)^(a+d) f_eps^(a+d) f_eps'^(a+d) e_eps'^(a) e_eps^(a) v."""
    ebar = 1 - eps
    total = cs.zero(v.basis, v.n + 2 * d)
    for a in range(max(0, -d), v.n + 1):
        w = cs.apply_e(cs.apply_e(v, eps, a), ebar, a)
        if w.is_zero():
            continue
        w = cs.apply_f(cs.apply_f(w, ebar, a + d), eps, a + d)
        if (a + d) % 2:
            w = cs.scale(w, -1)
        total = cs.add(total, w)
    return total


def _vectors_upto(m):
    """Every unit vector with n <= m in both bases, then a few multi-label
    vectors with mixed coefficients."""
    for n in range(0, m + 1):
        for la in partitions_of(n):
            yield u("linear", la)
        for al in strict_partitions_of(n):
            yield u("spin", al)
    yield cs.vector("spin", 10, [((9, 1), S(2)), ((5, 4, 1), S(0, 1)), ((6, 3, 1), S(-3, 2))])
    yield cs.vector("spin", 9, [(al, S((-1) ** i, i)) for i, al in enumerate(strict_partitions_of(9))])
    yield cs.vector("linear", 6, [((3, 2, 1), S(1)), ((4, 2), S(-1)), ((2, 2, 1, 1), S(0, 1)),
                                  ((3, 3), S(5, -2))])
    yield cs.vector("linear", 5, [(la, S(i + 1, i % 3)) for i, la in enumerate(partitions_of(5))])


def test_composites_match_their_defining_sums():
    for v in _vectors_upto(9):
        for eps in (0, 1):
            for c in range(-5, 6):
                assert cs.runner_swap(v, eps, c) == runner_swap_reference(v, eps, c)
            for d in range(-3, 4):
                assert cs.quot_red(v, eps, d) == quot_red_reference(v, eps, d)
        if v.basis == "linear" and v.n <= 7:
            for eps in range(3):
                for c in range(-3, 4):
                    assert cs.runner_swap(v, eps, c, p=3) == runner_swap_reference(v, eps, c, p=3)


def test_spin_move_counts_form_an_interval():
    """The composites stop at the first a with e^(a) = 0; that is exact
    because the cell counts a spin label can shed (or grow) at one residue
    are exactly 0, 1, ..., max."""
    for n in range(0, 15):
        for al in strict_partitions_of(n):
            for eps in (0, 1):
                for moves in (spin_removals, spin_additions):
                    counts = {len(nodes) for _, nodes in moves(al, eps)}
                    assert counts == set(range(max(counts) + 1))


# ---------------------------------------------------------------------------
# runner swaps

def test_runner_swap_frozen_spin():
    assert cs.runner_swap(u("spin", (2,)), 1, -1) == cs.scale(u("spin", (1,)), S(0, -1))
    assert cs.runner_swap(u("spin", (1,)), 1, 1) == cs.scale(u("spin", (2,)), S(0, 1))
    assert cs.runner_swap(u("spin", (6, 3, 2)), 1, -2) == cs.scale(
        u("spin", (6, 2, 1)), S(-1)
    )
    assert cs.runner_swap(u("spin", (2,)), 0, 1) == u("spin", (2, 1))
    assert cs.runner_swap(u("spin", (6, 3, 2)), 1, -1).is_zero()


def test_runner_swap_frozen_linear():
    assert cs.runner_swap(u("linear", (6, 3, 1, 1)), 1, -2) == cs.scale(
        u("linear", (5, 2, 2)), S(-1)
    )
    rt = cs.runner_swap(cs.runner_swap(u("linear", (6, 3, 1, 1)), 1, -2), 1, 2)
    assert rt == u("linear", (6, 3, 1, 1))


# ---------------------------------------------------------------------------
# quotient redistribution

def test_quot_red_frozen():
    assert cs.quot_red(u("linear", (6, 3)), 1, -1) == cs.scale(
        u("linear", (4, 1, 1, 1)), S(-1)
    )
    assert cs.quot_red(u("spin", (4, 3, 2)), 1, -1) == cs.scale(
        u("spin", (4, 3)), S(0, -1)
    )
    assert cs.quot_red(u("spin", (9, 1)), 0, -2) == u("spin", (5, 1))
    assert cs.quot_red(u("spin", (9, 1)), 0, 0) == cs.vector(
        "spin", 10, [((9, 1), S(2)), ((5, 4, 1), S(0, 1))]
    )
    assert cs.quot_red(u("spin", (1,)), 0, 2) == cs.vector(
        "spin", 5, [((5,), S(1)), ((4, 1), S(0, 1))]
    )
    assert cs.quot_red(u("spin", (1,)), 1, 2).is_zero()
    assert cs.quot_red(u("linear", (2, 1)), 0, 1).is_zero()


def test_quot_red_is_linear():
    v = cs.add(u("spin", (9, 1)), cs.scale(u("spin", (5, 4, 1)), S(0, 1)))
    got = cs.quot_red(v, 0, -2)
    want = cs.add(
        cs.quot_red(u("spin", (9, 1)), 0, -2),
        cs.scale(cs.quot_red(u("spin", (5, 4, 1)), 0, -2), S(0, 1)),
    )
    assert got == want


# ---------------------------------------------------------------------------
# intermediate label sums

def test_interm_frozen():
    assert cs.interm(((), (1,)), ((1,), ())) == [((), ())]
    assert cs.interm_signed_sum(((), (1,)), ((1,), ())) == -1
    assert cs.interm1((1,), (1,)) == [(), (1,)]
    assert cs.interm0((2, 1), (2, 1)) == [(1,), (2,), (2, 1)]


def test_interm1_count():
    assert len(cs.interm1((), ())) == 1
    assert len(cs.interm1((1,), (1,))) == 2
    assert len(cs.interm1((1,), ())) == 1
    assert len(cs.interm1((), (1,))) == 1


def test_kom():
    assert cs.kom((1,), ()) == 1
    assert cs.kom((), ()) == 0
    assert cs.kom((2, 1), (2, 1)) == 0
    assert cs.kom((2, 1), ()) == 2
    assert cs.kom((3, 1), (2,)) == 3


def test_b_closed_frozen():
    assert cs.b_closed((), ()) == S(1)
    assert cs.b_closed((1,), ()) == S(0, 1)
    assert cs.b_closed((1,), (1,)) == S(-1)
    assert cs.b_closed((), (1,)) == S(0, -1)


def test_b_sum_matches_b_closed():
    for m in range(0, 5):
        for eta in strict_partitions_of(m):
            for k in range(0, 5):
                for theta in strict_partitions_of(k):
                    assert cs.b_sum(eta, theta) == cs.b_closed(eta, theta)


# ---------------------------------------------------------------------------
# formatting

def test_format_label():
    assert cs.format_label("spin", (5, 2, 1)) == "<<5,2,1>>"
    assert cs.format_label("linear", (2, 2)) == "[2,2]"


def test_format_vector():
    assert cs.format_vector(cs.zero("spin", 3)) == "0"
    assert cs.format_vector(u("spin", (3, 1))) == "<<3,1>>"
    v = cs.vector("spin", 10, [((9, 1), S(2)), ((5, 4, 1), S(0, 1))])
    assert cs.format_vector(v) == "2*<<9,1>> + sqrt2*<<5,4,1>>"
    w = cs.scale(u("linear", (4, 1, 1, 1)), S(-1))
    assert cs.format_vector(w) == "-[4,1,1,1]"
