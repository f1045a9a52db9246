"""Tests for vectors of virtual characters and the operators acting on them.

Operator images are frozen from hand computations on the abacus.  The
adjointness of the raising and lowering operators is checked exhaustively
in small sizes, since every branching identity used elsewhere reduces to it.
The library sums coefficients as integer coordinate pairs and counts the
intermediates' signs without listing them; the reference routes below do
the same sums term by term in Scalar arithmetic, move by move through the
validating corner helpers, and over the intermediates picked row by row.
The routes the library replaced (the probe loops, the filtered product,
the sums over the interm1 and interm0 lists) come from tests/oracles.py.
"""

import itertools
import math
from fractions import Fraction

import pytest

from barspin import charspace as cs
from barspin import verify
from barspin.charvalues import chi, spin_value
from barspin.scalars import Scalar, sqrt2_pow
from barspin.partitions import (
    even_parts,
    n_eps,
    odd_partitions_of,
    partitions_of,
    removable_rows,
    size,
    spin_additions,
    spin_n_eps,
    spin_removals,
    strict_partitions_of,
    strict_partitions_upto,
)
from oracles import (
    add_corner_set,
    addable_nodes_by_rows,
    b_sum_by_intermediates,
    bounds_by_padding,
    choices_by_product,
    interm_signed_sum_by_bounds,
    interm_signed_sum_by_list,
    interm_signed_sum_by_rows,
    linear_swap_sign_by_swp,
    quot_red_by_probes,
    remove_corner_set,
    removable_nodes_by_rows,
    runner_swap_by_probes,
    scaled,
    spin_addable_nodes_reference,
    spin_additions_brute,
    spin_removable_nodes_reference,
    spin_removals_brute,
    vertical_bounds,
)

S = lambda a, b=0: Scalar(a, b)
u = cs.unit


def inner(v, w):
    """Pairing in which the labels are orthonormal."""
    if v.basis != w.basis:
        raise ValueError("mismatched bases")
    total = Scalar(0)
    for label, c in v.coeffs.items():
        d = w.coeffs.get(label)
        if d is not None:
            total = total + c * d
    return total


# ---------------------------------------------------------------------------
# vector plumbing

def test_vector_accumulates_duplicate_labels():
    v = cs.vector("spin", 4, [((3, 1), S(1)), ((3, 1), S(2))])
    assert v == scaled(u("spin", (3, 1)), S(3))


def test_vector_validation():
    with pytest.raises(ValueError):
        cs.unit("spin", (2, 2))
    with pytest.raises(ValueError):
        cs.vector("linear", 4, [((3, 2), S(1))])
    with pytest.raises(ValueError):
        inner(u("spin", (3, 1)), u("linear", (2, 2)))


def test_apply_sums_terms_into_one_vector():
    """Terms that meet on one label merge, a label whose terms cancel leaves
    pairs, and the rest keep the order they are first reached in."""
    assert cs.apply_e(cs.vector("linear", 2, [((2,), S(1)), ((1, 1), S(-1))]), 1).is_zero()
    # [2,2] -> [3,2] + [2,2,1], -[3,1] -> -[3,2] - [3,1,1],
    # 2[2,1,1] -> 2[3,1,1] + 2[2,2,1]
    v = cs.vector("linear", 4, [((2, 2), S(1)), ((3, 1), S(-1)), ((2, 1, 1), S(2))])
    got = cs.apply_f(v, 0)
    assert list(got.pairs.items()) == [((2, 2, 1), (3, 0)), ((3, 1, 1), (1, 0))]


@pytest.mark.parametrize("c, pair", [(3, (3, 0)), (-1, (-1, 0)), (True, (1, 0)), (False, None),
                                     (Fraction(1, 2), (Fraction(1, 2), 0)), (Fraction(4, 2), (2, 0))])
def test_vector_reads_an_int_bool_or_fraction_coefficient_as_a_scalar(c, pair):
    """Each is the Scalar it names: a bool or an integral Fraction as an
    int coordinate, and a zero dropped."""
    v = cs.vector("linear", 2, [((2,), c), ((1, 1), 1)])
    assert v == cs.vector("linear", 2, [((2,), Scalar(c)), ((1, 1), Scalar(1))])
    assert v.pairs.get((2,)) == pair
    assert all(type(x) in (int, Fraction) and type(x) is not bool for ab in v.pairs.values() for x in ab)


@pytest.mark.parametrize("c", [1.0, "1", None, 1j, (1, 0)])
def test_vector_rejects_any_other_coefficient(c):
    with pytest.raises(TypeError, match=r"coefficients must be Scalars, ints or Fractions, got "):
        cs.vector("linear", 2, [((2,), c)])


def test_add_scale_inner():
    v = cs.vector("spin", 4, [((3, 1), S(1)), ((3, 1), S(-1))])
    assert v.is_zero()
    assert inner(u("spin", (3, 1)), u("spin", (3, 1))) == S(1)
    assert inner(u("linear", (2, 2)), u("linear", (2, 1, 1))) == S(0)


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


@pytest.mark.parametrize("op", [cs.apply_e, cs.apply_f, cs.runner_swap])
def test_operators_reject_p_below_2(op):
    """p = 1 makes every node residue 0, so the operators would mix nodes
    of all residues; each refuses it, and p = 0 and -2, rather than answer."""
    for p in (-2, 0, 1):
        with pytest.raises(ValueError, match=f"p = {p} is not at least 2"):
            op(u("linear", (2, 1, 1)), 0, 0 if op is cs.runner_swap else 1, p=p)


def _degree_calls(basis):
    """(degree name, call on one degree) for each operator on a unit vector."""
    v = u(basis, (3, 1))
    return [("r", lambda x: cs.apply_e(v, 0, x)), ("r", lambda x: cs.apply_f(v, 0, x)),
            ("c", lambda x: cs.runner_swap(v, 0, x)), ("d", lambda x: cs.quot_red(v, 0, x)),
            ("d", lambda x: cs.quot_reds(v, 0, [1, x])[1])]


@pytest.mark.parametrize("basis", ["linear", "spin"])
def test_operators_reject_a_degree_that_is_not_an_int(basis):
    """A degree is an int (a bool is not one), and r, a count of nodes
    moved, is also at least 0; the negative c and d are legal."""
    for name, call in _degree_calls(basis):
        kind = "a non-negative integer" if name == "r" else "an integer"
        for x in (1.5, True, "1", *((-1,) if name == "r" else ())):
            with pytest.raises(ValueError) as exc:
                call(x)
            assert str(exc.value) == f"{name} must be {kind}, got {x!r}"
        for x in (0, 1, 2, *(() if name == "r" else (-1,))):
            assert type(call(x).n) is int


def _moves_by_oracles(basis, label, eps, r, p, grow):
    """The terms of one move, node by node through the validating corner
    helpers (linear, in the library's order) or by brute force (spin,
    sorted), each with its sqrt2 exponent."""
    if basis == "linear":
        nodes = (addable_nodes_by_rows if grow else removable_nodes_by_rows)(label, eps, p)
        move = add_corner_set if grow else remove_corner_set
        return tuple((move(label, sub), 0) for sub in itertools.combinations(nodes, r))
    evens = set(even_parts(label))
    brute = spin_additions_brute if grow else spin_removals_brute
    return tuple(sorted((be, len(evens ^ set(even_parts(be)))) for be in brute(label, eps, r)))


def test_move_table_matches_the_node_and_brute_force_oracles():
    """charspace._moves on every label with n <= 10, each residue, r <= 3,
    both directions and p = 2, 3 for the linear labels, against the
    oracles: first on an empty table, where no key repeats, then again on
    the full one, where every call is a hit.  Each answer is a tuple of
    (tuple, int) pairs, so no caller can change a stored entry."""
    cases = [("linear", la, eps, p) for n in range(11) for la in partitions_of(n)
             for p in (2, 3) for eps in range(p)]
    cases += [("spin", al, eps, 2) for n in range(11) for al in strict_partitions_of(n)
              for eps in (0, 1)]
    cs._moves.cache_clear()
    calls = 0
    for hits in ("none", "all"):
        for basis, label, eps, p in cases:
            for r, grow in itertools.product(range(4), (False, True)):
                got = cs._moves(basis, label, eps, r, p, grow)
                calls += 1
                assert type(got) is tuple, (basis, label)
                assert all(type(t) is tuple and type(t[0]) is tuple and type(t[1]) is int
                           for t in got), (basis, label)
                if basis == "spin":
                    assert len(set(got)) == len(got), (label, eps, r, grow)
                    got = tuple(sorted(got))
                assert got == _moves_by_oracles(basis, label, eps, r, p, grow), \
                    (basis, label, eps, r, p, grow)
        info = cs._moves.cache_info()
        assert info.hits == (0 if hits == "none" else calls // 2), hits
    cs._moves.cache_clear()


def test_moving_no_nodes_is_the_identity():
    """apply_e and apply_f with r = 0 return a new vector equal to the
    input, down to the type of each coordinate and the order of the
    labels: every label with n <= 11, p = 2 and 3 (linear), both bases."""
    for n in range(12):
        units = [(u("linear", la), p) for la in partitions_of(n) for p in (2, 3)]
        units += [(u("spin", al), 2) for al in strict_partitions_of(n)]
        for v, p in units:
            for eps in range(p):
                for op in (cs.apply_e, cs.apply_f):
                    w = op(v, eps, 0, p)
                    assert w is not v and w.pairs is not v.pairs
                    assert _bits(w) == _bits(v), (v, eps, op)
    for v in _mixed_vectors():
        for eps in (0, 1):
            assert _bits(cs.apply_e(v, eps, 0)) == _bits(cs.apply_f(v, eps, 0)) == _bits(v)


def test_e_f_adjoint_spin():
    for n in range(1, 9):
        for eps in (0, 1):
            for al in strict_partitions_of(n):
                for be in strict_partitions_of(n + 1):
                    lhs = inner(cs.apply_f(u("spin", al), eps), u("spin", be))
                    rhs = inner(u("spin", al), cs.apply_e(u("spin", be), eps))
                    assert lhs == rhs


def test_e_f_adjoint_linear():
    for n in range(1, 8):
        for eps in (0, 1):
            for la in partitions_of(n):
                for mu in partitions_of(n + 1):
                    lhs = inner(cs.apply_f(u("linear", la), eps), u("linear", mu))
                    rhs = inner(u("linear", la), cs.apply_e(u("linear", mu), eps))
                    assert lhs == rhs


# ---------------------------------------------------------------------------
# composites against their defining sums

def _even_flips(al, be):
    """Even integers that are a part of exactly one of the two."""
    return len({p for p in al if p % 2 == 0} ^ {p for p in be if p % 2 == 0})


def scalar_sum(basis, n, terms):
    """The vector sum of (label, Scalar) terms, added in Scalar arithmetic."""
    coeffs = {}
    for label, x in terms:
        coeffs[label] = coeffs.get(label, Scalar(0)) + x
    return cs.vector(basis, n, coeffs.items())


def apply_reference(v, eps, r, p=2, grow=False):
    """e^(r) (f^(r) if grow) term by term: linear moves through the
    validating corner helpers, spin moves weighted by sqrt2^(even flips)."""
    terms = []
    for label, c in v.coeffs.items():
        if v.basis == "linear":
            nodes = addable_nodes_by_rows if grow else removable_nodes_by_rows
            move = add_corner_set if grow else remove_corner_set
            terms += [(move(label, sub), c) for sub in itertools.combinations(nodes(label, eps, p), r)]
        else:
            moves = spin_additions if grow else spin_removals
            terms += [(be, c * sqrt2_pow(_even_flips(label, be))) for be in moves(label, eps, r)]
    return scalar_sum(v.basis, v.n + r if grow else v.n - r, terms)


def runner_swap_reference(v, eps, c, p=2):
    """sum over a of (-1)^a f^(a+c) e^(a) v, one whole vector per a."""
    terms = []
    for a in range(max(0, -c), v.n + 1):
        w = apply_reference(apply_reference(v, eps, a, p), eps, a + c, p, grow=True)
        terms += [(label, -x if a % 2 else x) for label, x in w.coeffs.items()]
    return scalar_sum(v.basis, v.n + c, terms)


def quot_red_reference(v, eps, d):
    """sum over a of (-1)^(a+d) f_eps^(a+d) f_eps'^(a+d) e_eps'^(a) e_eps^(a) v."""
    ebar = 1 - eps
    terms = []
    for a in range(max(0, -d), v.n + 1):
        w = apply_reference(apply_reference(v, eps, a), ebar, a)
        w = apply_reference(apply_reference(w, ebar, a + d, grow=True), eps, a + d, grow=True)
        terms += [(label, -x if (a + d) % 2 else x) for label, x in w.coeffs.items()]
    return scalar_sum(v.basis, v.n + 2 * d, terms)


def _mixed_vectors():
    """Multi-label vectors with mixed coefficients, some not integral."""
    F = Fraction
    yield cs.vector("spin", 10, [((9, 1), S(2)), ((5, 4, 1), S(0, 1)), ((6, 3, 1), S(-3, 2))])
    yield cs.vector("spin", 10, [((9, 1), S(F(1, 3), 2)), ((5, 4, 1), S(0, F(-5, 7))),
                                 ((6, 3, 1), S(-3, F(2, 9))), ((4, 3, 2, 1), S(F(1, 2), F(1, 2)))])
    yield cs.vector("spin", 9, [(al, S((-1) ** i, i)) for i, al in enumerate(strict_partitions_of(9))])
    yield cs.vector("spin", 8, [(al, S(F(i, 3), F(1, i + 2))) for i, al in enumerate(strict_partitions_of(8))])
    yield cs.vector("linear", 6, [((3, 2, 1), S(1)), ((4, 2), S(-1)), ((2, 2, 1, 1), S(0, 1)),
                                  ((3, 3), S(5, -2))])
    yield cs.vector("linear", 6, [((3, 2, 1), S(F(1, 3))), ((4, 2), S(-1)), ((2, 2, 1, 1), S(0, F(3, 4))),
                                  ((3, 3), S(5, F(-2, 9)))])
    yield cs.vector("linear", 5, [(la, S(i + 1, i % 3)) for i, la in enumerate(partitions_of(5))])
    yield cs.vector("linear", 5, [(la, S(F(1, i + 2), F(i, 5))) for i, la in enumerate(partitions_of(5))])


def _vectors_upto(m):
    """Every unit vector with n <= m in both bases, then the mixed vectors."""
    for n in range(0, m + 1):
        for la in partitions_of(n):
            yield u("linear", la)
        for al in strict_partitions_of(n):
            yield u("spin", al)
    yield from _mixed_vectors()


def test_apply_matches_scalar_reference():
    for v in _vectors_upto(8):
        for eps in (0, 1):
            for r in range(4):
                assert cs.apply_e(v, eps, r) == apply_reference(v, eps, r)
                assert cs.apply_f(v, eps, r) == apply_reference(v, eps, r, grow=True)
        if v.basis == "linear":
            for eps in range(3):
                for r in range(3):
                    assert cs.apply_e(v, eps, r, p=3) == apply_reference(v, eps, r, p=3)
                    assert cs.apply_f(v, eps, r, p=3) == apply_reference(v, eps, r, p=3, grow=True)


def test_apply_keeps_fraction_coordinates_exact():
    F = Fraction
    v = cs.vector("spin", 4, [((3, 1), S(F(1, 3), F(1, 2)))])
    # f_0 <<3,1>> = sqrt2 <<4,1>>, and sqrt2 (1/3 + sqrt2/2) = 1 + sqrt2/3
    got = cs.apply_f(v, 0)
    assert got.coeffs == {(4, 1): S(1, F(1, 3))}
    assert type(got.coeffs[(4, 1)].a) is int
    # e_0 <<3,1>> = <<3>> and e_0 <<4>> = sqrt2 <<3>>: these two terms cancel
    w = cs.vector("spin", 4, [((3, 1), S(F(1, 3), F(1, 2))), ((4,), S(F(-1, 2), F(-1, 6)))])
    assert cs.apply_e(w, 0).is_zero()


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


def _bits(v):
    """Everything a vector holds, down to the type of each coordinate and
    the order of the labels."""
    return v.basis, v.n, [(label, x.a, x.b, type(x.a), type(x.b)) for label, x in v.coeffs.items()]


def _edge_degrees(basis, label, eps, p=2):
    """A label's top degree n_eps and its bottom -m, m its number of
    removable eps-nodes, and one past each."""
    if basis == "linear":
        top, m = n_eps(label, eps, p), len(removable_rows(label, eps, p))
    else:
        top, m = spin_n_eps(label, eps), len(spin_removable_nodes_reference(label, eps))
    return top, top + 1, -m, -m - 1


def test_composites_match_the_probe_loops_bit_for_bit():
    """The composites read m once and run a up to it; the probe loops run
    a until e_eps^(a) vanishes.  Every label with n <= 12, both residues,
    c in [-4, 4] and at each label's own top and bottom degrees and one
    past each, d in [-3, 3], and the p = 3 and p = 5 swaps for n <= 10,
    every residue."""
    for n in range(13):
        units = [u("linear", la) for la in partitions_of(n)]
        units += [u("spin", al) for al in strict_partitions_of(n)]
        for v in units:
            (label,) = v.pairs
            for eps in (0, 1):
                for c in (*range(-4, 5), *_edge_degrees(v.basis, label, eps)):
                    assert _bits(cs.runner_swap(v, eps, c)) == _bits(runner_swap_by_probes(v, eps, c))
                for d in range(-3, 4):
                    assert _bits(cs.quot_red(v, eps, d)) == _bits(quot_red_by_probes(v, eps, d))
    for n in range(11):
        for la in partitions_of(n):
            v = u("linear", la)
            for p in (3, 5):
                for eps in range(p):
                    for c in (*range(-4, 5), *_edge_degrees("linear", la, eps, p)):
                        assert (_bits(cs.runner_swap(v, eps, c, p=p))
                                == _bits(runner_swap_by_probes(v, eps, c, p=p)))
    for v in _mixed_vectors():
        for eps in (0, 1):
            assert _bits(cs.runner_swap(v, eps, 1)) == _bits(runner_swap_by_probes(v, eps, 1))
            assert _bits(cs.quot_red(v, eps, -1)) == _bits(quot_red_by_probes(v, eps, -1))


def test_composites_make_no_zero_probe(monkeypatch):
    """On one spin label with m removable eps-nodes, runner_swap calls
    apply_e once for each a from max(1, -c) to m, and no call returns
    zero; the label itself is the lowering at a = 0.  On a linear label it
    makes no call, taking the closed form.  quot_red calls it twice per
    a >= 1, e_eps^(a) first."""
    calls = []
    apply_e = cs.apply_e

    def counted(v, *args):
        calls.append(apply_e(v, *args))
        return calls[-1]

    monkeypatch.setattr(cs, "apply_e", counted)
    for basis, label, eps in (("linear", (6, 3, 1, 1), 1), ("linear", (5, 3, 2, 2), 0),
                              ("spin", (6, 3, 2), 1), ("spin", (9, 5, 4, 1), 0)):
        nodes = removable_rows if basis == "linear" else spin_removable_nodes_reference
        m = len(nodes(label, eps))
        assert m >= 1
        for c in range(-m - 2, 4):
            want = max(0, m + 1 - max(1, -c))
            calls.clear()
            cs.runner_swap(u(basis, label), eps, c)
            assert len(calls) == (want if basis == "spin" else 0), (label, eps, c)
            assert all(not w.is_zero() for w in calls)
            calls.clear()
            cs.quot_red(u(basis, label), eps, c)
            assert len(calls) == 2 * want, (label, eps, c)
            assert all(not w.is_zero() for w in calls[::2])


class _TermLog(dict):
    """A dict of pairs that records each term added to it, in order, as
    (label, first coordinate added)."""

    def __init__(self):
        super().__init__()
        self.terms = []

    def __setitem__(self, label, pair):
        self.terms.append((label, pair[0] - self.get(label, (0, 0))[0]))
        super().__setitem__(label, pair)


def _two_step_terms(la, eps, c, p):
    """The terms of sum over a of (-1)^a f_eps^(a+c) e_eps^(a) on la, in
    the order the two steps reach them: each a-subset of the removable
    nodes, then each (a + c)-subset of the addable nodes of the lowered
    label, moved by the validating corner helpers."""
    nodes = removable_nodes_by_rows(la, eps, p)
    for a in range(max(0, -c), len(nodes) + 1):
        for low in itertools.combinations(nodes, a):
            mu = remove_corner_set(la, low)
            for up in itertools.combinations(addable_nodes_by_rows(mu, eps, p), a + c):
                yield add_corner_set(mu, up), -1 if a % 2 else 1


def test_linear_runner_swap_adds_only_the_surviving_terms():
    """One node scan per linear label adds (-1)^m times la less every
    removable eps-node plus each (m + c)-subset of the addable ones, in
    combinations order, each label once, so no term cancels; and that is
    the two-step sum, zeros dropped, pair for pair and in key order.
    Every label with n <= 11, p = 2 and 3, every residue and c from one
    below the bottom to one past the top."""
    for n in range(12):
        for la in partitions_of(n):
            for p in (2, 3):
                for eps in range(p):
                    nodes = removable_nodes_by_rows(la, eps, p)
                    m, low = len(nodes), remove_corner_set(la, nodes)
                    sign = -1 if m % 2 else 1
                    for c in range(-m - 1, n_eps(la, eps, p) + 2):
                        want = [(add_corner_set(low, up), sign) for up in
                                itertools.combinations(addable_nodes_by_rows(la, eps, p), m + c)] if m + c >= 0 else []
                        acc = _TermLog()
                        cs._linear_runner_swap(acc, la, (1, 0), eps, c, p)
                        assert acc.terms == want, (la, p, eps, c)
                        assert len(acc) == len(acc.terms), (la, p, eps, c)
                        summed = {}
                        for mu, x in _two_step_terms(la, eps, c, p):
                            summed[mu] = summed.get(mu, 0) + x
                        assert list(acc.items()) == [(mu, (x, 0)) for mu, x in summed.items() if x]


def test_composites_call_apply_with_no_empty_move(monkeypatch):
    """No composite asks _apply to move r = 0 nodes: the label stands for
    the lowering at a = 0 and the lowered vector for a raise by 0."""
    counts = []
    apply = cs._apply

    def counted(v, eps, r, p, grow):
        counts.append(r)
        return apply(v, eps, r, p, grow)

    monkeypatch.setattr(cs, "_apply", counted)
    for v in _vectors_upto(7):
        for eps in (0, 1):
            for c in range(-4, 5):
                cs.runner_swap(v, eps, c)
            cs.quot_reds(v, eps, range(-3, 4))
    assert counts and 0 not in counts


def _pair_bits(v):
    """Everything a vector's pairs hold, in their order, with the type of
    each coordinate."""
    return v.basis, v.n, [(label, a, b, type(a), type(b)) for label, (a, b) in v.pairs.items()]


def test_quot_reds_match_quot_red_bit_for_bit():
    """One family call equals one quot_red call per degree, in the order
    given: every linear label with n <= 12, every spin label with n <= 14,
    both residues and d in [-3, 3] both ways round, and the mixed vectors."""
    units = [u("linear", la) for n in range(13) for la in partitions_of(n)]
    units += [u("spin", al) for n in range(15) for al in strict_partitions_of(n)]
    for v in [*units, *_mixed_vectors()]:
        for eps in (0, 1):
            for ds in (range(-3, 4), range(3, -4, -1)):
                got = list(map(_pair_bits, cs.quot_reds(v, eps, ds)))
                assert got == [_pair_bits(cs.quot_red(v, eps, d)) for d in ds]


def test_quot_reds_lower_each_label_once(monkeypatch):
    """On one label with m removable eps-nodes, a family call makes the
    lowering e_eps'^(a) e_eps^(a) once for each a >= 1 from the least
    max(0, -d) over its degrees up to m, however many degrees it holds,
    and no e_eps^(a) call returns zero; no degree, no call."""
    calls = []
    apply_e = cs.apply_e

    def counted(v, *args):
        calls.append(apply_e(v, *args))
        return calls[-1]

    monkeypatch.setattr(cs, "apply_e", counted)
    for basis, label, eps in (("linear", (6, 3, 1, 1), 1), ("linear", (5, 3, 2, 2), 0),
                              ("spin", (6, 3, 2), 1), ("spin", (9, 5, 4, 1), 0)):
        nodes = removable_rows if basis == "linear" else spin_removable_nodes_reference
        m = len(nodes(label, eps))
        degrees = range(-m - 2, 4)
        families = [degrees[i:j] for i in range(len(degrees)) for j in range(i + 1, len(degrees) + 1)]
        families += [ds[::-1] for ds in families] + [(3, -m), (-m - 1, 2, -1, 2)]
        for ds in families:
            start = min(max(0, -d) for d in ds)
            calls.clear()
            assert len(cs.quot_reds(u(basis, label), eps, ds)) == len(ds)
            assert len(calls) == 2 * max(0, m + 1 - max(1, start)), (label, eps, ds)
            assert all(not w.is_zero() for w in calls[::2])
        calls.clear()
        assert cs.quot_reds(u(basis, label), eps, ()) == []
        assert calls == []


def test_quot_red_makes_no_f_step_on_an_empty_vector(monkeypatch):
    """quot_red calls apply_f twice for each a with a + d >= 1 whose
    e_eps'^(a) e_eps^(a) of the label is not zero, and never for the
    others; on each label below some a gives zero."""
    calls = []
    apply_e, apply_f = cs.apply_e, cs.apply_f

    def counted(v, *args):
        calls.append(v)
        return apply_f(v, *args)

    monkeypatch.setattr(cs, "apply_f", counted)
    for basis, label, eps in (("linear", (4, 1), 1), ("linear", (2, 1), 1),
                              ("spin", (5,), 0), ("spin", (3, 2), 1)):
        nodes = removable_rows if basis == "linear" else spin_removable_nodes_reference
        inner = [apply_e(apply_e(u(basis, label), eps, a), 1 - eps, a)
                 for a in range(len(nodes(label, eps)) + 1)]
        assert any(w.is_zero() for w in inner[1:])
        for d in range(-3, 4):
            live = sum(not w.is_zero() for w in inner[max(0, 1 - d):])
            calls.clear()
            cs.quot_red(u(basis, label), eps, d)
            assert len(calls) == 2 * live, (label, eps, d)
            assert all(not w.is_zero() for w in calls[::2])


def test_operators_build_no_scalar_until_coeffs_is_read(monkeypatch):
    """The operators add coordinate pairs: on unit vectors of both bases
    apply_e, apply_f, runner_swap and quot_red build no Scalar, and reading
    coeffs builds one per label."""
    built = []
    init = Scalar.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    units = [u("linear", la) for n in range(8) for la in partitions_of(n)]
    units += [u("spin", al) for n in range(10) for al in strict_partitions_of(n)]
    monkeypatch.setattr(Scalar, "__init__", counted)
    outs = []
    for v in units:
        for eps in (0, 1):
            outs += [cs.apply_e(v, eps, r) for r in range(3)]
            outs += [cs.apply_f(v, eps, r) for r in range(3)]
            outs += [cs.runner_swap(v, eps, c) for c in range(-3, 4)]
            outs += [cs.quot_red(v, eps, d) for d in range(-2, 3)]
    assert built == []
    assert any(len(w.pairs) > 1 for w in outs)
    assert all(type(x) is Scalar for w in outs for x in w.coeffs.values())
    assert len(built) == sum(len(w.pairs) for w in outs)


def test_format_vector_and_signed_unit_read_coeffs_once(monkeypatch):
    """Each read of coeffs builds a new dict of Scalars, so the readers
    take it once per vector, not once per label."""
    reads = []
    view = cs.CharVector.coeffs
    monkeypatch.setattr(cs.CharVector, "coeffs", property(lambda v: reads.append(v) or view.fget(v)))
    v = cs.vector("spin", 10, [((9, 1), S(2)), ((5, 4, 1), S(0, 1)), ((6, 3, 1), S(-3, 2))])
    assert cs.format_vector(v) == "2*<<9,1>> + (-3 + 2*sqrt2)*<<6,3,1>> + sqrt2*<<5,4,1>>"
    assert reads == [v]
    reads.clear()
    assert not verify._signed_unit(v, (9, 1), verify.PM_ONE)
    w = cs.vector("spin", 10, [((9, 1), S(-1))])
    assert verify._signed_unit(w, (9, 1), verify.PM_ONE)
    assert reads == [v, w]


def test_linear_swap_sign_matches_the_swap():
    for n in range(15):
        for la in partitions_of(n):
            for eps in (0, 1):
                assert cs.swap_sign("linear", la, eps) == linear_swap_sign_by_swp(la, eps)


@pytest.mark.parametrize("basis, label, eps", [
    ("foo", (3, 1), 0), ("spin", (3, 3), 0), ("linear", (1, 2), 0),
    ("linear", (3, 1), 7), ("spin", (3, 1), 7),
])
def test_swap_sign_checks_its_input(basis, label, eps):
    """An unknown basis, a label that is not one of the basis, and a residue
    other than 0 or 1 are each a ValueError, as in every other entry."""
    with pytest.raises(ValueError):
        cs.swap_sign(basis, label, eps)


def test_spin_move_counts_form_an_interval():
    """The composites run a up to m, the number of removable nodes; that is
    exact because the cell counts a spin label can shed (or grow) at one
    residue are exactly 0, 1, ..., the number of removable (addable) nodes."""
    for n in range(0, 15):
        for al in strict_partitions_of(n):
            for eps in (0, 1):
                for moves, nodes in ((spin_removals, spin_removable_nodes_reference),
                                     (spin_additions, spin_addable_nodes_reference)):
                    top = len(nodes(al, eps))
                    for k in range(top + 3):
                        assert bool(moves(al, eps, k)) == (k <= top), (al, eps, k)


# ---------------------------------------------------------------------------
# runner swaps

def test_runner_swap_frozen_spin():
    assert cs.runner_swap(u("spin", (2,)), 1, -1) == scaled(u("spin", (1,)), S(0, -1))
    assert cs.runner_swap(u("spin", (1,)), 1, 1) == scaled(u("spin", (2,)), S(0, 1))
    assert cs.runner_swap(u("spin", (6, 3, 2)), 1, -2) == scaled(
        u("spin", (6, 2, 1)), S(-1)
    )
    assert cs.runner_swap(u("spin", (2,)), 0, 1) == u("spin", (2, 1))
    assert cs.runner_swap(u("spin", (6, 3, 2)), 1, -1).is_zero()


def test_runner_swap_frozen_linear():
    assert cs.runner_swap(u("linear", (6, 3, 1, 1)), 1, -2) == scaled(
        u("linear", (5, 2, 2)), S(-1)
    )
    rt = cs.runner_swap(cs.runner_swap(u("linear", (6, 3, 1, 1)), 1, -2), 1, 2)
    assert rt == u("linear", (6, 3, 1, 1))


# ---------------------------------------------------------------------------
# quotient redistribution

def test_quot_red_frozen():
    assert cs.quot_red(u("linear", (6, 3)), 1, -1) == scaled(
        u("linear", (4, 1, 1, 1)), S(-1)
    )
    assert cs.quot_red(u("spin", (4, 3, 2)), 1, -1) == scaled(
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
    v = cs.vector("spin", 10, [((9, 1), S(1)), ((5, 4, 1), S(0, 1))])
    got = cs.quot_red(v, 0, -2)
    one = cs.quot_red(u("spin", (9, 1)), 0, -2)
    two = scaled(cs.quot_red(u("spin", (5, 4, 1)), 0, -2), S(0, 1))
    want = cs.vector("spin", 6, [*one.coeffs.items(), *two.coeffs.items()])
    assert got == want


# ---------------------------------------------------------------------------
# intermediate label sums

def _get(parts, i):
    return parts[i] if i < len(parts) else 0


def choices_reference(lowers, uppers, strict=False):
    """Weakly (or strictly) decreasing picks from per-row intervals, chosen
    row by row with each upper bound capped by the previous pick."""
    out = []

    def rec(i, prev, acc):
        if i == len(lowers):
            out.append(tuple(p for p in acc if p))
            return
        hi = uppers[i]
        if prev is not None:
            hi = min(hi, prev - 1 if strict and prev > 0 else prev)
        for val in range(lowers[i], hi + 1):
            rec(i + 1, val, acc + [val])

    rec(0, None, [])
    return out


def under_reference(a, b, vertical=False, strict=False):
    """Partitions below both a and b by horizontal (vertical) strips."""
    k = max(len(a), len(b))
    if vertical:
        low = [max(_get(a, i) - 1, _get(b, i) - 1, 0) for i in range(k)]
    else:
        low = [max(_get(a, i + 1), _get(b, i + 1)) for i in range(k)]
    up = [min(_get(a, i), _get(b, i)) for i in range(k)]
    if any(lo > hi for lo, hi in zip(low, up)):
        return []
    return choices_reference(low, up, strict)


def interm_reference(bla, bmu):
    return list(itertools.product(under_reference(bla[0], bmu[0]),
                                  under_reference(bla[1], bmu[1], vertical=True)))


def interm_signed_sum_reference(bla, bmu):
    """Sum of (-1)^(|bmu| - |bnu|), one term per intermediate."""
    m = size(bmu[0]) + size(bmu[1])
    total = 0
    for nu0, nu1 in interm_reference(bla, bmu):
        total += -1 if (m - size(nu0) - size(nu1)) % 2 else 1
    return total


def b_sum_reference(eta, theta):
    """B(eta, theta) summed term by term in Scalar arithmetic."""
    total = Scalar(0)
    for ze in under_reference(eta, theta, strict=True):
        term = sqrt2_pow(cs.kom(eta, ze) + cs.kom(theta, ze))
        total = total + (-term if (size(theta) - size(ze)) % 2 else term)
    return total


def _bipartitions_upto(m):
    return [(a, b) for n in range(m + 1) for k in range(n + 1)
            for a in partitions_of(k) for b in partitions_of(n - k)]


def test_interm_components_match_row_by_row_picks():
    """Also against the filtered product of the row intervals, which
    _choices replaced, for both strip directions, and interm1 against the
    vertical-strip intervals read off the rows, which the conjugates
    replaced."""
    labels = [la for n in range(9) for la in partitions_of(n)]
    for a in labels:
        for b in labels:
            assert cs.interm1(a, b) == under_reference(a, b, vertical=True)
            assert cs.interm1(a, b) == cs._choices(vertical_bounds(a, b))
            for bounds in (cs._bounds(a, b), vertical_bounds(a, b)):
                assert cs._choices(bounds) == choices_by_product(bounds)
    stricts = strict_partitions_upto(8)
    for a in stricts:
        for b in stricts:
            assert cs.interm0(a, b) == under_reference(a, b, strict=True)
            bounds = cs._bounds(a, b)
            assert cs._choices(bounds, strict=True) == choices_by_product(bounds, strict=True)


def test_bounds_match_the_padded_reversed_rows():
    """The one pass down the rows gives the intervals that the padded,
    reversed copies gave, on every pair of partitions of size <= 8."""
    labels = [la for n in range(9) for la in partitions_of(n)]
    for a in labels:
        for b in labels:
            assert cs._bounds(a, b) == bounds_by_padding(a, b)


def test_interm_signed_sum_matches_enumeration():
    """Also against the sum over the interm1 list, which the signed count
    keyed on the last pick replaced, against that count, which the
    product over the conjugates' rows replaced, and against that product
    over the interval list, which the one pass down the rows replaced."""
    bips = _bipartitions_upto(6)
    for bla in bips:
        for bmu in bips:
            got = cs.interm_signed_sum(bla, bmu)
            assert got == interm_signed_sum_reference(bla, bmu)
            assert got == interm_signed_sum_by_list(bla, bmu)
            assert got == interm_signed_sum_by_rows(bla, bmu)
            assert got == interm_signed_sum_by_bounds(bla, bmu)
    small = _bipartitions_upto(4)
    for bla in small:
        for bmu in small:
            assert cs.interm(bla, bmu) == interm_reference(bla, bmu)


def test_b_sum_matches_scalar_reference():
    """Every pair of strict labels of size <= 12 (4,900 pairs), also against
    the sum over the interm0 list, which the row pass replaced."""
    stricts = strict_partitions_upto(12)
    for eta in stricts:
        for theta in stricts:
            got = cs.b_sum(eta, theta)
            assert got == b_sum_reference(eta, theta)
            assert got == b_sum_by_intermediates(eta, theta)
            assert type(got.a) is int and type(got.b) is int


def test_b_sum_frozen():
    """Both pairs reach the clash of adjacent rows: (2,1) picks 1 as the
    lower end of row 0 and the upper end of row 1, and the pick (1, 1) is
    not strict."""
    assert cs.b_sum((2, 1), (2, 1)) == S(1)
    assert cs.b_sum((2, 1), (3, 1)) == S(0)


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


def test_b_closed_builds_no_scalar(monkeypatch):
    """b_closed returns shared values: 0, +-1 and +-sqrt2."""
    built = []
    init = Scalar.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    stricts = strict_partitions_upto(8)
    monkeypatch.setattr(Scalar, "__init__", counted)
    values = {id(cs.b_closed(eta, theta)) for eta in stricts for theta in stricts}
    assert built == []
    assert len(values) == 5


def test_b_sum_matches_b_closed():
    for m in range(0, 5):
        for eta in strict_partitions_of(m):
            for k in range(0, 5):
                for theta in strict_partitions_of(k):
                    assert cs.b_sum(eta, theta) == cs.b_closed(eta, theta)


# ---------------------------------------------------------------------------
# the branching operators against the character values: summed over eps,
# e_eps is restriction and f_eps is induction (James-Kerber 1981, 2.4;
# Morris 1962 for the spin labels and their sqrt2 factors)

BASES = (("linear", partitions_of, chi), ("spin", strict_partitions_of, spin_value))


def value_on(v, nu, value):
    """The character v on the class nu: each coefficient times the value
    of its label."""
    return sum((c * value(label, nu) for label, c in v.coeffs.items()), S(0))


def test_restriction_is_e_0_plus_e_1():
    """(e_0 u + e_1 u)(nu) = u(nu U (1)) for every unit u with 2 <= n <= 14,
    in both bases, and every odd class nu of size n - 1."""
    for basis, labels, value in BASES:
        for n in range(2, 15):
            classes = odd_partitions_of(n - 1)
            for label in labels(n):
                one = u(basis, label)
                down = [cs.apply_e(one, 0), cs.apply_e(one, 1)]
                for nu in classes:
                    got = value_on(down[0], nu, value) + value_on(down[1], nu, value)
                    assert got == value(label, nu + (1,)), (basis, label, nu)


def test_induction_is_f_0_plus_f_1():
    """(f_0 u + f_1 u)(nu) = m_1(nu) u(nu less one part 1) for every unit u
    with 1 <= n <= 13, in both bases, and every odd class nu of size n + 1;
    m_1(nu) counts the parts 1 of nu."""
    for basis, labels, value in BASES:
        for n in range(1, 14):
            classes = odd_partitions_of(n + 1)
            for label in labels(n):
                one = u(basis, label)
                up = [cs.apply_f(one, 0), cs.apply_f(one, 1)]
                for nu in classes:
                    m1 = nu.count(1)
                    want = m1 * value(label, nu[:-1]) if m1 else S(0)
                    got = value_on(up[0], nu, value) + value_on(up[1], nu, value)
                    assert got == want, (basis, label, nu)


def test_divided_powers_times_r_factorial_are_powers():
    """r! e_eps^(r) u is e_eps applied r times, and likewise for f, for
    r <= 3, both eps and every unit u with n <= 12 in both bases."""
    for basis, labels, _ in BASES:
        for n in range(13):
            for label in labels(n):
                one = u(basis, label)
                for op in (cs.apply_e, cs.apply_f):
                    for eps in (0, 1):
                        power = one
                        for r in range(1, 4):
                            power = op(power, eps)
                            divided = op(one, eps, r)
                            assert scaled(divided, S(math.factorial(r))) == power, (basis, label, op, eps, r)


# ---------------------------------------------------------------------------
# formatting

def test_format_label():
    assert cs.format_label("spin", (5, 2, 1)) == "<<5,2,1>>"
    assert cs.format_label("linear", (2, 2)) == "[2,2]"


def test_format_vector():
    assert cs.format_vector(cs.vector("spin", 3, [])) == "0"
    assert cs.format_vector(u("spin", (3, 1))) == "<<3,1>>"
    v = cs.vector("spin", 10, [((9, 1), S(2)), ((5, 4, 1), S(0, 1))])
    assert cs.format_vector(v) == "2*<<9,1>> + sqrt2*<<5,4,1>>"
    w = scaled(u("linear", (4, 1, 1, 1)), S(-1))
    assert cs.format_vector(w) == "-[4,1,1,1]"
