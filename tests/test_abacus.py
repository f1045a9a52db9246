import re

import pytest
from hypothesis import given, strategies as st

from barspin import abacus, partitions as pt
from oracles import (
    from_core_quotient_by_display,
    from_core_quotient_by_slot_sums,
    two_quotient_by_core,
    two_quotient_by_display,
)

partition_st = st.builds(
    lambda parts: tuple(sorted(parts, reverse=True)),
    st.lists(st.integers(min_value=1, max_value=12), max_size=6),
)
strict_st = st.builds(
    lambda parts: tuple(sorted(set(parts), reverse=True)),
    st.lists(st.integers(min_value=1, max_value=12), max_size=6),
)


def test_display_and_pretty():
    """(3,1) has 2-core () and so two beads, at 4 and 1: slot 0 holds the
    bead on runner 1, slot 2 the one on runner 0."""
    assert abacus.canonical_bead_count((3, 1)) == 2
    assert abacus.pretty((3, 1)).splitlines() == [
        "runners 0 1", "        - X", "        - -", "        X -"]
    assert abacus.pretty(()) == "runners 0 1"


def test_two_quotient_examples():
    assert abacus.two_quotient((6, 3, 1, 1)) == ((2, 1), ((1,), (2, 1)))
    assert abacus.two_quotient((2, 2)) == ((), ((1,), (1,)))
    assert abacus.two_quotient((12, 9, 6, 3, 3, 1, 1, 1)) == (
        (4, 3, 2, 1),
        ((2, 1), (4, 3, 2, 1)),
    )
    assert abacus.two_quotient((13, 12, 9, 6, 3, 2, 2, 2, 2, 2, 1, 1, 1)) == (
        (7, 6, 5, 4, 3, 2, 1),
        ((2, 2, 1), (3, 3, 2, 1)),
    )


def test_from_core_quotient_examples():
    assert abacus.from_core_quotient((2, 1), (1,), (2, 1)) == (6, 3, 1, 1)
    assert abacus.from_core_quotient((4, 3, 2, 1), (2, 1), (4, 3, 2, 1)) == (
        12, 9, 6, 3, 3, 1, 1, 1,
    )


@given(partition_st)
def test_core_quotient_roundtrip(la):
    core, (q0, q1) = abacus.two_quotient(la)
    assert abacus.from_core_quotient(core, q0, q1) == la
    assert pt.size(la) == pt.size(core) + 2 * (pt.size(q0) + pt.size(q1))


def test_core_quotient_roundtrip_over_staircase_cores():
    """from_core_quotient and back, for every 2-core (a, a-1, ..., 1) with
    a <= 7 and every quotient pair with |q0| + |q1| <= 10; the beads placed
    by the staircase's runner counts give what the frozenset display and
    the slot-sum route give."""
    pairs = [(q0, q1) for m in range(11) for k in range(m + 1)
             for q0 in pt.partitions_of(k) for q1 in pt.partitions_of(m - k)]
    for a in range(8):
        core = pt.staircase(a)
        for q0, q1 in pairs:
            la = abacus.from_core_quotient(core, q0, q1)
            assert la == from_core_quotient_by_display(core, q0, q1)
            assert la == from_core_quotient_by_slot_sums(core, q0, q1)
            assert abacus.two_quotient(la) == (core, (q0, q1))
            assert pt.size(la) == pt.size(core) + 2 * (pt.size(q0) + pt.size(q1))


def test_swp_examples():
    assert abacus.swp((6, 3, 1, 1), 1) == (5, 2, 2)
    assert abacus.swp((2, 1), 1) == (1,)
    assert abacus.swp((), 1) == ()
    assert pt.n_eps((6, 3, 1, 1), 1) == -2
    assert pt.n_eps((), 1) == 0


@given(partition_st, st.integers(min_value=0, max_value=1))
def test_swp_involution(la, eps):
    assert abacus.swp(abacus.swp(la, eps), eps) == la


@given(partition_st, st.integers(min_value=0, max_value=1))
def test_swp_moves_all_eps_nodes(la, eps):
    mu = abacus.swp(la, eps)
    add = pt.addable_rows(la, eps)
    rem = pt.removable_rows(la, eps)
    assert pt.size(mu) == pt.size(la) + len(add) - len(rem)


def test_swp_core_quotient_transport():
    for la in pt.partitions_of(8):
        for eps in (0, 1):
            core, quot = abacus.two_quotient(la)
            mu = abacus.swp(la, eps)
            mcore, mquot = abacus.two_quotient(mu)
            assert mcore == abacus.swp(core, eps)
            if core == () and eps == 1:
                assert mquot == (quot[1], quot[0])
            else:
                assert mquot == quot


def test_bswp_examples():
    assert abacus.bswp((6, 3, 2), 1) == (6, 2, 1)
    assert abacus.bswp((2,), 0) == (2, 1)
    assert abacus.bswp((), 1) == ()
    assert abacus.bswp((5, 1), 0) == (3,)
    assert abacus.bswp((5, 1), 1) == (7, 3)


@given(strict_st, st.integers(min_value=0, max_value=1))
def test_bswp_involution(al, eps):
    assert abacus.bswp(abacus.bswp(al, eps), eps) == al


@given(strict_st, st.integers(min_value=0, max_value=1))
def test_bswp_even_parts_fixed(al, eps):
    mu = abacus.bswp(al, eps)
    assert pt.even_parts(mu) == pt.even_parts(al)


def test_bswp_splits_off_even_parts():
    # moving the even parts along never changes the swap of the odd ones
    for a in range(5):
        gamma = pt.bar_staircase(a)
        for eta in ((), (1,), (2,), (2, 1)):
            al = pt.union_parts(gamma, pt.scale_parts(eta, 2))
            for eps in (0, 1):
                want = pt.union_parts(abacus.bswp(gamma, eps), pt.scale_parts(eta, 2))
                assert abacus.bswp(al, eps) == want


def test_two_quotient_matches_the_display_route():
    """two_quotient reads runner and slot off each bead's parity and half;
    the frozenset display gives the same on every label with n <= 12."""
    for n in range(13):
        for la in pt.partitions_of(n):
            assert abacus.two_quotient(la) == two_quotient_by_display(la)


def test_two_quotient_matches_the_core_route():
    """The 2-core read off the runners' bead counts against the one that
    partitions.k_core builds, with the canonical bead count and the
    quotient, and from_core_quotient back to the label: every partition
    with n <= 20."""
    for n in range(21):
        for la in pt.partitions_of(n):
            core, quotient = abacus.two_quotient(la)
            assert (core, quotient) == two_quotient_by_core(la), la
            assert abacus.canonical_bead_count(la) == len(la) + (len(la) - len(core)) % 2
            assert abacus.from_core_quotient(core, *quotient) == la


def _partition_upto(parts, bound):
    """The parts, largest first, while their sum stays <= bound."""
    out, total = [], 0
    for part in sorted(parts, reverse=True):
        if total + part <= bound:
            out.append(part)
            total += part
    return tuple(out)


@given(st.builds(lambda parts: _partition_upto(parts, 120),
                 st.lists(st.integers(min_value=1, max_value=40), max_size=40)))
def test_two_quotient_matches_the_core_route_up_to_120(la):
    """The bead-count route against the k_core route, and both inverses
    back to the label, on drawn partitions with n <= 120."""
    core, quotient = abacus.two_quotient(la)
    assert (core, quotient) == two_quotient_by_core(la)
    assert abacus.from_core_quotient(core, *quotient) == la
    assert from_core_quotient_by_slot_sums(core, *quotient) == la


@given(st.integers(min_value=0, max_value=15),
       st.lists(st.integers(min_value=1, max_value=30), max_size=20),
       st.lists(st.integers(min_value=1, max_value=30), max_size=20))
def test_from_core_quotient_matches_the_slot_sums_up_to_120(a, parts0, parts1):
    """from_core_quotient against the slot-sum route on drawn coordinates,
    a staircase core and a bipartition cut down to fit a label with
    n <= 120, and two_quotient back to the coordinates."""
    core = pt.staircase(a)
    q0 = _partition_upto(parts0, (120 - pt.size(core)) // 2)
    q1 = _partition_upto(parts1, (120 - pt.size(core)) // 2 - pt.size(q0))
    la = abacus.from_core_quotient(core, q0, q1)
    assert la == from_core_quotient_by_slot_sums(core, q0, q1)
    assert abacus.two_quotient(la) == (core, (q0, q1))


def test_rewrites_check_their_input():
    bad = [(abacus.swp, ((2, True), 0)), (abacus.swp, ((1, 2), 1)),
           (abacus.bswp, ((3, True), 0)), (abacus.bswp, ((2, 2), 1)),
           (abacus.from_core_quotient, ((2, 1), (1,), (True,))),
           (abacus.from_core_quotient, ((2, 1), (0,), ())),
           (abacus.from_core_quotient, ((True,), (), ()))]
    for fn, args in bad:
        with pytest.raises(ValueError, match="parts must"):
            fn(*args)


def test_runner_swaps_name_a_residue_that_is_not_0_or_1():
    for fn, label in ((abacus.swp, (3, 1)), (abacus.bswp, (5, 2))):
        for eps in (2, -1, 0.5, None):
            with pytest.raises(ValueError, match=re.escape(f"residues mod 2 must be integers from 0 to 1: {eps!r}")):
                fn(label, eps)


def test_from_core_quotient_rejects_a_core_that_is_not_one():
    for core in ((2,), (3, 1), (2, 2), (1, 1)):
        for route in (abacus.from_core_quotient, from_core_quotient_by_slot_sums):
            with pytest.raises(ValueError, match=re.escape(f"{core} is not a 2-core")):
                route(core, (), ())
