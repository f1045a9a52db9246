"""Tests for the classification of proportional spin labels.

Decomposition examples are frozen from hand computations; the structural
properties (rebuild round trips, conjugate pairs, size preservation) run
over every strict partition up to a modest size.  The paper's literal
definitions of four-stepped and four-semicongruent, and the RoCK
conditions, live here as oracles: the library decides membership by
fsas_decompose and spin_rock_decompose alone, and fsas_decompose reads
its answer off spin_rock_decompose.  The parsers they replaced, in
oracles, check both.
"""

import re

import pytest
from hypothesis import given, settings, strategies as st

from barspin import classify as cl
from barspin.abacus import two_quotient
from barspin.partitions import (
    bar_staircase,
    is_strict,
    k_core,
    k_weight,
    partitions_of,
    scale_parts,
    size,
    staircase,
    strict_partitions_of,
    sum_parts,
    union_parts,
)
from oracles import fsas_decompose_by_halves, predicted_pairs_by_filter, spin_rock_decompose_checked


def is_four_stepped(al):
    """Every part p > 4 has p - 4 as a part too."""
    return all(p - 4 in al for p in al if p > 4)


def is_four_semicongruent(al):
    """All odd parts agree mod 4."""
    return len({p % 4 for p in al if p % 2}) <= 1


def linear_is_rock(la):
    return k_weight(la, 2) <= len(k_core(la, 2)) + 1


def spin_is_rock(al):
    """Odd parts 4-semicongruent, and the weight over the bar staircase,
    in units of 2, at most b + 1."""
    dec = cl.spin_rock_decompose(al)
    if dec is None:
        return False
    b = dec[0]
    return size(al) - size(bar_staircase(b)) <= 2 * (b + 1)


def test_fsas_decompose_frozen():
    assert cl.fsas_decompose((12, 8, 7, 4, 3, 2)) == cl.FsasDecomposition(4, 4, 2)
    assert cl.fsas_decompose((4,)) == cl.FsasDecomposition(0, 1, 1)
    assert cl.fsas_decompose((2,)) == cl.FsasDecomposition(0, 1, 0)
    assert cl.fsas_decompose((5, 2, 1)) == cl.FsasDecomposition(3, 1, 0)
    assert cl.fsas_decompose((3, 2, 1)) is None
    assert cl.fsas_decompose(()) == cl.FsasDecomposition(0, 0, 0)


def test_is_fsas_examples():
    assert cl.fsas_decompose((3, 2, 1)) is None
    assert cl.fsas_decompose((2,)) is not None
    assert cl.fsas_decompose(()) is not None
    assert cl.fsas_decompose((10, 6, 2)) is not None
    assert cl.fsas_decompose((8, 2)) is None
    assert cl.fsas_decompose((7, 1)) is None
    assert not is_four_stepped((8, 2)) and is_four_semicongruent((8, 2))
    assert is_four_stepped((3, 1)) and not is_four_semicongruent((3, 1))
    assert cl.fsas_decompose((3, 1)) is None


def test_fsas_equals_stepped_and_semicongruent():
    for n in range(0, 14):
        for al in strict_partitions_of(n):
            both = is_four_stepped(al) and is_four_semicongruent(al)
            assert (cl.fsas_decompose(al) is not None) == both


def test_fsas_rebuild_round_trip():
    for n in range(0, 15):
        for al in strict_partitions_of(n):
            dec = cl.fsas_decompose(al)
            if dec is None:
                continue
            assert dec.r >= dec.s >= 0
            assert dec.rebuild() == al


def test_lambda_of_frozen():
    assert cl.fsas_decompose((4,)).linear_labels() == ((2, 2), (2, 2))
    assert cl.fsas_decompose((12, 8, 7, 4, 3, 2)).linear_labels() == (
        (12, 9, 6, 3, 3, 1, 1, 1),
        (8, 5, 5, 3, 3, 3, 2, 2, 2, 1, 1, 1),
    )
    assert cl.fsas_decompose((5, 2, 1)).linear_labels() == ((5, 2, 1), (3, 2, 1, 1, 1))


def test_lambda_of_structure():
    for n in range(0, 13):
        for al in strict_partitions_of(n):
            dec = cl.fsas_decompose(al)
            if dec is None:
                continue
            la, conj = dec.linear_labels()
            assert size(la) == size(al)
            core, (q0, q1) = two_quotient(la)
            assert core == staircase(dec.a)
            assert (q0, q1) == (staircase(dec.s), staircase(dec.r))


def test_ratio_exponent():
    assert cl.ratio_exponent((12, 8, 7, 4, 3, 2)) == 4
    assert cl.ratio_exponent((4,)) == 1
    assert cl.ratio_exponent((2,)) == 1
    assert cl.ratio_exponent((5, 2, 1)) == 1
    assert cl.ratio_exponent((5, 1)) == 0


def test_predicted_pairs_frozen():
    assert cl.predicted_pairs(8) == [
        ((5, 2, 1), (3, 2, 1, 1, 1), 1),
        ((5, 2, 1), (5, 2, 1), 1),
        ((6, 2), (3, 3, 1, 1), 2),
        ((6, 2), (4, 2, 2), 2),
    ]
    assert cl.equality_cases(8) == [
        ((5, 2, 1), (3, 2, 1, 1, 1), 1),
        ((5, 2, 1), (5, 2, 1), 1),
    ]


def test_predicted_pairs_structure():
    for n in range(1, 12):
        pairs = cl.predicted_pairs(n)
        assert pairs == sorted(pairs)
        for al, la, e in pairs:
            dec = cl.fsas_decompose(al)
            assert dec is not None
            assert e == cl.ratio_exponent(al)
            assert la in dec.linear_labels()
        eq = cl.equality_cases(n)
        assert eq == [rec for rec in pairs if rec[2] <= 1]


def test_spin_rock_decompose_frozen():
    assert cl.spin_rock_decompose((9, 1)) == (3, (1,), ())
    assert cl.spin_rock_decompose((5, 2, 1)) == (3, (), (1,))
    assert cl.spin_rock_decompose((6, 4, 2)) == (0, (), (3, 2, 1))
    assert cl.spin_rock_decompose((3, 2, 1)) is None


def test_spin_rock_decompose_rebuild():
    for n in range(0, 14):
        for al in strict_partitions_of(n):
            dec = cl.spin_rock_decompose(al)
            if dec is None:
                continue
            b, sigma, eta = dec
            body = sum_parts(bar_staircase(b), scale_parts(sigma, 4))
            assert union_parts(body, scale_parts(eta, 2)) == al


def test_rock_label_inverts_spin_rock_decompose():
    """rock_label rebuilds every semicongruent strict label with n <= 30
    from its decomposition, and decomposing rock_label(b, sigma, eta) gives
    back each triple of size <= 30 with sigma no longer than
    bar_staircase(b) and eta strict; the two sets have one size."""
    labels = 0
    for n in range(31):
        for al in strict_partitions_of(n):
            dec = cl.spin_rock_decompose(al)
            if dec is not None:
                assert cl.rock_label(*dec) == al
                labels += 1
    triples = 0
    for b in range(8):
        core = size(bar_staircase(b))
        for k in range((30 - core) // 4 + 1):
            for sigma in partitions_of(k):
                if len(sigma) > len(bar_staircase(b)):
                    continue
                for m in range((30 - core - 4 * k) // 2 + 1):
                    for eta in strict_partitions_of(m):
                        assert cl.spin_rock_decompose(cl.rock_label(b, sigma, eta)) == (b, sigma, eta)
                        triples += 1
    assert triples == labels


def test_decompositions_match_the_parsers_they_replaced():
    """fsas_decompose and spin_rock_decompose against the halved-evens
    parser and the RoCK parser that checks every difference, None
    included, for every strict label with n <= 30."""
    fsas = 0
    for n in range(31):
        for al in strict_partitions_of(n):
            assert cl.spin_rock_decompose(al) == spin_rock_decompose_checked(al), al
            dec = cl.fsas_decompose(al)
            assert dec == fsas_decompose_by_halves(al), al
            fsas += dec is not None
    assert fsas == 77


def test_is_rock_examples():
    assert spin_is_rock((9, 1))
    assert spin_is_rock((5, 2, 1))
    assert not spin_is_rock((6, 4, 2))
    assert not spin_is_rock((3, 2, 1))
    assert not spin_is_rock((4,))
    assert linear_is_rock((4, 1))
    assert linear_is_rock((2, 1))
    assert not linear_is_rock((2, 2))
    assert not linear_is_rock((6, 3, 1, 1))


@given(st.integers(min_value=0, max_value=12))
@settings(max_examples=13, deadline=None)
def test_rock_spin_labels_have_small_weight(n):
    for al in strict_partitions_of(n):
        if not spin_is_rock(al):
            continue
        b, sigma, eta = cl.spin_rock_decompose(al)
        assert 2 * size(sigma) + size(eta) <= b + 1


def test_predicted_pairs_decomposes_no_label(monkeypatch):
    """predicted_pairs builds each label and both its linear labels from
    the triple (a, r, s) and calls fsas_decompose on no label, and a fresh
    decomposition of each label gives back its linear labels."""
    calls = []
    decompose = cl.fsas_decompose

    def counted(al):
        calls.append(al)
        return decompose(al)

    monkeypatch.setattr(cl, "fsas_decompose", counted)
    for n in range(13):
        pairs = cl.predicted_pairs(n)
        assert calls == [], n
        for al, la, _ in pairs:
            assert la in decompose(al).linear_labels()


def test_predicted_pairs_equal_the_filter_oracle():
    """predicted_pairs and equality_cases, order included, equal the filter
    of every strict partition through fsas_decompose for every n <= 80."""
    for n in range(81):
        by_filter = predicted_pairs_by_filter(n)
        assert cl.predicted_pairs(n) == by_filter, n
        assert cl.equality_cases(n) == [rec for rec in by_filter if rec[2] <= 1], n


def test_each_triple_of_size_n_gives_its_own_label():
    """Every (a, r, s) with r >= s >= 0 and a(a+1)/2 + r(r+1) + s(s+1) = n
    <= 80 rebuilds to a strict label of size n with ratio exponent r that
    decomposes back to (a, r, s), no two triples give one label, and these
    are the labels that predicted_pairs names."""
    for n in range(81):
        labels = set()
        a = 0
        while a * (a + 1) // 2 <= n:
            r = 0
            while a * (a + 1) // 2 + r * (r + 1) <= n:
                for s in range(r + 1):
                    if a * (a + 1) // 2 + r * (r + 1) + s * (s + 1) != n:
                        continue
                    dec = cl.FsasDecomposition(a, r, s)
                    al = dec.rebuild()
                    assert is_strict(al) and size(al) == n, dec
                    assert cl.ratio_exponent(al) == r, dec
                    assert cl.fsas_decompose(al) == dec
                    assert al not in labels, dec
                    labels.add(al)
                r += 1
            a += 1
        assert labels == {al for al, _, _ in cl.predicted_pairs(n)}, n


def test_size_entry_points_name_a_size_that_is_not_a_non_negative_int():
    for fn in (cl.predicted_pairs, cl.equality_cases):
        for n in (-1, True, 2.0):
            with pytest.raises(ValueError, match=re.escape(f"sizes must be non-negative integers: {n!r}")):
                fn(n)
