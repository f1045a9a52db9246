import itertools
import re

import pytest
from hypothesis import given, strategies as st

from barspin import abacus, charspace as cs, partitions as pt
from oracles import (
    addable_nodes_by_rows,
    bar_core_by_bars,
    bar_staircase_index,
    bars,
    check_partition_by_any,
    check_strict_by_any,
    conjugate_by_columns,
    four_bar_core_by_moves,
    k_core_by_runners,
    k_weight_by_core,
    partition_set,
    remove_all_spin_removable_by_rows,
    remove_all_spin_removable_reference,
    remove_corner_set,
    spin_addable_nodes_reference,
    spin_additions_brute,
    spin_additions_by_rows,
    spin_n_eps_by_rows,
    spin_removable_nodes_reference,
    spin_removals_brute,
    spin_removals_by_rows,
    removable_nodes_by_rows,
    rim_hooks_by_beta,
    spin_swap_sign_reference,
)

partition_lists = st.lists(st.integers(min_value=1, max_value=12), max_size=6)


def as_partition(parts):
    return tuple(sorted(parts, reverse=True))


def as_strict(parts):
    return tuple(sorted(set(parts), reverse=True))


partition_st = st.builds(as_partition, partition_lists)
strict_st = st.builds(as_strict, partition_lists)


def test_parse_and_format():
    assert pt.parse_partition("6,3,1,1") == (6, 3, 1, 1)
    assert pt.parse_partition("-") == ()
    assert pt.format_partition((6, 3, 1, 1)) == "6,3,1,1"
    assert pt.parse_strict("7,5,4,1") == (7, 5, 4, 1)
    assert pt.parse_partition(" 3 , 1 ") == (3, 1)
    assert pt.parse_class("1, 3,1") == (3, 1, 1)
    assert pt.parse_class("-") == ()


@pytest.mark.parametrize("text", ["1_0", "+3", "\uff13,1", "3,,1", "3,-1", "", "3.0"])
def test_parse_partition_wants_ascii_digits(text):
    with pytest.raises(ValueError):
        pt.parse_partition(text)
    with pytest.raises(ValueError):
        pt.parse_class(text)


def test_bool_parts_are_rejected():
    for la in [(True,), (2, True), (False,)]:
        with pytest.raises(ValueError):
            pt.check_partition(la)
        with pytest.raises(ValueError):
            cs.unit("linear", la)
    assert not pt.is_strict((True,))


def _outcome(check, la):
    try:
        check(la)
    except Exception as exc:  # the exception itself is what is compared
        return type(exc), str(exc)
    return None


BAD_LABELS = [
    (True,), (3, True), (False,), (2, 0), (0,), (3, -1), (-2,), (2.0,), (3, 1.0),
    (1, 2), (3, 1, 2), (2, 2), (3, 3, 1), (4, 2, 2, 2), (2, 2, 3), (1, 1, 2),
    (2, 3, 0), (0, 1), (3, 3, True), [3, 1, 2], [2, 2], "21", ("3", 1), (3, None),
    None, 3,
]
GOOD_LABELS = [(), (1,), (3, 1), (2, 2), (5, 3, 3, 1, 1), [4, 2, 1], (7, 5, 4, 1)]


def test_single_pass_checks_match_the_any_passes():
    """For bad and good labels, the single-pass checks raise exactly what
    the two-`any` checks raise: the same exception, the same message, and
    the same message when two of them apply (a bad part before a rise,
    a rise before a repeat)."""
    for la in BAD_LABELS + GOOD_LABELS:
        assert _outcome(pt.check_partition, la) == _outcome(check_partition_by_any, la), la
        assert _outcome(pt.check_strict, la) == _outcome(check_strict_by_any, la), la
    for n in range(13):
        for la in pt.partitions_of(n):
            assert _outcome(pt.check_strict, la) == _outcome(check_strict_by_any, la), la
    assert _outcome(pt.check_strict, (2, 2, 3))[1] == "parts must weakly decrease: (2, 2, 3)"
    assert _outcome(pt.check_strict, (3, True))[1] == "parts must be positive integers: (3, True)"


def test_conjugate():
    assert pt.conjugate((4, 2, 1)) == (3, 2, 1, 1)
    assert pt.conjugate(()) == ()


def test_conjugate_matches_the_column_counts():
    for n in range(21):
        for la in pt.partitions_of(n):
            assert pt.conjugate(la) == conjugate_by_columns(la)


@given(partition_st)
def test_conjugate_involution(la):
    assert pt.conjugate(pt.conjugate(la)) == la


def test_counting():
    assert len(pt.partitions_of(8)) == 22
    assert len(pt.strict_partitions_of(8)) == 6
    assert len(pt.odd_partitions_of(8)) == 6


def test_enumerators_match_part_multisets():
    """Each size built from the smaller ones, against every multiset of
    parts; descending lexicographic order is reverse tuple order."""
    for n in range(26):
        every = partition_set(n)
        strict = {la for la in every if len(set(la)) == len(la)}
        odd = {la for la in every if all(p % 2 for p in la)}
        assert pt.partitions_of(n) == tuple(sorted(every, reverse=True))
        assert pt.strict_partitions_of(n) == tuple(sorted(strict, reverse=True))
        assert pt.odd_partitions_of(n) == tuple(sorted(odd, reverse=True))


@given(st.integers(min_value=0, max_value=14))
def test_strict_matches_odd_count(n):
    assert len(pt.strict_partitions_of(n)) == len(pt.odd_partitions_of(n))


def test_dbl():
    assert pt.dbl((5, 2)) == (3, 2, 1, 1)
    assert pt.dbl((5, 1)) == (3, 2, 1)
    assert pt.dbl(()) == ()


@given(strict_st)
def test_dbl_preserves_size(al):
    assert pt.size(pt.dbl(al)) == pt.size(al)


def test_regularize2():
    assert pt.regularize2((1, 1)) == (2,)
    assert pt.regularize2((2, 2)) == (3, 1)
    assert pt.regularize2((3, 2, 1)) == (3, 2, 1)


@given(partition_st)
def test_regularize2_idempotent_and_regular(la):
    reg = pt.regularize2(la)
    assert pt.size(reg) == pt.size(la)
    assert len(set(reg)) == len(reg)
    assert pt.regularize2(reg) == reg


def test_spin_residues():
    # columns 1..8 repeat the pattern 0 1 1 0 0 1 1 0
    assert [pt.spin_residue(c) for c in range(1, 9)] == [0, 1, 1, 0, 0, 1, 1, 0]
    assert pt.spin_residue(9) == 0


def test_spin_content_matches_double():
    for al in pt.strict_partitions_of(9):
        assert pt.spin_content_counts(al) == pt.content_counts(pt.dbl(al))


def test_spin_nodes():
    assert spin_removable_nodes_reference((7, 5, 4, 1), 0) == {(2, 5), (3, 4), (4, 1)}
    assert spin_addable_nodes_reference((7, 5, 4, 1), 0) == {(1, 8), (1, 9)}
    assert pt.spin_n_eps((7, 5, 4, 1), 0) == -1
    assert cs._removable_count("spin", (7, 5, 4, 1), 0) == 3
    assert pt.spin_n_eps((6, 3, 2), 1) == -2


def test_spin_nodes_match_the_union_over_every_move():
    """The counts read off the greedy largest moves against the union of
    the cells of every legal move, and what the library reads off those
    nodes."""
    for n in range(0, 21):
        for al in pt.strict_partitions_of(n):
            for eps in (0, 1):
                rem = spin_removable_nodes_reference(al, eps)
                add = spin_addable_nodes_reference(al, eps)
                assert pt.spin_n_eps(al, eps) == len(add) - len(rem)
                assert cs._removable_count("spin", al, eps) == len(rem)
                assert pt.remove_all_spin_removable(al, eps) == remove_all_spin_removable_reference(al, eps)
                assert cs.swap_sign("spin", al, eps) == spin_swap_sign_reference(al, eps)


def test_spin_moves_match_brute_force():
    """spin_removals/spin_additions against every strict label of the right
    size that differs from al by allowed end cells, the empty label and
    counts past the largest move included.  Removals come in descending,
    additions in ascending lexicographic order."""
    for n in range(13):
        for al in pt.strict_partitions_of(n):
            for eps in (0, 1):
                for count in range(2 * len(al) + 3):
                    rem = spin_removals_brute(al, eps, count)
                    add = spin_additions_brute(al, eps, count)
                    assert pt.spin_removals(al, eps, count) == sorted(rem, reverse=True)
                    assert pt.spin_additions(al, eps, count) == sorted(add)


def _check_block_moves(al, eps):
    """The eps-block routes of one strict label against the row routes:
    n_eps, the full removal, and the removals and additions of every count
    from 0 to past the largest move, in the order _moves lists them."""
    assert pt.spin_n_eps(al, eps) == spin_n_eps_by_rows(al, eps), (al, eps)
    assert pt.remove_all_spin_removable(al, eps) == remove_all_spin_removable_by_rows(al, eps), (al, eps)
    for count in range(2 * len(al) + 3):
        assert pt.spin_removals(al, eps, count) == spin_removals_by_rows(al, eps, count), (al, eps, count)
        assert pt.spin_additions(al, eps, count) == spin_additions_by_rows(al, eps, count), (al, eps, count)


def test_block_moves_match_the_row_moves():
    """Every strict label with n <= 20, both residues."""
    for n in range(21):
        for al in pt.strict_partitions_of(n):
            for eps in (0, 1):
                _check_block_moves(al, eps)


def strict_upto(parts, bound):
    """The distinct parts, largest first, while their sum stays <= bound."""
    out, total = [], 0
    for part in sorted(set(parts), reverse=True):
        if total + part <= bound:
            out.append(part)
            total += part
    return tuple(out)


strict_to_120 = st.builds(lambda parts: strict_upto(parts, 120),
                          st.lists(st.integers(min_value=1, max_value=40), max_size=10))


@given(strict_to_120, st.integers(min_value=0, max_value=1))
def test_block_moves_match_the_row_moves_up_to_120(al, eps):
    _check_block_moves(al, eps)


def test_spin_blocks_read_the_part_mask():
    """Part x is bead x + 1 - 2 eps; the blocks that can move come top
    first, and for eps = 0 the floor block (8, or 12 with the part 1)
    comes last."""
    # eps = 1: 7 and 6 in block 1 (key 6), 4 never moves, 3 and 1 in block 0 (key 5)
    assert pt.spin_blocks((7, 6, 4, 3, 1), 1) == (0b1101101, [(4, 6), (0, 5)])
    # eps = 0: 5, 4 and 3 fill block 1, 2 never moves, 1 is the floor's
    assert pt.spin_blocks((5, 4, 3, 2, 1), 0) == (0b1111100, [(0, 12)])
    assert pt.spin_blocks((), 0) == (0, [(0, 8)])
    assert pt.spin_blocks((), 1) == (0, [])
    for al in pt.strict_partitions_upto(12):
        for eps in (0, 1):
            assert pt.label_from_beads(pt.spin_blocks(al, eps)[0], eps) == al


def test_remove_all_spin_removable():
    assert pt.remove_all_spin_removable((6, 3, 2), 1) == (5, 2, 1)


def test_remove_all_removable():
    """Changing rows directly against the validating corner helper."""
    # residue-1 corners (1,6), (2,3) and (4,1); no residue-0 corner
    assert pt.remove_all_removable((6, 3, 1, 1), 1) == (5, 2, 1)
    assert pt.remove_all_removable((6, 3, 1, 1), 0) == (6, 3, 1, 1)
    for p in (2, 3):
        for n in range(0, 11):
            for la in pt.partitions_of(n):
                for eps in range(p):
                    want = remove_corner_set(la, removable_nodes_by_rows(la, eps, p))
                    assert pt.remove_all_removable(la, eps, p) == want


def test_removing_eps_nodes_makes_them_addable_and_moves_no_other():
    """The addable eps-rows of la less a set A of removable eps-nodes are
    those of la and the rows of A: a removal changes whether a node is
    addable only at its own place and at its neighbours, whose residues
    eps -+ 1 are not eps for p >= 2."""
    for p in (2, 3, 5):
        for n in range(13):
            for la in pt.partitions_of(n):
                for eps in range(p):
                    added = pt.addable_rows(la, eps, p)
                    removed = pt.removable_rows(la, eps, p)
                    for k in range(len(removed) + 1):
                        for sub in itertools.combinations(removed, k):
                            rows = list(la)
                            for i in sub:
                                rows[i] -= 1
                            mu = tuple(filter(None, rows))
                            got = pt.addable_rows(mu, eps, p)
                            assert got == sorted(added + list(sub)), (la, eps, p, sub)


def _moved(la, down, up):
    """la with one cell off each row (from 0) in down and one onto each in up."""
    rows = [*la, 0]
    for i in down:
        rows[i] -= 1
    for i in up:
        rows[i] += 1
    return tuple(filter(None, rows))


def test_two_step_runner_swap_terms_cancel_to_the_closed_form():
    """Inclusion-exclusion behind the linear runner swap: the terms
    (-1)^a (la - A) + B, A an a-subset of the removable eps-rows and B an
    (a + c)-subset of the addable eps-rows of la - A, summed with zeros
    dropped, are (-1)^m (la - Rem) + B over the (m + c)-subsets B of the
    addable eps-rows of la, Rem the m removable ones, each label once.
    Every partition with n <= 10, p in {2, 3, 5}, every eps and c from one
    below the bottom to one past the top."""
    for p in (2, 3, 5):
        for n in range(11):
            for la in pt.partitions_of(n):
                for eps in range(p):
                    added = pt.addable_rows(la, eps, p)
                    removed = pt.removable_rows(la, eps, p)
                    m = len(removed)
                    for c in range(-m - 1, len(added) - m + 2):
                        summed = {}
                        for a in range(max(0, -c), m + 1):
                            for sub in itertools.combinations(removed, a):
                                mu = _moved(la, sub, ())
                                for up in itertools.combinations(
                                        pt.addable_rows(mu, eps, p), a + c):
                                    key = _moved(mu, (), up)
                                    summed[key] = summed.get(key, 0) + (-1) ** a
                        got = {key: x for key, x in summed.items() if x}
                        closed = [_moved(la, removed, up)
                                  for up in itertools.combinations(added, m + c)] if m + c >= 0 else []
                        assert got == dict.fromkeys(closed, (-1) ** m), (la, eps, p, c)
                        assert len(set(closed)) == len(closed)


def test_four_bar_core():
    assert pt.four_bar_core((12, 8, 7, 4, 3, 2)) == ((7, 3), 13)
    assert pt.four_bar_core((4, 3, 2)) == ((3,), 3)
    assert pt.four_bar_core((9, 1)) == ((5, 1), 2)
    assert pt.four_bar_core(()) == ((), 0)


def test_four_bar_core_matches_greedy_moves():
    for n in range(25):
        for al in pt.strict_partitions_of(n):
            assert pt.four_bar_core(al) == four_bar_core_by_moves(al)


@given(strict_st)
def test_four_bar_core_invariants(al):
    core, w = pt.four_bar_core(al)
    assert pt.size(core) + 2 * w == pt.size(al)
    assert core == pt.bar_staircase(bar_staircase_index(core))


def test_bar_core_matches_greedy_bars():
    """The abacus closed form of the k-bar core, and the weight read off
    it, against greedy k-bar removals, for every strict label of size <= 20
    and every odd k <= n + 2, and at k = 10**6 + 1, past every part."""
    for n in range(21):
        for al in pt.strict_partitions_of(n):
            for k in (*range(1, n + 3, 2), 10**6 + 1):
                core = bar_core_by_bars(al, k)
                assert pt.bar_core(al, k) == core, (al, k)
                assert pt.bar_weight(al, k) == (n - pt.size(core)) // k, (al, k)


def test_bar_core_examples_and_even_lengths():
    assert pt.bar_core((7, 5, 4, 2, 1), 3) == (1,)
    assert pt.bar_core((8, 3), 5) == (8, 3)
    assert pt.bar_core((6, 4, 1), 5) == (1,)
    assert pt.bar_core((9, 5), 1) == ()
    assert pt.bar_weight((8, 5, 2), 5) == 3
    for k in (-1, 0, 2, 4):
        with pytest.raises(ValueError, match="odd positive lengths only"):
            pt.bar_core((3, 1), k)


def test_staircases():
    assert pt.staircase(3) == (3, 2, 1)
    assert pt.staircase(0) == ()
    assert pt.bar_staircase(3) == (5, 1)
    assert pt.bar_staircase(4) == (7, 3)
    assert pt.bar_staircase(0) == ()
    # doubling a bar staircase gives the ordinary staircase
    for a in range(8):
        assert pt.dbl(pt.bar_staircase(a)) == pt.staircase(a)


def test_bars():
    assert set(bars((5, 4), 3)) == {(4, 2), (5, 1)}
    assert pt.largest_odd_bar((12, 8, 7, 4, 3, 2)) == (19, (8, 4, 3, 2))
    assert pt.largest_odd_bar((5, 3, 1)) == (5, (3, 1))


def test_largest_odd_bar_matches_the_bars():
    """The length is the longest odd k with a k-bar, and the result is one
    that such a bar leaves, on every nonempty strict label with n <= 20;
    42 of them have only even parts."""
    all_even = 0
    for al in pt.strict_partitions_upto(20)[1:]:
        all_even += not pt.odd_parts(al)
        k, rest = pt.largest_odd_bar(al)
        assert k == max(j for j in range(1, pt.size(al) + 1, 2) if bars(al, j)), al
        assert rest in bars(al, k), al
    assert all_even == 42


def test_ladders():
    assert pt.ladder_counts((3, 1)) == {1: 1, 2: 2, 3: 1}


def test_beta_numbers_roundtrip():
    assert pt.beta_numbers((3, 1), 3) == [5, 2, 0]
    assert pt.partition_from_beta([5, 2, 0]) == (3, 1)


@given(partition_st, st.integers(min_value=0, max_value=4))
def test_beta_roundtrip_any_padding(la, extra):
    b = pt.beta_numbers(la, len(la) + extra)
    assert pt.partition_from_beta(b) == la


def test_int_encodings():
    """The masks and memo keys of the kernels: the mask of a label of size
    n is below 2^(n + 1), and split_key strips the front part of the class
    from any key."""
    assert pt.beta_mask((3, 1)) == 0b10010
    assert pt.part_mask((4, 1)) == 0b10010
    assert pt.memo_key((3, 1), 0b10010) == 0b1001_10010
    assert pt.split_key(0b1001_10010) == (0b10010, 3, 0b1_00)
    assert pt.split_key(pt.memo_key((), 0)) == (0, 0, 0)
    for n in range(13):
        for la in pt.partitions_of(n):
            mask = pt.beta_mask(la)
            assert mask < 2 ** (n + 1) and not mask & 1
            assert pt.partition_from_beta([b for b in range(n + 1) if mask >> b & 1]) == la
        for al in pt.strict_partitions_of(n):
            assert pt.part_mask(al) < 2 ** (n + 1)
            assert [b for b in range(n, 0, -1) if pt.part_mask(al) >> b & 1] == list(al)
        masks = [pt.beta_mask(la) for la in pt.partitions_of(n)]
        for nu in pt.partitions_of(n):
            for mask in masks:
                got, k, rest = pt.split_key(pt.memo_key(nu, mask))
                assert (got, k) == (mask, nu[0] if nu else 0)
                for mu in pt.partitions_of(n - k) if nu else ():
                    small = pt.beta_mask(mu)
                    assert rest | small == pt.memo_key(nu[1:], small)


def test_partition_from_beta_rejects_a_negative_bead():
    with pytest.raises(ValueError, match="negative"):
        pt.partition_from_beta([-1, 2])
    assert pt.partition_from_beta([]) == ()
    assert pt.partition_from_beta([0, 2]) == (1,)


def test_rim_hooks_reject_a_length_below_one():
    for k in (0, -1):
        with pytest.raises(ValueError, match=f"got {k}"):
            pt.rim_hooks((2, 1), k)
    assert pt.rim_hooks((2, 1), 1) == [((1, 1), 0), ((2,), 0)]


def test_rim_hooks_match_the_beta_list_moves():
    """The bitmask strips against the moves on a list of beta-numbers: the
    same removals in the same order (highest bead first) with the same legs,
    every partition of size <= 12 and every 1 <= k <= |la| + 1."""
    for n in range(13):
        for la in pt.partitions_of(n):
            for k in range(1, n + 2):
                assert pt.rim_hooks(la, k) == rim_hooks_by_beta(la, k), (la, k)


def test_k_core():
    assert pt.k_core((6, 3, 1, 1), 2) == (2, 1)
    assert pt.k_core((4, 2), 2) == ()
    assert pt.k_core((9, 8, 5, 1, 1, 1, 1, 1), 5) == (2,)
    assert pt.k_core((9, 9, 4, 1, 1, 1, 1, 1, 1), 5) == (3,)


def test_k_core_counts_beads_per_runner():
    """Every partition with n <= 14, at each k <= n + 2 and at
    k = 10**6 + 1, past every bead."""
    for n in range(15):
        for la in pt.partitions_of(n):
            for k in (*range(1, n + 3), 10**6 + 1):
                assert pt.k_core(la, k) == k_core_by_runners(la, k)


def test_k_core_and_k_weight_reject_a_length_below_one():
    with pytest.raises(ValueError, match="got 0"):
        pt.k_core((2, 1), 0)
    with pytest.raises(ValueError, match="got -1"):
        pt.k_weight((2, 1), -1)


def test_k_weight_matches_the_core_route():
    """The weight read off the k-abacus bead counts against the size shed
    to the k-core: every partition with n <= 20 and every 1 <= k <= n + 1."""
    for n in range(21):
        for la in pt.partitions_of(n):
            for k in range(1, n + 2):
                assert pt.k_weight(la, k) == k_weight_by_core(la, k), (la, k)


def test_every_core_and_hook_helper_checks_its_label_and_length():
    """One message for each bad label, the same as check_partition's or
    check_strict's, and for a length that is not a positive int (odd for
    bars; a bool is not one), the helper's own; good inputs pass."""
    bad_labels = {(1, 2): "parts must weakly decrease", (2, True): "parts must be positive",
                  (2, 0): "parts must be positive", (2.0,): "parts must be positive"}
    lengths = {"cores": (0, -1, 2.0, True, "2"), "rim hooks": (0, -1, 2.0, True, "2"),
               "bars": (0, 2, -1, 3.0, True, "3")}
    messages = {"cores": "cores are defined for positive lengths only, got {!r}",
                "rim hooks": "rim hooks have positive lengths only, got {!r}",
                "bars": "bars are defined for odd positive lengths only, got {!r}"}
    # (name, call(label, length), what the label and length are checked as)
    takers = [
        ("two_quotient", lambda la, k: abacus.two_quotient(la), "partition"),
        ("canonical_bead_count", lambda la, k: abacus.canonical_bead_count(la), "partition"),
        ("pretty", lambda la, k: abacus.pretty(la), "partition"),
        ("k_core", pt.k_core, "cores"),
        ("k_weight", pt.k_weight, "cores"),
        ("rim_hooks", pt.rim_hooks, "rim hooks"),
        ("bar_core", pt.bar_core, "bars"),
        ("bar_weight", pt.bar_weight, "bars"),
        ("four_bar_core", lambda al, k: pt.four_bar_core(al), "strict"),
    ]
    for name, call, kind in takers:
        strict = kind in ("bars", "strict")
        labels = {**bad_labels, (2, 2): "parts must strictly decrease"} if strict else bad_labels
        for label, message in labels.items():
            with pytest.raises(ValueError, match=re.escape(message)):
                call(label, 3)
                pytest.fail(f"{name} took the label {label!r}")
        for k in lengths.get(kind, ()):
            with pytest.raises(ValueError, match=re.escape(messages[kind].format(k))):
                call((3, 1), k)
                pytest.fail(f"{name} took the length {k!r}")
        call((3, 1), 3)


def test_node_lists_match_the_row_loops():
    """The row functions give the rows, less one, of the node oracles, in
    the same order: every label with n <= 12, p = 2, 3, 5, every eps."""
    for n in range(13):
        for la in pt.partitions_of(n):
            for p in (2, 3, 5):
                for eps in range(p):
                    rem, add = removable_nodes_by_rows(la, eps, p), addable_nodes_by_rows(la, eps, p)
                    assert pt.removable_rows(la, eps, p) == [i - 1 for i, _ in rem]
                    assert pt.addable_rows(la, eps, p) == [i - 1 for i, _ in add]


@pytest.mark.parametrize("p", [-2, 0, 1])
def test_residue_helpers_reject_p_below_2(p):
    """Residues mod p are read for p >= 2 only: at p = 1 every corner is an
    eps-node, p = 0 divides by zero and p = -2 takes residues below 0."""
    for call in (lambda: pt.check_modulus(p),
                 lambda: pt.check_residue(0, p),
                 lambda: pt.residue(1, 2, p),
                 lambda: pt.removable_rows((3, 1), 0, p),
                 lambda: pt.addable_rows((3, 1), 0, p),
                 lambda: pt.remove_all_removable((3, 1), 0, p),
                 lambda: pt.n_eps((3, 1), 0, p),
                 lambda: pt.content_counts((3, 1), p)):
        with pytest.raises(ValueError, match=f"p = {p} is not at least 2"):
            call()


@pytest.mark.parametrize("p", [2.5, 2.0, True, "2"])
def test_residue_helpers_and_operators_reject_a_modulus_that_is_not_an_int(p):
    """A modulus is an int (a bool is not one).  Before, p = 2.5 let apply_e
    answer 0, p = 2.0 and True answered as p = 2 (2.0 in the move table's
    key of p = 2), and content_counts at 2.0 raised a TypeError."""
    lin = cs.unit("linear", (3, 1))
    for call in (lambda: pt.check_modulus(p),
                 lambda: pt.check_residue(0, p),
                 lambda: pt.residue(1, 2, p),
                 lambda: pt.removable_rows((3, 1), 0, p),
                 lambda: pt.addable_rows((3, 1), 0, p),
                 lambda: pt.remove_all_removable((3, 1), 0, p),
                 lambda: pt.n_eps((3, 1), 0, p),
                 lambda: pt.content_counts((3, 1), p),
                 lambda: cs.apply_e(lin, 0, 1, p),
                 lambda: cs.apply_f(lin, 0, 1, p),
                 lambda: cs.runner_swap(lin, 0, 0, p)):
        with pytest.raises(ValueError, match=re.escape(f"p must be an integer, got {p!r}")):
            call()


def _residue_takers():
    """(name, call) for every public function with a residue argument:
    call(eps, p) passes p where the function takes one, and None where it
    does not (those are for p = 2 only)."""
    lin, spin = cs.unit("linear", (3, 1)), cs.unit("spin", (5, 2))
    with_p = {
        "check_residue": lambda eps, p: pt.check_residue(eps, p),
        "removable_rows": lambda eps, p: pt.removable_rows((3, 1), eps, p),
        "addable_rows": lambda eps, p: pt.addable_rows((3, 1), eps, p),
        "remove_all_removable": lambda eps, p: pt.remove_all_removable((3, 1), eps, p),
        "n_eps": lambda eps, p: pt.n_eps((3, 1), eps, p),
        "apply_e": lambda eps, p: cs.apply_e(lin, eps, 1, p),
        "apply_f": lambda eps, p: cs.apply_f(lin, eps, 1, p),
        "runner_swap": lambda eps, p: cs.runner_swap(lin, eps, 0, p),
    }
    at_2 = {
        "spin_n_eps": lambda eps: pt.spin_n_eps((5, 2), eps),
        "remove_all_spin_removable": lambda eps: pt.remove_all_spin_removable((5, 2), eps),
        "spin_removals": lambda eps: pt.spin_removals((5, 2), eps, 1),
        "spin_additions": lambda eps: pt.spin_additions((5, 2), eps, 1),
        "swp": lambda eps: abacus.swp((3, 1), eps),
        "bswp": lambda eps: abacus.bswp((5, 2), eps),
        "apply_e spin": lambda eps: cs.apply_e(spin, eps),
        "apply_f spin": lambda eps: cs.apply_f(spin, eps),
        "runner_swap spin": lambda eps: cs.runner_swap(spin, eps, 0),
        "quot_reds": lambda eps: cs.quot_reds(spin, eps, ()),
        "quot_red": lambda eps: cs.quot_red(lin, eps, 0),
        "swap_sign": lambda eps: cs.swap_sign("spin", (5, 2), eps),
    }
    return with_p, at_2


def test_every_residue_taker_names_a_residue_out_of_range():
    """One rule and one message for a residue that is not an int from 0 to
    p - 1: eps = -1, 2, 0.5, None and True at p = 2 everywhere, and eps = 3
    at p = 3 where p is taken."""
    with_p, at_2 = _residue_takers()
    calls = [(name, eps, 2, lambda eps=eps, fn=fn: fn(eps, 2))
             for name, fn in with_p.items() for eps in (-1, 2, 0.5, None, True)]
    calls += [(name, 3, 3, lambda fn=fn: fn(3, 3)) for name, fn in with_p.items()]
    calls += [(name, eps, 2, lambda eps=eps, fn=fn: fn(eps))
              for name, fn in at_2.items() for eps in (-1, 2, 0.5, None, True)]
    for name, eps, p, call in calls:
        message = f"residues mod {p} must be integers from 0 to {p - 1}: {eps!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            call()
            pytest.fail(f"{name} took eps = {eps!r} at p = {p}")
    for fn in with_p.values():
        fn(2, 3)
    for eps in (0, 1):
        for fn in with_p.values():
            fn(eps, 2)
        for fn in at_2.values():
            fn(eps)


def test_content_counts_sum_each_cells_residue():
    """The per-row counts of content_counts equal residue summed cell by
    cell: every partition with n <= 11, p = 2, 3, 5 and 13."""
    for n in range(12):
        for la in pt.partitions_of(n):
            for p in (2, 3, 5, 13):
                counts = [0] * p
                for r, c in pt.cells(la):
                    counts[pt.residue(r, c, p)] += 1
                assert pt.content_counts(la, p) == tuple(counts), (la, p)
