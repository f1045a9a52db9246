"""Tests for ordinary and spin character values and the Brauer-vector scan.

The spin values are pinned three ways: a handful of frozen table entries,
Schur's product formula for the degrees, and an independent numerical model
that realizes the basic spin representation on a Pauli-chain Clifford
algebra and compares normalized traces.
"""

import itertools
import json
import math
import re
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from barspin.scalars import Scalar, sqrt2_pow
from barspin import charvalues as cv, symfunc as sf, verify
from barspin.partitions import (
    beta_mask,
    conjugate,
    odd_partitions_of,
    partitions_of,
    split_key,
    staircase,
    strict_partitions_of,
)
from oracles import (
    chi_by_rim_hooks,
    hook_lengths,
    key_hits_by_enumeration,
    linear_key,
    linear_key_by_cells,
    scan_reference,
    spin_ratio,
)

S = lambda a, b=0: Scalar(a, b)


# ---------------------------------------------------------------------------
# ordinary characters

def test_chi_frozen_values():
    assert cv.chi((2, 2), (3, 1)) == S(-1)
    assert cv.chi((4, 1), (2, 2, 1)) == S(0)
    assert cv.chi((3, 1, 1), (1,) * 5) == S(6)
    assert cv.chi((2, 1), (3,)) == S(-1)


def test_chi_trivial_and_sign_rows():
    for nu in partitions_of(6):
        assert cv.chi((6,), nu) == S(1)
        assert cv.chi((1,) * 6, nu) == S((-1) ** (6 - len(nu)))


def _degree_by_branching(la):
    """f^la as the sum of f^mu over the mu obtained by removing one corner."""
    if not la:
        return 1
    return sum(
        _degree_by_branching(tuple(p for p in la[:i] + (la[i] - 1,) + la[i + 1:] if p))
        for i in range(len(la))
        if i + 1 == len(la) or la[i + 1] < la[i]
    )


def test_chi_degree_column():
    for n in range(1, 9):
        for la in partitions_of(n):
            assert cv.chi(la, (1,) * n) == S(_degree_by_branching(la))


def test_chi_matches_determinant_oracle():
    """chi against the p-coefficients of Jacobi-Trudi, every label and
    class of size <= 10, the symfunc suite's bound.  The first-column
    expansion has a term at row r only when la_r >= r, so the boxes
    (3^4) and (4^5) pin the signs of rows 3 and 4, which no label of size
    <= 10 reaches."""
    labels = [la for n in range(1, 11) for la in partitions_of(n)] + [(3,) * 4, (4,) * 5]
    for la in labels:
        for nu in partitions_of(sum(la)):
            assert cv.chi(la, nu) == sf.schur_poly(la).get(nu, 0), (la, nu)


def test_chi_matches_rim_hook_recursion():
    """The bead-move kernel against Murnaghan-Nakayama on tuples: every
    class for n <= 12, every odd class (so (1^n) too) for n = 13, 14."""
    for n in range(15):
        classes = partitions_of(n) if n <= 12 else odd_partitions_of(n)
        for la in partitions_of(n):
            for nu in classes:
                assert cv.chi(la, nu) == chi_by_rim_hooks(la, nu), (la, nu)


def test_chi_takes_a_class_in_any_order_and_only_partition_labels():
    """A class is a multiset of cycle lengths, so chi is the same on every
    ordering of it (n <= 7); a label that is not a partition raises."""
    for n in range(8):
        for nu in partitions_of(n):
            orders = set(itertools.permutations(nu))
            for la in partitions_of(n):
                want = cv.chi(la, nu)
                assert all(cv.chi(la, order) == want for order in orders), (la, nu)
    assert cv.chi((2, 1), (1, 2)) == 0
    for bad in [(1, 2), (1, 3), (2, 0), (3, -1), (True,), (2.0,)]:
        with pytest.raises(ValueError):
            cv.chi(bad, (1,) * int(sum(bad)))
        with pytest.raises(ValueError):
            cv.specht_degree(bad)


def test_spin_value_takes_a_class_in_any_order_and_only_strict_labels():
    """The spin twin of the test above: spin_value and p_in_P_coefficient
    are the same on every ordering of an odd class (n <= 9), and key the bar
    memo on the class sorted down, so a reordered call adds no entry; a
    label that is not strict raises."""
    for n in range(10):
        for nu in odd_partitions_of(n):
            for al in strict_partitions_of(n):
                cv.spin_value(al, nu)
                sf.p_in_P_coefficient(al, nu)
    entries = sf._bar_kernel.cache_info().currsize
    for n in range(10):
        for nu in odd_partitions_of(n):
            orders = set(itertools.permutations(nu))
            for al in strict_partitions_of(n):
                want, x = cv.spin_value(al, nu), sf.p_in_P_coefficient(al, nu)
                assert all(cv.spin_value(al, order) == want for order in orders), (al, nu)
                assert all(sf.p_in_P_coefficient(al, order) == x for order in orders), (al, nu)
    assert sf._bar_kernel.cache_info().currsize == entries
    for bad in [(1, 2), (2, 2), (2, 0), (True,), (2.0,)]:
        with pytest.raises(ValueError):
            cv.spin_value(bad, (1,) * int(sum(bad)))
        with pytest.raises(ValueError):
            cv.spin_degree(bad)


def test_entry_points_reject_a_class_that_is_not_positive_ints():
    """chi, spin_value and p_in_P_coefficient name the class when one of its
    parts is not a positive int (a bool is not one)."""
    calls = [
        (cv.chi, (1,), (1, 0)),
        (cv.chi, (2,), (3, -1)),
        (cv.chi, (2,), (2.0,)),
        (cv.spin_value, (2,), (3, -1)),
        (cv.spin_value, (3,), (True, 1, 1)),
        (sf.p_in_P_coefficient, (3,), (3, 0)),
        (sf.p_in_P_coefficient, (3,), (1, True, 1)),
    ]
    for fn, label, nu in calls:
        with pytest.raises(ValueError, match=re.escape(f"class parts must be positive integers: {nu!r}")):
            fn(label, nu)


def test_rows_equal_the_point_reads():
    """For every label with n <= 12, chi_rows on every class and spin_rows
    on every odd class, each given with its parts in increasing order,
    read the values of chi and spin_value, in class order."""
    for n in range(13):
        classes = partitions_of(n)
        rising = [nu[::-1] for nu in classes]
        labels = partitions_of(n)
        for la, row in zip(labels, cv.chi_rows(labels, rising), strict=True):
            assert list(row) == [cv.chi(la, nu) for nu in classes], la
        odd = [nu[::-1] for nu in odd_partitions_of(n)]
        labels = strict_partitions_of(n)
        for al, row in zip(labels, cv.spin_rows(labels, odd), strict=True):
            got = list(row)
            assert got == [cv.spin_value(al, nu) for nu in odd_partitions_of(n)], al
            assert all(type(x) is Scalar for x in got), al
    assert all(type(x) is int for row in cv.chi_rows([(3, 1)], [(2, 2), (3, 1)]) for x in row)


ROW_ERRORS = [
    ("label", cv.chi, cv.chi_rows, (1, 2), (2, 1)),
    ("class", cv.chi, cv.chi_rows, (2,), (2, 0)),
    ("size", cv.chi, cv.chi_rows, (2, 1), (1, 1)),
    ("label", cv.spin_value, cv.spin_rows, (2, 2), (3, 1)),
    ("class", cv.spin_value, cv.spin_rows, (3,), (True, 1, 1)),
    ("size", cv.spin_value, cv.spin_rows, (4,), (3, 1, 1)),
    ("class", cv.spin_value, cv.spin_rows, (3, 1), (1, 2, 1)),  # an even part
]


@pytest.mark.parametrize("kind, point, rows, label, nu", ROW_ERRORS)
def test_rows_raise_the_point_reads_messages(kind, point, rows, label, nu):
    """A bad label, a bad class, a size mismatch or an even class in the spin
    basis: the row readers raise what the point read raises.  A bad class
    raises at the call, after a good one and before any row is read; a
    label raises when its row is reached, after a good label's row."""
    with pytest.raises(ValueError) as point_error:
        point(label, nu)
    message = re.escape(str(point_error.value))
    if kind == "class":
        with pytest.raises(ValueError, match=message):
            rows([label], [(1,) * sum(nu), nu])
        return
    good = (sum(nu),)
    read = rows([good, label], [nu])
    assert list(next(read)) == [point(good, nu)]
    with pytest.raises(ValueError, match=message):
        next(read)


def test_rows_name_classes_of_two_sizes():
    for rows in (cv.chi_rows, cv.spin_rows):
        with pytest.raises(ValueError, match=re.escape("size mismatch: (1,) vs (3,)")):
            rows([(1,)], [(1,), (3,)])
        assert list(map(list, rows([(2, 1), (3,)], []))) == [[], []]


def test_support_check_reads_each_row_up_to_its_first_nonzero(monkeypatch):
    """The rows are lazy: over the invariants suite at 8 the support check
    reads 282 linear and 86 spin values, as many as the point loop that
    read chi and spin_value one class at a time, largest count first, up
    to the first nonzero."""
    reads = Counter()

    def counting(name):
        original = getattr(cv, name)

        def counted(row):
            for x in row:
                reads[name] += 1
                yield x

        return lambda labels, classes: map(counted, original(labels, classes))

    for name in ("chi_rows", "spin_rows"):
        monkeypatch.setattr(cv, name, counting(name))
    assert verify.run_suite("invariants", 8).ok
    assert reads == {"chi_rows": 282, "spin_rows": 86}


def test_column_orthogonality():
    n = 6
    for nu in partitions_of(n):
        total = sum(int(cv.chi(la, nu)) ** 2 for la in partitions_of(n))
        assert total == sf.z_order(nu)


def test_z_order():
    assert sf.z_order(()) == 1
    assert sf.z_order((3, 1)) == 3
    assert sf.z_order((2, 2, 1)) == 8
    assert sf.z_order((1, 1, 1)) == 6


def test_hook_lengths():
    assert sorted(hook_lengths((3, 1))) == [1, 1, 2, 4]
    assert cv.specht_degree((3, 2, 1)) == 16


# ---------------------------------------------------------------------------
# spin characters

def test_spin_degree_frozen():
    assert cv.spin_degree((4,)) == S(0, 2)
    assert cv.spin_degree((3, 1)) == S(4)
    assert cv.spin_degree((5, 2, 1)) == S(0, 64)
    assert cv.spin_degree((2, 1)) == S(0, 1)


def test_spin_value_frozen():
    assert cv.spin_value((3, 1), (3, 1)) == S(1)
    assert cv.spin_value((4,), (3, 1)) == S(0, -1)
    assert cv.spin_value((4,), (1, 1, 1, 1)) == S(0, 2)
    assert cv.spin_value((5,), (5,)) == S(-1)
    assert cv.spin_value((5, 2), (5, 1, 1)) == S(0, 1)


def _schur_spin_degree(al):
    """Schur's product formula: sqrt2^(n - len) * n!/prod(a_i!) *
    prod_{i<j} (a_i - a_j)/(a_i + a_j)."""
    n = sum(al)
    rat = Fraction(math.factorial(n))
    for a in al:
        rat /= math.factorial(a)
    for i, a in enumerate(al):
        for b in al[i + 1:]:
            rat *= Fraction(a - b, a + b)
    return sqrt2_pow(n - len(al)) * Scalar(rat)


def test_spin_degree_matches_schur_product_formula():
    for n in range(17):
        for al in strict_partitions_of(n):
            assert cv.spin_degree(al) == _schur_spin_degree(al)


def test_spin_degree_reads_no_bar_memo():
    """The degree is Schur's closed form, read without the bar kernel: at
    staircase(16) (n = 136) the bar recursion would fill 65,536 entries."""
    sf._bar_kernel.cache_clear()
    assert cv.spin_degree(staircase(16)) == _schur_spin_degree(staircase(16))
    assert sf._bar_kernel.cache_info().currsize == 0


def test_spin_rows_lie_in_z_or_sqrt2_z():
    """A row is integral when n - len(al) is even and sqrt2 times integral
    when it is odd."""
    for n in range(1, 15):
        for al, vec in cv.spin_brauer_table(n).items():
            radical = (n - len(al)) % 2 == 1
            for v in vec:
                if radical:
                    assert v.a == 0 and type(v.b) is int
                else:
                    assert v.b == 0 and type(v.a) is int


def test_odd_classes():
    assert odd_partitions_of(6) == ((5, 1), (3, 3), (3, 1, 1, 1), (1,) * 6)
    assert odd_partitions_of(1) == ((1,),)


SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)


def _chain(ops):
    out = ops[0]
    for op in ops[1:]:
        out = np.kron(out, op)
    return out


def _clifford_generators(n):
    """n anticommuting involutions on a 2^ceil(n/2) dimensional space."""
    m = (n + 1) // 2
    gens = []
    for i in range(n):
        k, rem = divmod(i, 2)
        ops = [SZ] * k + [SX if rem == 0 else SY] + [I2] * (m - k - 1)
        gens.append(_chain(ops))
    return gens


def _transposition_lifts(n):
    e = _clifford_generators(n)
    return [(e[j] - e[j + 1]) / np.sqrt(2) for j in range(n - 1)]


def _model_trace_ratio(n, nu):
    """Normalized trace of a lift of a permutation of cycle type nu.

    The lift is taken to be the one of odd order inside the double cover,
    so the ratio is trace/dimension for that preimage.
    """
    g = _transposition_lifts(n)
    dim = g[0].shape[0]
    M = np.eye(dim, dtype=complex)
    pos = 0
    for part in nu:
        for j in range(pos, pos + part - 1):
            M = M @ g[j]
        pos += part
    order = 1
    for part in nu:
        order = order * part // np.gcd(order, part)
    P = np.linalg.matrix_power(M, order)
    if np.allclose(P, -np.eye(dim)):
        M = -M
    else:
        assert np.allclose(P, np.eye(dim))
    return np.trace(M) / dim


def _to_float(x):
    return float(x.a) + float(x.b) * np.sqrt(2)


@pytest.mark.parametrize("n", range(4, 9))
def test_basic_spin_matches_clifford_model(n):
    """spin_value on the one row label agrees with the Pauli chain model.

    The chain module is a multiple of the basic spin representation (of the
    pair of associates when n is even, which share their values on odd
    classes), so trace/dimension must equal value/degree exactly.
    """
    deg = _to_float(cv.spin_degree((n,)))
    for nu in odd_partitions_of(n):
        r = _model_trace_ratio(n, nu)
        assert abs(r.imag) < 1e-9
        want = _to_float(cv.spin_value((n,), nu)) / deg
        assert abs(r.real - want) < 1e-9


# ---------------------------------------------------------------------------
# Brauer vectors and the proportionality scan

def test_linear_brauer_frozen():
    assert odd_partitions_of(4) == ((3, 1), (1, 1, 1, 1))
    assert cv.linear_brauer((2, 2)) == (S(-1), S(2))


def test_spin_brauer_frozen():
    assert cv.spin_brauer((4,)) == (S(0, -1), S(0, 2))


def test_spin_brauer_is_sqrt2_times_linear_at_n4():
    u = cv.spin_brauer((4,))
    v = cv.linear_brauer((2, 2))
    assert cv.proportionality_ratio(u, v) == S(0, 1)


def test_proportionality_ratio_edges():
    assert cv.proportionality_ratio((S(2), S(4)), (S(1), S(2))) == S(2)
    assert cv.proportionality_ratio((S(0), S(0)), (S(1), S(2))) is None
    assert cv.proportionality_ratio((S(1), S(2)), (S(0), S(0))) is None
    assert cv.proportionality_ratio((S(1), S(2)), (S(1), S(3))) is None
    assert cv.proportionality_ratio((S(0), S(2)), (S(1), S(2))) is None


def test_scan_frozen_small():
    assert cv.scan(1) == [((1,), (1,), S(1))]
    assert cv.scan(2) == [
        ((2,), (1, 1), S(0, 1)),
        ((2,), (2,), S(0, 1)),
    ]
    assert cv.scan(3) == [
        ((2, 1), (1, 1, 1), S(0, 1)),
        ((2, 1), (3,), S(0, 1)),
        ((3,), (2, 1), S(1)),
    ]
    assert cv.scan(4) == [((4,), (2, 2), S(0, 1))]
    assert cv.scan(5) == [
        ((3, 2), (2, 1, 1, 1), S(0, 1)),
        ((3, 2), (4, 1), S(0, 1)),
        ((4, 1), (3, 1, 1), S(0, 1)),
    ]


def test_scan_matches_brute_force_pairing(tmp_path):
    """The column-pruned scan, cold and on a filled table cache, finds
    exactly the pairs of the all-against-all ratio loop."""
    for n in range(1, 13):
        lin, spn = cv.linear_brauer_table(n), cv.spin_brauer_table(n)
        brute = []
        for al, svec in spn.items():
            for la, lvec in lin.items():
                c = cv.proportionality_ratio(svec, lvec)
                if c is not None:
                    brute.append((al, la, c))
        brute.sort(key=lambda rec: (rec[0], rec[1]))
        assert cv.scan(n) == brute
        cv.load_or_build_tables(n, cache_dir=str(tmp_path))
        assert cv.scan(n, cache_dir=str(tmp_path)) == brute


def test_closed_keys_match_the_recursions():
    """The scan's keys are 60*|C| times the value over the degree on
    (3,1^{n-3}) and on (5,1^{n-5}), for the classes that exist at n: by
    the rim-hook recursion for every partition, by Morris's formula for
    every strict label.  A wrong closed form would drop true pairs without
    any error."""
    for n in range(25):
        classes = [(k,) + (1,) * (n - k) for k in (3, 5) if n >= k]
        sizes = [60 * math.factorial(n) // sf.z_order(nu) for nu in classes]
        for la in partitions_of(n):
            deg = cv.specht_degree(la)
            want = tuple(c * Fraction(cv.chi(la, nu), deg) for c, nu in zip(sizes, classes))
            assert linear_key(la) == want, la
        for al in strict_partitions_of(n):
            deg = sf.p_in_P_coefficient(al, (1,) * n)
            want = tuple(c * spin_ratio(al, nu, deg) for c, nu in zip(sizes, classes))
            assert cv._spin_key(al) == want, al


def test_linear_key_matches_cell_loop():
    for n in range(31):
        for la in partitions_of(n):
            assert linear_key(la) == linear_key_by_cells(la), la


def test_keys_only_prune(monkeypatch, tmp_path):
    """With every label under one key, the scan still finds exactly the
    pairs of the reference, cold and on a filled table cache: each
    candidate pair is checked on the two keyed classes, and every strict
    label is a candidate of every partition compared, so each hit confirms
    many pairs.  The key with no entry names no p2, so the walk runs
    without its p2 prune and hits every partition not below its
    conjugate."""
    monkeypatch.setattr(cv, "_closed_key", lambda n, k3, k5: ())
    for n in range(13):
        assert cv.scan(n) == scan_reference(n), n
        cv.load_or_build_tables(n, tmp_path)
        assert cv.scan(n, tmp_path) == scan_reference(n, tmp_path), n
        hits = cv._key_hits(n)
        assert hits == key_hits_by_enumeration(n), n
        assert len(hits) == sum(conjugate(la) <= la for la in partitions_of(n)), n


def test_walk_hits_match_the_enumeration():
    """The pruned walk hits exactly the partitions that the filtered loop
    over partitions_of(n) compares, in the same order, for every n <= 30:
    no prune cuts a hit, n < 3 (keys with no entry) included, and the
    self-conjugate partitions that hit are kept."""
    self_conjugate = 0
    for n in range(31):
        hits = cv._key_hits(n)
        assert hits == key_hits_by_enumeration(n), n
        self_conjugate += sum(la == conj for la, conj, _ in hits)
    assert self_conjugate > 0


def test_cold_scan_enumerates_no_partitions(monkeypatch):
    """The uncached scan walks the partitions itself: it never reads the
    partitions_of memo."""
    def refuse(n):
        raise AssertionError(f"partitions_of({n}) called")

    monkeypatch.setattr(cv, "partitions_of", refuse)
    for n in range(21):
        cv.scan(n)


def test_scan_matches_first_class_grouping(tmp_path):
    """Keyed on the closed forms, the scan finds the same pairs as grouping
    on the values at the first class, cold and on a filled table cache."""
    for n in range(21):
        assert cv.scan(n) == scan_reference(n), n
    for n in range(13):
        cv.load_or_build_tables(n, cache_dir=str(tmp_path))
        assert cv.scan(n, cache_dir=str(tmp_path)) == scan_reference(n, str(tmp_path)), n


def test_scan_builds_no_vectors(monkeypatch, tmp_path):
    """Cold and on a filled cache, scan pairs by values over the degree and
    takes the ratio from the degrees: no vector, no ratio test."""
    cv.load_or_build_tables(12, cache_dir=str(tmp_path))
    calls = Counter()

    def counting(name):
        original = getattr(cv, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        return wrapper

    for name in ("linear_brauer", "spin_brauer", "proportionality_ratio"):
        monkeypatch.setattr(cv, name, counting(name))
    assert cv.scan(12)
    assert cv.scan(12, cache_dir=str(tmp_path))
    assert calls == {}


def test_conjugates_share_key_brauer_character_and_degree():
    """chi^{la'} = sgn chi^la (James-Kerber 2.1.8) and sgn is 1 on a class
    of odd parts, so a partition and its conjugate have the same key, the
    same linear Brauer character and the same degree: the scan compares
    one of the two and copies its result to the other."""
    for n in range(15):
        for la in partitions_of(n):
            conj = conjugate(la)
            assert linear_key(la) == linear_key(conj), la
            assert cv.linear_brauer(la) == cv.linear_brauer(conj), la
            assert cv.specht_degree(la) == cv.specht_degree(conj), la


def test_scan_compares_one_partition_of_a_conjugate_pair(monkeypatch):
    """At n = 3, (3) and (1,1,1) are conjugate and both pair with (2,1):
    the scan reads chi on the beta mask of (3), never on that of (1,1,1),
    and emits both pairs.  The self-conjugate (2,1) is read too."""
    masks = set()
    kernel = cv._chi_kernel

    def counted(key):
        masks.add(split_key(key)[0])
        return kernel(key)

    monkeypatch.setattr(cv, "_chi_kernel", counted)
    got = cv.scan(3)
    assert [rec for rec in got if rec[0] == (2, 1)] == [
        ((2, 1), (1, 1, 1), S(0, 1)), ((2, 1), (3,), S(0, 1))]
    read = {la for la in partitions_of(3) if beta_mask(la) in masks}
    assert read == {(3,), (2, 1)}


def test_scan_names_a_size_that_is_not_a_non_negative_int():
    for n in (-1, True, 2.0, "3"):
        with pytest.raises(ValueError, match=re.escape(f"sizes must be non-negative integers: {n!r}")):
            cv.scan(n)


def test_scan_ratios_are_sqrt2_powers():
    powers = {sqrt2_pow(k) for k in range(12)}
    for n in range(1, 9):
        for al, la, c in cv.scan(n):
            assert c in powers
            assert sum(al) == sum(la) == n


def test_table_cache_round_trip(tmp_path):
    lin1, spn1 = cv.load_or_build_tables(4, cache_dir=str(tmp_path))
    assert [p.name for p in tmp_path.iterdir()] == ["brauer_4.json"]
    lin2, spn2 = cv.load_or_build_tables(4, cache_dir=str(tmp_path))
    assert lin1 == lin2 and spn1 == spn2
    assert cv.scan(4, cache_dir=str(tmp_path)) == cv.scan(4)


def test_cached_rows_are_the_character_values(tmp_path):
    """Read back from the file, a linear row is chi on the odd classes, and
    a spin entry times sqrt2^(len(nu) - len(al)) is the spin Brauer vector's
    entry, for every label with n <= 10; the degree is last."""
    for n in range(11):
        classes = odd_partitions_of(n)
        cv.load_or_build_tables(n, cache_dir=str(tmp_path))
        lin, spn = cv._read_cache(str(tmp_path / f"brauer_{n}.json"), n)
        assert list(lin) == list(partitions_of(n))
        assert list(spn) == list(strict_partitions_of(n))
        for la, row in lin.items():
            assert row == [cv.chi(la, nu) for nu in classes], la
        for al, row in spn.items():
            got = tuple(x * sqrt2_pow(len(nu) - len(al)) for x, nu in zip(row, classes))
            assert got == cv.spin_brauer(al), al
            assert got[-1] == cv.spin_degree(al)


def test_cached_scan_reads_only_rows_and_equals_cold(monkeypatch, tmp_path):
    """The scan that fills the cache, and the scan that reads it with every
    kernel refused, print the cold scan's records for every n <= 16."""
    cold = [repr(cv.scan(n)) for n in range(17)]
    for n in range(17):
        assert repr(cv.scan(n, cache_dir=str(tmp_path))) == cold[n], n

    def refuse(*args):
        raise AssertionError("a cached scan read a kernel")

    for name in ("_chi_kernel", "_degree", "_bar_kernel", "p_in_P_coefficient"):
        monkeypatch.setattr(cv, name, refuse)
    for n in range(17):
        assert repr(cv.scan(n, cache_dir=str(tmp_path))) == cold[n], n


def _edit_blob(edit):
    def corrupt(path):
        blob = json.loads(path.read_text())
        edit(blob)
        path.write_text(json.dumps(blob))
    return corrupt


def _as_pairs(blob):
    """Format version 2 stored each value as the int pair [a, b] of a + b sqrt2."""
    for side in ("linear", "spin"):
        blob[side] = {key: [[x, 0] for x in row] for key, row in blob[side].items()}
    blob["version"] = 2


BAD_CACHE_FILES = {
    "truncated": lambda path: path.write_text(path.read_text()[:100]),
    "no version": _edit_blob(lambda blob: blob.pop("version")),
    "other version": _edit_blob(lambda blob: blob.update(version=cv.CACHE_VERSION + 1)),
    # format version 1 stored each value as exact-rational strings
    "version 1 file": _edit_blob(lambda blob: blob.update(version=1, spin={
        key: [{"a": str(x), "b": "0"} for x in row] for key, row in blob["spin"].items()})),
    "version 2 file": _edit_blob(_as_pairs),
    "v1 string entry": _edit_blob(lambda blob: blob["spin"]["5"].__setitem__(0, {"a": "1", "b": "0"})),
    "float entry": _edit_blob(lambda blob: blob["linear"]["5"].__setitem__(0, 1.0)),
    # JSON true/false would otherwise read as the ints 1/0
    "bool entry": _edit_blob(lambda blob: blob["linear"]["5"].__setitem__(0, True)),
    "nested entry": _edit_blob(lambda blob: blob["linear"]["5"].__setitem__(0, [1, 0])),
    # a cached scan divides by the degree, the last entry
    "zero degree": _edit_blob(lambda blob: blob["linear"]["3,2"].__setitem__(-1, 0)),
    "negative degree": _edit_blob(lambda blob: blob["spin"]["4,1"].__setitem__(-1, -blob["spin"]["4,1"][-1])),
    "missing key": _edit_blob(lambda blob: blob["spin"].pop("4,1")),
    "short row": _edit_blob(lambda blob: blob["linear"]["5"].pop()),
    "wrong n": _edit_blob(lambda blob: blob.update(n=4)),
}


@pytest.mark.parametrize("corrupt", BAD_CACHE_FILES.values(), ids=BAD_CACHE_FILES.keys())
def test_bad_cache_file_is_a_miss(tmp_path, capsys, corrupt):
    cv.load_or_build_tables(5, cache_dir=str(tmp_path))
    path = tmp_path / "brauer_5.json"
    corrupt(path)
    rows = cv.load_or_build_tables(5, cache_dir=str(tmp_path))
    assert capsys.readouterr().err.count("warning: ignoring bad table cache") == 1
    assert rows == cv.load_or_build_tables(5, cache_dir=str(tmp_path / "fresh"))
    # the rebuilt file was rewritten and now reads cleanly
    blob = json.loads(path.read_text())
    assert (blob["version"], blob["n"]) == (cv.CACHE_VERSION, 5)
    for side in ("linear", "spin"):
        assert all(type(x) is int for row in blob[side].values() for x in row)
        assert all(row[-1] > 0 for row in blob[side].values())
    cv.load_or_build_tables(5, cache_dir=str(tmp_path))
    assert capsys.readouterr().err == ""


@given(st.integers(min_value=1, max_value=7))
@settings(max_examples=10, deadline=None)
def test_spin_table_covers_strict_labels(n):
    table = cv.spin_brauer_table(n)
    assert set(table) == set(strict_partitions_of(n))
    for vec in table.values():
        assert len(vec) == len(odd_partitions_of(n))
