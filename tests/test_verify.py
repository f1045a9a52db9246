"""The failure messages of the checks that run in both bases.

Each test breaks the library on purpose and reads the messages that the
suite's failing cases print, so a check that names the wrong basis, or
runs the other basis's test, fails here.
"""

from collections import Counter

import pytest

from barspin import charspace as cs
from barspin import charvalues as cv
from barspin import verify
from barspin.partitions import format_partition
from barspin.scalars import Scalar
from oracles import linear_quot_red_labels_by_filter, vector


def failures(suite, max_n):
    """{case input: actual text} over the failing cases of a suite."""
    return {c.input: c.actual for c in verify.run_suite(suite, max_n).cases if not c.ok}


def case(fails, prefix):
    """The one failing case whose input starts with prefix."""
    (got,) = [actual for label, actual in fails.items() if label.startswith(prefix)]
    return got


def test_runner_swap_failures_name_the_label_in_each_basis(monkeypatch):
    """With every runner swap the zero vector, each check of both suites
    fails and names its first label."""
    monkeypatch.setattr(cs, "runner_swap",
                        lambda v, eps, c, p=2: vector(v.basis, v.n + c, []))
    lin = failures("runner-swap", 2)
    assert "la=- eps=0 -> 0; la=- eps=1 -> 0" in case(lin, "S^(n_eps)[la] == sign*[swp la], |la|=0")
    assert "up a=0 q=(-;-); " in case(lin, "core transport")
    assert "- eps=0 c=0; - eps=1 c=0; " in case(lin, "vanishing outside")
    spin = failures("runner-swap-spin", 2)
    assert "al=- eps=0 -> 0; al=- eps=1 -> 0" in case(spin, "S^(n_eps)<<al>> == sign*<<bswp al>>, |al|=0")
    assert "up a=0 eta=-; " in case(spin, "bar-staircase transport")
    assert "- eps=0 c=0; - eps=1 c=0; " in case(spin, "vanishing outside")


def test_bottom_value_is_a_unit_in_the_linear_basis_and_a_support_in_the_spin_basis(monkeypatch):
    """Doubling every runner swap breaks the linear bottom value, which must
    be +-1, and leaves the spin bottom label, whose coefficient may be
    +-1, +-sqrt2 or +-2, passing."""
    swap = cs.runner_swap

    def doubled(v, eps, c, p=2):
        w = swap(v, eps, c, p)
        return vector(w.basis, w.n, [(label, 2 * x) for label, x in w.coeffs.items()])

    monkeypatch.setattr(cs, "runner_swap", doubled)
    assert "- eps=0 c=0; - eps=1 c=0; " in case(failures("runner-swap", 2), "vanishing outside")
    assert not [label for label in failures("runner-swap-spin", 2)
                if label.startswith("vanishing outside")]


def test_invariants_failures_name_the_weight_of_each_basis(monkeypatch):
    """With every value 1, the support reaches the top cycle count, past
    a label's weight."""
    monkeypatch.setattr(cv, "chi_rows", lambda labels, classes: ([1] * len(classes) for _ in labels))
    monkeypatch.setattr(cv, "spin_rows",
                        lambda labels, classes: ([Scalar(1)] * len(classes) for _ in labels))
    fails = failures("invariants", 5)
    got = fails["weights equal maximal nonvanishing cycle counts, n=5"]
    assert got == ("4 of 30 checks fail: la=3,1,1 k=3: weight 0 support 1; "
                   "al=4,1 k=3: bar weight 0 support 1; la=3,2 k=5: weight 0 support 1")


def test_degrees_failures_name_each_sum_of_squares(monkeypatch):
    """With every degree 1, the sums of squares count the labels."""
    monkeypatch.setattr(cv, "specht_degree", lambda la: 1)
    monkeypatch.setattr(cv, "spin_degree", lambda al: Scalar(1))
    fails = failures("degrees", 3)
    assert fails["sum of squared linear degrees, n=3"] == "3"
    assert fails["sum of squared spin degrees, n=2"] == "1"
    assert fails["sum of squared spin degrees, n=3"] == "2"
    assert "sum of squared linear degrees, n=2" not in fails


def test_degrees_reads_the_partners_of_spin_3_1_off_the_scan(monkeypatch):
    """The proportionality case lists the labels that scan(4) pairs with
    (3,1), and runs no ratio test of its own."""
    scan = cv.scan

    def planted(n, cache_dir=None):
        return scan(n, cache_dir) + ([((3, 1), (2, 2), Scalar(1))] if n == 4 else [])

    def no_ratio(u, v):
        raise AssertionError("the degrees suite tests a ratio")

    monkeypatch.setattr(cv, "scan", planted)
    monkeypatch.setattr(cv, "proportionality_ratio", no_ratio)
    assert failures("degrees", 4) == {"linear rows proportional to spin (3,1)": "2,2"}


def test_each_suite_run_starts_from_an_empty_move_table(monkeypatch):
    """run_suite empties the operators' move table and quot_reds' raise
    table before the suite runs, so no report, timing or trace depends on
    the suites run before it.  quot-red fills both: it lowers through
    _apply and raises through the raise table, which fills through _apply."""
    sizes = lambda: (cs._moves.cache_info().currsize, cs._raise.cache_info().currsize)
    assert verify.run_suite("quot-red", 6).ok
    assert min(sizes()) > 0
    seen, suite = [], verify.SUITES["quot-red"]

    def wrapped(rep, cache_dir):
        seen.append(sizes())
        suite(rep, cache_dir)

    monkeypatch.setitem(verify.SUITES, "quot-red", wrapped)
    assert verify.run_suite("quot-red", 6).ok
    assert seen == [(0, 0)]
    assert min(sizes()) > 0


def test_quot_red_counts_at_the_operators_bound():
    """The relaxed labels' degree families leave the suite's cases and
    instances where one call per degree had them."""
    rep = verify.run_suite("quot-red", 18)
    assert rep.ok and len(rep.cases) == 23
    assert sum(int(c.expected.split()[0]) for c in rep.cases
               if c.expected.endswith(" checks pass")) == 547


@pytest.mark.parametrize("n", [6, 9])
def test_relaxed_quot_red_fails_each_degree_on_its_own(monkeypatch, n):
    """A label's degrees come from one quot_reds call; when it raises,
    each of those degrees still fails with its own message, and when one
    degree's prediction raises, only that degree fails."""
    clean = list(verify._relaxed_quot_red(n))
    assert clean and not any(clean)

    def broken(v, eps, ds):
        raise ValueError("planted")

    with monkeypatch.context() as m:
        m.setattr(cs, "quot_reds", broken)
        got = list(verify._relaxed_quot_red(n))
    assert len(got) == len(set(got)) == len(clean)
    assert all(msg.startswith("al=") and msg.endswith(": planted") for msg in got)
    assert max(Counter(msg.split()[0] for msg in got).values()) > 1

    expected = verify._rock_expected

    def one_bad(b, sigma, eta, d):
        if d == -1:
            raise ValueError("planted")
        return expected(b, sigma, eta, d)

    monkeypatch.setattr(verify, "_rock_expected", one_bad)
    got = list(verify._relaxed_quot_red(n))
    fails = [msg for msg in got if msg]
    assert len(got) == len(clean) and fails
    assert all(msg.endswith(" d=-1: planted") for msg in fails)


def test_linear_quot_red_labels_match_the_filter_oracle():
    """The labels built from their (core, quotient) coordinates are the
    partitions that the two_quotient filter keeps, with the same core,
    quotient and degrees, in the same order: every bound <= 24."""
    for bound in range(25):
        assert list(verify._linear_quot_red_labels(bound)) == linear_quot_red_labels_by_filter(bound)


@pytest.mark.parametrize("max_n, count", [(14, 178), (18, 316), (22, 537), (28, 867), (32, 1223)])
def test_linear_quot_red_instance_counts(max_n, count):
    """The linear case of quot-red at --max-n N runs to |la| <= N - 2 and
    checks as many (label, degree) instances as the filter over every
    partition did; all of them pass."""
    outcomes = list(verify._linear_quot_red(max_n - 2))
    assert len(outcomes) == count and not any(outcomes)


def test_a_planted_signed_sum_fails_each_label_with_its_quotient(monkeypatch):
    """The expected images are shared by (quotient, d), not by label: a
    signed sum planted wrong for one quotient fails every degree of every
    label that carries it, at each of its cores, and no other label."""
    bad = ((1,), (1,))
    signed_sum = cs.interm_signed_sum
    monkeypatch.setattr(cs, "interm_signed_sum",
                        lambda bla, bmu: signed_sum(bla, bmu) + (bla == bad))
    carriers = [(la, core, ds) for la, core, q, ds in verify._linear_quot_red_labels(16) if q == bad]
    assert [len(core) for _, core, _ in carriers] == [1, 2, 3, 4]
    want = [f"la={format_partition(la)} d={d}" for la, _, ds in carriers for d in ds]
    assert [msg for msg in verify._linear_quot_red(16) if msg] == want
