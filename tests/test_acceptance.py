"""Acceptance sweep: the twelve headline checks at their full size bounds.

Each test runs (or reuses) a verification suite at its default bound, which
is the bound the claims are stated at, and additionally pins the named
worked examples bit-exactly.  These are the slowest tests in the repo; the
whole module still finishes in a few seconds.
"""

import pytest

from barspin import charspace as cs
from barspin import charvalues as cv
from barspin import classify
from barspin import verify
from barspin import partitions as pt
from barspin.scalars import Scalar, sqrt2_pow
from oracles import scaled

S = lambda a, b=0: Scalar(a, b)

_reports = {}


def suite(name):
    if name not in _reports:
        _reports[name] = verify.run_suite(name)
    return _reports[name]


def failing(rep):
    return [c.input for c in rep.cases if not c.ok]


def test_criterion_01_main_scan_matches_prediction():
    """Proportional spin rows are exactly the predicted pairs, n up to 14."""
    rep = suite("main")
    assert rep.max_n == 14
    assert rep.ok, failing(rep)
    assert rep.millis < 300_000
    for n in range(1, 15):
        want = sorted(
            ((al, la, sqrt2_pow(e)) for al, la, e in classify.predicted_pairs(n)),
            key=lambda rec: (rec[0], rec[1]),
        )
        assert cv.scan(n) == want


def test_criterion_02_equality_refinement():
    """Pairs with ratio 1 or sqrt2 are exactly the predicted equality cases."""
    rep = suite("equality")
    assert rep.max_n == 14
    assert rep.ok, failing(rep)
    for n in range(1, 15):
        got = sorted(
            (al, la)
            for al, la, c in cv.scan(n)
            if c in (S(1), S(0, 1))
        )
        assert got == sorted((al, la) for al, la, _ in classify.equality_cases(n))


def test_criterion_03_size_four_golden_data():
    """The full spin story at size 4, read off the decomposition matrix."""
    rep = suite("degrees")
    assert rep.ok, failing(rep)
    sb4 = cv.spin_brauer((4,))
    lb22 = cv.linear_brauer((2, 2))
    assert sb4 == tuple(S(0, 1) * x for x in lb22)
    sb31 = cv.spin_brauer((3, 1))
    for la in pt.partitions_of(4):
        ratio = cv.proportionality_ratio(sb31, cv.linear_brauer(la))
        assert ratio is None
    assert cv.spin_degree((3, 1)) == S(4)


def test_criterion_04_runner_swap_linear():
    """Top swap sends [la] to a sign times [swp(la)], all |la| <= 12, plus
    the staircase-core specialization up to size 16."""
    rep = suite("runner-swap")
    assert rep.max_n == 12
    assert rep.ok, failing(rep)
    got = cs.runner_swap(cs.unit("linear", (6, 3, 1, 1)), 1, -2)
    assert got == scaled(cs.unit("linear", (5, 2, 2)), S(-1))


def test_criterion_05_runner_swap_spin():
    """Top swap sends <<al>> to a sign times <<bswp(al)>>, all |al| <= 12,
    plus bar-staircase transport with even padding up to size 16."""
    rep = suite("runner-swap-spin")
    assert rep.max_n == 12
    assert rep.ok, failing(rep)
    got = cs.runner_swap(cs.unit("spin", (6, 3, 2)), 1, -2)
    assert got == scaled(cs.unit("spin", (6, 2, 1)), S(-1))


def test_criterion_06_quotient_redistribution():
    """Redistribution on every relaxed label of size <= 14 with |d| <= 3
    matches the intermediate-count expansion, with the staircase
    specializations up to size 16 and both worked examples bit-exact."""
    rep = suite("quot-red")
    assert rep.max_n == 14
    assert rep.ok, failing(rep)
    got = cs.quot_red(cs.unit("linear", (6, 3)), 1, -1)
    assert got == scaled(cs.unit("linear", (4, 1, 1, 1)), S(-1))
    got = cs.quot_red(cs.unit("spin", (4, 3, 2)), 1, -1)
    assert got == scaled(cs.unit("spin", (4, 3)), S(0, -1))


def test_criterion_07_intermediate_combinatorics():
    """Signed intermediate sums collapse for staircase pairs (r < s <= 4),
    the brute-force B agrees with its closed form up to size 10, and the
    worked strip-pair data reproduces the column-removal sign flip."""
    rep = suite("interm")
    assert rep.max_n == 10
    assert rep.ok, failing(rep)
    eta, theta = (7, 6, 2, 1), (6, 5, 3, 1)
    ceta, ctheta = (6, 5, 1), (5, 4, 2)
    assert cs.b_sum(eta, theta) == -cs.b_sum(ceta, ctheta)
    assert cs.b_closed(eta, theta) == cs.b_sum(eta, theta)


def test_criterion_08_symmetric_function_identities():
    """P at a sum of staircases factors into Schur functions up to size 12;
    character recursion matches the power-sum transition matrix up to 10;
    Q and P read off the bar recursion match tableau generating functions
    up to 6."""
    rep = suite("symfunc")
    assert rep.max_n == 12
    assert rep.ok, failing(rep)


def test_criterion_09_degree_identities():
    """Squared degrees sum to n! in both families for n <= 14, and spin
    table entries are integers or integer multiples of sqrt2 up to 12."""
    rep = suite("degrees")
    assert rep.max_n == 14
    assert rep.ok, failing(rep)


def test_criterion_10_support_invariants():
    """k-weight and k-bar-weight give the maximal nonvanishing cycle
    multiplicities for odd k, all labels of size <= 12."""
    rep = suite("invariants")
    assert rep.max_n == 12
    assert rep.ok, failing(rep)


def test_criterion_11_proportional_pair_consequences():
    """Scanned pairs at n <= 14 share regularization, weights, content and
    core data, and stay proportional under the descent operations."""
    rep = suite("invariants")
    assert rep.ok, failing(rep)
    tags = [c.input for c in rep.cases if c.input.startswith("proportional-pair")]
    assert any("n=14" in t for t in tags)


def test_invariants_scans_each_size_once(monkeypatch):
    """The pair loop and the descent lookups share one scan per size."""
    sizes = []
    scan = cv.scan
    monkeypatch.setattr(cv, "scan", lambda n, cache_dir=None: sizes.append(n) or scan(n, cache_dir))
    assert verify.run_suite("invariants", 6).ok
    assert len(sizes) == len(set(sizes)) and set(range(1, 9)) <= set(sizes)


# suite: (cases, summed 'N checks pass' instances) at --max-n 6
FINGERPRINTS_AT_6 = {
    "main": (6, 0),
    "equality": (6, 0),
    "runner-swap": (12, 481),
    "runner-swap-spin": (11, 98),
    "quot-red": (11, 74),
    "interm": (16, 8005),
    "symfunc": (9, 239),
    "degrees": (16, 35),
    "invariants": (14, 124),
}


def test_suite_fingerprints_at_max_n_6():
    """Each suite's case count and the instances its sweeps count, and the
    pairs that main and equality list, at --max-n 6."""
    reps = verify.run_all(6)
    assert all(rep.ok for rep in reps)
    got = {
        rep.suite: (len(rep.cases), sum(int(c.expected.split()[0]) for c in rep.cases
                                        if c.expected.endswith(" checks pass")))
        for rep in reps
    }
    assert got == FINGERPRINTS_AT_6
    pairs = {rep.suite: sum(int(c.actual.split()[0]) for c in rep.cases
                            if c.actual.split()[1:2] == ["pairs"])
             for rep in reps}
    assert (pairs["main"], pairs["equality"]) == (13, 11)


def test_criterion_12_odd_runner_swap_example():
    """The five-runner swap example, bit-exact."""
    rep = suite("runner-swap")
    assert rep.ok, failing(rep)
    got = cs.runner_swap(cs.unit("linear", (9, 8, 5, 1, 1, 1, 1, 1)), 2, 1, p=5)
    want = scaled(cs.unit("linear", (9, 9, 4, 1, 1, 1, 1, 1, 1)), S(-1))
    assert got == want


def test_top_runner_swaps_carry_scan_pairs_to_scan_pairs():
    """The scan and the operator layer agree, each computed on its own and
    neither read off swp or bswp: for every pair (al, la, ratio) of
    scan(n), n <= 30, and each eps, la and al have the same top degree k;
    the degree-k runner swap sends [la] to s_L [la'] and <<al>> to
    s_S <<al'>>, s_L and s_S signs; and (al', la', ratio s_S s_L) is a pair
    of scan(n + k).  258 checks, 24 with k = 0, images up to n = 38."""
    scans, degrees = {}, []
    for n in range(31):
        for al, la, ratio in cv.scan(n):
            for eps in (0, 1):
                k = pt.n_eps(la, eps)
                assert k == pt.spin_n_eps(al, eps), (al, la, eps)
                images = []
                for basis, label in (("linear", la), ("spin", al)):
                    ((image, pair),) = cs.runner_swap(cs.unit(basis, label), eps, k).pairs.items()
                    assert pair in ((1, 0), (-1, 0)), (basis, label, eps, pair)
                    images.append((image, pair[0]))
                (la2, s_l), (al2, s_s) = images
                if n + k not in scans:
                    scans[n + k] = cv.scan(n + k)
                assert (al2, la2, ratio * (s_s * s_l)) in scans[n + k], (al, la, eps)
                degrees.append(k)
    assert len(degrees) == 258 and degrees.count(0) == 24 and max(degrees) == 8
