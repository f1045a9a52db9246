"""Exhaustive finite verification sweeps for the character identities.

Each suite checks one family of identities up to a size bound and fills a
Report.  `run_suite` resolves the bound, empties the move table of
`charspace._moves` and builds the Report; a suite reads its bound from
`rep.max_n`.  A `check` case compares one expected and one actual text.  A
`tally` case is a sweep, aggregated per size so reports stay readable: it
is fed one outcome per instance checked, a falsy outcome for a pass and
the failure message otherwise, so its `N checks pass` counts the instances
and a failure names the first few offending labels.  All comparisons are
exact.
"""

from __future__ import annotations

import itertools
import math
import time
from collections import namedtuple
from dataclasses import dataclass, field

from barspin import charspace as cs
from barspin import charvalues as cv
from barspin import classify
from barspin import partitions as pt
from barspin import symfunc as sf
from barspin.abacus import bswp, from_core_quotient, swp, two_quotient
from barspin.charspace import PM_ONE, PM_SQRT2
from barspin.partitions import format_partition
from barspin.scalars import Scalar, sqrt2_pow

DEFAULT_BOUNDS = {
    "main": 14,
    "equality": 14,
    "runner-swap": 12,
    "runner-swap-spin": 12,
    "quot-red": 14,
    "interm": 10,
    "symfunc": 12,
    "degrees": 14,
    "invariants": 12,
}


@dataclass
class Case:
    input: str
    expected: str
    actual: str
    ok: bool
    millis: int


@dataclass
class Report:
    """A suite's cases.  Each case's millis is the time since the previous
    case was recorded, or since the report was made."""

    suite: str
    max_n: int
    cases: list = field(default_factory=list)
    millis: int = 0
    _mark: float = field(default_factory=time.perf_counter, init=False, repr=False,
                          compare=False)

    @property
    def ok(self):
        return all(c.ok for c in self.cases)

    def _add(self, label, expected, actual, ok):
        now = time.perf_counter()
        millis = int(round((now - self._mark) * 1000))
        self._mark = now
        self.cases.append(Case(str(label), expected, actual, ok, millis))

    def check(self, label, expected, actual):
        e, a = str(expected), str(actual)
        self._add(label, e, a, e == a)

    def tally(self, label, outcomes):
        """One case for a sweep.  outcomes yields one entry per instance
        checked: a falsy entry is a pass, any other is its failure
        message."""
        count, fails = 0, []
        for count, outcome in enumerate(outcomes, 1):
            if outcome:
                fails.append(outcome)
        want = f"{count} checks pass"
        if fails:
            got = f"{len(fails)} of {count} checks fail: " + "; ".join(fails[:3])
        else:
            got = want
        self._add(label, want, got, not fails)

    def to_dict(self):
        return {
            "suite": self.suite,
            "maxN": self.max_n,
            "cases": [
                {"input": c.input, "expected": c.expected, "actual": c.actual, "pass": c.ok,
                 "millis": c.millis}
                for c in self.cases
            ],
            "pass": self.ok,
            "millis": self.millis,
        }


def _tri(k):
    """The size of staircase(k)."""
    return k * (k + 1) // 2


def _signed_unit(v, label, units):
    """v is exactly c*(that label) with c drawn from units."""
    label, coeffs = tuple(label), v.coeffs
    return set(coeffs) == {label} and any(coeffs[label] == u for u in units)


def _pairs_str(records):
    body = ", ".join(f"{format_partition(al)}~{format_partition(la)}@{c}" for al, la, c in records)
    return f"{len(records)} pairs [{body}]"


def _bipartitions(m):
    """Every bipartition (q0, q1) of size m, by the size of q0."""
    for k in range(0, m + 1):
        for q0 in pt.partitions_of(k):
            for q1 in pt.partitions_of(m - k):
                yield q0, q1


# ---------------------------------------------------------------------------
# main scan and the equality refinement

def run_main(rep, cache_dir):
    for n in range(1, rep.max_n + 1):
        want = [(al, la, sqrt2_pow(e)) for al, la, e in classify.predicted_pairs(n)]
        got = cv.scan(n, cache_dir)
        rep.check(f"scan({n}) == predicted pairs", _pairs_str(want), _pairs_str(got))


def run_equality(rep, cache_dir):
    for n in range(1, rep.max_n + 1):
        got = sorted(
            (al, la)
            for al, la, c in cv.scan(n, cache_dir)
            if c == Scalar(1) or c == sqrt2_pow(1)
        )
        want = sorted((al, la) for al, la, _ in classify.equality_cases(n))
        rep.check(
            f"scan pairs with ratio 1 or sqrt2 at n={n}",
            _pairs_str([(al, la, "") for al, la in want]),
            _pairs_str([(al, la, "") for al, la in got]),
        )


# ---------------------------------------------------------------------------
# the checks run in both bases: the runner swap, the weights, the degrees

# One row per basis holds what the checks read of it: name, weight_word,
# top_rule and bottom_word are what a message calls a label, its weight, the
# top-degree swap and what the bottom test pins; lowest is the largest removal;
# rows(labels, classes) reads a lazy row of values per label.
_Basis = namedtuple("_Basis", "basis name weight_word top_rule bottom_word labels n_eps "
                              "swapped lowest is_bottom degree weight rows")


def _bases():
    """The rows by basis, built at each call, so that a check runs the library
    functions as bound then.  S^(-r) takes a spin label to its largest
    removal times +-1, +-sqrt2 or +-2 (all occur for n <= 14), so its bottom
    test, unlike the linear +-1 on the value, pins only the support label."""
    return {
        "linear": _Basis("linear", "la", "weight", "[la] == sign*[swp la]", "value",
                         pt.partitions_of, pt.n_eps, swp, pt.remove_all_removable,
                         lambda v, low: _signed_unit(v, low, PM_ONE),
                         cv.specht_degree, pt.k_weight, cv.chi_rows),
        "spin": _Basis("spin", "al", "bar weight", "<<al>> == sign*<<bswp al>>", "label",
                       pt.strict_partitions_of, pt.spin_n_eps, bswp, pt.remove_all_spin_removable,
                       lambda v, low: set(v.pairs) == {low},
                       cv.spin_degree, pt.bar_weight, cv.spin_rows),
    }


def _swap_top(b, label, eps):
    v = cs.runner_swap(cs.unit(b.basis, label), eps, b.n_eps(label, eps))
    if v.pairs != {b.swapped(label, eps): (cs.swap_sign(b.basis, label, eps), 0)}:
        return f"{b.name}={format_partition(label)} eps={eps} -> {cs.format_vector(v)}"


def _swap_range(b, label, eps):
    """S^(c) is 0 for c > n_eps and for c < -r, and S^(-r) passes the bottom test."""
    u = cs.unit(b.basis, label)
    low = b.lowest(label, eps)
    r = pt.size(label) - pt.size(low)
    for c in (b.n_eps(label, eps) + 1, -r - 1):
        if not cs.runner_swap(u, eps, c).is_zero():
            return f"{format_partition(label)} eps={eps} c={c} not 0"
    if not b.is_bottom(cs.runner_swap(u, eps, -r), low):
        return f"{format_partition(label)} eps={eps} c={-r}"


def _transport(basis, a, label_at, tag):
    """S^(a+1) takes label_at(a) to +-label_at(a + 1), S^(-a) to +-label_at(a - 1)."""
    u = cs.unit(basis, label_at(a))
    ok = _signed_unit(cs.runner_swap(u, a % 2, a + 1), label_at(a + 1), PM_ONE)
    yield None if ok else f"up a={a} {tag}"
    if a >= 1:
        ok = _signed_unit(cs.runner_swap(u, (a + 1) % 2, -a), label_at(a - 1), PM_ONE)
        yield None if ok else f"down a={a} {tag}"


def _staircase_cores_shrink(big):
    """S^(-a) on each (staircase(a); staircase(r), staircase(s)), a >= 1."""
    st = pt.staircase
    ks = range(math.isqrt(2 * big) + 1)
    for a, r, s in itertools.product(ks[1:], ks, ks):
        if _tri(a) + 2 * (_tri(r) + _tri(s)) > big:
            continue
        la = from_core_quotient(st(a), st(r), st(s))
        mu = from_core_quotient(st(a - 1), st(r), st(s))
        ok = _signed_unit(cs.runner_swap(cs.unit("linear", la), (a + 1) % 2, -a), mu, PM_ONE)
        yield None if ok else f"a={a} r={r} s={s}"


def _core_transport():
    """Up from each 2-core staircase(a), and down when a >= 1."""
    st = pt.staircase
    for a, m in itertools.product(range(5), range(5)):
        for q0, q1 in _bipartitions(m):
            yield from _transport("linear", a, lambda k: from_core_quotient(st(k), q0, q1),
                                  f"q=({format_partition(q0)};{format_partition(q1)})")


def _run_runner_swap(rep, b, transports, examples):
    """One basis's runner-swap suite: the top degree at each size, the
    transports (case, sweep), where the swap vanishes and its bottom, and the
    worked examples (case, label, eps, c, p, expected)."""
    for n in range(0, rep.max_n + 1):
        rep.tally(f"S^(n_eps){b.top_rule}, |{b.name}|={n}",
                  (_swap_top(b, label, eps) for label in b.labels(n) for eps in (0, 1)))
    for case, sweep in transports:
        rep.tally(case, sweep)
    small = min(rep.max_n, 8)
    rep.tally(f"vanishing outside [-r_eps, n_eps] and the bottom {b.bottom_word}, "
              f"|{b.name}| <= {small}",
              (_swap_range(b, label, eps)
               for n in range(0, small + 1) for label in b.labels(n) for eps in (0, 1)))
    for case, label, eps, c, p, want in examples:
        rep.check(case, want, cs.format_vector(cs.runner_swap(cs.unit(b.basis, label), eps, c, p)))


def run_runner_swap(rep, cache_dir):
    big = rep.max_n + 4
    _run_runner_swap(rep, _bases()["linear"], [
        (f"S^(-a) shrinks a staircase core, size <= {big}", _staircase_cores_shrink(big)),
        ("core transport on arbitrary quotients, a <= 4, |quotient| <= 4", _core_transport())], [
        ("S_1^(-2) [6,3,1,1]", (6, 3, 1, 1), 1, -2, 2, "-[5,2,2]"),
        ("S_2^(1) [9,8,5,1^5] at p=5", (9, 8, 5, 1, 1, 1, 1, 1), 2, 1, 5, "-[9,9,4,1,1,1,1,1,1]")])


def _bar_staircase_transport(big):
    """Up from each 4-bar-core bar_staircase(a), and down when a >= 1."""
    # |bar_staircase(a)| = a(a+1)/2 <= big needs a <= isqrt(2*big); no eta pads a larger one
    for a in range(math.isqrt(2 * big) + 1):
        base = pt.size(pt.bar_staircase(a))
        for eta in pt.strict_partitions_upto((big - base) // 2):
            yield from _transport("spin", a, lambda k: classify.rock_label(k, (), eta),
                                  f"eta={format_partition(eta)}")


def run_runner_swap_spin(rep, cache_dir):
    big = rep.max_n + 4
    _run_runner_swap(rep, _bases()["spin"], [
        (f"bar-staircase transport with even padding, size <= {big}",
         _bar_staircase_transport(big))], [
        ("S_1^(-2) <<6,3,2>>", (6, 3, 2), 1, -2, 2, "-<<6,2,1>>"),
        ("S_1^(-1) <<2>>", (2,), 1, -1, 2, "-sqrt2*<<1>>")])


# ---------------------------------------------------------------------------
# quotient redistribution

def _rock_expected(b, sigma, eta, d):
    """Predicted R^{(d)} image on the label (bar_staircase(b)+4*sigma) U 2*eta.

    The coefficient of the label (bar_staircase(b)+4*tau) U 2*theta is
    |interm1(sigma, tau)| * b_closed(eta, theta), summed over every
    pair (tau, theta) with 2|tau| + |theta| equal to the target weight
    whose label is strict.  The closed-form evaluation b_closed is applied
    with the size difference |theta| - |eta| of each pair, which need not
    equal d when |tau| differs from |sigma|; collapsing the sum to the
    single stratum |tau| = |sigma| drops real terms (visible already for
    (9,1) with d = -2 and for (1) with d = 2)."""
    w = 2 * pt.size(sigma) + pt.size(eta)
    n2 = pt.size(pt.bar_staircase(b)) + 2 * (w + d)
    items = []
    for k in range(0, max(w + d, 0) // 2 + 1):
        for tau in pt.partitions_of(k):
            count = len(cs.interm1(sigma, tau))
            if count == 0:
                continue
            for theta in pt.strict_partitions_of(w + d - 2 * k):
                coeff = cs.b_closed(eta, theta)
                if coeff.is_zero():
                    continue
                label = classify.rock_label(b, tau, theta)
                if not pt.is_strict(label):
                    continue
                items.append((label, Scalar(count) * coeff))
    return cs.vector("spin", n2, items)


def _relaxed_quot_red(n):
    """R^(d) on each spin label of size n with weights w, w + d <= b + 1."""
    for al in pt.strict_partitions_of(n):
        dec = classify.spin_rock_decompose(al)
        if dec is None:
            continue
        b, sigma, eta = dec
        w = 2 * pt.size(sigma) + pt.size(eta)
        ds = [d for d in range(-3, 4) if max(w, w + d) <= b + 1]
        try:
            gots = cs.quot_reds(cs.unit("spin", al), (b + 1) % 2, ds)
        except ValueError as exc:
            yield from (f"al={format_partition(al)} d={d}: {exc}" for d in ds)
            continue
        for d, got in zip(ds, gots):
            try:
                want = _rock_expected(b, sigma, eta, d)
            except ValueError as exc:
                yield f"al={format_partition(al)} d={d}: {exc}"
                continue
            yield None if got == want else (
                f"al={format_partition(al)} d={d}: "
                f"{cs.format_vector(got)} != {cs.format_vector(want)}")


def _staircase_redistribution(big):
    """R^(r-s+1) on (staircase(a); staircase(r), staircase(s)) and its spin twin."""
    st = pt.staircase
    for s in range(1, 6):
        for r in range(0, s):
            a = max((r * (r + 1) + s * (s + 1)) // 2 - 1, 0)
            while _tri(a) + 2 * (_tri(r) + _tri(s)) <= big:
                eps = (a + 1) % 2
                d = r - s + 1
                la = from_core_quotient(st(a), st(r), st(s))
                mu = from_core_quotient(st(a), st(r + 1), st(s - 1))
                ok = _signed_unit(cs.quot_red(cs.unit("linear", la), eps, d), mu, PM_ONE)
                yield None if ok else f"linear a={a} r={r} s={s}"
                al = classify.FsasDecomposition(a, r, s).rebuild()
                be = classify.FsasDecomposition(a, r + 1, s - 1).rebuild()
                spin_mult = PM_ONE if d == 0 else PM_SQRT2
                ok = _signed_unit(cs.quot_red(cs.unit("spin", al), eps, d), be, spin_mult)
                yield None if ok else f"spin a={a} r={r} s={s}"
                a += 1


def _linear_quot_red(bound):
    """R^(d) on each la of size <= bound with weights w, w + d <= len(core) + 1."""
    for la in (la for n in range(0, bound + 1) for la in pt.partitions_of(n)):
        core, quotient = two_quotient(la)
        w = pt.size(quotient[0]) + pt.size(quotient[1])
        ds = [d for d in range(-2, 3) if w + d >= 0 and max(w, w + d) <= len(core) + 1]
        for d, got in zip(ds, cs.quot_reds(cs.unit("linear", la), (len(core) + 1) % 2, ds)):
            items = []
            for m0, m1 in _bipartitions(w + d):
                c = cs.interm_signed_sum(quotient, (m0, m1))
                if c:
                    items.append((from_core_quotient(core, m0, m1), Scalar(c)))
            want = cs.vector("linear", pt.size(la) + 2 * d, items)
            yield None if got == want else f"la={format_partition(la)} d={d}"


def run_quot_red(rep, cache_dir):
    for n in range(0, rep.max_n + 1):
        rep.tally(f"R^(d) on relaxed labels, |al|={n}, |d| <= 3", _relaxed_quot_red(n))

    big = rep.max_n + 2
    rep.tally(f"staircase redistribution props, size <= {big}", _staircase_redistribution(big))

    lin_max = max(rep.max_n - 2, 0)
    rep.tally(f"linear R^(d) matches the signed intermediate count, |la| <= {lin_max}",
              _linear_quot_red(lin_max))

    v = cs.quot_red(cs.unit("linear", (6, 3)), 1, -1)
    rep.check("R_1^(-1) [6,3]", "-[4,1,1,1]", cs.format_vector(v))

    v = cs.quot_red(cs.unit("spin", (4, 3, 2)), 1, -1)
    rep.check("R_1^(-1) <<4,3,2>>", "-sqrt2*<<4,3>>", cs.format_vector(v))


# ---------------------------------------------------------------------------
# intermediate-bipartition combinatorics

FIGURE_LEFT = {
    (6, 5, 2, 1): (1, 2, 2),
    (6, 5, 2): (2, 3, 3),
    (6, 5, 1): (3, 3, 1),
    (6, 4, 2, 1): (2, 2, 4),
    (6, 4, 2): (3, 3, 5),
    (6, 4, 1): (4, 3, 3),
    (6, 3, 2, 1): (3, 2, 2),
    (6, 3, 2): (4, 3, 3),
    (6, 3, 1): (5, 3, 1),
}

FIGURE_RIGHT = {
    (5, 4, 1): (1, 2, 2),
    (5, 4): (2, 3, 1),
    (5, 3, 1): (2, 2, 4),
    (5, 3): (3, 3, 3),
    (5, 2, 1): (3, 2, 2),
    (5, 2): (4, 3, 1),
}


def _interm0_stats(eta, theta):
    return {
        ze: (pt.size(theta) - pt.size(ze), cs.kom(eta, ze), cs.kom(theta, ze))
        for ze in cs.interm0(eta, theta)
    }


def _stats_str(stats):
    body = "; ".join(
        f"{format_partition(ze)}:{t[0]},{t[1]},{t[2]}"
        for ze, t in sorted(stats.items(), reverse=True)
    )
    return f"{len(stats)} terms [{body}]"


def _signed_sum_collapse(r, s):
    """The signed sum is +-1 at (staircase(r+1), staircase(s-1)), else 0."""
    bla = (pt.staircase(r), pt.staircase(s))
    target = (pt.staircase(r + 1), pt.staircase(s - 1))
    hit = -1 if (r + 1) % 2 else 1
    for m0, m1 in _bipartitions(_tri(r + 1) + _tri(s - 1)):
        got = cs.interm_signed_sum(bla, (m0, m1))
        want = hit if (m0, m1) == target else 0
        yield None if got == want else f"({format_partition(m0)};{format_partition(m1)}) -> {got}"


def run_interm(rep, cache_dir):
    for s in range(1, 5):
        for r in range(0, s):
            rep.tally(f"signed sum collapse from staircase pair (r,s)=({r},{s})",
                      _signed_sum_collapse(r, s))

    etas = pt.strict_partitions_upto(rep.max_n)
    rep.tally(f"brute-force B equals its closed form, |eta|,|theta| <= {rep.max_n}",
              (None if cs.b_sum(eta, theta) == cs.b_closed(eta, theta)
               else f"eta={format_partition(eta)} theta={format_partition(theta)}"
               for eta in etas for theta in etas))

    eta, theta = (7, 6, 2, 1), (6, 5, 3, 1)
    ceta, ctheta = (6, 5, 1), (5, 4, 2)
    rep.check(
        "intermediate data for (7,6,2,1)/(6,5,3,1)",
        _stats_str(FIGURE_LEFT),
        _stats_str(_interm0_stats(eta, theta)),
    )
    rep.check(
        "intermediate data for (6,5,1)/(5,4,2)",
        _stats_str(FIGURE_RIGHT),
        _stats_str(_interm0_stats(ceta, ctheta)),
    )
    rep.check("B(7,6,2,1 / 6,5,3,1)", "0", cs.b_sum(eta, theta))
    rep.check(
        "first-column removal flips the sign",
        -cs.b_sum(ceta, ctheta),
        cs.b_sum(eta, theta),
    )
    rep.check("closed form agrees on both figure pairs", "0, 0",
              f"{cs.b_closed(eta, theta)}, {cs.b_closed(ceta, ctheta)}")


# ---------------------------------------------------------------------------
# symmetric function identities

def _staircase_product(r, s):
    """P at staircase(r) + staircase(s) is s_staircase(r) * s_staircase(s)."""
    st = pt.staircase
    left = sf.schur_p_poly(pt.sum_parts(st(r), st(s)))
    right = sf.poly_mul(sf.schur_poly(st(r)), sf.schur_poly(st(s)))
    if left != right:
        return f"r={r} s={s}"


def _tableau_evaluation(al, xs):
    """Q_al and P_al at xs agree with the sums over marked shifted tableaux."""
    routes = (("Q", sf.schur_q_poly, True), ("P", sf.schur_p_poly, False))
    bad = [name for name, poly, marked in routes
           if sf.evaluate(poly(al), xs) != sf.monomial_schur_q(al, xs, marked)]
    return bad and f"al={format_partition(al)}: {'/'.join(bad)}"


def run_symfunc(rep, cache_dir):
    bound = rep.max_n
    rep.tally(f"P at a sum of staircases is a product of Schur functions, size <= {bound}",
              (_staircase_product(r, s)
               for r in range(bound + 1) if _tri(r) <= bound
               for s in range(0, r + 1) if _tri(r) + _tri(s) <= bound))

    for n in range(1, min(bound, 10) + 1):
        partitions = pt.partitions_of(n)
        rep.tally(f"rim-hook recursion vs power-sum transition, n={n}",
                  (None if sf.schur_poly(la).get(nu, 0) == x
                   else f"la={format_partition(la)} nu={format_partition(nu)}"
                   for la, row in zip(partitions, cv.chi_rows(partitions, partitions))
                   for nu, x in zip(partitions, row)))

    # 12 (1, 1/2, 1/3, 1/4): each side below is homogeneous of degree |al|
    # (or r), so it scales by 12^degree and the check runs in ints.
    xs = (12, 6, 4, 3)
    small = min(bound, 6)
    rep.tally(f"bar recursion equals tableau evaluation in four variables, size <= {small}",
              (_tableau_evaluation(al, xs)
               for n in range(0, small + 1) for al in pt.strict_partitions_of(n)))

    rep.tally("one-row generators match the generating series, r <= 8",
              (None if sf.evaluate(sf.q_poly(r), xs) == sf.q_series_coefficient(r, xs)
               else f"r={r}" for r in range(0, 9)))


# ---------------------------------------------------------------------------
# degrees and golden data

def _integral_spin_rows(bound):
    for n in range(1, bound + 1):
        labels = pt.strict_partitions_of(n)
        for al, row in zip(labels, cv.spin_rows(labels, pt.odd_partitions_of(n))):
            for v in row:
                plain = v.b == 0 and v.a.denominator == 1
                radical = v.a == 0 and v.b.denominator == 1
                yield None if plain or radical else f"al={format_partition(al)}: {v}"


def run_degrees(rep, cache_dir):
    lb22 = cv.linear_brauer((2, 2))
    sb4 = cv.spin_brauer((4,))
    want = ", ".join(str(sqrt2_pow(1) * x) for x in lb22)
    got = ", ".join(str(x) for x in sb4)
    rep.check("spin (4) == sqrt2 * linear (2,2) on odd classes", want, got)

    hits = [format_partition(la) for al, la, _ in cv.scan(4, cache_dir) if al == (3, 1)]
    rep.check("linear rows proportional to spin (3,1)", "none", ", ".join(hits) or "none")
    rep.check("degree of spin (3,1)", "4", cv.spin_degree((3, 1)))

    for n in range(1, rep.max_n + 1):
        for b in _bases().values():
            total = sum(d * d for d in map(b.degree, b.labels(n)))
            rep.check(f"sum of squared {b.basis} degrees, n={n}", math.factorial(n), total)

    int_max = min(rep.max_n, 12)
    rep.tally(f"spin table entries are integers or integer multiples of sqrt2, n <= {int_max}",
              _integral_spin_rows(int_max))


# ---------------------------------------------------------------------------
# support and descent invariants

def _support_is_weight(n):
    """Each odd k-(bar-)weight is the largest w with a nonzero value on (k^w, 1^(n-kw))."""
    for k in range(1, n + 1, 2):
        top = range(n // k, -1, -1)
        classes = [(k,) * w + (1,) * (n - k * w) for w in top]
        for b in _bases().values():
            labels = b.labels(n)
            for label, row in zip(labels, b.rows(labels, classes)):
                want = b.weight(label, k)
                # the row is lazy: values past the first nonzero are never read
                got = next(w for w, x in zip(top, row) if x)
                yield None if want == got else (f"{b.name}={format_partition(label)} k={k}: "
                                                f"{b.weight_word} {want} support {got}")


def _pair_consequences(al, la, c, pairs_at):
    """What a proportional pair (al, la) with ratio c implies."""
    n = pt.size(la)
    errs = []
    if c != sqrt2_pow(classify.ratio_exponent(al)):
        errs.append("ratio")
    if pt.regularize2(la) != pt.regularize2(pt.dbl(al)):
        errs.append("regularization")
    for k in range(1, n + 1, 2):
        if pt.k_weight(la, k) != pt.bar_weight(al, k):
            errs.append(f"{k}-weight")
            break
    if pt.content_counts(la) != pt.spin_content_counts(al):
        errs.append("content")
    if pt.k_core(la, 2) != pt.dbl(pt.four_bar_core(al)[0]):
        errs.append("2-core")
    if pt.odd_parts(al):
        k, rest = pt.largest_odd_bar(al)
        hooks = pt.rim_hooks(la, k)
        if len(hooks) != 1:
            errs.append("hook count")
        elif (rest, hooks[0][0]) not in pairs_at(n - k):
            errs.append("largest-bar descent")
    for eps in (0, 1):
        al2 = pt.remove_all_spin_removable(al, eps)
        la2 = pt.remove_all_removable(la, eps)
        if pt.size(al2) != pt.size(la2) or (al2, la2) not in pairs_at(pt.size(al2)):
            errs.append(f"eps={eps} descent")
    return errs and f"{format_partition(al)}~{format_partition(la)}: " + ",".join(errs)


def run_invariants(rep, cache_dir):
    for n in range(1, rep.max_n + 1):
        rep.tally(f"weights equal maximal nonvanishing cycle counts, n={n}",
                  _support_is_weight(n))

    # one scan per size, shared by the loop and the descent lookups
    scans = {}

    def pairs_at(m):
        """{(alpha, lambda): ratio} over the proportional pairs of size m."""
        if m not in scans:
            scans[m] = {(al, la): c for al, la, c in cv.scan(m, cache_dir)}
        return scans[m]

    for n in range(1, min(rep.max_n + 2, 14) + 1):
        rep.tally(f"proportional-pair consequences, n={n}",
                  (_pair_consequences(al, la, c, pairs_at)
                   for (al, la), c in pairs_at(n).items()))


# ---------------------------------------------------------------------------
# dispatch

SUITES = {
    "main": run_main,
    "equality": run_equality,
    "runner-swap": run_runner_swap,
    "runner-swap-spin": run_runner_swap_spin,
    "quot-red": run_quot_red,
    "interm": run_interm,
    "symfunc": run_symfunc,
    "degrees": run_degrees,
    "invariants": run_invariants,
}


def run_suite(name, max_n=None, cache_dir=None):
    """The Report of one suite, at its default bound when max_n is None.
    The operators' move table starts empty, so a suite's report and timing
    do not depend on which suites ran before it."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    if max_n is not None:
        pt.check_size(max_n)
    cs._moves.cache_clear()
    t0 = time.perf_counter()
    rep = Report(name, DEFAULT_BOUNDS[name] if max_n is None else max_n)
    SUITES[name](rep, cache_dir)
    rep.millis = int(round((time.perf_counter() - t0) * 1000))
    return rep


def run_all(max_n=None, cache_dir=None):
    return [run_suite(name, max_n, cache_dir) for name in SUITES]
