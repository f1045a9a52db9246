"""Exhaustive finite verification sweeps for the character identities.

Each suite checks one family of identities up to a size bound and returns a
Report.  Sweeps are aggregated per size so reports stay readable; every case
line records how many instances it covered, and failures name the first few
offending labels.  All comparisons are exact.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

from barspin import charspace as cs
from barspin import charvalues as cv
from barspin import classify
from barspin import partitions as pt
from barspin import symfunc as sf
from barspin.abacus import from_core_quotient, swp, two_quotient
from barspin.abacus import bswp
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

PM_ONE = (Scalar(1), Scalar(-1))
PM_SQRT2 = (sqrt2_pow(1), -sqrt2_pow(1))


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

    def tally(self, label, total, failures):
        want = f"{total} checks pass"
        if failures:
            got = f"{len(failures)} of {total} checks fail: " + "; ".join(failures[:3])
        else:
            got = want
        self._add(label, want, got, not failures)

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


def _fmt(la):
    return pt.format_partition(la)


def _bound(name, max_n):
    return DEFAULT_BOUNDS[name] if max_n is None else max_n


def _signed_unit(v, label, units):
    """v is exactly c*(that label) with c drawn from units."""
    label = tuple(label)
    return set(v.coeffs) == {label} and any(v.coeffs[label] == u for u in units)


def _pairs_str(records):
    body = ", ".join(f"{_fmt(al)}~{_fmt(la)}@{c}" for al, la, c in records)
    return f"{len(records)} pairs [{body}]"


# ---------------------------------------------------------------------------
# main scan and the equality refinement

def run_main(max_n=None, cache_dir=None):
    bound = _bound("main", max_n)
    rep = Report("main", bound)
    for n in range(1, bound + 1):
        want = sorted(
            ((al, la, sqrt2_pow(e)) for al, la, e in classify.predicted_pairs(n)),
            key=lambda rec: (rec[0], rec[1]),
        )
        got = cv.scan(n, cache_dir)
        rep.check(f"scan({n}) == predicted pairs", _pairs_str(want), _pairs_str(got))
    return rep


def run_equality(max_n=None, cache_dir=None):
    bound = _bound("equality", max_n)
    rep = Report("equality", bound)
    for n in range(1, bound + 1):
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
    return rep


# ---------------------------------------------------------------------------
# runner swap, linear basis

def run_runner_swap(max_n=None, cache_dir=None):
    bound = _bound("runner-swap", max_n)
    rep = Report("runner-swap", bound)

    for n in range(0, bound + 1):
        fails, total = [], 0
        for la in pt.partitions_of(n):
            for eps in (0, 1):
                total += 1
                v = cs.runner_swap(cs.unit("linear", la), eps, pt.n_eps(la, eps))
                want = cs.scale(cs.unit("linear", swp(la, eps)), cs.linear_swap_sign(la, eps))
                if v != want:
                    fails.append(f"la={_fmt(la)} eps={eps} -> {cs.format_vector(v)}")
        rep.tally(f"S^(n_eps)[la] == sign*[swp la], |la|={n}", total, fails)

    big = bound + 4
    fails, total = [], 0
    a = 1
    while pt.size(pt.staircase(a)) <= big:
        eps = (a + 1) % 2
        r = 0
        while pt.size(pt.staircase(a)) + 2 * pt.size(pt.staircase(r)) <= big:
            s = 0
            while True:
                n_tot = pt.size(pt.staircase(a)) + 2 * (
                    pt.size(pt.staircase(r)) + pt.size(pt.staircase(s))
                )
                if n_tot > big:
                    break
                la = from_core_quotient(pt.staircase(a), pt.staircase(r), pt.staircase(s))
                mu = from_core_quotient(pt.staircase(a - 1), pt.staircase(r), pt.staircase(s))
                v = cs.runner_swap(cs.unit("linear", la), eps, -a)
                total += 1
                if not _signed_unit(v, mu, PM_ONE):
                    fails.append(f"a={a} r={r} s={s}")
                s += 1
            r += 1
        a += 1
    rep.tally(f"S^(-a) shrinks a staircase core, size <= {big}", total, fails)

    fails, total = [], 0
    for a in range(0, 5):
        for m in range(0, 5):
            for k in range(0, m + 1):
                for q0 in pt.partitions_of(k):
                    for q1 in pt.partitions_of(m - k):
                        la = from_core_quotient(pt.staircase(a), q0, q1)
                        u = cs.unit("linear", la)
                        mu = from_core_quotient(pt.staircase(a + 1), q0, q1)
                        total += 1
                        if not _signed_unit(cs.runner_swap(u, a % 2, a + 1), mu, PM_ONE):
                            fails.append(f"up a={a} q=({_fmt(q0)};{_fmt(q1)})")
                        if a >= 1:
                            mu = from_core_quotient(pt.staircase(a - 1), q0, q1)
                            total += 1
                            if not _signed_unit(cs.runner_swap(u, (a + 1) % 2, -a), mu, PM_ONE):
                                fails.append(f"down a={a} q=({_fmt(q0)};{_fmt(q1)})")
    rep.tally("core transport on arbitrary quotients, a <= 4, |quotient| <= 4", total, fails)

    small = min(bound, 8)
    fails, total = [], 0
    for n in range(0, small + 1):
        for la in pt.partitions_of(n):
            for eps in (0, 1):
                u = cs.unit("linear", la)
                ne = pt.n_eps(la, eps)
                r = len(pt.removable_nodes(la, eps))
                total += 1
                if not cs.runner_swap(u, eps, ne + 1).is_zero():
                    fails.append(f"{_fmt(la)} eps={eps} c={ne + 1} not 0")
                elif not cs.runner_swap(u, eps, -r - 1).is_zero():
                    fails.append(f"{_fmt(la)} eps={eps} c={-r - 1} not 0")
                elif not _signed_unit(
                    cs.runner_swap(u, eps, -r), pt.remove_all_removable(la, eps), PM_ONE
                ):
                    fails.append(f"{_fmt(la)} eps={eps} c={-r}")
    rep.tally(f"vanishing outside [-r_eps, n_eps] and the bottom value, |la| <= {small}", total, fails)

    v = cs.runner_swap(cs.unit("linear", (6, 3, 1, 1)), 1, -2)
    rep.check("S_1^(-2) [6,3,1,1]", "-[5,2,2]", cs.format_vector(v))

    v = cs.runner_swap(cs.unit("linear", (9, 8, 5, 1, 1, 1, 1, 1)), 2, 1, p=5)
    rep.check("S_2^(1) [9,8,5,1^5] at p=5", "-[9,9,4,1,1,1,1,1,1]", cs.format_vector(v))
    return rep


# ---------------------------------------------------------------------------
# runner swap, spin basis

def run_runner_swap_spin(max_n=None, cache_dir=None):
    bound = _bound("runner-swap-spin", max_n)
    rep = Report("runner-swap-spin", bound)

    for n in range(0, bound + 1):
        fails, total = [], 0
        for al in pt.strict_partitions_of(n):
            for eps in (0, 1):
                total += 1
                v = cs.runner_swap(cs.unit("spin", al), eps, pt.spin_n_eps(al, eps))
                want = cs.scale(cs.unit("spin", bswp(al, eps)), cs.spin_swap_sign(al, eps))
                if v != want:
                    fails.append(f"al={_fmt(al)} eps={eps} -> {cs.format_vector(v)}")
        rep.tally(f"S^(n_eps)<<al>> == sign*<<bswp al>>, |al|={n}", total, fails)

    big = bound + 4
    fails, total = [], 0
    a = 0
    while pt.size(pt.bar_staircase(a)) <= big:
        base = pt.size(pt.bar_staircase(a))
        for eta in pt.strict_partitions_upto((big - base) // 2):
            al = pt.union_parts(pt.bar_staircase(a), pt.scale_parts(eta, 2))
            u = cs.unit("spin", al)
            up = pt.union_parts(pt.bar_staircase(a + 1), pt.scale_parts(eta, 2))
            total += 1
            if not _signed_unit(cs.runner_swap(u, a % 2, a + 1), up, PM_ONE):
                fails.append(f"up a={a} eta={_fmt(eta)}")
            if a >= 1:
                down = pt.union_parts(pt.bar_staircase(a - 1), pt.scale_parts(eta, 2))
                total += 1
                if not _signed_unit(cs.runner_swap(u, (a + 1) % 2, -a), down, PM_ONE):
                    fails.append(f"down a={a} eta={_fmt(eta)}")
        a += 1
    rep.tally(f"bar-staircase transport with even padding, size <= {big}", total, fails)

    small = min(bound, 8)
    fails, total = [], 0
    for n in range(0, small + 1):
        for al in pt.strict_partitions_of(n):
            for eps in (0, 1):
                u = cs.unit("spin", al)
                ne = pt.spin_n_eps(al, eps)
                r = len(pt.spin_removable_nodes(al, eps))
                bottom = cs.runner_swap(u, eps, -r)
                total += 1
                if not cs.runner_swap(u, eps, ne + 1).is_zero():
                    fails.append(f"{_fmt(al)} eps={eps} c={ne + 1} not 0")
                elif not cs.runner_swap(u, eps, -r - 1).is_zero():
                    fails.append(f"{_fmt(al)} eps={eps} c={-r - 1} not 0")
                elif set(bottom.coeffs) != {pt.remove_all_spin_removable(al, eps)}:
                    fails.append(f"{_fmt(al)} eps={eps} c={-r}")
    rep.tally(f"vanishing outside [-r_eps, n_eps] and the bottom label, |al| <= {small}", total, fails)

    v = cs.runner_swap(cs.unit("spin", (6, 3, 2)), 1, -2)
    rep.check("S_1^(-2) <<6,3,2>>", "-<<6,2,1>>", cs.format_vector(v))

    v = cs.runner_swap(cs.unit("spin", (2,)), 1, -1)
    rep.check("S_1^(-1) <<2>>", "-sqrt2*<<1>>", cs.format_vector(v))
    return rep


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
    gamma = pt.bar_staircase(b)
    w = 2 * pt.size(sigma) + pt.size(eta)
    n2 = pt.size(gamma) + 2 * (w + d)
    items = []
    for k in range(0, max(w + d, 0) // 2 + 1):
        for tau in pt.partitions_of(k):
            count = len(cs.interm1(sigma, tau))
            if count == 0:
                continue
            body = pt.sum_parts(gamma, pt.scale_parts(tau, 4))
            for theta in pt.strict_partitions_of(w + d - 2 * k):
                coeff = cs.b_closed(eta, theta)
                if coeff == Scalar(0):
                    continue
                label = pt.union_parts(body, pt.scale_parts(theta, 2))
                if not pt.is_strict(label):
                    continue
                items.append((label, Scalar(count) * coeff))
    return cs.vector("spin", n2, items)


def run_quot_red(max_n=None, cache_dir=None):
    bound = _bound("quot-red", max_n)
    rep = Report("quot-red", bound)

    for n in range(0, bound + 1):
        fails, total = [], 0
        for al in pt.strict_partitions_of(n):
            dec = classify.spin_rock_decompose(al)
            if dec is None:
                continue
            b, sigma, eta = dec
            w = 2 * pt.size(sigma) + pt.size(eta)
            if w > b + 1:
                continue
            eps = (b + 1) % 2
            for d in range(-3, 4):
                if max(w, w + d) > b + 1:
                    continue
                total += 1
                try:
                    want = _rock_expected(b, sigma, eta, d)
                    got = cs.quot_red(cs.unit("spin", al), eps, d)
                    if got != want:
                        fails.append(
                            f"al={_fmt(al)} d={d}: {cs.format_vector(got)}"
                            f" != {cs.format_vector(want)}"
                        )
                except ValueError as exc:
                    fails.append(f"al={_fmt(al)} d={d}: {exc}")
        rep.tally(f"R^(d) on relaxed labels, |al|={n}, |d| <= 3", total, fails)

    big = bound + 2
    fails, total = [], 0
    for s in range(1, 6):
        for r in range(0, s):
            a = max((r * (r + 1) + s * (s + 1)) // 2 - 1, 0)
            while True:
                pad = 2 * (pt.size(pt.staircase(r)) + pt.size(pt.staircase(s)))
                n_tot = pt.size(pt.staircase(a)) + pad
                if n_tot > big:
                    break
                eps = (a + 1) % 2
                d = r - s + 1
                la = from_core_quotient(pt.staircase(a), pt.staircase(r), pt.staircase(s))
                mu = from_core_quotient(pt.staircase(a), pt.staircase(r + 1), pt.staircase(s - 1))
                total += 1
                if not _signed_unit(cs.quot_red(cs.unit("linear", la), eps, d), mu, PM_ONE):
                    fails.append(f"linear a={a} r={r} s={s}")
                al = pt.union_parts(
                    pt.bar_staircase(a),
                    pt.scale_parts(pt.sum_parts(pt.staircase(r), pt.staircase(s)), 2),
                )
                be = pt.union_parts(
                    pt.bar_staircase(a),
                    pt.scale_parts(pt.sum_parts(pt.staircase(r + 1), pt.staircase(s - 1)), 2),
                )
                total += 1
                spin_mult = PM_ONE if d == 0 else PM_SQRT2
                if not _signed_unit(cs.quot_red(cs.unit("spin", al), eps, d), be, spin_mult):
                    fails.append(f"spin a={a} r={r} s={s}")
                a += 1
    rep.tally(f"staircase redistribution props, size <= {big}", total, fails)

    lin_bound = max(bound - 2, 0)
    fails, total = [], 0
    for n in range(0, lin_bound + 1):
        for la in pt.partitions_of(n):
            core, quotient = two_quotient(la)
            w = pt.size(quotient[0]) + pt.size(quotient[1])
            lim = len(core) + 1
            if w > lim:
                continue
            eps = (len(core) + 1) % 2
            for d in range(-2, 3):
                if w + d < 0 or max(w, w + d) > lim:
                    continue
                total += 1
                items = []
                for k in range(0, w + d + 1):
                    for m0 in pt.partitions_of(k):
                        for m1 in pt.partitions_of(w + d - k):
                            c = cs.interm_signed_sum(quotient, (m0, m1))
                            if c:
                                items.append((from_core_quotient(core, m0, m1), Scalar(c)))
                want = cs.vector("linear", n + 2 * d, items)
                got = cs.quot_red(cs.unit("linear", la), eps, d)
                if got != want:
                    fails.append(f"la={_fmt(la)} d={d}")
    rep.tally(f"linear R^(d) matches the signed intermediate count, |la| <= {lin_bound}", total, fails)

    v = cs.quot_red(cs.unit("linear", (6, 3)), 1, -1)
    rep.check("R_1^(-1) [6,3]", "-[4,1,1,1]", cs.format_vector(v))

    v = cs.quot_red(cs.unit("spin", (4, 3, 2)), 1, -1)
    rep.check("R_1^(-1) <<4,3,2>>", "-sqrt2*<<4,3>>", cs.format_vector(v))
    return rep


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
        f"{_fmt(ze)}:{t[0]},{t[1]},{t[2]}" for ze, t in sorted(stats.items(), reverse=True)
    )
    return f"{len(stats)} terms [{body}]"


def run_interm(max_n=None, cache_dir=None):
    bound = _bound("interm", max_n)
    rep = Report("interm", bound)

    for s in range(1, 5):
        for r in range(0, s):
            bla = (pt.staircase(r), pt.staircase(s))
            target = (pt.staircase(r + 1), pt.staircase(s - 1))
            nn = pt.size(target[0]) + pt.size(target[1])
            hit = -1 if (r + 1) % 2 else 1
            fails, total = [], 0
            for k in range(0, nn + 1):
                for m0 in pt.partitions_of(k):
                    for m1 in pt.partitions_of(nn - k):
                        got = cs.interm_signed_sum(bla, (m0, m1))
                        want = hit if (m0, m1) == target else 0
                        total += 1
                        if got != want:
                            fails.append(f"({_fmt(m0)};{_fmt(m1)}) -> {got}")
            rep.tally(f"signed sum collapse from staircase pair (r,s)=({r},{s})", total, fails)

    etas = pt.strict_partitions_upto(bound)
    fails, total = [], 0
    for eta in etas:
        for theta in etas:
            total += 1
            if cs.b_sum(eta, theta) != cs.b_closed(eta, theta):
                fails.append(f"eta={_fmt(eta)} theta={_fmt(theta)}")
    rep.tally(f"brute-force B equals its closed form, |eta|,|theta| <= {bound}", total, fails)

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
    return rep


# ---------------------------------------------------------------------------
# symmetric function identities

def run_symfunc(max_n=None, cache_dir=None):
    bound = _bound("symfunc", max_n)
    rep = Report("symfunc", bound)

    fails, total = [], 0
    r = 0
    while pt.size(pt.staircase(r)) <= bound:
        for s in range(0, r + 1):
            if pt.size(pt.staircase(r)) + pt.size(pt.staircase(s)) > bound:
                continue
            total += 1
            left = sf.schur_p_poly(pt.sum_parts(pt.staircase(r), pt.staircase(s)))
            right = sf.poly_mul(sf.schur_poly(pt.staircase(r)), sf.schur_poly(pt.staircase(s)))
            if not sf.poly_eq(left, right):
                fails.append(f"r={r} s={s}")
        r += 1
    rep.tally(f"P at a sum of staircases is a product of Schur functions, size <= {bound}", total, fails)

    for n in range(1, min(bound, 10) + 1):
        fails, total = [], 0
        for la in pt.partitions_of(n):
            for nu in pt.partitions_of(n):
                total += 1
                if cv.chi_schur_oracle(la, nu) != cv.chi(la, nu):
                    fails.append(f"la={_fmt(la)} nu={_fmt(nu)}")
        rep.tally(f"rim-hook recursion vs power-sum transition, n={n}", total, fails)

    xs = (Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(1, 4))
    fails, total = [], 0
    small = min(bound, 6)
    for n in range(0, small + 1):
        for al in pt.strict_partitions_of(n):
            total += 1
            bad = []
            if sf.evaluate(sf.schur_q_poly(al), xs) != sf.monomial_schur_q(al, xs, True):
                bad.append("Q")
            if sf.evaluate(sf.schur_p_poly(al), xs) != sf.monomial_schur_q(al, xs, False):
                bad.append("P")
            if bad:
                fails.append(f"al={_fmt(al)}: {'/'.join(bad)}")
    rep.tally(f"Pfaffian route equals tableau evaluation in four variables, size <= {small}",
              total, fails)

    fails, total = [], 0
    for r in range(0, 9):
        total += 1
        if sf.evaluate(sf.q_poly(r), xs) != sf.q_series_coefficient(r, xs):
            fails.append(f"r={r}")
    rep.tally("one-row generators match the generating series, r <= 8", total, fails)
    return rep


# ---------------------------------------------------------------------------
# degrees and golden data

def run_degrees(max_n=None, cache_dir=None):
    bound = _bound("degrees", max_n)
    rep = Report("degrees", bound)

    lb22 = cv.linear_brauer((2, 2))
    sb4 = cv.spin_brauer((4,))
    want = ", ".join(str(sqrt2_pow(1) * x) for x in lb22)
    got = ", ".join(str(x) for x in sb4)
    rep.check("spin (4) == sqrt2 * linear (2,2) on odd classes", want, got)

    sb31 = cv.spin_brauer((3, 1))
    hits = [
        _fmt(la)
        for la in pt.partitions_of(4)
        if cv.proportionality_ratio(sb31, cv.linear_brauer(la)) is not None
    ]
    rep.check("linear rows proportional to spin (3,1)", "none", ", ".join(hits) or "none")
    rep.check("degree of spin (3,1)", "4", cv.spin_degree((3, 1)))

    for n in range(1, bound + 1):
        lin = sum(cv.specht_degree(la) ** 2 for la in pt.partitions_of(n))
        rep.check(f"sum of squared linear degrees, n={n}", math.factorial(n), lin)
        spin = Scalar(0)
        for al in pt.strict_partitions_of(n):
            d = cv.spin_degree(al)
            spin = spin + d * d
        rep.check(f"sum of squared spin degrees, n={n}", Scalar(math.factorial(n)), spin)

    int_bound = min(bound, 12)
    fails, total = [], 0
    for n in range(1, int_bound + 1):
        for al in pt.strict_partitions_of(n):
            for v in cv.spin_brauer(al):
                total += 1
                plain = v.b == 0 and v.a.denominator == 1
                radical = v.a == 0 and v.b.denominator == 1
                if not (plain or radical):
                    fails.append(f"al={_fmt(al)}: {v}")
    rep.tally(f"spin table entries are integers or integer multiples of sqrt2, n <= {int_bound}", total, fails)
    return rep


# ---------------------------------------------------------------------------
# support and descent invariants

def _cycle_class(k, w, n):
    return (k,) * w + (1,) * (n - k * w)


def run_invariants(max_n=None, cache_dir=None):
    bound = _bound("invariants", max_n)
    rep = Report("invariants", bound)

    for n in range(1, bound + 1):
        fails, total = [], 0
        for k in range(1, n + 1, 2):
            for la in pt.partitions_of(n):
                total += 1
                want = pt.k_weight(la, k)
                got = max(
                    w for w in range(0, n // k + 1)
                    if cv.chi(la, _cycle_class(k, w, n)) != 0
                )
                if want != got:
                    fails.append(f"la={_fmt(la)} k={k}: weight {want} support {got}")
            for al in pt.strict_partitions_of(n):
                total += 1
                want = pt.bar_weight(al, k)
                got = max(
                    w for w in range(0, n // k + 1)
                    if not cv.spin_value(al, _cycle_class(k, w, n)).is_zero()
                )
                if want != got:
                    fails.append(f"al={_fmt(al)} k={k}: bar weight {want} support {got}")
        rep.tally(f"weights equal maximal nonvanishing cycle counts, n={n}", total, fails)

    # one scan per size, shared by the loop and the descent lookups
    scans = {}

    def pairs_at(m):
        """{(alpha, lambda): ratio} over the proportional pairs of size m."""
        if m not in scans:
            scans[m] = {(al, la): c for al, la, c in cv.scan(m, cache_dir)}
        return scans[m]

    bound2 = min(bound + 2, 14)
    for n in range(1, bound2 + 1):
        fails, total = [], 0
        for (al, la), c in pairs_at(n).items():
            total += 1
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
            if errs:
                fails.append(f"{_fmt(al)}~{_fmt(la)}: " + ",".join(errs))
        rep.tally(f"proportional-pair consequences, n={n}", total, fails)
    return rep


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
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    t0 = time.perf_counter()
    rep = SUITES[name](max_n=max_n, cache_dir=cache_dir)
    rep.millis = int(round((time.perf_counter() - t0) * 1000))
    return rep


def run_all(max_n=None, cache_dir=None):
    return [run_suite(name, max_n, cache_dir) for name in SUITES]
