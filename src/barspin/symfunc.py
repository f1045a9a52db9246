"""Symmetric functions in the power-sum basis, exactly.

A polynomial is a dict mapping a partition nu (the power-sum index) to
z_nu times the coefficient of p_nu, where z_nu = prod_k k^(m_k) m_k! is the
centralizer order of the class nu.  In this scaling every coefficient the
library forms is an integer: h_r has 1 at every nu of r (Macdonald,
Symmetric Functions and Hall Polynomials, I (2.14)), and the scaled
coefficient of p_nu in s_la is the character value chi^la(nu); s_la is
Jacobi-Trudi expanded along its first column.  Multiplying p_mu/z_mu by
p_nu/z_nu gives p_(mu u nu)/z_(mu u nu) times the integer
z_(mu u nu)/(z_mu z_nu) = prod_k C(m_k(mu) + m_k(nu), m_k(mu)).  No
polynomial holds a zero coefficient (`poly_mul` and the signed sum of
`schur_poly` drop zeros, `schur_q_poly` skips X = 0), so `==` compares
them.  The one `Fraction` is c/z_nu in `evaluate`.

Spin character values are read off the integers X with
p_nu = sum_alpha X^alpha_nu P_alpha, by Morris's bar recursion (Morris
1962; Macdonald III.8 Ex. 11): multiplying P_beta by p_k adds a k-bar in
every possible way, with a sign.  It runs on the set of parts of alpha as
a bitmask (bars as in Olsson 1993, Combinatorics and Representations of
Finite Groups), with int memo keys (see `partitions.memo_key`); a part
shrinks by the move of `partitions.strips`, which the Murnaghan-Nakayama
kernel of charvalues shares, and at (1^m) X is Schur's closed form for
the degree, with no recursion (Schur 1911).  Schur's
Q_alpha is read off the same integers: [P_alpha, Q_beta] = delta and
[p_mu, p_nu] = z_nu 2^-len(nu) delta on odd classes, so the scaled
coefficient of Q_alpha at each odd nu is 2^len(nu) X^alpha_nu.  P_alpha =
2^-len(alpha) Q_alpha is integral too, and q_r is Q_(r).  The P-matrix
solve, whose rows are P_alpha by the Pfaffian of two-row Q's, and that
Pfaffian are test oracles.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

from barspin.partitions import (
    check_class,
    check_strict,
    memo_key,
    odd_partitions_of,
    part_mask,
    partitions_of,
    size,
    split_key,
    strips,
    union_parts,
)


@lru_cache(maxsize=None)
def z_order(nu):
    """Centralizer order z_nu = prod_k k^(m_k) m_k! of the class nu."""
    out = 1
    for p in set(nu):
        m = nu.count(p)
        out *= p ** m * math.factorial(m)
    return out


def poly_mul(f, g):
    out = {}
    gz = [(kg, vg, z_order(kg)) for kg, vg in g.items()]
    for kf, vf in f.items():
        zf = z_order(kf)
        for kg, vg, zg in gz:
            k = union_parts(kf, kg)
            # z(kf u kg) / (z(kf) z(kg)) = prod_k C(m_k(kf) + m_k(kg), m_k(kf))
            s = out.get(k, 0) + vf * vg * (z_order(k) // (zf * zg))
            if s:
                out[k] = s
            elif k in out:
                del out[k]
    return out


# ---------------------------------------------------------------------------
# Schur s via h_r in closed form and Jacobi-Trudi along its first column

@lru_cache(maxsize=None)
def h_poly(r):
    """Complete homogeneous h_r = sum over nu of r of p_nu / z_nu."""
    return {nu: 1 for nu in partitions_of(r)}


@lru_cache(maxsize=None)
def schur_poly(la):
    """Schur s_la in the p-basis: det(h_(la_i - i + j)) expanded along its
    first column (Macdonald I (3.4)).  With rows counted from 0, s_la is
    the sum over r with la_r >= r of (-1)^r h_(la_r - r) s_mu, where
    mu = (la_0 + 1, ..., la_(r-1) + 1, la_(r+1), ...) and s_() = 1."""
    if not la:
        return {(): 1}
    out = {}
    for r, a in enumerate(la):
        if a < r:
            break
        mu = tuple(b + 1 for b in la[:r]) + la[r + 1:]
        for k, v in poly_mul(h_poly(a - r), schur_poly(mu)).items():
            s = out.get(k, 0) + (-v if r % 2 else v)
            if s:
                out[k] = s
            elif k in out:
                del out[k]
    return out


# ---------------------------------------------------------------------------
# the coefficients of p_nu in {P_alpha}: Morris's bar recursion

def p_in_P_coefficient(al, nu):
    """X with p_nu = sum_alpha X^alpha_nu P_alpha, an integer (nu odd, any order)."""
    check_strict(al)
    check_class(nu)
    if size(nu) != size(al):
        return 0
    return _bar_kernel(memo_key(sorted(nu, reverse=True), part_mask(al)))


@lru_cache(maxsize=None)
def _bar_kernel(key):
    """Morris's recursion at key = memo_key(nu, part_mask(al)): strip the
    k-bars of al for the front part k of nu.

    p_k P_be = sum c(al/be) P_al, over the al with be = al minus a k-bar:
    a part a >= k shrinks to a - k when that bit is clear, with sign
    (-1)^(parts strictly between a - k and a) (`partitions.strips`); two
    parts a > b with a + b = k drop together, with sign 2 (-1)^(parts
    strictly between b and a, plus b).  At a front part <= 1 the class is
    (1^m), as every key's class is sorted down, and X is `_schur_degree`."""
    mask, k, rest = split_key(key)
    if k <= 1:
        return _schur_degree(mask)
    if not k & 1:
        raise ValueError(f"bars are defined for odd lengths only, got {k}")
    total = 0
    for new, leg in strips(mask, k):
        # a part equal to k lands on bit 0, which is no part
        value = _bar_kernel(rest | new & ~1)
        total += -value if leg & 1 else value
    small = mask & ((1 << (k + 1) // 2) - 1)
    while small:
        part = small & -small
        small ^= part
        b = part.bit_length() - 1
        top = 1 << (k - b)
        if mask & top:
            value = 2 * _bar_kernel(rest | mask ^ part ^ top)
            sign = (mask >> (b + 1) & ((1 << (k - 2 * b - 1)) - 1)).bit_count() + b
            total += -value if sign & 1 else value
    return total


def _schur_degree(mask):
    """X^al at (1^n) for the strict al with part mask `mask`, by Schur's
    closed form n!/prod a_i! * prod_{i<j} (a_i - a_j)/(a_i + a_j)."""
    parts = [a for a in range(mask.bit_length()) if mask >> a & 1]
    num, den = math.factorial(sum(parts)), 1
    for j, b in enumerate(parts):
        den *= math.factorial(b)
        for a in parts[:j]:
            num *= b - a
            den *= b + a
    return num // den


# ---------------------------------------------------------------------------
# Schur Q and P, read off the bar recursion

def schur_q_poly(al):
    """Q_alpha, whose scaled coefficient at each odd nu is 2^len(nu)
    X^alpha_nu: [P_alpha, Q_beta] = delta and [p_mu, p_nu] = z_nu
    2^-len(nu) delta on odd classes."""
    check_strict(al)
    mask = part_mask(al)
    out = {}
    for nu in odd_partitions_of(size(al)):
        x = _bar_kernel(memo_key(nu, mask))
        if x:
            out[nu] = x << len(nu)
    return out


def schur_p_poly(al):
    """P_alpha = Q_alpha / 2^len(alpha), dividing each coefficient exactly."""
    q, d = schur_q_poly(al), 1 << len(al)
    if any(c % d for c in q.values()):
        raise ArithmeticError(f"Q_{al} is not divisible by {d}")
    return {nu: c // d for nu, c in q.items()}


def q_poly(r):
    """Schur's q_r = Q_(r)."""
    return schur_q_poly((r,) if r else ())


# ---------------------------------------------------------------------------
# evaluation and monomial-expansion oracles (deliberately independent routes)

def evaluate(poly, xs):
    """Evaluate at finitely many variable values: exact at int and Fraction
    points (c/z_nu is a Fraction); a float point is not converted."""
    total = 0
    for nu, c in poly.items():
        term = Fraction(c, z_order(nu))
        for k in nu:
            term *= sum(x ** k for x in xs)
        total += term
    return total


def monomial_schur_q(al, xs, marked_diagonal=True):
    """Q_alpha (or P_alpha when marked_diagonal=False) at xs, summed over
    marked shifted tableaux by their largest letter (Macdonald III.8):
    exact, an int at int points, and a float point is not converted.

    The cells that hold the last letter, primed or not, are la/mu for a
    strict mu with la_(i+1) <= mu_i <= la_i.  One letter fills la/mu in
    2^c ways, c its edge-connected pieces: row i is a piece when
    mu_i < la_i, and it joins the piece of row i - 1 when mu_(i-1) = la_i
    (both rows are then pieces, as la and mu are strict).  P bans primes
    on the diagonal, which fixes one cell of the piece that meets it; that
    piece exists exactly when mu is shorter than la.  The sums are
    memoized on (mu, letters left) for this call only.
    """
    memo = {}

    def q(la, k):
        if not la or not k:
            return int(not la)
        if (la, k) not in memo:
            total = 0
            for mu in itertools.product(*map(range, la[1:] + (0,), [a + 1 for a in la])):
                if any(a == b > 0 for a, b in zip(mu, mu[1:])):
                    continue
                c = sum(b < a for a, b in zip(la, mu)) - sum(
                    m == a for a, m in zip(la[1:], mu))
                if not mu[-1]:
                    mu = mu[:-1]
                    c -= not marked_diagonal
                total += q(mu, k - 1) * (1 << c) * xs[k - 1] ** (size(la) - size(mu))
            memo[la, k] = total
        return memo[la, k]

    return q(tuple(al), len(xs))


def q_series_coefficient(r, xs):
    """Coefficient of t^r in prod (1 + x t)/(1 - x t), by truncated series:
    exact, an int at int points, and a float point is not converted."""
    series = [1] + [0] * r
    for x in xs:
        factor = [1] + [2 * x ** k for k in range(1, r + 1)]
        new = [0] * (r + 1)
        for i in range(r + 1):
            if not series[i]:
                continue
            for j in range(r + 1 - i):
                new[i + j] += series[i] * factor[j]
        series = new
    return series[r]
