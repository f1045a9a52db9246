"""Symmetric functions in the power-sum basis, exactly.

A polynomial is a dict mapping a partition nu (the power-sum index) to
z_nu times the coefficient of p_nu, where z_nu = prod_k k^(m_k) m_k! is the
centralizer order of the class nu.  In this scaling every coefficient the
library forms is an integer: h_r has 1 at every nu of r (Macdonald,
Symmetric Functions and Hall Polynomials, I (2.14)), and the scaled
coefficient of p_nu in s_la is the character value chi^la(nu).
`Fraction` enters only in `evaluate` and in the tableau and series oracles
at the end of the module.  Multiplying p_mu/z_mu by p_nu/z_nu gives
p_(mu u nu)/z_(mu u nu) times the integer z_(mu u nu)/(z_mu z_nu) =
prod_k C(m_k(mu) + m_k(nu), m_k(mu)).

Spin character values are read off the integers X with
p_nu = sum_alpha X^alpha_nu P_alpha, by Morris's bar recursion (Morris
1962; Macdonald III.8 Ex. 11): multiplying P_beta by p_k adds a k-bar in
every possible way, with a sign.  It runs on the set of parts of alpha as
a bitmask (bars as in Olsson 1993, Combinatorics and Representations of
Finite Groups), with int memo keys (see `partitions.memo_key`).  Schur's
Q_alpha is read off the same integers: [P_alpha, Q_beta] = delta and
[p_mu, p_nu] = z_nu 2^-len(nu) delta on odd classes, so the scaled
coefficient of Q_alpha at each odd nu is 2^len(nu) X^alpha_nu.  P_alpha =
2^-len(alpha) Q_alpha is integral too, and q_r is Q_(r).  The P-matrix
solve, whose rows are P_alpha by the Pfaffian of two-row Q's, and that
Pfaffian are test oracles.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from barspin.partitions import (
    check_class,
    check_strict,
    conjugate,
    memo_key,
    odd_partitions_of,
    part_mask,
    partitions_of,
    size,
    split_key,
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


def poly_add(*polys):
    out = {}
    for poly in polys:
        for k, v in poly.items():
            s = out.get(k, 0) + v
            if s:
                out[k] = s
            elif k in out:
                del out[k]
    return out


def poly_scale(poly, c):
    if not c:
        return {}
    return {k: v * c for k, v in poly.items()}


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


def poly_eq(f, g):
    return poly_add(f, poly_scale(g, -1)) == {}


# ---------------------------------------------------------------------------
# Schur s via h_r in closed form, Jacobi-Trudi (subset DP determinant) and
# omega

@lru_cache(maxsize=None)
def h_poly(r):
    """Complete homogeneous h_r = sum over nu of r of p_nu / z_nu."""
    return {nu: 1 for nu in partitions_of(r)}


def _det(m):
    """Determinant of a matrix of polynomials, DP over column subsets."""
    n = len(m)
    if n == 0:
        return {(): 1}
    state = {frozenset(): {(): 1}}
    for row in range(n):
        new = {}
        for used, val in state.items():
            for col in range(n):
                if col in used:
                    continue
                entry = m[row][col]
                if not entry:
                    continue
                sign = (-1) ** sum(1 for c in used if c > col)
                term = poly_scale(poly_mul(val, entry), sign)
                key = used | {col}
                new[key] = poly_add(new.get(key, {}), term)
        state = new
    return state.get(frozenset(range(n)), {})


def omega(poly):
    """The involution sending each p_k to (-1)^(k-1) p_k; swaps s_la, s_la'."""
    return {nu: v * (-1) ** (size(nu) - len(nu)) for nu, v in poly.items()}


@lru_cache(maxsize=None)
def schur_poly(la):
    """Schur s_la in the p-basis; conjugates first when that shrinks the
    Jacobi-Trudi determinant."""
    if not la:
        return {(): 1}
    if len(la) > la[0]:
        return omega(schur_poly(conjugate(la)))
    n = len(la)
    m = [
        [h_poly(la[i] - i + j) if la[i] - i + j >= 0 else {} for j in range(n)]
        for i in range(n)
    ]
    return _det(m)


# ---------------------------------------------------------------------------
# the coefficients of p_nu in {P_alpha}: Morris's bar recursion

def p_in_P_coefficient(al, nu):
    """X with p_nu = sum_alpha X^alpha_nu P_alpha, an integer (nu odd)."""
    check_strict(al)
    check_class(nu)
    if size(nu) != size(al):
        return 0
    return _bar_kernel(memo_key(nu, part_mask(al)))


@lru_cache(maxsize=None)
def _bar_kernel(key):
    """Morris's recursion at key = memo_key(nu, part_mask(al)): strip the
    k-bars of al for the front part k of nu.

    p_k P_be = sum c(al/be) P_al, over the al with be = al minus a k-bar:
    a part a >= k shrinks to a - k when that bit is clear, with sign
    (-1)^(parts strictly between a - k and a); two parts a > b with
    a + b = k drop together, with sign 2 (-1)^(parts strictly between b
    and a, plus b)."""
    mask, k, rest = split_key(key)
    if not k:
        return 1
    if not k & 1:
        raise ValueError(f"bars are defined for odd lengths only, got {k}")
    between = (1 << (k - 1)) - 1
    total = 0
    movable = (mask & ~(mask << k)) >> k << k
    while movable:
        part = movable & -movable
        movable ^= part
        low = part >> k
        # a part equal to k lands on bit 0, which is no part
        value = _bar_kernel(rest | (mask ^ part ^ low) & ~1)
        total += -value if (mask >> low.bit_length() & between).bit_count() & 1 else value
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
    """Evaluate at finitely many variable values, exactly."""
    xs = [Fraction(v) for v in xs]
    total = Fraction(0)
    for nu, c in poly.items():
        term = Fraction(c, z_order(nu))
        for k in nu:
            term *= sum(x ** k for x in xs)
        total += term
    return total


def _shifted_cells(al):
    return [(i, j) for i in range(1, len(al) + 1) for j in range(i, i + al[i - 1])]


def monomial_schur_q(al, xs, marked_diagonal=True):
    """Q_alpha (or P_alpha when marked_diagonal=False) at xs by brute force
    over marked shifted tableaux.

    Entries are m' < m for m = 1..len(xs), encoded 2m-1 and 2m; rows and
    columns weakly increase; each column holds at most one unprimed m and
    each row at most one primed m.  As rows and columns weakly increase, a
    repeated unprimed m in a column, or primed m in a row, sits next to its
    twin, so each cell is checked against its upper and left neighbours
    only.  P bans primes on the diagonal.  The fillings are tallied by
    content (how often each m occurs), and each distinct content is
    evaluated once.
    """
    xs = [Fraction(v) for v in xs]
    cs = _shifted_cells(al)
    index = {cell: k for k, cell in enumerate(cs)}
    v = len(xs)
    content = [0] * v
    tally = {}

    def ok(filling, idx, val):
        i, j = cs[idx]
        primed = val % 2 == 1
        if not marked_diagonal and i == j and primed:
            return False
        left, up = index.get((i, j - 1)), index.get((i - 1, j))
        if left is not None and (filling[left] > val or filling[left] == val and primed):
            return False
        if up is not None and (filling[up] > val or filling[up] == val and not primed):
            return False
        return True

    def rec(idx, filling):
        if idx == len(cs):
            key = tuple(content)
            tally[key] = tally.get(key, 0) + 1
            return
        for val in range(1, 2 * v + 1):
            if ok(filling, idx, val):
                filling.append(val)
                content[(val - 1) // 2] += 1
                rec(idx + 1, filling)
                content[(val - 1) // 2] -= 1
                filling.pop()

    rec(0, [])
    total = Fraction(0)
    for key, count in tally.items():
        term = Fraction(count)
        for x, e in zip(xs, key):
            term *= x ** e
        total += term
    return total


def q_series_coefficient(r, xs):
    """Coefficient of t^r in prod (1 + x t)/(1 - x t), by truncated series."""
    xs = [Fraction(v) for v in xs]
    series = [Fraction(1)] + [Fraction(0)] * r
    for x in xs:
        factor = [Fraction(1)] + [2 * x ** k for k in range(1, r + 1)]
        new = [Fraction(0)] * (r + 1)
        for i in range(r + 1):
            if not series[i]:
                continue
            for j in range(r + 1 - i):
                new[i + j] += series[i] * factor[j]
        series = new
    return series[r]
