"""Formal character vectors and the operators that act on them.

A vector is a finite Scalar-linear combination of labels: partitions for the
linear basis, strict partitions for the spin basis.  Labels are orthonormal.
The branching operators apply_e/apply_f remove or add several nodes of one
residue at a time; both run one move function (_moves) label by label.
Alternating composites of them swap the two runners of the abacus display
(runner_swap) or shift weight between the two components of the 2-quotient
(quot_red).  The intermediate-bipartition counts that control the matrix
entries of quot_red live here too.

Every term an operator produces is c * sqrt2^k for an input coefficient
c = a + b sqrt2, so vectors are summed as plain coordinate pairs per label
(ints in practice, Fractions only if the input has them), with one Scalar
built per label at the end and the labels whose sum is zero dropped.

The composites work one input label at a time and stop at the first a where
e_eps^(a) of the label vanishes.  That is exact: on one label, the counts r
for which e_eps^(r) (or f_eps^(r)) has a term form the interval [0, m], m
the number of removable (addable) eps-nodes.  Linear labels lose or gain
any subset of those nodes.  A spin label's top end is its largest move
(see the spin section of partitions), which moves every one of them.  To
go down from an r-cell removal, take the topmost row that sheds cells and
shed one cell fewer there: a row that may shed two cells may shed one,
the row ends one cell longer than before, so still longer than the row
below, and no longer than it was, so still shorter than the unchanged row
above.  That is a legal (r-1)-cell removal.  Dually, grow one cell fewer
in the lowest row that grows (dropping the new row (1) if it is added).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import ge, gt

from barspin.abacus import bswp, swp
from barspin.partitions import (
    addable_nodes,
    check_partition,
    check_strict,
    min_parts,
    removable_nodes,
    size,
    spin_addable_nodes,
    spin_additions,
    spin_removable_nodes,
    spin_removals,
    union_parts,
)
from barspin.scalars import Scalar, sqrt2_pow


@dataclass
class CharVector:
    basis: str
    n: int
    coeffs: dict

    def is_zero(self):
        return not self.coeffs

    def labels(self):
        return sorted(self.coeffs, reverse=True)


def _as_scalar(c):
    return c if isinstance(c, Scalar) else Scalar(c)


def _add_pair(acc, label, a, b):
    """Add a + b*sqrt2 into the coordinate pair that acc holds for label."""
    pair = acc.get(label)
    if pair is None:
        acc[label] = [a, b]
    else:
        pair[0] += a
        pair[1] += b


def _add_signed(acc, w, negate=False):
    """Add w (or -w) into the coordinate pairs of acc."""
    sign = -1 if negate else 1
    for label, x in w.coeffs.items():
        _add_pair(acc, label, sign * x.a, sign * x.b)


def _from_pairs(basis, n, acc):
    """The vector with the summed coordinate pairs; zero sums are dropped."""
    return CharVector(basis, n, {label: Scalar(a, b) for label, (a, b) in acc.items() if a or b})


def vector(basis, n, items):
    if basis not in ("linear", "spin"):
        raise ValueError(f"unknown basis {basis!r}")
    acc = {}
    for label, c in items.items() if isinstance(items, dict) else items:
        label = tuple(label)
        if basis == "spin":
            check_strict(label)
        else:
            check_partition(label)
        if size(label) != n:
            raise ValueError(f"label {label} has the wrong size for n = {n}")
        c = _as_scalar(c)
        _add_pair(acc, label, c.a, c.b)
    return _from_pairs(basis, n, acc)


def unit(basis, label):
    return vector(basis, size(label), [(tuple(label), 1)])


def scale(v, c):
    c = _as_scalar(c)
    if c.is_zero():
        return CharVector(v.basis, v.n, {})
    return CharVector(v.basis, v.n, {label: x * c for label, x in v.coeffs.items()})


# ---------------------------------------------------------------------------
# branching operators

def _check_residue(eps, p):
    if not 0 <= eps < p:
        raise ValueError(f"residue {eps} out of range for p = {p}")


def _moves(basis, label, eps, r, p, grow):
    """(new label, sqrt2 exponent) for every way of removing (grow=False)
    or adding r nodes of residue eps on one label.

    Linear basis: one move per r-subset of the removable (addable)
    eps-nodes, exponent 0.  Each subset changes its rows by one cell; the
    nodes are corners of a partition, so the result is one by construction.
    Spin basis: one move per way of shedding (growing) r end cells of spin
    residue eps, at most two per row, that leaves a strict partition; the
    exponent counts the even integers that are a part of exactly one of
    the old and new labels.  Moving no nodes is the identity.
    """
    if r == 0:
        return [(label, 0)]
    if basis == "linear":
        nodes = addable_nodes(label, eps, p) if grow else removable_nodes(label, eps, p)
        step = 1 if grow else -1
        out = []
        for sub in itertools.combinations(nodes, r):
            rows = [*label, 0]
            for i, _ in sub:
                rows[i - 1] += step
            out.append((tuple(filter(None, rows)), 0))
        return out
    moves = spin_additions if grow else spin_removals
    evens = {x for x in label if x % 2 == 0}
    return [(be, len(evens ^ {x for x in be if x % 2 == 0})) for be in moves(label, eps, r)]


def _apply(v, eps, r, p, grow):
    if r < 0:
        raise ValueError("r must be nonnegative")
    _check_residue(eps, p)
    if v.basis == "spin" and p != 2:
        raise ValueError("spin operators exist only for p = 2")
    acc = {}
    for label, c in v.coeffs.items():
        # c * sqrt2^k with c = a + b sqrt2: sqrt2^(2q) = 2^q, and
        # sqrt2 (a + b sqrt2) = 2b + a sqrt2
        even, odd = (c.a, c.b), (2 * c.b, c.a)
        for new, k in _moves(v.basis, label, eps, r, p, grow):
            x, y = odd if k & 1 else even
            s = 1 << (k >> 1)
            _add_pair(acc, new, x * s, y * s)
    return _from_pairs(v.basis, v.n + r if grow else v.n - r, acc)


def apply_e(v, eps, r=1, p=2):
    """Remove r nodes of residue eps in all legal ways at once (p = 2 only
    in the spin basis); see _moves for the terms and their coefficients."""
    return _apply(v, eps, r, p, grow=False)


def apply_f(v, eps, r=1, p=2):
    """Add r nodes of residue eps in all legal ways at once; dual to apply_e."""
    return _apply(v, eps, r, p, grow=True)


# ---------------------------------------------------------------------------
# runner swap and quotient redistribution

def runner_swap(v, eps, c, p=2):
    """The degree-c runner swap: sum over a of
    (-1)^a f_eps^(a+c) e_eps^(a), rightmost factor applied first.

    The alternative global sign (-1)^(a+c) differs only by the factor
    (-1)^c, invisible for even c; the convention here is pinned by the
    odd-p worked example S_2^(1) on (9,8,5,1^5) in the verify suite.
    """
    acc = {}
    for label, coef in v.coeffs.items():
        one = CharVector(v.basis, v.n, {label: coef})
        for a in range(max(0, -c), v.n + 1):
            w = apply_e(one, eps, a, p)
            if w.is_zero():
                break
            _add_signed(acc, apply_f(w, eps, a + c, p), a % 2)
    return _from_pairs(v.basis, v.n + c, acc)


def quot_red(v, eps, d):
    """The degree-d quotient redistribution: sum over a of
    (-1)^(a+d) f_eps^(a+d) f_eps'^(a+d) e_eps'^(a) e_eps^(a) with
    eps' the other residue, rightmost factor applied first."""
    ebar = 1 - eps
    acc = {}
    for label, coef in v.coeffs.items():
        one = CharVector(v.basis, v.n, {label: coef})
        for a in range(max(0, -d), v.n + 1):
            w = apply_e(one, eps, a)
            if w.is_zero():
                break
            w = apply_f(apply_f(apply_e(w, ebar, a), ebar, a + d), eps, a + d)
            _add_signed(acc, w, (a + d) % 2)
    return _from_pairs(v.basis, v.n + 2 * d, acc)


def linear_swap_sign(la, eps):
    """Sign carried by the extreme-degree runner swap on a single label:
    parity of the number of removed eps-nodes."""
    mu = swp(la, eps)
    return -1 if (size(la) - size(min_parts(la, mu))) % 2 else 1


def spin_swap_sign(al, eps):
    """Spin analogue of linear_swap_sign, read off the label alone.

    Two contributions mod 2: the nodes of al outside the swapped label,
    and the number of residue-eps column pairs {d, d+1} (d = 2 eps mod 4,
    stepping by 4) carrying both a removable and an addable eps-node.
    """
    be = bswp(al, eps)
    removed = size(al) - size(min_parts(al, be))
    rem_cols = {c for _, c in spin_removable_nodes(al, eps)}
    add_cols = {c for _, c in spin_addable_nodes(al, eps)}
    hits = 0
    top = (al[0] if al else 0) + 2
    for d in range(2 * eps % 4, top + 1, 4):
        if ({d, d + 1} & rem_cols) and ({d, d + 1} & add_cols):
            hits += 1
    return -1 if (removed + hits) % 2 else 1


# ---------------------------------------------------------------------------
# intermediate bipartitions and the closed matrix entries

def _choices(bounds, strict=False):
    """Weakly (or strictly) decreasing picks, one from each row's interval
    (lo, hi), with the zero rows dropped."""
    out = []
    for pick in itertools.product(*(range(lo, hi + 1) for lo, hi in bounds)):
        if all(map(ge, pick, pick[1:])):
            nu = tuple(filter(None, pick))
            if not strict or all(map(gt, nu, nu[1:])):
                out.append(nu)
    return out


def _bounds(a, b, vertical=False):
    """Per-row intervals (lo, hi) for the partitions below both a and b by
    horizontal strips, or by vertical strips if vertical.  Row i is at most
    min(a_i, b_i) and at least max(a_{i+1}, b_{i+1}) (horizontal) or
    max(a_i - 1, b_i - 1, 0) (vertical)."""
    rows = list(itertools.zip_longest(a, b, fillvalue=0))
    if vertical:
        low = [max(x, y, 1) - 1 for x, y in rows]
    else:
        low = [max(row) for row in rows[1:]] + [0]
    return [(lo, min(row)) for lo, row in zip(low, rows)]


def _under(a, b, vertical=False, strict=False):
    """Partitions (strict ones if strict) below both a and b by horizontal
    strips, or by vertical strips if vertical; see _bounds."""
    bounds = _bounds(a, b, vertical)
    if any(lo > hi for lo, hi in bounds):
        return []
    return _choices(bounds, strict)


def interm(bla, bmu):
    """All bipartitions one layer below both bla and bmu: component 0 by
    horizontal strips, component 1 by vertical strips."""
    return list(itertools.product(_under(bla[0], bmu[0]), interm1(bla[1], bmu[1])))


def interm_signed_sum(bla, bmu):
    """Sum of (-1)^(|bmu| - |bnu|) over the intermediates below both.

    The intermediates are the product of the two components' lists and the
    sign is (-1)^|bmu| (-1)^|nu0| (-1)^|nu1|, so the sum is (-1)^|bmu| times
    one alternating count per component.  Component 0 needs no list: its
    row intervals interlace (row i+1 is at most min(a_{i+1}, b_{i+1}) and
    row i at least max(a_{i+1}, b_{i+1})), so every pick is a partition,
    and its count is the product over rows of the sum of (-1)^v over
    lo <= v <= hi: 0 for an interval of even length, else (-1)^lo."""
    sign = -1 if (size(bmu[0]) + size(bmu[1])) % 2 else 1
    for lo, hi in _bounds(bla[0], bmu[0]):
        if lo > hi or (hi - lo) % 2:
            return 0
        if lo % 2:
            sign = -sign
    return sign * sum(-1 if size(nu) % 2 else 1 for nu in interm1(bla[1], bmu[1]))


def interm0(eta, theta):
    """Strict partitions under both eta and theta by horizontal strips."""
    return _under(eta, theta, strict=True)


def interm1(sigma, tau):
    """Partitions under both sigma and tau by vertical strips."""
    return _under(sigma, tau, vertical=True)


def kom(eta, theta):
    """Number of integers that are a part of exactly one of the two."""
    return len(set(eta) ^ set(theta))


def b_sum(eta, theta):
    """Alternating sqrt2-weighted sum over the strict intermediates ze:
    (-1)^(|theta| - |ze|) sqrt2^(kom(eta, ze) + kom(theta, ze)), added up
    as integers by the parity of the sqrt2 power."""
    e, t = set(eta), set(theta)
    st = size(theta)
    acc = [0, 0]
    for ze in interm0(eta, theta):
        z = set(ze)
        k = len(e ^ z) + len(t ^ z)
        term = 1 << (k >> 1)
        acc[k & 1] += -term if (st - size(ze)) % 2 else term
    return Scalar(*acc)


def b_closed(eta, theta):
    """Closed form for b_sum: nonzero only when theta is eta, or eta with
    one part of size |d| dropped or inserted, d the size difference."""
    eta, theta = tuple(eta), tuple(theta)
    d = size(theta) - size(eta)
    r = sum(1 for p in eta if p > abs(d))
    if d < 0 and -d in eta and theta == tuple(p for p in eta if p != -d):
        val, sign = sqrt2_pow(1), r
    elif d == 0 and theta == eta:
        val, sign = Scalar(1), r
    elif d > 0 and d not in eta and theta == union_parts(eta, (d,)):
        val, sign = sqrt2_pow(1), r + d
    else:
        return Scalar(0)
    return -val if sign % 2 else val


# ---------------------------------------------------------------------------
# printing

def format_label(basis, label):
    body = ",".join(str(p) for p in label) or "-"
    return f"[{body}]" if basis == "linear" else f"<<{body}>>"


def format_vector(v):
    if v.is_zero():
        return "0"
    pieces = []
    for label in v.labels():
        cs = str(v.coeffs[label])
        name = format_label(v.basis, label)
        if cs == "1":
            pieces.append(name)
        elif cs == "-1":
            pieces.append(f"-{name}")
        elif " + " in cs or " - " in cs:
            pieces.append(f"({cs})*{name}")
        else:
            pieces.append(f"{cs}*{name}")
    out = pieces[0]
    for piece in pieces[1:]:
        if piece.startswith("-"):
            out += " - " + piece[1:]
        else:
            out += " + " + piece
    return out
