"""Formal character vectors and the operators that act on them.

A vector is a finite Q(sqrt2)-linear combination of labels: partitions for the
linear basis, strict partitions for the spin basis.  Labels are orthonormal.
The branching operators apply_e/apply_f remove or add several nodes of one
residue at a time; both run one function (_apply) into one dict of pairs.
Alternating composites of them swap the two runners of the abacus display
(runner_swap) or shift weight between the two components of the 2-quotient
(quot_red for one degree, quot_reds for several); at the top degree a
runner swap sends a label to swap_sign times its swapped label, in either
basis.  The intermediate-bipartition counts that control the matrix
entries of quot_red live here too; their vertical strips are counted as
horizontal strips of the conjugates, and b_sum sums over strict
intermediates in one pass down their rows.

A vector holds each nonzero coefficient a + b sqrt2 as the pair (a, b), ints
unless the input has Fractions.  Operators add terms c * sqrt2^k, for an input
coefficient c, by the pair rules of scalars; Scalars are built where coeffs is read.

Two tables live for one suite run.  The moves of one label are kept in the
lru_cache of _moves: its key is (basis, label, eps, r, p, grow) and its
value a tuple of (new label, k) pairs, k = 0 for a linear label.  The
composites reach one label from many, so most of a suite's moves are
repeats.  quot_reds keeps each single-label raise f_eps^(k) f_eps'^(k) mu,
k >= 1, in the lru_cache of _raise, keyed (basis, mu, eps, k) and filled
through apply_f on a miss; the lowerings of one suite's labels overlap, so
most raises are repeats too.  Every degree is checked to be an int before it enters a key (a
bool is not one: True and 1 share a key).  verify.run_suite empties both
tables (cache_clear()) before the suite starts, so they hold one suite's
labels and no report, timing or trace depends on the suites run before.  A
long-lived caller outside verify can bound them the same way.

quot_reds, the one two-step composite, works one input label at a time and
runs a from max(0, -d) up to m, the label's number of removable eps-nodes,
read once, so no e_eps^(a) call returns zero.  That is exact: on one label,
the counts r for which e_eps^(r) (or f_eps^(r)) has a term form the
interval [0, m], m the number of removable (addable) eps-nodes.  Linear
labels lose or gain any subset of those nodes.  A spin label's top end is
its largest move (see the spin section of partitions), which moves every
one of them.  To go down from an r-cell removal, take the topmost row that
sheds cells and shed one cell fewer there: a row that may shed two cells
may shed one, the row ends one cell longer than before, so still longer
than the row below, and no longer than it was, so still shorter than the
unchanged row above.  That is a legal (r-1)-cell removal.  Dually, grow one
cell fewer in the lowest row that grows (dropping the new row (1) if it is
added).  Moving no nodes is the identity, so the label itself stands for the
lowering at a = 0 and the lowered vector for a raise by 0: no composite
calls _apply with r = 0.

runner_swap makes each label's terms in closed form, with no apply_e or
apply_f call.  A linear label's come from one scan of its eps-nodes.
Removing a set A of removable eps-nodes leaves every other eps-node as it
was and makes the nodes of A addable; that is exact for p >= 2, since a
removal changes whether a node is addable only at its own place and at its
two neighbours, whose residues eps - 1 and eps + 1 are not eps mod p.  So a
term of f_eps^(a+c) e_eps^(a) on la is la - A + B with B = B1 u B2, B1
among the addable rows and B2 in A, which is the label la - (A - B2) + B1.
Summing (-1)^|A| over every A that contains a fixed A - B2 gives zero
unless A - B2 is every removable row.  So S^(c) la = (-1)^m times the sum
of la - Rem + B over the (m + c)-subsets B of the addable eps-rows, Rem the
m removable ones; at the top degree B is all of them.

No such rule holds node by node for a spin label, where a removal can block
a growth in the row below, but one holds block by block.  The spin moves
shift beads inside the eps-blocks of partitions, one block at a time, and a
term's sqrt2 exponent is a sum over blocks.  So e_eps^(a) and f_eps^(b) are
sums of tensor products of per-block moves, and the swap factorises: S^(c)
is the sum, over the degrees c_j of the blocks with sum c, of the product
of the blocks' own swaps S_j^(c_j).  Summing the alternating two-step on one
block leaves at most one signed term per degree (_SWAP): a block with a
bottom bead and no top bead goes up by 0, 1 or 2, one with a top bead and
no bottom bead goes down by 2, and a middle block (the middle bead alone,
or the bottom and top beads without it) stays, times -1, or goes down by 1,
times -sqrt2.  The floor block of eps = 0 goes up by 0 or 1 without 1, and
down by 1, times -1, with it.  So runner_swap picks one row per block, its
degrees summing to c, with no cancelling term.

quot_reds takes a family of degrees d and makes each label's lowering
e_eps'^(a) e_eps^(a) once per a, from the least max(0, -d) up to m, for
all of them; each degree raises it for its own a >= max(0, -d).  Sharing is
exact because the lowering does not depend on d: every degree sums the same
terms in the same order as it would alone, and quot_red is the family of
one degree.  The raise of a lowered vector is the sum of its labels' raises
(_raise) times their coefficients.  That keeps the order in which raising
the vector whole first reaches each label, and, since one lowered label's
raise has a sqrt2 exponent of one parity on each term, each coordinate's
type too.  Raising the vector whole drops no term as zero that the sum
would keep: the lowering of one input label, and each raise of it, is the
label's coefficient times a sum with coefficients in N[sqrt2].
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from barspin.partitions import (
    addable_rows,
    check_partition,
    check_residue,
    check_strict,
    conjugate,
    format_partition,
    label_from_beads,
    removable_rows,
    remove_all_spin_removable,
    size,
    spin_additions,
    spin_blocks,
    spin_removals,
    union_parts,
)
from barspin.scalars import Scalar, mul_sqrt2_pow, sqrt2


@dataclass
class CharVector:
    """pairs maps each label with a nonzero coefficient a + b sqrt2 to (a, b)."""

    basis: str
    n: int
    pairs: dict

    @property
    def coeffs(self):
        """The coefficients as Scalars: a new dict on each read."""
        return {label: Scalar(a, b) for label, (a, b) in self.pairs.items()}

    def is_zero(self):
        return not self.pairs

    def labels(self):
        return sorted(self.pairs, reverse=True)


def _add(acc, w, sign):
    """Add sign * w into acc, a dict of (a, b) pairs, in first-seen order."""
    for label, (a, b) in w.pairs.items():
        x, y = acc.get(label, (0, 0))
        acc[label] = (x + sign * a, y + sign * b)


def _nonzero(basis, n, acc):
    """The vector of the pairs in acc, zeros dropped."""
    return CharVector(basis, n, {label: ab for label, ab in acc.items() if ab[0] or ab[1]})


def _checked(basis, label):
    """label as a tuple, checked against the basis."""
    if basis not in ("linear", "spin"):
        raise ValueError(f"unknown basis {basis!r}")
    label = tuple(label)
    (check_strict if basis == "spin" else check_partition)(label)
    return label


def unit(basis, label):
    label = _checked(basis, label)
    return CharVector(basis, size(label), {label: (1, 0)})


# ---------------------------------------------------------------------------
# branching operators

def _check_operator(basis, eps, p):
    check_residue(eps, p)
    if basis == "spin" and p != 2:
        raise ValueError("spin operators exist only for p = 2")


def _check_degree(name, x, nonnegative=False):
    """An operator degree is an int (a bool is not one); r, a count of
    nodes moved, is also at least 0."""
    if type(x) is not int or nonnegative and x < 0:
        kind = "a non-negative integer" if nonnegative else "an integer"
        raise ValueError(f"{name} must be {kind}, got {x!r}")


@lru_cache(maxsize=None)
def _moves(basis, label, eps, r, p, grow):
    """The terms that moving r nodes of residue eps makes of one label, as
    (new label, k) pairs with coefficient sqrt2^k, in the order _apply adds
    them.  Linear basis: one term per r-subset of the removable (addable)
    eps-rows, k = 0.  Each subset changes its rows by one cell; the nodes
    are corners, so the result is a partition.  Spin basis: one term per
    way of shedding (growing) r end cells of spin residue eps, at most two
    per row, that leaves a strict partition, k the number of even integers
    that are a part of exactly one of the old and new labels.  The table
    lives for one suite run: verify.run_suite empties it first."""
    if basis == "linear":
        rows = (addable_rows if grow else removable_rows)(label, eps, p)
        return tuple((new, 0) for new in
                     _shift([*label, 0], itertools.combinations(rows, r), 1 if grow else -1))
    evens = {x for x in label if x % 2 == 0}
    return tuple((new, len(evens ^ {x for x in new if x % 2 == 0}))
                 for new in (spin_additions if grow else spin_removals)(label, eps, r))


def _apply(v, eps, r, p, grow):
    """Remove (grow=False) or add r nodes of residue eps in all legal ways:
    each label's terms, read from _moves, times its coefficient.  Moving
    no nodes is the identity."""
    _check_operator(v.basis, eps, p)
    _check_degree("r", r, nonnegative=True)
    acc = {}
    for label, (a, b) in v.pairs.items():
        for new, k in _moves(v.basis, label, eps, r, p, grow):
            c, d = mul_sqrt2_pow(a, b, k) if k else (a, b)
            x, y = acc.get(new, (0, 0))
            acc[new] = (x + c, y + d)
    return _nonzero(v.basis, v.n + (r if grow else -r), acc)


def _shift(rows, subsets, step):
    """The label of rows with each row of one subset moved by step and zero
    rows dropped, for each subset in turn."""
    for sub in subsets:
        new = rows.copy()
        for i in sub:
            new[i] += step
        yield tuple(filter(None, new))


def apply_e(v, eps, r=1, p=2):
    """Remove r nodes of residue eps in all legal ways at once (p = 2 only
    in the spin basis); see _apply for the terms and their coefficients."""
    return _apply(v, eps, r, p, grow=False)


def apply_f(v, eps, r=1, p=2):
    """Add r nodes of residue eps in all legal ways at once; dual to apply_e."""
    return _apply(v, eps, r, p, grow=True)


# ---------------------------------------------------------------------------
# runner swap and quotient redistribution

def _removable_count(basis, label, eps):
    """m, the number of removable eps-nodes of one label (p = 2)."""
    if basis == "linear":
        return len(removable_rows(label, eps))
    return size(label) - size(remove_all_spin_removable(label, eps))


def _linear_runner_swap(acc, label, pair, eps, c, p):
    """Add the degree-c runner swap of one linear label, times pair, into
    acc in closed form (see runner_swap): lower every removable eps-row
    once, then raise each (m + c)-subset of the addable ones, in ascending
    rows, each term times (-1)^m."""
    rem = removable_rows(label, eps, p)
    m = len(rem)
    if m + c >= 0:
        low = [part - (i in rem) for i, part in enumerate((*label, 0))]
        a, b = (-pair[0], -pair[1]) if m % 2 else pair
        for new in _shift(low, itertools.combinations(addable_rows(label, eps, p), m + c), 1):
            x, y = acc.get(new, (0, 0))
            acc[new] = (x + a, y + b)


# The runner swap of one eps-block by key (see partitions' spin section):
# rows (degree, new key, sign, sqrt2 exponent), degree ascending.  Empty and
# full blocks are the identity at degree 0.
_SWAP = {
    1: ((0, 1, 1, 0), (1, 2, 1, 1), (2, 4, 1, 0)),  # bottom bead
    3: ((0, 3, 1, 0), (1, 5, 1, 1), (2, 6, 1, 0)),  # bottom and middle beads
    4: ((-2, 1, 1, 0),),  # top bead
    6: ((-2, 3, 1, 0),),  # middle and top beads
    2: ((-1, 1, -1, 1), (0, 2, -1, 0)),  # middle bead
    5: ((-1, 3, -1, 1), (0, 5, -1, 0)),  # bottom and top beads
    8: ((0, 8, 1, 0), (1, 12, 1, 0)),  # floor block, 1 not a part
    12: ((-1, 8, -1, 0),),  # floor block, 1 a part
}


def _spin_runner_swap(acc, label, pair, eps, c):
    """Add the degree-c runner swap of one strict label, times pair, into
    acc in closed form (see runner_swap): one _SWAP row per block, top
    block first, the degrees summing to c.  A pick whose remaining degree
    the blocks below cannot reach is dropped at once."""
    beads, blocks = spin_blocks(label, eps)
    rows = [[(d, (key ^ new) << shift, s, k) for d, new, s, k in _SWAP[key]] for shift, key in blocks]
    lo, hi = [0], [0]  # lo[i], hi[i]: the least and most degree of blocks i, i+1, ...
    for r in reversed(rows):
        lo.append(lo[-1] + r[0][0])
        hi.append(hi[-1] + r[-1][0])
    lo.reverse()
    hi.reverse()
    states = [(0, c, 1, 0)] if lo[0] <= c <= hi[0] else []
    for r, least, most in zip(rows, lo[1:], hi[1:]):
        states = [(x ^ dx, left - d, sign * s, k + dk) for x, left, sign, k in states
                  for d, dx, s, dk in r if least <= left - d <= most]
    for x, _, sign, k in states:
        a, b = mul_sqrt2_pow(*pair, k) if k else pair
        new = label_from_beads(beads ^ x, eps)
        y, z = acc.get(new, (0, 0))
        acc[new] = (y + sign * a, z + sign * b)


def runner_swap(v, eps, c, p=2):
    """The degree-c runner swap: sum over a of
    (-1)^a f_eps^(a+c) e_eps^(a), rightmost factor applied first.

    Each label takes the closed form that the module docstring derives,
    with no loop over a.  A linear label: (-1)^m times the sum of
    la - Rem + B over the (m + c)-subsets B of the addable eps-rows, Rem
    the m removable ones, so no term for m + c < 0.  A strict label: the
    product of its eps-blocks' own swaps, one _SWAP row per block with the
    degrees summing to c, so no term outside [-m, n_eps].

    The alternative global sign (-1)^(a+c) differs only by the factor
    (-1)^c, invisible for even c; the convention here is pinned by the
    odd-p worked example S_2^(1) on (9,8,5,1^5) in the verify suite.
    """
    _check_operator(v.basis, eps, p)
    _check_degree("c", c)
    acc = {}
    for label, pair in v.pairs.items():
        if v.basis == "linear":
            _linear_runner_swap(acc, label, pair, eps, c, p)
        else:
            _spin_runner_swap(acc, label, pair, eps, c)
    return _nonzero(v.basis, v.n + c, acc)


@lru_cache(maxsize=None)
def _raise(basis, label, eps, k):
    """f_eps^(k) f_eps'^(k) of one label, eps' = 1 - eps, k >= 1: its
    (new label, x, y) terms with coefficient x + y sqrt2, in the order the
    two apply_f steps make them.  One of x and y is 0, since the parity of
    a term's sqrt2 exponent is that of the even parts it flips.  The table
    lives for one suite run: verify.run_suite empties it first."""
    one = CharVector(basis, size(label), {label: (1, 0)})
    return tuple((new, x, y) for new, (x, y) in apply_f(apply_f(one, 1 - eps, k), eps, k).pairs.items())


def _add_raises(acc, basis, w, eps, k):
    """Add (-1)^k f_eps^(k) f_eps'^(k) w into acc, one _raise row per label
    of w times its coefficient.  A term times x (or y sqrt2) multiplies only
    the coordinate that the two steps would carry there, so each
    coordinate keeps the value and the type that raising w whole gives."""
    for label, (a, b) in w.pairs.items():
        if k % 2:
            a, b = -a, -b
        for new, x, y in _raise(basis, label, eps, k):
            c, d = (a * x, b * x) if x else (2 * b * y, a * y)
            s, t = acc.get(new, (0, 0))
            acc[new] = (s + c, t + d)


def quot_reds(v, eps, ds):
    """The quotient redistributions of v for each degree d in ds, one
    vector per degree in the order given: sum over a of (-1)^(a+d)
    f_eps^(a+d) f_eps'^(a+d) e_eps'^(a) e_eps^(a) with eps' the other
    residue, rightmost factor applied first.

    The lowering e_eps'^(a) e_eps^(a) of a label does not depend on d, so
    it is made once per a, from the least max(0, -d) up to m, and raised
    for each d with a + d >= 0; each degree sums the same terms in the same
    order as it would alone.  The raise adds each lowered label's row of
    the raise table (_raise), so a label lowered again, by another input
    label or another degree, is raised from the table.  No raise is made
    when the lowering gives zero, which no node count of the label
    foretells.  At a = 0 the lowering is the label itself, and at a + d = 0
    the raise is the lowering, so no apply call has r = 0."""
    _check_operator(v.basis, eps, 2)
    ds = tuple(ds)
    for d in ds:
        _check_degree("d", d)
    if not ds:
        return []
    ebar, accs = 1 - eps, [{} for _ in ds]
    start = min(max(0, -d) for d in ds)
    for label, pair in v.pairs.items():
        one = CharVector(v.basis, v.n, {label: pair})
        for a in range(start, _removable_count(v.basis, label, eps) + 1):
            w = apply_e(apply_e(one, eps, a), ebar, a) if a else one
            if w.is_zero():
                continue
            for acc, d in zip(accs, ds):
                k = a + d
                if k > 0:
                    _add_raises(acc, v.basis, w, eps, k)
                elif k == 0:
                    _add(acc, w, 1)
    return [_nonzero(v.basis, v.n + 2 * d, acc) for acc, d in zip(accs, ds)]


def quot_red(v, eps, d):
    """The degree-d quotient redistribution: the family of d alone in
    quot_reds, so a runs from max(0, -d) and the lowering, which does not
    depend on d, is shared with no other degree."""
    return quot_reds(v, eps, (d,))[0]


def swap_sign(basis, label, eps):
    """Sign carried by the top-degree runner swap on one label (p = 2):
    the parity of m, its number of removable eps-nodes.  In the linear
    basis swp removes every removable eps-node and adds every addable one,
    so m counts the removed nodes.  In the spin basis a block with a top
    bead sheds two nodes, a middle block one, and the floor block holding
    1 one, so m has the parity of the middle blocks and that floor block:
    the blocks whose top _SWAP row is negative.  The runner-swap-spin suite
    checks the rule against runner_swap label by label."""
    label = _checked(basis, label)
    _check_operator(basis, eps, 2)
    return -1 if _removable_count(basis, label, eps) % 2 else 1


# ---------------------------------------------------------------------------
# intermediate bipartitions and the closed matrix entries

def _choices(bounds, strict=False):
    """Weakly (or strictly) decreasing picks, one from each row's interval
    (lo, hi), with the zero rows dropped.  Built row by row in lexicographic
    order: each pick carries the cap of its next row, its last value (one
    less if strict), or 0 after a zero row."""
    picks = [((), bounds[0][1] if bounds else 0)]
    for lo, hi in bounds:
        picks = [(parts + (v,), v - strict) if v else (parts, 0)
                 for parts, cap in picks for v in range(lo, min(hi, cap) + 1)]
    return [parts for parts, _ in picks]


def _bounds(a, b):
    """Per-row intervals (lo, hi) for the partitions below both a and b by
    horizontal strips: row i is at most min(a_i, b_i) and at least
    max(a_{i+1}, b_{i+1}), one row per row of the longer.  One pass down
    the rows: each row closes the interval of the row above.  A vertical
    strip la/mu is a horizontal strip la'/mu' of the conjugates (Macdonald,
    Symmetric Functions and Hall Polynomials, I.1), so the vertical rules
    below conjugate first."""
    out, hi = [], None
    for x, y in itertools.zip_longest(a, b, fillvalue=0):
        if hi is not None:
            out.append((x if x > y else y, hi))
        hi = x if x < y else y
    if hi is not None:
        out.append((0, hi))
    return out


def interm(bla, bmu):
    """All bipartitions one layer below both bla and bmu: component 0 by
    horizontal strips, component 1 by vertical strips."""
    return list(itertools.product(_choices(_bounds(bla[0], bmu[0])), interm1(bla[1], bmu[1])))


def interm_signed_sum(bla, bmu):
    """Sum of (-1)^(|bmu| - |bnu|) over the intermediates below both.

    The sign is (-1)^|bmu| (-1)^|nu0| (-1)^|nu1|, so the sum is (-1)^|bmu|
    times one alternating count per component, and neither needs a list.
    Component 0's row intervals interlace (row i+1 is at most
    min(a_{i+1}, b_{i+1}) and row i at least max(a_{i+1}, b_{i+1})), so its
    count is the product over rows of the sum of (-1)^v over lo <= v <= hi:
    0 for an interval of even length, else (-1)^lo.  Component 1's count is
    the same product on the conjugates, which have the same sizes; they are
    built only once component 0's count is nonzero.  Each product is taken
    in the one pass down the rows that _bounds makes, with no list."""
    sign = -1 if (sum(bmu[0]) + sum(bmu[1])) % 2 else 1
    for a, b in ((bla[0], bmu[0]), map(conjugate, (bla[1], bmu[1]))):
        hi = None
        for x, y in itertools.zip_longest(a, b, fillvalue=0):
            if hi is not None:
                lo = x if x > y else y
                if lo > hi or (hi - lo) % 2:
                    return 0
                if lo % 2:
                    sign = -sign
            hi = x if x < y else y
        if hi is not None and hi % 2:  # the last row, lo = 0
            return 0
    return sign


def interm0(eta, theta):
    """Strict partitions under both eta and theta by horizontal strips."""
    return _choices(_bounds(eta, theta), strict=True)


def interm1(sigma, tau):
    """Partitions under both sigma and tau by vertical strips, in ascending
    order: the conjugates of those under sigma' and tau' by horizontal
    strips."""
    return sorted(map(conjugate, _choices(_bounds(conjugate(sigma), conjugate(tau)))))


def kom(eta, theta):
    """Number of integers that are a part of exactly one of the two."""
    return len(set(eta) ^ set(theta))


def b_sum(eta, theta):
    """Sum over the strict intermediates ze of strict eta and theta of
    (-1)^(|theta| - |ze|) sqrt2^(kom(eta, ze) + kom(theta, ze)): (-1)^|theta|
    sqrt2^(len eta + len theta) times a sum over picks, one per row of
    _bounds, of the product of w(v)/2, w(v) = (-1)^v 2^(2 - [v in eta] -
    [v in theta]) (+-4 strictly inside a row), w(0) = 2, rows with hi = 0
    left out.  One pass carries the sums over all picks and over those at
    their row's lower end: rows interlace, so only a pick lo = hi' of one row
    and the next is not strict, and then eta_i = theta_i = hi' > lo'.  The
    pass reads the rows as it goes, stops at the first empty one (lo > hi),
    builds the part sets only once a row is not empty, and returns the
    shared _ZERO for a zero sum."""
    e = t = hi = None
    total, at_lo, above = 1, 0, 0
    # a 0 closes both labels, so the last parts make the last row (0, hi)
    for x, y in itertools.zip_longest((*eta, 0), (*theta, 0), fillvalue=0):
        lo = x if x > y else y
        if hi is not None:
            if lo > hi:
                return _ZERO
            if not hi:
                break
            if e is None:
                e, t = set(eta), set(theta)
            top, bottom = _b_weight(hi, e, t), _b_weight(lo, e, t)
            row = top + (bottom + (hi - lo - 1) % 2 * (4 if lo % 2 else -4) if hi > lo else 0)
            total, at_lo, above = total * row - (at_lo * top if hi == above else 0), bottom * total, lo
        hi = x if x < y else y
    if not total:
        return _ZERO
    sign = -1 if sum(theta) % 2 else 1
    return Scalar(*mul_sqrt2_pow(sign * total, 0, abs(len(eta) - len(theta))))


def _b_weight(v, e, t):
    """b_sum's w(v) for the part sets e of eta and t of theta."""
    return (-4 if v % 2 else 4) >> ((v in e) + (v in t)) if v else 2


# b_closed's values, shared (a Scalar is immutable); a pair is indexed by sign parity
_ZERO, PM_ONE, PM_SQRT2 = Scalar(0), (Scalar(1), Scalar(-1)), (sqrt2, -sqrt2)


def b_closed(eta, theta):
    """Closed form for b_sum: nonzero only when theta is eta, or eta with
    one part of size |d| dropped or inserted, d the size difference."""
    eta, theta = tuple(eta), tuple(theta)
    d = size(theta) - size(eta)
    r = sum(1 for p in eta if p > abs(d))
    if d < 0 and -d in eta and theta == tuple(p for p in eta if p != -d):
        return PM_SQRT2[r % 2]
    if d == 0 and theta == eta:
        return PM_ONE[r % 2]
    if d > 0 and d not in eta and theta == union_parts(eta, (d,)):
        return PM_SQRT2[(r + d) % 2]
    return _ZERO


# ---------------------------------------------------------------------------
# printing

def format_label(basis, label):
    body = format_partition(label)
    return f"[{body}]" if basis == "linear" else f"<<{body}>>"


def format_vector(v):
    if v.is_zero():
        return "0"
    pieces = []
    coeffs = v.coeffs
    for label in v.labels():
        cs = str(coeffs[label])
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
