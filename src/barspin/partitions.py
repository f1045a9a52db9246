"""Partition and strict-partition combinatorics.

Partitions are tuples of weakly decreasing positive ints with no trailing
zeros; strict partitions decrease strictly.  Nodes are (row, column) pairs,
1-indexed.  Everything here is pure and exact.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from operator import ge, gt, sub


# ---------------------------------------------------------------------------
# parsing, validation, basic structure

def _parse_parts(text):
    """Parse 'INT(,INT)*' into a tuple of ints; '-' is the empty tuple.
    Each part is ASCII digits, with spaces allowed around it."""
    text = text.strip()
    if text == "-":
        return ()
    parts = [p.strip() for p in text.split(",")]
    if not all(p.isascii() and p.isdigit() for p in parts):
        raise ValueError(f"bad partition text {text!r}")
    return tuple(map(int, parts))


def parse_partition(text):
    """A partition: parts as `_parse_parts` reads them, weakly decreasing."""
    parts = _parse_parts(text)
    check_partition(parts)
    return parts


def parse_class(text):
    """A class is a multiset of cycle lengths, typed in any order; its
    parts come back sorted down."""
    parts = tuple(sorted(_parse_parts(text), reverse=True))
    check_partition(parts)
    return parts


def parse_strict(text):
    parts = parse_partition(text)
    check_strict(parts)
    return parts


def format_partition(la):
    return "-" if not la else ",".join(str(p) for p in la)


def _check_parts(la, order):
    """Whether every two neighbouring parts of the sequence la are in
    `order` (ge or gt), read in one type pass and one order pass.  A part
    that is not a positive int (a bool is not one) raises first; in order,
    the last part is the least."""
    if len({*map(type, la), int}) > 1:
        raise ValueError(f"parts must be positive integers: {la!r}")
    ordered = all(map(order, la, la[1:]))
    if la and (la[-1] if ordered else min(la)) <= 0:
        raise ValueError(f"parts must be positive integers: {la!r}")
    return ordered


def check_partition(la):
    if not _check_parts(la, ge):
        raise ValueError(f"parts must weakly decrease: {la!r}")


def check_class(nu):
    """A class is a multiset of cycle lengths: positive ints, in any order."""
    if any(type(p) is not int or p <= 0 for p in nu):
        raise ValueError(f"class parts must be positive integers: {nu!r}")


def check_size(n):
    """A size is a non-negative int (a bool is not one)."""
    if type(n) is not int or n < 0:
        raise ValueError(f"sizes must be non-negative integers: {n!r}")


def check_strict(al):
    if not _check_parts(al, gt):
        check_partition(al)  # a rise is named before a repeat
        raise ValueError(f"parts must strictly decrease: {al!r}")


def is_strict(al):
    try:
        check_strict(al)
    except ValueError:
        return False
    return True


def size(la):
    return sum(la)


def conjugate(la):
    """One pass up the rows: the conjugate has la_i - la_(i+1) parts equal
    to i."""
    rows = (*la, 0)
    return tuple(i for i in range(len(la), 0, -1) for _ in range(rows[i - 1] - rows[i]))


def cells(la):
    return [(r, c) for r in range(1, len(la) + 1) for c in range(1, la[r - 1] + 1)]


# ---------------------------------------------------------------------------
# enumeration (descending lexicographic everywhere, for reproducible reports)
#
# Size n is built from the memoized smaller sizes: a first part, then a
# partition of the rest whose first part is at most it (below it, for strict
# partitions).  Filtering keeps the descending order of each smaller size.

@lru_cache(maxsize=None)
def partitions_of(n):
    if n == 0:
        return ((),)
    return tuple((first,) + rest for first in range(n, 0, -1)
                 for rest in partitions_of(n - first) if not rest or rest[0] <= first)


@lru_cache(maxsize=None)
def strict_partitions_of(n):
    if n == 0:
        return ((),)
    return tuple((first,) + rest for first in range(n, 0, -1)
                 for rest in strict_partitions_of(n - first) if not rest or rest[0] < first)


@lru_cache(maxsize=None)
def odd_partitions_of(n):
    if n == 0:
        return ((),)
    return tuple((first,) + rest for first in range(n - 1 + n % 2, 0, -2)
                 for rest in odd_partitions_of(n - first) if not rest or rest[0] <= first)


def strict_partitions_upto(n):
    """All strict partitions of every size up to n."""
    out = []
    for m in range(n + 1):
        out.extend(strict_partitions_of(m))
    return out


# ---------------------------------------------------------------------------
# part-multiset helpers

def union_parts(*parts_lists):
    """Multiset union of parts, sorted into a partition."""
    merged = sorted(itertools.chain(*parts_lists), reverse=True)
    return tuple(merged)


def sum_parts(la, mu):
    """Componentwise sum (shorter padded with zeros)."""
    k = max(len(la), len(mu))
    out = tuple(
        (la[i] if i < len(la) else 0) + (mu[i] if i < len(mu) else 0)
        for i in range(k)
    )
    return tuple(p for p in out if p)


def scale_parts(la, c):
    return tuple(c * p for p in la)


def even_parts(la):
    return tuple(p for p in la if p % 2 == 0)


def odd_parts(la):
    return tuple(p for p in la if p % 2 == 1)


# ---------------------------------------------------------------------------
# residues and contents

def residue(r, c, p=2):
    check_modulus(p)
    return (c - r) % p


def spin_residue(c):
    """Spin residue of column c: the pattern 0,1,1,0,0,1,1,0,... for c=1,2,..."""
    return (c // 2) % 2


def check_modulus(p):
    """Residues are taken mod p for p >= 2 only."""
    if p < 2:
        raise ValueError(f"p = {p} is not at least 2")


def check_residue(eps, p=2):
    """A residue mod p is an int (a bool is not one) from 0 to p - 1, for
    p >= 2.  A bad p is named first; the row helpers call this once per
    label, so a good pair makes no further call."""
    if type(eps) is not int or not 0 <= eps < p or p < 2:
        check_modulus(p)
        raise ValueError(f"residues mod {p} must be integers from 0 to {p - 1}: {eps!r}")


def content_counts(la, p=2):
    """The number of cells of la of each residue mod p.  Row r holds a run
    of la_r consecutive contents, so each residue gets la_r // p of its
    cells and the la_r % p residues from residue(r, 1, p) on one more."""
    check_modulus(p)
    counts = [0] * p
    for r, part in enumerate(la, 1):
        whole, rest = divmod(part, p)
        first = residue(r, 1, p)
        for eps in range(p):
            counts[eps] += whole + ((eps - first) % p < rest)
    return tuple(counts)


def spin_content_counts(al):
    counts = [0, 0]
    for _, c in cells(al):
        counts[spin_residue(c)] += 1
    return tuple(counts)


# ---------------------------------------------------------------------------
# doubling and 2-regularization

def dbl(al):
    """Double of a strict partition: part 2k+1 becomes rows (k+1, k), part 2k
    becomes (k, k)."""
    rows = []
    for a in al:
        k, odd = divmod(a, 2)
        rows.append(k + odd)
        rows.append(k)
    return tuple(r for r in rows if r)


def ladder_counts(la):
    """Number of nodes on each ladder l = r + c - 1."""
    counts = {}
    for r, c in cells(la):
        l = r + c - 1
        counts[l] = counts.get(l, 0) + 1
    return counts


def regularize2(la):
    """2-regularization: slide every node to the top of its ladder."""
    counts = ladder_counts(la)
    rows = []
    r = 1
    while True:
        row = sum(1 for l, cnt in counts.items() if l >= r and cnt >= r)
        if row == 0:
            break
        rows.append(row)
        r += 1
    return tuple(rows)


# ---------------------------------------------------------------------------
# removable/addable nodes (linear side, any modulus p >= 2)

def removable_rows(la, eps, p=2):
    """The rows (from 0) of la that end in a removable eps-node, top down."""
    check_residue(eps, p)
    rows = (*la, 0)
    return [i for i, part in enumerate(la) if part > rows[i + 1] and (part - i - 1) % p == eps]


def addable_rows(la, eps, p=2):
    """The rows (from 0) of la + (0,) that end in an addable eps-node, top down."""
    check_residue(eps, p)
    rows = (*la, 0)
    return [i for i, part in enumerate(rows)
            if (not i or rows[i - 1] > part) and (part - i) % p == eps]


def remove_all_removable(la, eps, p=2):
    rows = list(la)
    for i in removable_rows(la, eps, p):
        rows[i] -= 1
    return tuple(filter(None, rows))


def n_eps(la, eps, p=2):
    """Net number of addable minus removable eps-nodes."""
    return len(addable_rows(la, eps, p)) - len(removable_rows(la, eps, p))


# ---------------------------------------------------------------------------
# beta-numbers, rim-hooks, cores

def beta_numbers(la, r=None):
    if r is None:
        r = len(la)
    if r < len(la):
        raise ValueError(f"need at least {len(la)} beta-numbers for {la}")
    padded = la + (0,) * (r - len(la))
    return [padded[i] + r - 1 - i for i in range(r)]


def partition_from_beta(beta):
    bs = sorted(beta, reverse=True)
    r = len(bs)
    if len(set(bs)) != r:
        raise ValueError(f"beta-numbers must be distinct: {beta}")
    if r and bs[-1] < 0:
        raise ValueError(f"beta-numbers must not be negative: {beta}")
    return tuple(filter(None, map(sub, bs, range(r - 1, -1, -1))))


def rim_hooks(la, k):
    """All k-rim-hook removals as (smaller partition, leg length) pairs,
    highest bead first: each strip of k places on the beta-set (`strips`),
    the leg being the number of beads it passes."""
    check_partition(la)
    if type(k) is not int or k < 1:
        raise ValueError(f"rim hooks have positive lengths only, got {k!r}")
    return [(partition_from_beta([b for b in range(new.bit_length()) if new >> b & 1]), leg)
            for new, leg in strips(beta_mask(la), k)]


def _check_core_length(k):
    """A core or weight length is an int (a bool is not one) >= 1."""
    if type(k) is not int or k < 1:
        raise ValueError(f"cores are defined for positive lengths only, got {k!r}")


def k_core(la, k):
    """The k-core: each runner of the k-abacus keeps its number of beads,
    slid to the top.  Only the runners that hold a bead are counted, so
    the cost does not grow with k."""
    check_partition(la)
    _check_core_length(k)
    counts = {}
    for b in beta_numbers(la):
        counts[b % k] = counts.get(b % k, 0) + 1
    return partition_from_beta([j + k * i for j, c in counts.items() for i in range(c)])


def k_weight(la, k):
    """The k-weight read off the k-abacus with one bead per part: the
    k-core keeps each runner's c beads at slots 0..c-1, so the weight is
    the sum of the beads' slots minus C(c, 2) for each runner.  One pass:
    each bead adds its slot less the beads already met on its runner."""
    check_partition(la)
    _check_core_length(k)
    r = len(la)
    on_runner = {}
    weight = 0
    for i, part in enumerate(la):
        slot, j = divmod(part + r - 1 - i, k)
        c = on_runner.get(j, 0)
        on_runner[j] = c + 1
        weight += slot - c
    return weight


# ---------------------------------------------------------------------------
# partitions as plain ints, for the memoized recursions of charvalues and
# symfunc; both strip a part k of the class by one move (`strips`): a set
# bit moves down k places to a clear one, its sign read off the bits passed.

def beta_mask(la):
    """The beta-set of la with one bead per part, as a bitmask: bead
    la[i] + len(la) - 1 - i for each row i, so no bead sits at 0."""
    r = len(la)
    mask = 0
    for i, part in enumerate(la):
        mask |= 1 << (part + r - 1 - i)
    return mask


def part_mask(al):
    """The set of parts of a strict partition, as a bitmask."""
    mask = 0
    for a in al:
        mask |= 1 << a
    return mask


def memo_key(nu, mask):
    """One int for a class nu of size m and the mask of a label of size m.

    The mask is below 2^(m + 1).  The class is m bits read from the top:
    each part p, in order, a one followed by p - 1 zeros.  So the key
    (class << (m + 1) | mask) has 2m + 1 bits and splits back into the
    two."""
    code = 0
    for p in nu:
        code = (code << p) | (1 << (p - 1))
    return code << (sum(nu) + 1) | mask


def split_key(key):
    """(mask, k, rest) for key = memo_key(nu, mask): k is nu[0], or 0 when
    nu is empty, and rest | mu == memo_key(nu[1:], mu) for the mask mu of
    any label of size |nu| - k."""
    m = key.bit_length() >> 1
    mask = key & ((2 << m) - 1)
    if not m:
        return mask, 0, 0
    rest = key >> (m + 1) ^ (1 << (m - 1))
    k = m - rest.bit_length()
    return mask, k, rest << (m - k + 1)


def strips(mask, k):
    """(mask with bit b moved to b - k, the number of set bits strictly
    between b - k and b) for each set bit b >= k of mask with bit b - k
    clear, highest b first; k >= 1."""
    between = (1 << (k - 1)) - 1
    movable = (mask & ~(mask << k)) >> k << k
    while movable:
        b = movable.bit_length() - 1
        movable ^= 1 << b
        yield mask ^ (1 << b) ^ (1 << (b - k)), (mask >> (b - k + 1) & between).bit_count()


# ---------------------------------------------------------------------------
# k-bar cores (odd k) and the 4-bar-core

def bar_core(al, k):
    """The k-bar core of a strict partition, k odd (Olsson 1993): on the
    k-abacus of the parts, runner 0 empties, and of runners j and k - j the
    one with more beads keeps the surplus, slid to the top.  Only the
    runners that hold a bead are counted, so the cost does not grow with k."""
    check_strict(al)
    if type(k) is not int or k < 1 or k % 2 == 0:
        raise ValueError(f"bars are defined for odd positive lengths only, got {k!r}")
    beads = {}
    for a in al:
        beads[a % k] = beads.get(a % k, 0) + 1
    return tuple(sorted((j + k * i for j, c in beads.items() if j
                         for i in range(c - beads.get(k - j, 0))), reverse=True))


def bar_weight(al, k):
    core = bar_core(al, k)
    return (size(al) - size(core)) // k


def largest_odd_bar(al):
    """(length, result) for the longest odd bar of a nonempty strict partition."""
    if not al:
        raise ValueError("the empty partition has no bars")
    odds = odd_parts(al)
    evens = even_parts(al)
    if not evens:
        return al[0], al[1:]
    if not odds:
        rest = [p for p in al[1:]] + [1]
        return al[0] - 1, tuple(sorted(rest, reverse=True))
    o, e = odds[0], evens[0]
    return o + e, tuple(p for p in al if p != o and p != e)


def four_bar_core(al):
    """(core, weight): the weight counts removed nodes in units of 2.

    A 4-bar move drops an even part, drops two parts summing to a multiple
    of 4, or lowers an odd part by 4, so it keeps d = #(parts = 1 mod 4) -
    #(parts = 3 mod 4).  The 4-bar cores are the bar staircases, one for
    each d (bars and 4-bar cores: Olsson 1993)."""
    check_strict(al)
    d = sum(1 if p % 4 == 1 else -1 for p in al if p % 2)
    core = bar_staircase(2 * d - 1 if d > 0 else -2 * d)
    return core, (size(al) - size(core)) // 2


# ---------------------------------------------------------------------------
# staircases

def staircase(r):
    return tuple(range(r, 0, -1))


def bar_staircase(a):
    """The 4-bar-cores: (2a-1, 2a-5, ...) down to 3 or 1; empty for a = 0."""
    out = []
    part = 2 * a - 1
    while part > 0:
        out.append(part)
        part -= 4
    return tuple(out)


# ---------------------------------------------------------------------------
# spin nodes: simultaneous end-of-row removals/additions for strict partitions
#
# A residue-eps spin move sheds (grows) end cells of spin residue eps, up to
# two per row, and leaves a strict partition.  Growing runs on al + (0,), so
# the new row (1) is a zero part growing one cell, with no special case.  The
# legal moves are closed under taking the larger move in each row: the new
# parts are the row-wise min (max) of two strictly decreasing sequences,
# which decreases strictly, and each row's options {0}, {0, 1} or {0, 1, 2}
# are closed downwards.  So there is a unique largest move, and its cells
# hold every cell that any move sheds (grows): those are the spin-removable
# (addable) eps-nodes.  The greedy `_largest_move` finds it.

def _spin_options(part, eps, sign):
    """How many end cells (0, 1 or 2) a row of this size may shed (sign -1)
    or grow (sign +1) with every moved cell of spin residue eps."""
    first = part if sign < 0 else part + 1  # column of the first cell moved
    if first < 1 or spin_residue(first) != eps:
        return (0,)
    # columns c and c + 1 share a spin residue only for even c
    return (0, 1, 2) if first + sign >= 1 and spin_residue(first + sign) == eps else (0, 1)


def _spin_moves(rows, eps, sign, count):
    """Every strict partition left by moving exactly count cells, one pick
    of options per row, keeping the rows strictly decreasing (a trailing 0
    allowed), built row by row.  Picks that cannot end at count cells are
    dropped as early as possible."""
    opts = [_spin_options(part, eps, sign) for part in rows]
    room = [0]  # room[i]: the most cells rows i, i+1, ... can still move
    for o in reversed(opts):
        room.append(room[-1] + o[-1])
    room.reverse()
    states = [((), 0)]
    for part, row_opts, rest in zip(rows, opts, room[1:]):
        nxt = []
        for parts, moved in states:
            for k in row_opts:
                new = part + sign * k
                if parts and new >= parts[-1]:
                    continue
                if not moved + k <= count <= moved + k + rest:
                    continue
                nxt.append((parts + (new,), moved + k))
        states = nxt
    return [tuple(filter(None, parts)) for parts, moved in states if moved == count]


def spin_removals(al, eps, count):
    """Every strict partition left by shedding exactly count end cells of
    spin residue eps, up to 2 per row."""
    check_residue(eps)
    return _spin_moves(al, eps, -1, count)


def spin_additions(al, eps, count):
    """Every strict partition made by growing exactly count end cells of
    spin residue eps, up to 2 per row, the new row (1) included."""
    check_residue(eps)
    return _spin_moves(al + (0,), eps, 1, count)


def _largest_move(rows, eps, sign):
    """Rows after the largest move (sign as in `_spin_moves`, a trailing 0
    kept), greedily from the bottom row up for a removal and the top row
    down for an addition: each row moves the most it may and stays strictly
    beyond the new end of the row before it, the furthest any move takes it."""
    moved = []
    for part in rows if sign > 0 else reversed(rows):
        moved.append(next(part + sign * k for k in reversed(_spin_options(part, eps, sign))
                          if not moved or sign * (moved[-1] - part - sign * k) > 0))
    return moved if sign > 0 else moved[::-1]


def spin_n_eps(al, eps):
    """Spin-addable minus spin-removable eps-nodes: the cells the largest
    addition grows minus the cells the largest removal sheds."""
    check_residue(eps)
    return sum(_largest_move(al + (0,), eps, 1)) + sum(_largest_move(al, eps, -1)) - 2 * size(al)


def remove_all_spin_removable(al, eps):
    """Shed every spin-removable eps-node at once: the largest removal."""
    check_residue(eps)
    return tuple(filter(None, _largest_move(al, eps, -1)))
