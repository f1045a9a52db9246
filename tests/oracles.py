"""Independent routes that the tests check the library against.

None of these is library code: each recomputes a quantity the library has
one production route for, by a slower or more literal construction.

- Corner helpers that validate every node they move, used by the operator
  tests to apply linear moves node by node.
- Partitions, strict partitions and partitions into odd parts as a set of
  part multisets, with no order rule, and the conjugate by counting the
  rows that reach each column.
- The label checks as two `any` passes, one over the parts and one over
  the neighbouring pairs (the reference for the single-pass checks of
  `partitions`).
- The spin moves by brute force over every strict label of the right size.
- The spin moves row by row, the routes that the eps-blocks of
  `partitions` replaced: each row's options, every move built row by row
  with a state list, the greedy largest move, and what the library reads
  off it (n_eps and the full removal); and the spin runner swap as the
  two steps on those moves (the oracle for the block table of
  `charspace.runner_swap`).
- The spin-removable and spin-addable nodes as the union of the cells moved
  by every legal move, over every count, and what the library reads off
  those nodes (their counts, the full removal and the runner-swap sign).
- The strict-label parsers that `classify.spin_rock_decompose` replaced:
  the index of a bar staircase, FSAS read off the halved even parts, and
  the RoCK decomposition that checks each difference from the bar
  staircase and the order of sigma; and the predicted pairs as a filter
  of every strict partition through `classify.fsas_decompose` (the route
  that the enumeration of the triples (a, r, s) replaced).
- The labels of the linear quotient-redistribution sweep as a filter of
  every partition through `abacus.two_quotient` (the route that building
  them from their (core, quotient) coordinates replaced).
- The 4-bar core by greedy 4-bar moves, and the k-bars of a strict label
  as tuples with the k-bar core by greedy k-bar removals (the oracles for
  the closed forms of `partitions.four_bar_core` and `partitions.bar_core`).
- The sum and the scalar multiple of z_nu-scaled polynomials, dropping
  zero coefficients as `symfunc.poly_mul` does.
- Plain power-sum coefficients of the library's z_nu-scaled polynomials,
  and h_r and q_r by Newton's recursions on those plain coefficients.  The
  Newton h_r checks the closed form of `symfunc.h_poly`; the Newton q_r
  checks Morris's bar recursion on the one-row labels, since `symfunc.q_poly`
  is Q_(r) read off it.
- Schur's Q_alpha as the Pfaffian of the two-row Q_(a,b), built from the
  Newton q_r, and P_alpha from it (the oracles for `symfunc.schur_q_poly`
  and `symfunc.schur_p_poly`, which read both off the bar recursion).
- The P-basis transition matrix, its rows P_alpha by the Pfaffian, solved
  by Gauss-Jordan, and the expansion of a polynomial in {P_alpha} through
  it (the oracle for Morris's bar recursion).
- Schur s_la at rational points by brute force over tableaux, and Q_alpha
  and P_alpha over marked shifted tableaux filled cell by cell (the
  oracle for the last-letter recursion of `symfunc.monomial_schur_q`).
- The involution omega on the power sums, with which the tests check
  s_la' = omega s_la and omega Q_alpha = Q_alpha.
- The proportionality scan grouped on the values at its first class,
  computed by the rim-hook recursion and Morris's formula or read from the
  cached int rows (the oracle for the closed keys of `charvalues.scan`),
  with the values over the degree as Fractions (the route that the scan's
  cross-multiplied ints replaced, cold and cached), and the scan's key hits as a filter over every partition of
  n (the oracle for its pruned walk).
- The tuple recursions that the bitmask kernels replaced: the k-rim hooks
  as moves on a list of beta-numbers (the oracle for `partitions.rim_hooks`,
  which reads the kernels' bitmask strips), Murnaghan-Nakayama over them
  with the hook length formula at (1^m), Morris's bar recursion over the
  tuple k-bars above (also the oracle for Schur's closed form of the spin
  degree, which the bar kernel reads at (1^m)), and the content power sums
  of the linear key summed cell by cell.
- The operator-layer routes replaced by counting and row-by-row passes: the
  linear node lists as row loops, the k-core from sorted runner lists, the
  2-quotient and its inverse on the display's bead set, the k-weight as
  the size that the k-core sheds, the 2-quotient read after the 2-core is
  built by `partitions.k_core`, and its inverse that checks the core by the
  slot sums and sorts the beads through `partition_from_beta` (the routes
  that the bead counts of `partitions.k_weight` and `abacus` replaced),
  the linear swap sign through `swp` and the diagram intersection, the
  intermediates as a filtered product, the vertical-strip intervals read off the rows and the
  signed count run on them row by row (both replaced by horizontal strips
  of the conjugates), the signed sum over the `interm1` list, the row
  intervals on padded, reversed copies and the signed sum over their list
  (both replaced by one pass down the rows), B(eta,
  theta) summed over the `interm0` list (the route the row pass of
  `charspace.b_sum` replaced), the composites that run a until e_eps^(a)
  vanishes, a vector times a Scalar, and a vector summed from checked
  (label, coefficient) items.
"""

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from operator import ge, gt

from barspin import charspace as cs, charvalues as cv
from barspin.abacus import bswp, canonical_bead_count, swp, two_quotient
from barspin.classify import FsasDecomposition, fsas_decompose, ratio_exponent
from barspin.partitions import (
    bar_staircase,
    beta_numbers,
    cells,
    check_partition,
    check_strict,
    conjugate,
    even_parts,
    k_core,
    memo_key,
    odd_partitions_of,
    odd_parts,
    part_mask,
    partition_from_beta,
    partitions_of,
    residue,
    size,
    spin_additions,
    spin_removals,
    spin_residue,
    strict_partitions_of,
)
from barspin.scalars import Scalar, mul_sqrt2_pow
from barspin.symfunc import p_in_P_coefficient, poly_mul, z_order


# ---------------------------------------------------------------------------
# validating corner moves

def _check_rows_distinct(la, nodes):
    rows = [r for r, _ in nodes]
    if len(set(rows)) != len(rows):
        raise ValueError(f"more than one node per row in {nodes!r} for {la}")


def remove_corner_set(la, nodes):
    """Remove a set of removable corners (at most one per row)."""
    _check_rows_distinct(la, nodes)
    lst = list(la)
    for r, c in nodes:
        if r > len(lst) or lst[r - 1] != c:
            raise ValueError(f"{(r, c)} is not a corner of {la}")
        lst[r - 1] -= 1
    out = tuple(p for p in lst if p)
    check_partition(out)
    return out


def add_corner_set(la, nodes):
    """Add a set of addable nodes (at most one per row)."""
    _check_rows_distinct(la, nodes)
    lst = list(la)
    for r, c in nodes:
        if r == len(lst) + 1:
            if c != 1:
                raise ValueError(f"{(r, c)} is not addable to {la}")
            lst.append(1)
        elif r <= len(lst) and lst[r - 1] + 1 == c:
            lst[r - 1] += 1
        else:
            raise ValueError(f"{(r, c)} is not addable to {la}")
    out = tuple(lst)
    check_partition(out)
    return out


# ---------------------------------------------------------------------------
# partitions as part multisets

@lru_cache(maxsize=None)
def partition_set(n):
    """Every multiset of positive parts summing to n, as a weakly
    decreasing tuple: one more part joined to each multiset of a smaller
    sum, deduplicated."""
    if n == 0:
        return frozenset({()})
    return frozenset(tuple(sorted(rest + (k,), reverse=True))
                     for k in range(1, n + 1) for rest in partition_set(n - k))


def conjugate_by_columns(la):
    """partitions.conjugate by the column-count rule: part c of the
    conjugate counts the rows of la that reach column c."""
    return tuple(sum(1 for p in la if p >= c) for c in range(1, (la[0] if la else 0) + 1))


def check_partition_by_any(la):
    """partitions.check_partition as two `any` passes over the parts and
    the neighbouring pairs."""
    if any(type(p) is not int or p <= 0 for p in la):
        raise ValueError(f"parts must be positive integers: {la!r}")
    if any(la[i] < la[i + 1] for i in range(len(la) - 1)):
        raise ValueError(f"parts must weakly decrease: {la!r}")


def check_strict_by_any(al):
    """partitions.check_strict as check_partition_by_any, then one more
    `any` pass for a repeat."""
    check_partition_by_any(al)
    if any(al[i] == al[i + 1] for i in range(len(al) - 1)):
        raise ValueError(f"parts must strictly decrease: {al!r}")


# ---------------------------------------------------------------------------
# spin moves by brute force

def _end_cells_ok(short, long, eps):
    """The row long is the row short plus at most two end cells, all of
    spin residue eps."""
    return 0 <= long - short <= 2 and all(spin_residue(c) == eps for c in range(short + 1, long + 1))


def spin_removals_brute(al, eps, count):
    """Every strict label of size |al| - count with at most len(al) rows,
    each row shorter than al's by at most two end cells of residue eps."""
    if count > size(al):
        return set()
    return {be for be in strict_partitions_of(size(al) - count)
            if len(be) <= len(al)
            and all(_end_cells_ok(b, a, eps) for a, b in itertools.zip_longest(al, be, fillvalue=0))}


def spin_additions_brute(al, eps, count):
    """Every strict label of size |al| + count that grows each row of al by
    at most two end cells of residue eps, with a new last row (1) only when
    eps = 0."""
    out = set()
    for be in strict_partitions_of(size(al) + count):
        if len(be) == len(al) + 1 and not (be[-1] == 1 and eps == 0):
            continue
        if len(be) in (len(al), len(al) + 1) and all(
                _end_cells_ok(a, b, eps) for a, b in zip(al, be)):
            out.add(be)
    return out


# ---------------------------------------------------------------------------
# spin moves row by row
#
# Growing runs on al + (0,), so the new row (1) is a zero part growing one
# cell.  The legal moves are closed under taking the larger move in each
# row: the new parts are the row-wise min (max) of two strictly decreasing
# sequences, which decreases strictly, and each row's options {0}, {0, 1}
# or {0, 1, 2} are closed downwards.  So there is a unique largest move,
# found greedily.

def spin_options(part, eps, sign):
    """How many end cells (0, 1 or 2) a row of this size may shed (sign -1)
    or grow (sign +1) with every moved cell of spin residue eps."""
    first = part if sign < 0 else part + 1  # column of the first cell moved
    if first < 1 or spin_residue(first) != eps:
        return (0,)
    # columns c and c + 1 share a spin residue only for even c
    return (0, 1, 2) if first + sign >= 1 and spin_residue(first + sign) == eps else (0, 1)


def spin_moves_by_rows(rows, eps, sign, count):
    """Every strict partition left by moving exactly count cells, one pick
    of options per row, keeping the rows strictly decreasing (a trailing 0
    allowed), built row by row.  Picks that cannot end at count cells are
    dropped as early as possible."""
    opts = [spin_options(part, eps, sign) for part in rows]
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


def spin_removals_by_rows(al, eps, count):
    return spin_moves_by_rows(al, eps, -1, count)


def spin_additions_by_rows(al, eps, count):
    return spin_moves_by_rows(al + (0,), eps, 1, count)


def largest_move_by_rows(rows, eps, sign):
    """Rows after the largest move (sign as in spin_moves_by_rows, a
    trailing 0 kept), greedily from the bottom row up for a removal and the
    top row down for an addition: each row moves the most it may and stays
    strictly beyond the new end of the row before it, the furthest any
    move takes it."""
    moved = []
    for part in rows if sign > 0 else reversed(rows):
        moved.append(next(part + sign * k for k in reversed(spin_options(part, eps, sign))
                          if not moved or sign * (moved[-1] - part - sign * k) > 0))
    return moved if sign > 0 else moved[::-1]


def spin_n_eps_by_rows(al, eps):
    """The cells the largest addition grows minus those the largest
    removal sheds."""
    return sum(largest_move_by_rows(al + (0,), eps, 1)) + sum(largest_move_by_rows(al, eps, -1)) - 2 * size(al)


def remove_all_spin_removable_by_rows(al, eps):
    return tuple(filter(None, largest_move_by_rows(al, eps, -1)))


def even_flips(al, be):
    """The even integers that are a part of exactly one of the two."""
    return len({p for p in al if p % 2 == 0} ^ {p for p in be if p % 2 == 0})


def spin_runner_swap_by_rows(al, eps, c):
    """sum over a of (-1)^a f_eps^(a+c) e_eps^(a) on <<al>>, with the row
    moves above, each term times sqrt2 to its even flips: {label: (a, b)}
    for each nonzero coefficient a + b sqrt2."""
    acc = {}
    for a in range(max(0, -c), size(al) + 1):
        for low in spin_removals_by_rows(al, eps, a):
            for new in spin_additions_by_rows(low, eps, a + c):
                x, y = mul_sqrt2_pow(-1 if a % 2 else 1, 0, even_flips(al, low) + even_flips(low, new))
                old = acc.get(new, (0, 0))
                acc[new] = (old[0] + x, old[1] + y)
    return {label: pair for label, pair in acc.items() if pair != (0, 0)}


# ---------------------------------------------------------------------------
# spin nodes from every move

def spin_removable_nodes_reference(al, eps):
    """Union of the cells shed by every residue-eps removal, every count."""
    out = set()
    for k in range(size(al) + 1):
        for be in spin_removals(al, eps, k):
            out |= set(cells(al)) - set(cells(be))
    return out


def spin_addable_nodes_reference(al, eps):
    """Union of the cells grown by every residue-eps addition, every count
    (at most two per row and one new row)."""
    out = set()
    for k in range(2 * len(al) + 2):
        for be in spin_additions(al, eps, k):
            out |= set(cells(be)) - set(cells(al))
    return out


def remove_all_spin_removable_reference(al, eps):
    """Shed the reference nodes row by row; each row's shed cells must be
    its last ones."""
    nodes = spin_removable_nodes_reference(al, eps)
    lst = list(al)
    for i in range(len(lst)):
        shed = sorted(c for r, c in nodes if r == i + 1)
        if shed:
            if shed != list(range(al[i] - len(shed) + 1, al[i] + 1)):
                raise ValueError(f"non-contiguous removal from row {i + 1} of {al}")
            lst[i] -= len(shed)
    out = tuple(p for p in lst if p)
    check_strict(out)
    return out


def min_parts(la, mu):
    """Componentwise minimum; the diagram intersection."""
    return tuple(filter(None, map(min, la, mu)))


def spin_swap_sign_reference(al, eps):
    """The runner-swap sign of charspace.swap_sign in the spin basis, from
    the reference nodes by the column-pair rule it replaced: the parity of
    the nodes outside bswp(al), plus the number of column pairs {d, d+1}
    (d = 2 eps mod 4, stepping by 4) holding both a removable and an
    addable eps-node."""
    removed = size(al) - size(min_parts(al, bswp(al, eps)))
    rem_cols = {c for _, c in spin_removable_nodes_reference(al, eps)}
    add_cols = {c for _, c in spin_addable_nodes_reference(al, eps)}
    top = (al[0] if al else 0) + 2
    hits = sum(1 for d in range(2 * eps % 4, top + 1, 4)
               if {d, d + 1} & rem_cols and {d, d + 1} & add_cols)
    return -1 if (removed + hits) % 2 else 1


# ---------------------------------------------------------------------------
# the 4-bar core and the k-bar cores by greedy moves

def four_bar_moves(al):
    """Results of a single 4-bar-core move: drop an even part, drop two parts
    summing to a multiple of 4, or lower an odd part > 4 by 4 if free."""
    pset = set(al)
    out = set()
    for a in al:
        if a % 2 == 0:
            out.add(tuple(p for p in al if p != a))
    for a, b in itertools.combinations(al, 2):
        if (a + b) % 4 == 0:
            out.add(tuple(p for p in al if p != a and p != b))
    for a in al:
        if a % 2 == 1 and a > 4 and (a - 4) not in pset:
            out.add(tuple(sorted((set(al) - {a}) | {a - 4}, reverse=True)))
    return sorted(out, reverse=True)


def four_bar_core_by_moves(al):
    """(core, weight) by taking the first 4-bar move until none is left."""
    cur = al
    while True:
        nxt = four_bar_moves(cur)
        if not nxt:
            break
        cur = nxt[0]
    w, rem = divmod(size(al) - size(cur), 2)
    assert rem == 0
    return cur, w


def bars(al, k):
    """Strict partitions obtained from al by removing one k-bar (k odd).

    A k-bar is a part equal to k, a pair of parts summing to k, or the last
    k nodes of a part a > k with a - k not already a part.
    """
    if k % 2 == 0:
        raise ValueError("bars are defined for odd lengths only")
    pset = set(al)
    out = set()
    for a in al:
        if a >= k:
            rest = a - k
            if rest == 0 or rest not in pset:
                new = [p for p in al if p != a]
                if rest:
                    new.append(rest)
                out.add(tuple(sorted(new, reverse=True)))
    for a, b in itertools.combinations(al, 2):
        if a + b == k:
            out.add(tuple(p for p in al if p != a and p != b))
    return sorted(out, reverse=True)


def bar_core_by_bars(al, k):
    """The k-bar core by taking the first k-bar removal until none is left."""
    cur = al
    while True:
        nxt = bars(cur, k)
        if not nxt:
            return cur
        cur = nxt[0]


# ---------------------------------------------------------------------------
# strict labels parsed on their own: the bar staircase index, FSAS by the
# halved even parts, and the RoCK decomposition with every check made

def bar_staircase_index(al):
    """a with al == bar_staircase(a), else None."""
    if not al:
        return 0
    a = (al[0] + 1) // 2
    return a if bar_staircase(a) == al else None


def fsas_decompose_by_halves(al):
    """FsasDecomposition for alpha, or None.

    The even parts, halved, must consist of the consecutive evens 2..2m and
    the consecutive odds 1..2k-1; the odd parts must form a 4-bar-core.
    """
    check_strict(al)
    a = bar_staircase_index(odd_parts(al))
    if a is None:
        return None
    halved = sorted(p // 2 for p in even_parts(al))
    hev = [p for p in halved if p % 2 == 0]
    hodd = [p for p in halved if p % 2 == 1]
    m = len(hev)
    k = len(hodd)
    if hev != list(range(2, 2 * m + 1, 2)) or hodd != list(range(1, 2 * k, 2)):
        return None
    if m >= k:
        dec = FsasDecomposition(a, m + k, m - k)
    else:
        dec = FsasDecomposition(a, m + k, k - m - 1)
    if dec.rebuild() != al:
        return None
    return dec


def spin_rock_decompose_checked(al):
    """(b, sigma, eta) with alpha = (bar_staircase(b) + 4*sigma) U 2*eta,
    or None; every difference from the bar staircase is checked to be a
    non-negative multiple of 4, and sigma to be a partition."""
    check_strict(al)
    odds = odd_parts(al)
    if len({p % 4 for p in odds}) > 1:
        return None
    m = len(odds)
    if m == 0:
        b = 0
    elif odds[-1] % 4 == 1:
        b = 2 * m - 1
    else:
        b = 2 * m
    base = bar_staircase(b)
    sigma = []
    for i in range(m):
        diff = odds[i] - base[i]
        if diff < 0 or diff % 4:
            return None
        sigma.append(diff // 4)
    if any(sigma[i] < sigma[i + 1] for i in range(m - 1)):
        return None
    sigma = tuple(p for p in sigma if p)
    eta = tuple(p // 2 for p in even_parts(al))
    return b, sigma, eta


def predicted_pairs_by_filter(n):
    """`classify.predicted_pairs` as a filter: every strict partition of n
    through `fsas_decompose`, in place of the triples (a, r, s) of size n."""
    out = []
    for al in strict_partitions_of(n):
        dec = fsas_decompose(al)
        if dec is None:
            continue
        la, conj = dec.linear_labels()
        e = ratio_exponent(al)
        out.append((al, la, e))
        if conj != la:
            out.append((al, conj, e))
    return sorted(out)


def linear_quot_red_labels_by_filter(bound):
    """`verify._linear_quot_red_labels` as a filter: every partition of size
    <= bound, in partitions_of order, through `two_quotient`, kept when some
    d in [-2, 2] has w + d >= 0 and max(w, w + d) <= len(core) + 1, w its
    2-weight, with those degrees."""
    out = []
    for n in range(bound + 1):
        for la in partitions_of(n):
            core, quotient = two_quotient(la)
            w = size(quotient[0]) + size(quotient[1])
            ds = [d for d in range(-2, 3) if w + d >= 0 and max(w, w + d) <= len(core) + 1]
            if ds:
                out.append((la, core, quotient, ds))
    return out


# ---------------------------------------------------------------------------
# the sum and the scalar multiple of z_nu-scaled polynomials, for the
# Pfaffian oracles and the polynomial algebra test (`symfunc.schur_poly`
# adds its signed terms into one dict)

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


# ---------------------------------------------------------------------------
# plain power-sum coefficients, and the generators by Newton's recursions

def plain(poly):
    """{nu: coefficient of p_nu} for a z_nu-scaled library polynomial."""
    return {nu: Fraction(c, z_order(nu)) for nu, c in poly.items()}


def _newton_step(r, ks, weight, lower):
    """weight * sum over k in ks of p_k times lower(r - k), plain coefficients."""
    acc = {}
    for k in ks:
        for nu, c in lower(r - k).items():
            key = tuple(sorted(nu + (k,), reverse=True))
            acc[key] = acc.get(key, Fraction(0)) + c * weight
    return {nu: c for nu, c in acc.items() if c}


@lru_cache(maxsize=None)
def q_poly_newton(r):
    """Schur's q_r with plain coefficients: r q_r = 2 sum over odd k <= r
    of p_k q_(r-k)."""
    if r == 0:
        return {(): Fraction(1)}
    return _newton_step(r, range(1, r + 1, 2), Fraction(2, r), q_poly_newton)


@lru_cache(maxsize=None)
def h_poly_newton(r):
    """h_r with plain coefficients: r h_r = sum over k <= r of p_k h_(r-k)."""
    if r == 0:
        return {(): Fraction(1)}
    return _newton_step(r, range(1, r + 1), Fraction(1, r), h_poly_newton)


# ---------------------------------------------------------------------------
# Schur Q and P by the Pfaffian of two-row values

@lru_cache(maxsize=None)
def q_scaled(r):
    """Schur's q_r, z_nu-scaled, from Newton's recursion."""
    return {nu: int(c * z_order(nu)) for nu, c in q_poly_newton(r).items()}


@lru_cache(maxsize=None)
def q_two_row(a, b):
    """Q_(a,b) for a > b >= 0: q_a q_b + 2 sum over 1 <= i <= b of
    (-1)^i q_(a+i) q_(b-i)."""
    acc = q_scaled(a)
    if b:
        acc = poly_mul(acc, q_scaled(b))
    for i in range(1, b + 1):
        term = poly_mul(q_scaled(a + i), q_scaled(b - i))
        acc = poly_add(acc, poly_scale(term, 2 * (-1) ** i))
    return acc


def _pfaffian(m):
    """Pfaffian of an antisymmetric matrix of polynomials (even dimension),
    expanding along the first remaining row, memoized on the index set."""
    cache = {}

    def rec(rows):
        if rows in cache:
            return cache[rows]
        if not rows:
            return {(): 1}
        i = rows[0]
        rest = rows[1:]
        acc = {}
        for pos, j in enumerate(rest):
            term = poly_mul(m[i][j], rec(tuple(x for x in rest if x != j)))
            acc = poly_add(acc, poly_scale(term, (-1) ** pos))
        cache[rows] = acc
        return acc

    return rec(tuple(range(len(m))))


@lru_cache(maxsize=None)
def schur_q_pfaffian(al):
    """Q_alpha, z_nu-scaled, as the Pfaffian of the matrix of the Q_(a,b)
    over the parts (an odd length padded with a zero part)."""
    check_strict(al)
    padded = al if len(al) % 2 == 0 else al + (0,)
    n = len(padded)
    m = [[{} for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            val = q_two_row(padded[i], padded[j])
            m[i][j] = val
            m[j][i] = poly_scale(val, -1)
    return _pfaffian(m)


def schur_p_pfaffian(al):
    """P_alpha = Q_alpha / 2^len(alpha) from the Pfaffian."""
    d = 1 << len(al)
    q = schur_q_pfaffian(al)
    assert not any(c % d for c in q.values()), al
    return {nu: c // d for nu, c in q.items()}


# ---------------------------------------------------------------------------
# expansion in {P_alpha} by the transition-matrix solve

@lru_cache(maxsize=None)
def p_to_P_matrix(n):
    """(strict labels, odd class labels, X) with p_nu = sum_alpha X[alpha][nu] P_alpha,
    the rows of the matrix being P_alpha by the Pfaffian."""
    alphas = strict_partitions_of(n)
    nus = odd_partitions_of(n)
    k = len(alphas)
    assert len(nus) == k, "Euler's identity just failed, which is bad news"
    rows = [plain(schur_p_pfaffian(al)) for al in alphas]
    m = [[row.get(nu, Fraction(0)) for nu in nus] for row in rows]
    # solve M^T x = e_j for every j by one Gauss-Jordan pass on [M^T | I]
    a = [
        [m[j][i] for j in range(k)] + [Fraction(int(i == t)) for t in range(k)]
        for i in range(k)
    ]
    for col in range(k):
        piv = next(r for r in range(col, k) if a[r][col])
        a[col], a[piv] = a[piv], a[col]
        inv = Fraction(1) / a[col][col]
        a[col] = [v * inv for v in a[col]]
        for r in range(k):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    x = {
        al: {nu: a[i][k + j] for j, nu in enumerate(nus)}
        for i, al in enumerate(alphas)
    }
    return alphas, nus, x


def expand_in_P(poly, n):
    """Coefficients {alpha: Fraction} with poly = sum c_alpha P_alpha, for a
    z_nu-scaled library polynomial.  The polynomial must be homogeneous of
    degree n with odd support."""
    alphas, nus, x = p_to_P_matrix(n)
    poly = plain(poly)
    for nu in poly:
        if size(nu) != n or any(p % 2 == 0 for p in nu):
            raise ValueError(f"not an odd-support degree-{n} polynomial: p_{nu}")
    out = {}
    for al in alphas:
        c = sum((x[al][nu] * poly.get(nu, Fraction(0)) for nu in nus), Fraction(0))
        if c:
            out[al] = c
    return out


# ---------------------------------------------------------------------------
# the tuple recursions behind the bitmask kernels

def hook_lengths(la):
    """The hook length of each cell of la, in the order of `cells`."""
    conj = conjugate(la)
    return [la[r - 1] - c + conj[c - 1] - r + 1 for r, c in cells(la)]


def rim_hooks_by_beta(la, k):
    """All k-rim-hook removals as (smaller partition, leg length) pairs, on
    the beta-numbers as a list: a removal is a move b -> b-k with b-k free,
    highest b first, and the leg is the number of beta-numbers strictly
    between them (the oracle for the bitmask strips of
    `partitions.rim_hooks`)."""
    bset = set(beta_numbers(la))
    out = []
    for b in sorted(bset, reverse=True):
        nb = b - k
        if nb >= 0 and nb not in bset:
            leg = sum(1 for x in bset if nb < x < b)
            out.append((partition_from_beta((bset - {b}) | {nb}), leg))
    return out


@lru_cache(maxsize=None)
def chi_by_rim_hooks(la, nu):
    """chi^la(nu) by Murnaghan-Nakayama on tuples: strip the front part k of
    nu through every k-rim hook of la; at (1^m), the hook length formula."""
    if not nu or nu[0] == 1:
        return math.factorial(size(la)) // math.prod(hook_lengths(la))
    return sum((-1) ** leg * chi_by_rim_hooks(mu, nu[1:])
               for mu, leg in rim_hooks_by_beta(la, nu[0]))


def _bar_sign(al, be, k):
    """c(al/be) in p_k P_be = sum c(al/be) P_al, for be in bars(al, k):
    (-1)^(parts of be strictly between b and b+k) when part b grows by k,
    (-1)^(parts of be below k) when k is a new part, and
    2 (-1)^(parts of be strictly between b and a, plus b) when two new parts
    a > b with a + b = k appear."""
    grown = [a for a in al if a not in be]
    if len(grown) == 2:
        a, b = grown
        return 2 * (-1) ** (sum(1 for p in be if b < p < a) + b)
    (top,) = grown
    low = top - k
    return (-1) ** sum(1 for p in be if low < p < top)


@lru_cache(maxsize=None)
def bar_recursion(al, nu):
    """X^al_nu by Morris's recursion on tuples: strip the k-bars of al for
    the front part k of nu."""
    if not nu:
        return int(not al)
    k, rest = nu[0], nu[1:]
    return sum(_bar_sign(al, be, k) * bar_recursion(be, rest) for be in bars(al, k))


def linear_key(la):
    """The scan's key of the partition la, from its content power sums
    summed row by row with charvalues._row_sums, as the scan's walk sums
    them."""
    p1 = p2 = p4 = 0
    for i, row in enumerate(la):
        q1, q2, q4 = cv._row_sums(i, row)
        p1 += q1
        p2 += q2
        p4 += q4
    return cv._content_key(sum(la), p1, p2, p4)


def linear_key_by_cells(la):
    """linear_key with the content power sums summed cell by cell."""
    n = p1 = p2 = p4 = 0
    for i, row in enumerate(la):
        n += row
        for c in range(-i, row - i):
            c2 = c * c
            p1 += c
            p2 += c2
            p4 += c2 * c2
    return cv._content_key(n, p1, p2, p4)


# ---------------------------------------------------------------------------
# Schur s, Q and P at points by tableaux, and omega

def monomial_schur(la, xs):
    """s_la at xs by brute force over semistandard tableaux."""
    xs = [Fraction(v) for v in xs]
    cs = [(i, j) for i in range(1, len(la) + 1) for j in range(1, la[i - 1] + 1)]
    v = len(xs)
    total = Fraction(0)

    def rec(idx, filling):
        nonlocal total
        if idx == len(cs):
            term = Fraction(1)
            for w in filling:
                term *= xs[w - 1]
            total += term
            return
        i, j = cs[idx]
        lo = 1
        for k in range(idx):
            a, b = cs[k]
            if a == i and b == j - 1:
                lo = max(lo, filling[k])
            if b == j and a == i - 1:
                lo = max(lo, filling[k] + 1)
        for val in range(lo, v + 1):
            filling.append(val)
            rec(idx + 1, filling)
            filling.pop()

    rec(0, [])
    return total


def _shifted_cells(al):
    return [(i, j) for i in range(1, len(al) + 1) for j in range(i, i + al[i - 1])]


def monomial_schur_q_by_cells(al, xs, marked_diagonal=True):
    """Q_alpha (or P_alpha when marked_diagonal=False) at xs by brute force
    over marked shifted tableaux, filled one cell at a time.

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


def omega(poly):
    """The involution sending each p_k to (-1)^(k-1) p_k; swaps s_la, s_la'."""
    return {nu: v * (-1) ** (sum(nu) - len(nu)) for nu, v in poly.items()}


# ---------------------------------------------------------------------------
# the proportionality scan grouped on its first class

def spin_ratio(al, nu, degree):
    """Spin character value of al on the odd class nu divided by the
    degree, as a Fraction; degree is X^al at (1^n), the P-coefficient that
    the degree of al is a power of sqrt2 times."""
    return Fraction(cv._gauss_sign(nu) * cv._bar_kernel(memo_key(nu, part_mask(al))),
                    degree << (size(al) - len(nu)) // 2)


def key_hits_by_enumeration(n):
    """charvalues._key_hits as a filter over every partition of n: the
    loop over the partitions_of memo that the pruned walk replaced."""
    groups = {}
    for al in strict_partitions_of(n):
        groups.setdefault(cv._spin_key(al), []).append(al)
    hits = []
    for la in partitions_of(n):
        cands = groups.get(linear_key(la))
        if not cands:
            continue
        conj = conjugate(la)
        if conj > la:
            continue
        hits.append((la, conj, cands))
    return hits


def scan_reference(n, cache_dir=None):
    """charvalues.scan with the strict labels grouped by their value over
    the degree on the first class, (3,1^{n-3}), and each partition looking
    up its group by its own value there, in place of the closed keys.  The
    other classes then prune a partition's whole candidate list in
    lockstep, class by class, where the scan confirms one pair at a
    time."""
    classes = odd_partitions_of(n)
    cols = sorted(range(len(classes) - 1), key=lambda i: n - len(classes[i]))
    if cache_dir is None:
        one = classes[-1]
        lin_labels, spin_labels = partitions_of(n), strict_partitions_of(n)
        lin_at = lambda la, i: Fraction(cv.chi(la, classes[i]), cv.chi(la, one))
        spin_at = lambda al, i: spin_ratio(al, classes[i], p_in_P_coefficient(al, one))
        ratio = lambda al, la: cv.spin_degree(al) / cv.specht_degree(la)
    else:
        # int rows, the degree last; a spin entry is its value over
        # sqrt2^(len(nu) - len(al))
        lin, spn = cv.load_or_build_tables(n, cache_dir)
        lin_labels, spin_labels = lin, spn
        lin_at = lambda la, i: Fraction(lin[la][i], lin[la][-1])
        spin_at = lambda al, i: Fraction(spn[al][i], spn[al][-1] << (n - len(classes[i])) // 2)
        ratio = lambda al, la: Scalar(*mul_sqrt2_pow(spn[al][-1], 0, n - len(al))) / lin[la][-1]

    def first(at, label):
        # n <= 2 has no class but (1^n): then every pair is proportional
        return at(label, cols[0]) if cols else None

    groups = {}
    for al in spin_labels:
        groups.setdefault(first(spin_at, al), []).append(al)
    out = []
    for la in lin_labels:
        cands = groups.get(first(lin_at, la), ())
        for i in cols[1:]:
            if not cands:
                break
            v = lin_at(la, i)
            cands = [al for al in cands if spin_at(al, i) == v]
        out.extend((al, la, ratio(al, la)) for al in cands)
    return sorted(out, key=lambda rec: (rec[0], rec[1]))


# ---------------------------------------------------------------------------
# the operator-layer routes replaced by counting and row-by-row passes

def removable_nodes_by_rows(la, eps, p=2):
    """The removable eps-nodes of la as (row, column) pairs from 1, top
    down, by a loop over the rows with one residue call per corner;
    partitions.removable_rows gives their rows, from 0."""
    out = []
    for i in range(1, len(la) + 1):
        part = la[i - 1]
        nxt = la[i] if i < len(la) else 0
        if part > nxt and residue(i, part, p) == eps:
            out.append((i, part))
    return out


def addable_nodes_by_rows(la, eps, p=2):
    """The addable eps-nodes of la as (row, column) pairs from 1, top down,
    by a loop over the rows with the new row (len(la) + 1, 1) handled on
    its own, last; partitions.addable_rows gives their rows, from 0."""
    out = []
    for i in range(1, len(la) + 1):
        part = la[i - 1]
        prev = la[i - 2] if i >= 2 else None
        if (prev is None or prev > part) and residue(i, part + 1, p) == eps:
            out.append((i, part + 1))
    if residue(len(la) + 1, 1, p) == eps:
        out.append((len(la) + 1, 1))
    return out


def k_core_by_runners(la, k):
    """partitions.k_core with each runner's bead slots listed and sorted,
    then slid to the top; a runner with no bead is not listed."""
    beta = beta_numbers(la)
    runners = {j: sorted((b - j) // k for b in beta if b % k == j) for j in {b % k for b in beta}}
    return partition_from_beta([i * k + j for j, slots in runners.items() for i in range(len(slots))])


def _runner_slots(beads, eps):
    """The slots of the beads on runner eps of a two-runner display, top
    first."""
    return sorted((b - eps) // 2 for b in beads if b % 2 == eps)


def two_quotient_by_display(la):
    """abacus.two_quotient read off the bead set of the canonical display:
    runner eps's slots, minus their ranks, sorted into q_eps."""
    beads = set(beta_numbers(la, canonical_bead_count(la)))
    quots = []
    for eps in (0, 1):
        parts = [s - i for i, s in enumerate(_runner_slots(beads, eps))]
        quots.append(tuple(p for p in sorted(parts, reverse=True) if p))
    return k_core_by_runners(la, 2), (quots[0], quots[1])


def from_core_quotient_by_display(core, q0, q1):
    """abacus.from_core_quotient on the bead set of the core: the i-th slot
    of runner eps, top first, moves down by the i-th smallest part of q_eps
    (zeros first)."""
    if k_core_by_runners(core, 2) != core:
        raise ValueError(f"{core} is not a 2-core")
    core_beads = set(beta_numbers(core, len(core) + 2 * max(len(q0), len(q1))))
    beads = []
    for eps, q in ((0, q0), (1, q1)):
        slots = _runner_slots(core_beads, eps)
        grown = [0] * (len(slots) - len(q)) + sorted(q)
        beads.extend((i + grown[i]) * 2 + eps for i in range(len(slots)))
    return partition_from_beta(beads)


def k_weight_by_core(la, k):
    """partitions.k_weight as the size la sheds to its k-core, over k."""
    return (size(la) - size(k_core(la, k))) // k


def two_quotient_by_core(la):
    """abacus.two_quotient with the 2-core built by partitions.k_core and
    the canonical bead count read off its length."""
    core = k_core(la, 2)
    halves = ([], [])
    for b in beta_numbers(la, len(la) + (len(la) - len(core)) % 2):
        halves[b & 1].append(b >> 1)
    return core, tuple(tuple(filter(None, (s - len(h) + 1 + j for j, s in enumerate(h))))
                       for h in halves)


def from_core_quotient_by_slot_sums(core, q0, q1):
    """abacus.from_core_quotient on the core's beads: m beads on a runner
    fill its slots 0..m-1 exactly when their slots sum to m(m-1)/2, and the
    moved beads go back through partition_from_beta."""
    for la in (core, q0, q1):
        check_partition(la)
    counts, slots = [0, 0], [0, 0]
    for b in beta_numbers(core, len(core) + 2 * max(len(q0), len(q1))):
        counts[b & 1] += 1
        slots[b & 1] += b >> 1
    if any(s != m * (m - 1) // 2 for m, s in zip(counts, slots)):
        raise ValueError(f"{core} is not a 2-core")
    beads = []
    for eps, (m, q) in enumerate(zip(counts, (q0, q1))):
        parts = [*q] + [0] * (m - len(q))
        beads.extend(2 * (m - 1 - j + part) + eps for j, part in enumerate(parts))
    return partition_from_beta(beads)


def linear_swap_sign_by_swp(la, eps):
    """charspace.swap_sign in the linear basis as the parity of the cells
    of la outside swp(la, eps)."""
    mu = swp(la, eps)
    return -1 if (size(la) - size(min_parts(la, mu))) % 2 else 1


def choices_by_product(bounds, strict=False):
    """charspace._choices as the product of the row intervals, keeping the
    weakly (strictly) decreasing picks."""
    out = []
    for pick in itertools.product(*(range(lo, hi + 1) for lo, hi in bounds)):
        if all(map(ge, pick, pick[1:])):
            nu = tuple(filter(None, pick))
            if not strict or all(map(gt, nu, nu[1:])):
                out.append(nu)
    return out


def vertical_bounds(a, b):
    """Per-row intervals (lo, hi) for the partitions below both a and b by
    vertical strips, read off the rows themselves: row i is at most
    min(a_i, b_i) and at least max(a_i - 1, b_i - 1, 0)."""
    rows = list(itertools.zip_longest(a, b, fillvalue=0))
    return [(max(x, y, 1) - 1, min(x, y)) for x, y in rows]


def bounds_by_padding(a, b):
    """charspace._bounds on copies: the shorter label padded with zeros to
    the longer one's length, both read bottom row first, and the intervals
    reversed at the end."""
    if len(a) < len(b):
        a, b = b, a
    out, lo = [], 0
    for x, y in zip(reversed(a), reversed((*b, *(0,) * (len(a) - len(b))))):
        out.append((lo, x if x < y else y))
        lo = x if x > y else y
    return out[::-1]


def interm_signed_sum_by_bounds(bla, bmu):
    """charspace.interm_signed_sum with each component's product taken over
    the interval list bounds_by_padding makes, not in a pass down the rows."""
    sign = -1 if (size(bmu[0]) + size(bmu[1])) % 2 else 1
    for a, b in ((bla[0], bmu[0]), map(conjugate, (bla[1], bmu[1]))):
        for lo, hi in bounds_by_padding(a, b):
            if lo > hi or (hi - lo) % 2:
                return 0
            if lo % 2:
                sign = -sign
    return sign


def _sign_and_component0(bla, bmu):
    """(-1)^|bmu| times component 0's alternating count, by the product
    over its rows that charspace.interm_signed_sum uses."""
    sign = -1 if (size(bmu[0]) + size(bmu[1])) % 2 else 1
    for lo, hi in cs._bounds(bla[0], bmu[0]):
        if lo > hi or (hi - lo) % 2:
            return 0
        if lo % 2:
            sign = -sign
    return sign


def interm_signed_sum_by_rows(bla, bmu):
    """charspace.interm_signed_sum with component 1 counted row by row on
    vertical_bounds, keyed on the last pick (at most two keys), instead of
    on the conjugates."""
    sign = _sign_and_component0(bla, bmu)
    sigma, tau = bla[1], bmu[1]
    last = {sigma[0] if sigma else 0: sign}  # no row exceeds sigma's first
    for lo, hi in vertical_bounds(sigma, tau):
        nxt = {}
        for top, count in last.items():
            for v in range(lo, min(hi, top) + 1):
                nxt[v] = nxt.get(v, 0) + (-count if v % 2 else count)
        last = nxt
    return sum(last.values())


def interm_signed_sum_by_list(bla, bmu):
    """charspace.interm_signed_sum with component 1 summed over the list
    interm1 makes; component 0 by the same product over rows."""
    sign = _sign_and_component0(bla, bmu)
    return sign * sum(-1 if size(nu) % 2 else 1 for nu in cs.interm1(bla[1], bmu[1]))


def b_sum_by_intermediates(eta, theta):
    """charspace.b_sum as the sum over the interm0 list, one term per strict
    intermediate ze, (-1)^(|theta| - |ze|) sqrt2^(kom(eta, ze) + kom(theta, ze)),
    added up as integer pairs."""
    e, t, st = set(eta), set(theta), size(theta)
    a = b = 0
    for ze in cs.interm0(eta, theta):
        z = set(ze)
        x, y = mul_sqrt2_pow(-1 if (st - size(ze)) % 2 else 1, 0, len(e ^ z) + len(t ^ z))
        a, b = a + x, b + y
    return Scalar(a, b)


def vector(basis, n, items):
    """The sum of the (label, coefficient) items, each label checked
    against the basis and n: the route the suites' expected vectors took
    before they were built as pairs.  A coefficient is a Scalar, or an int,
    bool or Fraction read as the Scalar it names."""
    cs._checked(basis, ())  # the basis, even with no items
    acc = {}
    for label, c in items:
        label = cs._checked(basis, label)
        if size(label) != n:
            raise ValueError(f"label {label} has the wrong size for n = {n}")
        if not isinstance(c, Scalar):
            if not isinstance(c, (int, Fraction)):
                raise TypeError(f"coefficients must be Scalars, ints or Fractions, got {c!r}")
            c = Scalar(c)
        x, y = acc.get(label, (0, 0))
        acc[label] = (x + c.a, y + c.b)
    return cs._nonzero(basis, n, acc)


def _summed(basis, n, terms):
    """The vector of (sign, vector) terms, summed as coordinate pairs per
    label in the order the labels first appear, the coordinates as the
    operators left them."""
    acc = {}
    for sign, w in terms:
        for label, (a, b) in w.pairs.items():
            x, y = acc.get(label, (0, 0))
            acc[label] = (x + sign * a, y + sign * b)
    return cs._nonzero(basis, n, acc)


def runner_swap_by_probes(v, eps, c, p=2):
    """charspace.runner_swap with a running up from max(0, -c) until
    e_eps^(a) of the label vanishes, that last call a probe."""
    terms = []
    for label, pair in v.pairs.items():
        one = cs.CharVector(v.basis, v.n, {label: pair})
        for a in range(max(0, -c), v.n + 1):
            w = cs.apply_e(one, eps, a, p)
            if w.is_zero():
                break
            terms.append((-1 if a % 2 else 1, cs.apply_f(w, eps, a + c, p)))
    return _summed(v.basis, v.n + c, terms)


def quot_red_by_probes(v, eps, d):
    """charspace.quot_red with the same probe loop."""
    ebar = 1 - eps
    terms = []
    for label, pair in v.pairs.items():
        one = cs.CharVector(v.basis, v.n, {label: pair})
        for a in range(max(0, -d), v.n + 1):
            w = cs.apply_e(one, eps, a)
            if w.is_zero():
                break
            w = cs.apply_f(cs.apply_f(cs.apply_e(w, ebar, a), ebar, a + d), eps, a + d)
            terms.append((-1 if (a + d) % 2 else 1, w))
    return _summed(v.basis, v.n + 2 * d, terms)


def scaled(v, c):
    """c v for a Scalar c, label by label in Scalar arithmetic."""
    return vector(v.basis, v.n, [(label, c * x) for label, x in v.coeffs.items()])
