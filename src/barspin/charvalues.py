"""Exact character values on odd classes.

Linear side: Murnaghan-Nakayama recursion for the ordinary irreducible
characters; restricting to odd-part classes gives the 2-Brauer character.
It runs on the abacus (James-Kerber 1981, The Representation Theory of the
Symmetric Group, 2.7; Olsson 1993, Combinatorics and Representations of
Finite Groups): a partition is its beta-set, one bead per part, held as a
bitmask, and removing a k-rim hook moves one bead from b down to a free
b - k, with sign (-1)^(beads strictly between b - k and b), the move of
`partitions.strips` that the bar recursion shares.  A bead that lands on 0
is shifted out, so each partition has one mask.  Both kernels read (1^m)
in closed form, here the degree n! prod_{i<j} (b_j - b_i) / prod b_i!,
which `specht_degree` shares; it is not memoized itself, since the kernel's
memo holds it at each mask's (1^m) key.  The memo keys are plain ints (see
`partitions.memo_key`).
Spin side: the value of the spin character of the strict label alpha on
the odd class nu is Morris's closed form

    <alpha>(nu) = (-1)^(parts of nu = 3 or 5 mod 8) * X^alpha_nu * sqrt2^(len(nu) - len(alpha)),

with X^alpha_nu the integer coefficient of P_alpha in p_nu, from Morris's
bar recursion (`symfunc.p_in_P_coefficient`).  At nu = (1^n) this is the
degree, and X is Schur's product formula, which `spin_degree` reads
directly; the bar recursion on tuples at (1^n) and the P-matrix solve for
X are test oracles only.  Since len(nu) = n mod 2 on odd classes, every
spin row lies wholly in Z or wholly in sqrt2*Z.

Every value is read a row at a time: one label's values on a list of
classes.  A label of mask m has the memo key prefix | m on the class nu,
prefix = memo_key(nu, 0) with nu sorted down.  So a list of classes is
read once into its fronts, the prefix, Gauss sign and length of each
class, and a row is one kernel call per front, read lazily.  `chi_rows`
and `spin_rows` check each class once and each label once, and `chi` and
`spin_value` are their rows of one value.  The scan, the Brauer vectors
and the cache fill build the fronts of classes they enumerate themselves
and read the same streams unchecked.

The Gauss sign (-1)^((nu_i^2 - 1)/8) per part matches evaluating on the
odd-order preimage of the class in the double cover; it is pinned by an
explicit spinor-matrix oracle in the tests (trace of the odd-order lift in
a Clifford-algebra model of the basic spin representation) rather than
taken on trust.  The naive sign (-1)^((n - len(nu))/2) agrees whenever all
parts are 1 or 3 mod 8 but is wrong on parts 5 or 7 mod 8, first visible
at the class (5).

The proportionality scan never builds a Brauer vector.  It runs in two
stages: the walk, `_key_hits`, finds each partition with the strict
labels that share its key (the last two paragraphs below), and
`_confirm` takes each such pair on its own.  Two characters are
proportional exactly when their values divided by the degree agree on
every class, so it compares those normalized values one class at a time,
the classes closest to (1^n) first, and drops the pair at the first class
where they differ.  A pair that agrees everywhere is proportional with
ratio spin degree over linear degree.  A partition's labels are not
compared in lockstep, since a hit almost never has two: each of the 810
hits with n <= 50 has one, and 20 of the 1,628 at n = 51-60 have two,
none more.  The spin degree is read only for the labels that hit some
partition's key.  The comparison runs on plain ints: la's value over its
degree D is chi/D, alpha's is sign * X / (X_alpha * 2^((n - len(nu))/2)),
and both denominators are positive, so the two agree exactly when the
cross-products do.  Cold, the scan reads these ints on the row route
above, from one set of fronts per scan, and checks nothing per pair; with
a cache directory they are read from the cached rows, one per label.

A conjugate pair of partitions is compared once.  chi^{la'} = sgn chi^la
(James-Kerber 1981, 2.1.8), and sgn is 1 on a class of odd parts, so la
and la' have the same linear Brauer character.  Their degrees agree, and
so do their keys below, which use only the content power sums p2, p4 and
p1^2, and conjugation negates every content.  So la' pairs with exactly
the labels that la pairs with, with the same ratios, and the scan compares
only the lexicographically greater of the two.

The first two classes, (3,1^{n-3}) and (5,1^{n-5}), are read in closed
form.  The sum of a class C in the group algebra is central, so it acts on
an irreducible module by the scalar |C| * value / degree, the central
character.  For S_n that scalar is a polynomial in the content power sums
p_k = sum of c^k over the cells (c = column - row) of the partition
(Ingram 1950, Proc. AMS 1; Kerov-Olshanski 1994, C. R. Acad. Sci. Paris
319; Corteel-Goupil-Schaeffer 2004, Adv. Math. 188).  For the spin
characters it is a polynomial in the odd power sums P_k of the parts of
the strict label (Ivanov 2004, J. Math. Sci. 121).  |C| depends on n
alone, so two labels have equal values over the degree on C exactly when
their central characters there are equal.  The scan keys both sides on 60
times the central characters, integers by the closed forms of
`_content_key` and `_spin_key`, and so pairs the labels exactly as the
values on those two classes would.  A test checks both forms against the
recursions for every label with n <= 24.  The keys only prune: every pair
that survives the other classes is still compared on these two through
the recursions, two values per pair, so every reported pair has been
checked on every class.

The scan reads no list of all partitions of n.  It walks them depth
first, row by row in descending lexicographic order, carrying the content
power sums, and builds a partition only when its key hits.  Two exact
prunes cut the walk.  One is la_1 >= len(la), which every partition not
below its conjugate meets.  The other is on p2: the first key entry is
60 p2 - 30 n(n - 1), so each key names a p2, and a branch is cut when no
key's p2 lies between the least and the most p2 that the rows still to
come can add, read from a memo over (row index, cells left, largest row
allowed, rows left) that every scan shares, as none of these bounds
depends on n.  Keys with no entry (n < 3) name no p2, and then only the
first prune runs.
"""

from __future__ import annotations

import json
import math
import os
import sys
from bisect import bisect_left
from functools import lru_cache

from barspin.partitions import (
    beta_mask,
    check_class,
    check_partition,
    check_size,
    check_strict,
    conjugate,
    format_partition,
    memo_key,
    odd_partitions_of,
    part_mask,
    partitions_of,
    size,
    split_key,
    strict_partitions_of,
    strips,
)
from barspin.scalars import Scalar, mul_sqrt2_pow
from barspin.symfunc import _bar_kernel, _schur_degree, p_in_P_coefficient


# ---------------------------------------------------------------------------
# linear characters via Murnaghan-Nakayama, on beta-set bitmasks

def chi(la, nu):
    """Ordinary character value chi^la(nu) for a partition la and a class nu
    of the same size.  A class is a multiset of cycle lengths, so its parts
    may come in any order: the one value of `chi_rows` on one label and one
    class."""
    return next(next(chi_rows([la], [nu])))


@lru_cache(maxsize=None)
def _chi_kernel(key):
    """chi at key = memo_key(nu, beta_mask(la)).

    Strips the front part k of nu (`partitions.strips`): each bead b >= k
    with b - k free moves down k places, with sign (-1)^(beads strictly
    between b - k and b).  A bead that lands on 0 is shifted out, with the
    beads in a run just above it, so that the new mask again has no bead at
    0.  At a front part <= 1 the class is (1^m), as every key's class is
    sorted down, and the value is the degree."""
    mask, k, rest = split_key(key)
    if k <= 1:
        return _degree(mask)
    total = 0
    for new, leg in strips(mask, k):
        while new & 1:
            new >>= 1
        value = _chi_kernel(rest | new)
        total += -value if leg & 1 else value
    return total


# the per-layer benchmark reads the size of chi's memo from chi itself
chi.cache_info = _chi_kernel.cache_info
chi.cache_clear = _chi_kernel.cache_clear


def _degree(mask):
    """f^la from the beta-set b of la: n! prod_{i<j} (b_j - b_i) / prod b_i!
    (James-Kerber 2.7)."""
    beads = [b for b in range(mask.bit_length()) if mask >> b & 1]
    num = math.factorial(sum(beads) - len(beads) * (len(beads) - 1) // 2)
    den = 1
    for j, b in enumerate(beads):
        den *= math.factorial(b)
        for a in beads[:j]:
            num *= b - a
    return num // den


def specht_degree(la):
    check_partition(la)
    return _degree(beta_mask(la))


# ---------------------------------------------------------------------------
# spin values

def _gauss_sign(nu):
    """(-1) to the number of parts of nu congruent to 3 or 5 mod 8."""
    return -1 if sum((q * q - 1) // 8 for q in nu) % 2 else 1


def spin_degree(al):
    """Degree of the spin character, normalized so the squares over strict
    labels sum to n factorial; a Scalar, an integer or an integer times
    sqrt2.  X^al at (1^n) is Schur's closed form, and the Gauss sign there is 1."""
    check_strict(al)
    return Scalar(*mul_sqrt2_pow(_schur_degree(part_mask(al)), 0, size(al) - len(al)))


def spin_value(al, nu):
    """Spin character value on the odd class nu, its parts in any order: the
    one value of `spin_rows` on one label and one class."""
    return next(next(spin_rows([al], [nu])))


# ---------------------------------------------------------------------------
# rows (see the module docstring), Brauer vectors and tables
#
# A Brauer vector, like a cached row, lists a label's values on
# odd_partitions_of(n), in descending lexicographic order, so the last entry
# is at (1^n), the positive degree.

def _fronts(classes):
    """The fronts of the classes, sorted down and unchecked: their memo-key
    prefixes, Gauss signs and lengths, as three lists."""
    return ([memo_key(nu, 0) for nu in classes], [_gauss_sign(nu) for nu in classes],
            [len(nu) for nu in classes])


def _chi_values(mask, prefixes):
    """chi on each class, lazily, for the beta-set mask of a partition."""
    return (_chi_kernel(prefix | mask) for prefix in prefixes)


def _spin_ints(mask, prefixes, signs):
    """The Gauss sign times X^al_nu on each class, lazily, for the part mask
    of al: the spin value over sqrt2^(len(nu) - len(al))."""
    return (sign * _bar_kernel(prefix | mask) for prefix, sign in zip(prefixes, signs))


def _spin_values(al, fronts):
    """The spin values of al on each class of the fronts, lazily, as Scalars."""
    prefixes, signs, lengths = fronts
    ints = _spin_ints(part_mask(al), prefixes, signs)
    return (Scalar(*mul_sqrt2_pow(x, 0, length - len(al))) for x, length in zip(ints, lengths))


def _rows(labels, check, classes, odd, read):
    """read(label, fronts) for each label, lazily.  Each class is checked
    here, once: positive parts, the first class's size, odd parts when odd.
    Each label is checked, by `check` and for that size, at its row."""
    classes = list(classes)
    for nu in classes:
        check_class(nu)
        if size(nu) != size(classes[0]):
            raise ValueError(f"size mismatch: {classes[0]} vs {nu}")
        if odd and any(p % 2 == 0 for p in nu):
            raise ValueError(f"spin values live on odd classes, got {nu}")
    fronts = _fronts([sorted(nu, reverse=True) for nu in classes])

    def rows():
        for label in labels:
            check(label)
            if classes and size(label) != size(classes[0]):
                raise ValueError(f"size mismatch: {label} vs {classes[0]}")
            yield read(label, fronts)

    return rows()


def chi_rows(labels, classes):
    """For each partition la of labels, its lazy row of ints chi^la(nu) over
    the classes, which share one size and give their parts in any order."""
    return _rows(labels, check_partition, classes, False,
                 lambda la, fronts: _chi_values(beta_mask(la), fronts[0]))


def spin_rows(labels, classes):
    """For each strict label of labels, its lazy row of spin values, as
    Scalars, over the odd classes, which share one size and give their
    parts in any order."""
    return _rows(labels, check_strict, classes, True, _spin_values)


def linear_brauer(la):
    la = tuple(la)
    check_partition(la)
    prefixes, _, _ = _fronts(odd_partitions_of(size(la)))
    return tuple(map(Scalar, _chi_values(beta_mask(la), prefixes)))


def spin_brauer(al):
    al = tuple(al)
    check_strict(al)
    return tuple(_spin_values(al, _fronts(odd_partitions_of(size(al)))))


def linear_brauer_table(n):
    return {la: linear_brauer(la) for la in partitions_of(n)}


def spin_brauer_table(n):
    return {al: spin_brauer(al) for al in strict_partitions_of(n)}


# optional disk cache of the rows of size n, purely a speed feature

CACHE_VERSION = 3


def _decode_rows(rows, labels, width):
    """{label: row} from the cached rows.  Unless each row is `width` ints (a
    JSON true or false, a float or a list is not one) ending in a positive
    degree, raises ValueError, or TypeError for a row with no length."""
    table = {}
    for label in labels:
        key = format_partition(label)
        row = rows[key]
        if len(row) != width or any(type(x) is not int for x in row) or row[-1] <= 0:
            raise ValueError(f"row {key} is not {width} ints ending in a positive degree")
        table[label] = row
    return table


def _read_cache(path, n):
    """(linear rows, spin rows) from a cache file; raises ValueError,
    KeyError or TypeError when the file is truncated, incomplete, of another
    format version or for another n."""
    with open(path) as fh:
        blob = json.load(fh)
    if not isinstance(blob, dict) or blob.get("version") != CACHE_VERSION:
        raise ValueError(f"not a version {CACHE_VERSION} table cache")
    if blob["n"] != n:
        raise ValueError(f"file is for n={blob['n']}")
    width = len(odd_partitions_of(n))
    lin = _decode_rows(blob["linear"], partitions_of(n), width)
    spn = _decode_rows(blob["spin"], strict_partitions_of(n), width)
    return lin, spn


def _write_cache(path, n, lin, spn):
    """Write the rows through a temporary file in the same directory, so a
    reader never sees a partial file.  json.dumps runs the C encoder; json.dump does not."""
    blob = {"version": CACHE_VERSION, "n": n,
            "linear": {format_partition(la): row for la, row in lin.items()},
            "spin": {format_partition(al): row for al, row in spn.items()}}
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            fh.write(json.dumps(blob))
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load_or_build_tables(n, cache_dir):
    """({partition: row}, {strict label: row}) for size n, read from
    cache_dir or built and written there.  An unreadable cache file is a
    miss: one warning on stderr, then the rows are rebuilt and the file
    rewritten."""
    path = os.path.join(cache_dir, f"brauer_{n}.json")
    if os.path.exists(path):
        try:
            return _read_cache(path, n)
        except (ValueError, KeyError, TypeError) as exc:
            print(f"warning: ignoring bad table cache {path}: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
    prefixes, signs, _ = _fronts(odd_partitions_of(n))
    lin = {la: list(_chi_values(beta_mask(la), prefixes)) for la in partitions_of(n)}
    spn = {al: list(_spin_ints(part_mask(al), prefixes, signs)) for al in strict_partitions_of(n)}
    os.makedirs(cache_dir, exist_ok=True)
    _write_cache(path, n, lin, spn)
    return lin, spn


# ---------------------------------------------------------------------------
# proportionality scan

def proportionality_ratio(u, v):
    """Scalar c with u = c*v entrywise, or None.  Zero vectors never match."""
    if len(u) != len(v):
        return None
    if all(x.is_zero() for x in u) or all(y.is_zero() for y in v):
        return None
    c = None
    for x, y in zip(u, v):
        if y.is_zero():
            if not x.is_zero():
                return None
            continue
        r = x / y
        if c is None:
            c = r
        elif c != r:
            return None
    return c


def _closed_key(n, k3, k5):
    """The entries of a key for the classes (3,1^{n-3}) and (5,1^{n-5}) that
    exist at size n."""
    return (k3, k5) if n >= 5 else (k3,) if n >= 3 else ()


def _row_sums(i, row):
    """(p1, p2, p4) of row i (from 0) of a partition: the sums of c, c^2 and
    c^4 over its contents c = -i .. row - i - 1.

    With F_k(x) the sum of c^k over 0 <= c < x, a polynomial in x
    (Faulhaber), the row holds F_k(row - i) - F_k(-i).  With t = x(x - 1)
    and u = t(2x - 1), F_1 = t/2, F_2 = u/6 and F_4 = u(3t - 1)/30."""
    x, y = row - i, -i
    t, s = x * x - x, y * y - y
    u, v = t * (2 * x - 1), s * (2 * y - 1)
    return (t - s) // 2, (u - v) // 6, (u * (3 * t - 1) - v * (3 * s - 1)) // 30


def _content_key(n, p1, p2, p4):
    """60*|C|*chi/degree of a partition of n on (3,1^{n-3}) and on
    (5,1^{n-5}), from the power sums p_k of its cell contents."""
    return _closed_key(n, 60 * p2 - 30 * n * (n - 1),
                       60 * (p4 - 2 * p1 * p1 - (3 * n - 10) * p2)
                       + 10 * n * (n - 1) * (5 * n - 19))


def _spin_key(al):
    """60*|C|*value/degree of the strict label al on (3,1^{n-3}) and on
    (5,1^{n-5}), from the power sums P_k of its parts."""
    n = P3 = P5 = 0
    for a in al:
        a3 = a * a * a
        n += a
        P3 += a3
        P5 += a3 * a * a
    return _closed_key(n, -10 * (P3 - n * (3 * n - 2)),
                       -3 * P5 + (30 * n - 55) * P3 - 50 * n ** 3 + 150 * n * n - 72 * n)


def _p2_span(i, m, a, left):
    """(least, most) p2 of rows i, i + 1, ... holding m cells in at most
    `left` rows of at most a cells; the callers keep m <= a * left."""
    if not m:
        return 0, 0
    # m cells fill no row past m cells and no more than m rows
    return _p2_span_memo(i, m, min(a, m), min(left, m))


@lru_cache(maxsize=None)
def _p2_span_memo(i, m, a, left):
    """`_p2_span` for 0 < m, a <= m and left <= m, so no two keys name one span."""
    los, his = [], []
    for b in range(a, -(-m // left) - 1, -1):
        q2 = _row_sums(i, b)[1]
        lo, hi = _p2_span(i + 1, m - b, b, left - 1)
        los.append(q2 + lo)
        his.append(q2 + hi)
    return min(los), max(his)


def _key_hits(n):
    """(la, conjugate(la), labels) for every partition la of n not below its
    conjugate whose key some strict labels share, la in descending
    lexicographic order, the labels in the order of strict_partitions_of(n).
    The walk and its prunes are in the module docstring."""
    groups = {}
    for al in strict_partitions_of(n):
        groups.setdefault(_spin_key(al), []).append(al)
    if () in groups:
        targets = None
    else:
        base = 30 * n * (n - 1)
        targets = sorted({(k[0] + base) // 60 for k in groups if (k[0] + base) % 60 == 0})

    rows = [0] * n
    hits = []

    def walk(i, m, a, left, p1, p2, p4):
        """Place row i with m cells left, at most a cells in it and at most
        `left` rows from it on; row 0 sets `left`."""
        if not m:
            cands = groups.get(_content_key(n, p1, p2, p4))
            if cands:
                la = tuple(rows[:i])
                conj = conjugate(la)
                if conj <= la:
                    hits.append((la, conj, cands))
            return
        # the rows below hold the other m - b cells: at most b - 1 rows
        # under row 0, so b * b >= m, and `left` - 1 rows later on
        for b in range(min(a, m), (math.isqrt(m - 1) if i == 0 else -(-m // left) - 1), -1):
            q1, q2, q4 = _row_sums(i, b)
            after = (b if i == 0 else left) - 1
            if targets is not None:
                lo, hi = _p2_span(i + 1, m - b, b, after)
                j = bisect_left(targets, p2 + q2 + lo)
                if j == len(targets) or targets[j] > p2 + q2 + hi:
                    continue
            rows[i] = b
            walk(i + 1, m - b, b, after, p1 + q1, p2 + q2, p4 + q4)

    walk(0, n, n, n, 0, 0, 0)
    return hits


def _confirm(d, chis, x, spins, shifts):
    """Whether chi / d == spin / (x << shift) on every class, cross-multiplied,
    for a partition of degree d and values chis and a strict label with X^al
    at (1^n) equal to x and ints spins (`_spin_ints`); stops at the first
    class where they differ."""
    return all(c * (x << s) == v * d for c, v, s in zip(chis, spins, shifts))


def scan(n, cache_dir=None):
    """All (alpha, lambda, ratio) with the spin Brauer vector of alpha a
    scalar multiple of the linear Brauer vector of lambda, sorted.

    A pair is proportional iff its values over the degree agree on every
    odd class other than (1^n), and then the ratio is spin degree over
    linear degree.  The strict labels are grouped by their closed keys on
    (3,1^{n-3}) and (5,1^{n-5}); each partition looks up its group by its
    own key.  So the scan has two stages: the walk, `_key_hits`, yields
    each partition with its candidates, and `_confirm` takes each
    candidate pair on its own through the other classes in order of
    n - len(nu), cheapest first, then the two keyed classes, and drops it
    as soon as a value differs.  A hit almost never has two candidates
    (see the module docstring), so none are compared in lockstep.  Of each
    conjugate pair of partitions only the lexicographically greater is
    compared, and its confirmed labels and ratios are emitted for the
    other too.

    The values compare as ints, by cross-multiplication.  Cold they are
    read from the kernels; with cache_dir, from the cached rows; both
    feed `_confirm`."""
    check_size(n)
    classes = odd_partitions_of(n)
    keyed = {(k,) + (1,) * (n - k) for k in (3, 5) if n >= k}
    # the keyed classes go last: the keys prune, and every candidate pair
    # is still checked on every class
    cols = sorted(range(len(classes) - 1),
                  key=lambda i: (classes[i] in keyed, n - len(classes[i])))
    shifts = [(n - len(classes[i])) // 2 for i in cols]
    hits = _key_hits(n)
    # linear(la) is (degree, chi over cols); spin(al) is (X^al at (1^n), the
    # Gauss sign times X^al_nu over cols); the values are read lazily, and
    # each call starts a fresh read
    if cache_dir is None:
        one = classes[-1]
        prefixes, signs, _ = _fronts([classes[i] for i in cols])

        def linear(la):
            mask = beta_mask(la)
            return _degree(mask), _chi_values(mask, prefixes)

        def spin(al):
            return p_in_P_coefficient(al, one), _spin_ints(part_mask(al), prefixes, signs)
    else:
        lin, spn = load_or_build_tables(n, cache_dir)
        linear = lambda la: (lin[la][-1], map(lin[la].__getitem__, cols))
        spin = lambda al: (spn[al][-1], map(spn[al].__getitem__, cols))

    out = []
    for la, conj, cands in hits:
        for al in cands:
            d, chis = linear(la)
            x, spins = spin(al)
            if _confirm(d, chis, x, spins, shifts):
                c = Scalar(*mul_sqrt2_pow(x, 0, n - len(al))) / d
                out.append((al, la, c))
                if conj != la:
                    out.append((al, conj, c))
    return sorted(out, key=lambda rec: (rec[0], rec[1]))
