"""Exact character values on odd classes.

Linear side: Murnaghan-Nakayama recursion for the ordinary irreducible
characters; restricting to odd-part classes gives the 2-Brauer character.
Spin side: values are extracted from the expansion of p_nu in the Schur P
basis, whose integer coefficients come from Morris's bar recursion
(`symfunc.p_in_P_coefficient`; the P-matrix solve is only a test oracle),
normalized so that the value at (1^n) is the character degree and a
class of cycle type nu carries the factor

    prod_i (-1)^((nu_i^2 - 1)/8) * 2^(-(n - len(nu))/2),

that is, a Gauss sign -1 for every part congruent to 3 or 5 mod 8.  The sign
matches evaluating on the odd-order preimage of the class in the double
cover; it is pinned by an explicit spinor-matrix oracle in the tests (trace
of the odd-order lift in a Clifford-algebra model of the basic spin
representation) rather than taken on trust.  The naive guess (-2)^(-(n-l)/2)
agrees whenever all parts are 1 or 3 mod 8 but has the wrong sign on parts
5 or 7 mod 8, first visible at the class (5).

The proportionality scan keys every vector by its exact direction, so each
spin vector is compared only with the linear vectors on the same line.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from barspin.partitions import (
    check_partition,
    check_strict,
    hook_lengths,
    odd_partitions_of,
    partitions_of,
    rim_hooks,
    size,
    strict_partitions_of,
)
from barspin.scalars import Scalar, sqrt2_pow
from barspin.symfunc import p_in_P_coefficient, schur_poly


@dataclass(frozen=True)
class BrauerVector:
    """Values of a character on the odd-part classes of one symmetric group,
    classes in descending lexicographic order; entries are Scalars and the
    entry at (1^n) is positive."""
    basis: str
    n: int
    label: tuple
    classes: tuple
    values: tuple

    def value(self, nu):
        return self.values[self.classes.index(tuple(nu))]


def z_order(nu):
    """Centralizer order of the class nu."""
    out = 1
    mult = {}
    for p in nu:
        mult[p] = mult.get(p, 0) + 1
    for p, m in mult.items():
        out *= p ** m * math.factorial(m)
    return out


# ---------------------------------------------------------------------------
# linear characters via Murnaghan-Nakayama

@lru_cache(maxsize=None)
def chi(la, nu):
    """Ordinary character value chi^la(nu), stripping the front part of nu."""
    if size(la) != size(nu):
        raise ValueError(f"size mismatch: {la} vs {nu}")
    if not nu:
        return 1
    total = 0
    k = nu[0]
    for mu, leg in rim_hooks(la, k):
        total += (-1) ** leg * chi(mu, nu[1:])
    return total


def specht_degree(la):
    n = size(la)
    prod = 1
    for h in hook_lengths(la):
        prod *= h
    deg, rem = divmod(math.factorial(n), prod)
    assert rem == 0
    return deg


def chi_schur_oracle(la, nu):
    """chi^la(nu) as z_nu times the p_nu coefficient of s_la; independent of
    the rim-hook recursion."""
    c = schur_poly(la).get(tuple(nu), Fraction(0)) * z_order(nu)
    assert c.denominator == 1
    return int(c)


# ---------------------------------------------------------------------------
# spin degrees and Brauer values

def spin_degree(al):
    """Degree of the spin character, normalized so the squares over strict
    labels sum to n factorial; a Scalar, rational or rational times sqrt2."""
    check_strict(al)
    n = size(al)
    ell = len(al)
    rat = Fraction(math.factorial(n))
    for a in al:
        rat /= math.factorial(a)
    for i in range(ell):
        for j in range(i + 1, ell):
            rat *= Fraction(al[i] - al[j], al[i] + al[j])
    return sqrt2_pow(n - ell) * Scalar(rat)


def _spin_values(al, classes):
    """Spin character values of al on the odd classes given; the degree and
    the (1^n) coefficient are computed once for all of them."""
    n = size(al)
    deg = spin_degree(al)
    x_one = p_in_P_coefficient(al, (1,) * n)
    out = []
    for nu in classes:
        sign = -1 if sum((q * q - 1) // 8 for q in nu) % 2 else 1
        clsfac = Fraction(sign, 2 ** ((n - len(nu)) // 2))
        out.append(deg * Scalar(Fraction(p_in_P_coefficient(al, nu), x_one) * clsfac))
    return tuple(out)


def spin_value(al, nu):
    """Spin character value on the odd class nu."""
    check_strict(al)
    if size(nu) != size(al):
        raise ValueError(f"size mismatch: {al} vs {nu}")
    if any(p % 2 == 0 for p in nu):
        raise ValueError(f"spin values live on odd classes, got {nu}")
    return _spin_values(al, (tuple(nu),))[0]


# ---------------------------------------------------------------------------
# Brauer vectors and tables

def odd_classes(n):
    return odd_partitions_of(n)


def linear_brauer(la):
    la = tuple(la)
    check_partition(la)
    n = size(la)
    classes = odd_classes(n)
    values = tuple(Scalar(chi(la, nu)) for nu in classes)
    return BrauerVector("linear", n, la, classes, values)


def spin_brauer(al):
    al = tuple(al)
    check_strict(al)
    n = size(al)
    classes = odd_classes(n)
    return BrauerVector("spin", n, al, classes, _spin_values(al, classes))


@lru_cache(maxsize=None)
def linear_brauer_table(n):
    return {la: linear_brauer(la) for la in partitions_of(n)}


@lru_cache(maxsize=None)
def spin_brauer_table(n):
    return {al: spin_brauer(al) for al in strict_partitions_of(n)}


# optional disk cache for the tables, purely a speed feature

def _label_key(label):
    return ",".join(map(str, label)) or "-"


def _table_to_json(table):
    return {_label_key(label): [v.to_json() for v in vec.values] for label, vec in table.items()}


def _table_from_json(rows, basis, n, labels, classes):
    table = {}
    for label in labels:
        vals = tuple(Scalar.from_json(d) for d in rows[_label_key(label)])
        if len(vals) != len(classes):
            raise ValueError(f"{basis} row {_label_key(label)} has {len(vals)} values")
        table[label] = BrauerVector(basis, n, label, classes, vals)
    return table


def _read_cache(path, n):
    """(linear, spin) tables from a cache file; raises ValueError, KeyError
    or TypeError when the file is truncated, incomplete or for another n."""
    with open(path) as fh:
        blob = json.load(fh)
    if blob["n"] != n:
        raise ValueError(f"file is for n={blob['n']}")
    classes = odd_classes(n)
    lin = _table_from_json(blob["linear"], "linear", n, partitions_of(n), classes)
    spn = _table_from_json(blob["spin"], "spin", n, strict_partitions_of(n), classes)
    return lin, spn


def _write_cache(path, n, lin, spn):
    """Write the tables through a temporary file in the same directory, so a
    reader never sees a partial file."""
    blob = {"n": n, "linear": _table_to_json(lin), "spin": _table_to_json(spn)}
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            json.dump(blob, fh)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load_or_build_tables(n, cache_dir=None):
    """(linear table, spin table) for size n, using cache_dir if given.  An
    unreadable cache file is a miss: one warning on stderr, then the tables
    are rebuilt and the file rewritten."""
    if cache_dir is None:
        return linear_brauer_table(n), spin_brauer_table(n)
    path = os.path.join(cache_dir, f"brauer_{n}.json")
    if os.path.exists(path):
        try:
            return _read_cache(path, n)
        except (ValueError, KeyError, TypeError) as exc:
            print(f"warning: ignoring bad table cache {path}: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
    lin, spn = linear_brauer_table(n), spin_brauer_table(n)
    os.makedirs(cache_dir, exist_ok=True)
    _write_cache(path, n, lin, spn)
    return lin, spn


# ---------------------------------------------------------------------------
# proportionality scan

def _primitive(xs):
    """The primitive integer vector on the line of a nonzero rational vector,
    with its first nonzero entry positive."""
    m = math.lcm(*(x.denominator for x in xs))
    ints = [x.numerator * (m // x.denominator) for x in xs]
    g = math.gcd(*ints)
    if next(i for i in ints if i) < 0:
        g = -g
    return tuple(i // g for i in ints)


def direction_key(values):
    """The exact direction of a vector of Scalars A + B*sqrt2 (A, B rational
    vectors): the primitive integer vector of whichever of A and B is
    nonzero.  None for the zero vector, and when A and B are both nonzero
    and not parallel, since such a vector is no multiple of a rational one.
    Two vectors with a key are proportional iff their keys are equal."""
    keys = {_primitive(part) for part in ([x.a for x in values], [x.b for x in values])
            if any(part)}
    return keys.pop() if len(keys) == 1 else None


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


def scan(n, cache_dir=None):
    """All (alpha, lambda, ratio) with the spin Brauer vector of alpha a
    scalar multiple of the linear Brauer vector of lambda, sorted.

    Spin vectors are grouped by direction key; each linear vector is
    confirmed, and the ratio taken, only against the spin vectors with its
    own key (lambda and its conjugate share one).  Only the spin keys are
    kept, as there are far fewer strict labels than partitions."""
    lin, spn = load_or_build_tables(n, cache_dir)
    by_key = {}
    for svec in spn.values():
        key = direction_key(svec.values)
        if key is not None:
            by_key.setdefault(key, []).append(svec)
    out = []
    for la, lvec in lin.items():
        for svec in by_key.get(direction_key(lvec.values), ()):
            c = proportionality_ratio(svec.values, lvec.values)
            if c is not None:
                out.append((svec.label, la, c))
    return sorted(out, key=lambda rec: (rec[0], rec[1]))
