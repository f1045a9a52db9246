"""Which strict partitions have spin character proportional to a linear one,
and the partition the linear character is labelled by.

The classification: alpha works exactly when it is 4-stepped (each part > 4
has its predecessor part - 4) and 4-semicongruent (all odd parts agree mod 4),
equivalently alpha is a 4-bar-core joined with twice a componentwise sum of
two staircases.  The linear label is the partition with 2-core delta_a and
2-quotient the two staircases, up to conjugation.
"""

from __future__ import annotations

from dataclasses import dataclass

from barspin.abacus import from_core_quotient
from barspin.partitions import (
    bar_staircase,
    bar_staircase_index,
    check_size,
    check_strict,
    conjugate,
    even_parts,
    odd_parts,
    scale_parts,
    size,
    staircase,
    strict_partitions_of,
    sum_parts,
    union_parts,
)


@dataclass(frozen=True)
class FsasDecomposition:
    """alpha = bar_staircase(a) U 2*(staircase(r) + staircase(s)), r >= s."""
    a: int
    r: int
    s: int

    def rebuild(self):
        evens = scale_parts(sum_parts(staircase(self.r), staircase(self.s)), 2)
        return union_parts(bar_staircase(self.a), evens)

    def linear_labels(self):
        """The partition with 2-core delta_a and 2-quotient (delta_s,
        delta_r), and its conjugate."""
        la = from_core_quotient(staircase(self.a), staircase(self.s), staircase(self.r))
        return la, conjugate(la)


def fsas_decompose(al):
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


def lambda_of(al):
    """The two conjugate linear labels for an FSAS alpha; the first has the
    smaller staircase in quotient component 0."""
    dec = fsas_decompose(al)
    if dec is None:
        raise ValueError(f"{al} is not four-stepped and semicongruent")
    return dec.linear_labels()


def ratio_exponent(al):
    """e with spin value = sqrt2^e times the linear value; counts even parts."""
    return len(even_parts(al))


def predicted_pairs(n):
    """All (alpha, lambda) expected proportional at size n, with the exponent:
    a sorted list of (alpha, lambda, e)."""
    check_size(n)
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


def equality_cases(n):
    """Predicted pairs with at most one even part (spin and linear Brauer
    characters genuinely equal, not just proportional).  predicted_pairs
    checks n."""
    return [rec for rec in predicted_pairs(n) if rec[2] <= 1]


# ---------------------------------------------------------------------------
# RoCK labels

def spin_rock_decompose(al):
    """(b, sigma, eta) with alpha = (bar_staircase(b) + 4*sigma) U 2*eta,
    or None when the odd parts are not 4-semicongruent."""
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

