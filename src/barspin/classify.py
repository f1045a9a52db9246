"""Which strict partitions have spin character proportional to a linear one,
and the partition the linear character is labelled by.

The classification: alpha works exactly when it is 4-stepped (each part > 4
has its predecessor part - 4) and 4-semicongruent (all odd parts agree mod 4),
equivalently alpha is a 4-bar-core joined with twice a componentwise sum of
two staircases: alpha = bar_staircase(a) U 2*(delta_r + delta_s) with
r >= s >= 0, of size n = a(a+1)/2 + r(r+1) + s(s+1).  The linear label is
the partition with 2-core delta_a and 2-quotient the two staircases, up to
conjugation.  `predicted_pairs` enumerates the triples (a, r, s) of size n;
its test oracle `predicted_pairs_by_filter` runs `fsas_decompose` on every
strict partition of n instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from barspin.abacus import from_core_quotient
from barspin.partitions import (
    bar_staircase,
    check_size,
    check_strict,
    conjugate,
    even_parts,
    odd_parts,
    scale_parts,
    staircase,
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
        return rock_label(self.a, (), sum_parts(staircase(self.r), staircase(self.s)))

    def linear_labels(self):
        """The partition with 2-core delta_a and 2-quotient (delta_s,
        delta_r), and its conjugate."""
        la = from_core_quotient(staircase(self.a), staircase(self.s), staircase(self.r))
        return la, conjugate(la)


def fsas_decompose(al):
    """FsasDecomposition for alpha, or None.

    alpha is FSAS exactly when its RoCK decomposition has sigma empty and
    eta = delta_r + delta_s with r >= s, which has r parts and first part
    r + s; the odd parts are then bar_staircase(b), so a = b."""
    dec = spin_rock_decompose(al)
    if dec is None or dec[1]:
        return None
    b, _, eta = dec
    r = len(eta)
    s = eta[0] - r if eta else 0
    return FsasDecomposition(b, r, s) if eta == sum_parts(staircase(r), staircase(s)) else None


def ratio_exponent(al):
    """e with spin value = sqrt2^e times the linear value; counts even parts."""
    return len(even_parts(al))


def predicted_pairs(n):
    """All (alpha, lambda) expected proportional at size n, with the exponent:
    a sorted list of (alpha, lambda, e).

    alpha runs over the FSAS labels rebuilt from the triples (a, r, s) with
    n = a(a+1)/2 + r(r+1) + s(s+1) and r >= s >= 0.  The odd parts of the
    rebuilt label are bar_staircase(a) and its even parts 2*(delta_r +
    delta_s), so distinct triples give distinct labels, and e = r.  The
    tests check it against `predicted_pairs_by_filter`, which runs
    `fsas_decompose` on every strict partition of n."""
    check_size(n)
    out = []
    for a in range(isqrt(2 * n) + 1):
        for r in range(isqrt(n) + 1):
            for s in range(r + 1):
                if a * (a + 1) // 2 + r * (r + 1) + s * (s + 1) != n:
                    continue
                dec = FsasDecomposition(a, r, s)
                al = dec.rebuild()
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
    b = 2 * len(odds) - (odds[-1] % 4 == 1) if odds else 0
    # bar_staircase(b) has len(odds) parts, 4 apart, ending in the residue
    # of odds[-1] (1 or 3).  Odd parts with one residue mod 4 are at least
    # 4 apart too, and odds[-1] is at least that last part, so each
    # difference is a non-negative multiple of 4 and sigma weakly decreases.
    sigma = tuple(d // 4 for d in (p - q for p, q in zip(odds, bar_staircase(b))) if d)
    eta = tuple(p // 2 for p in even_parts(al))
    return b, sigma, eta


def rock_label(b, sigma, eta):
    """(bar_staircase(b) + 4*sigma) U 2*eta, the inverse of
    spin_rock_decompose.  A sigma longer than bar_staircase(b) adds its
    extra parts times 4 as even parts; callers check the label is strict."""
    return union_parts(sum_parts(bar_staircase(b), scale_parts(sigma, 4)), scale_parts(eta, 2))
