"""Two-runner abacus displays: beta-numbers laid out on runners 0 and 1.

With r beads, position b holds a bead for each beta-number b; it sits on
runner b mod 2 (its parity) at slot b div 2 (its half), slot 0 the top row
(James-Kerber 1981, 2.7).  Adding one bead at 0 and shifting every other
bead up by one keeps the partition and swaps the runners.  The 2-quotient,
its inverse and the runner swap read runner and slot off each bead, and
count a 2-core's beads, which fill each runner from the top.
"""

from __future__ import annotations

from barspin.partitions import (
    beta_numbers,
    check_partition,
    check_residue,
    check_strict,
    k_core,
    partition_from_beta,
)


def pretty(la):
    """ASCII picture of the canonical display of la, one slot per line,
    'X' bead / '-' gap."""
    check_partition(la)
    beads = set(beta_numbers(la, canonical_bead_count(la)))
    lines = ["runners 0 1"]
    for slot in range(max(beads, default=-1) // 2 + 1):
        lines.append("        " + " ".join("X" if 2 * slot + j in beads else "-" for j in (0, 1)))
    return "\n".join(lines)


def canonical_bead_count(la):
    """Smallest r >= len(la) with r = length of the 2-core mod 2."""
    return len(la) + (len(la) - len(k_core(la, 2))) % 2


def two_quotient(la):
    """(2-core, (q0, q1)) read off the canonical 2-runner display: runner
    eps with slots s_0 > ... > s_(m-1) gives q_eps the parts s_j - m + 1 + j."""
    core = k_core(la, 2)
    halves = ([], [])
    # canonical_bead_count, with the core at hand
    for b in beta_numbers(la, len(la) + (len(la) - len(core)) % 2):
        halves[b & 1].append(b >> 1)
    return core, tuple(tuple(filter(None, (s - len(h) + 1 + j for j, s in enumerate(h))))
                       for h in halves)


def from_core_quotient(core, q0, q1):
    """The partition with the given 2-core and 2-quotient: the core fills
    slots 0..m-1 of runner eps, and its j-th bead from the bottom moves
    down by the j-th part of q_eps."""
    for la in (core, q0, q1):
        check_partition(la)
    # each two more beads put one more on each runner, so both hold enough
    counts, slots = [0, 0], [0, 0]
    for b in beta_numbers(core, len(core) + 2 * max(len(q0), len(q1))):
        counts[b & 1] += 1
        slots[b & 1] += b >> 1
    # m beads fill slots 0..m-1 exactly when their slots sum to m(m-1)/2
    if any(s != m * (m - 1) // 2 for m, s in zip(counts, slots)):
        raise ValueError(f"{core} is not a 2-core")
    beads = []
    for eps, (m, q) in enumerate(zip(counts, (q0, q1))):
        parts = [*q] + [0] * (m - len(q))
        beads.extend(2 * (m - 1 - j + part) + eps for j, part in enumerate(parts))
    return partition_from_beta(beads)


def swp(la, eps):
    """Swap the two runners of the display whose bead count r satisfies
    r = 1 - eps mod 2; realized by toggling the last bit of every position."""
    check_partition(la)
    check_residue(eps)
    r = len(la) + (len(la) + eps + 1) % 2
    return partition_from_beta([b ^ 1 for b in beta_numbers(la, r)])


def bswp(al, eps):
    """Spin analogue of swp, as a rewriting of parts: odd parts congruent to
    2*eps - 1 mod 4 grow by 2, odd parts bigger than 1 congruent to 2*eps + 1
    shrink by 2, and for eps = 0 a part equal to 1 toggles on or off.  Even
    parts never move.  An involution on strict partitions: it swaps odd
    numbers in pairs, (1,3), (5,7), ... for eps = 1 and (3,5), (7,9), ...
    for eps = 0."""
    check_strict(al)
    check_residue(eps)
    up = (2 * eps - 1) % 4
    parts = []
    for a in al:
        if a % 2 == 0:
            parts.append(a)
        elif a % 4 == up:
            parts.append(a + 2)
        elif a > 1:
            parts.append(a - 2)
        # a == 1 with eps == 0: drop (toggle off)
    if eps == 0 and 1 not in al:
        parts.append(1)
    return tuple(sorted(parts, reverse=True))

