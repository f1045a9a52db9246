"""Two-runner abacus displays: beta-numbers laid out on runners 0 and 1.

With r beads, position b holds a bead for each beta-number b; it sits on
runner b mod 2 (its parity) at slot b div 2 (its half), slot 0 the top row
(James-Kerber 1981, 2.7).  Adding one bead at 0 and shifting every other
bead up by one keeps the partition and swaps the runners.  The 2-quotient,
its inverse and the runner swap read runner and slot off each bead.  A
2-core fills each runner from the top, so it is the staircase whose length
the difference of the two runners' bead counts gives, and no core is built
as a partition to be measured.
"""

from __future__ import annotations

from barspin.partitions import (
    beta_numbers,
    check_partition,
    check_residue,
    check_strict,
    partition_from_beta,
    staircase,
)


def pretty(la):
    """ASCII picture of the canonical display of la, one slot per line,
    'X' bead / '-' gap."""
    beads = set(beta_numbers(la, canonical_bead_count(la)))
    lines = ["runners 0 1"]
    for slot in range(max(beads, default=-1) // 2 + 1):
        lines.append("        " + " ".join("X" if 2 * slot + j in beads else "-" for j in (0, 1)))
    return "\n".join(lines)


def _runners(la):
    """The slots on runners 0 and 1 of the display of la with one bead per
    part, top first, and the length a of its 2-core: with d more beads on
    runner 1 than on runner 0, the core is staircase(d) for d >= 0 and
    staircase(-d - 1) otherwise."""
    check_partition(la)
    halves = ([], [])
    for b in beta_numbers(la):
        halves[b & 1].append(b >> 1)
    d = len(halves[1]) - len(halves[0])
    return halves, d if d >= 0 else -d - 1


def canonical_bead_count(la):
    """Smallest r >= len(la) with r = length of the 2-core mod 2."""
    return len(la) + (len(la) - _runners(la)[1]) % 2


def two_quotient(la):
    """(2-core, (q0, q1)) read off the canonical 2-runner display: runner
    eps with slots s_0 > ... > s_(m-1) gives q_eps the parts s_j - m + 1 + j.
    The runners are read with one bead per part; when the canonical display
    has one bead more, that bead swaps the runners and adds a zero part."""
    halves, a = _runners(la)
    quotient = tuple(tuple(filter(None, (s - len(h) + 1 + j for j, s in enumerate(h))))
                     for h in halves)
    return staircase(a), quotient[::-1] if (len(la) - a) % 2 else quotient


def from_core_quotient(core, q0, q1):
    """The partition with the given 2-core and 2-quotient.  The core is a
    staircase (a, ..., 1); with 2M + a beads, M = max(len q0, len q1), it
    fills slots 0..M-1 of runner 0 and 0..M+a-1 of runner 1, and the j-th
    bead from the bottom of runner eps moves down by the j-th part of q_eps.
    The beads, merged top first, less the staircase of positions, are the
    parts."""
    for la in (core, q0, q1):
        check_partition(la)
    a = len(core)
    if tuple(core) != staircase(a):
        raise ValueError(f"{core} is not a 2-core")
    m = max(len(q0), len(q1))
    beads = [2 * (m - 1 - j + part) for j, part in enumerate([*q0] + [0] * (m - len(q0)))]
    beads += [2 * (m + a - 1 - j + part) + 1
              for j, part in enumerate([*q1] + [0] * (m + a - len(q1)))]
    beads.sort(reverse=True)
    top = len(beads) - 1
    return tuple(filter(None, (b - top + i for i, b in enumerate(beads))))


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

