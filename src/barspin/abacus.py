"""Abacus displays: beta-numbers laid out on runners.

A display with p runners and r beads places a bead at position b for each
beta-number b; position b sits on runner b mod p at slot b div p.  Slot 0 is
the top row.  Adding one bead at 0 and shifting every other bead up by one
keeps the partition; on two runners it swaps the runners.

On two runners a bead's runner is its parity and its slot its half
(James-Kerber 1981, 2.7); the 2-quotient, its inverse and the runner swap
read both off the bead, and count a 2-core's beads, which fill each
runner from the top.
"""

from __future__ import annotations

from dataclasses import dataclass

from barspin.partitions import (
    beta_numbers,
    check_partition,
    check_strict,
    k_core,
    partition_from_beta,
)


@dataclass(frozen=True)
class AbacusDisplay:
    runner_count: int
    beads: frozenset


def display(la, p=2, r=None):
    check_partition(la)
    if r is None:
        r = len(la)
    return AbacusDisplay(p, frozenset(beta_numbers(la, r)))


def pretty(d):
    """ASCII picture, one slot per line, 'X' bead / '-' gap."""
    top = max(d.beads, default=-1) // d.runner_count
    lines = ["runners " + " ".join(str(j) for j in range(d.runner_count))]
    for slot in range(top + 1):
        row = " ".join(
            "X" if slot * d.runner_count + j in d.beads else "-"
            for j in range(d.runner_count)
        )
        lines.append("        " + row)
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
    if eps not in (0, 1):
        raise ValueError(f"residue must be 0 or 1, got {eps!r}")
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
    if eps not in (0, 1):
        raise ValueError(f"residue must be 0 or 1, got {eps!r}")
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

