"""Abacus displays: beta-numbers laid out on runners.

A display with p runners and r beads places a bead at position b for each
beta-number b; position b sits on runner b mod p at slot b div p.  Slot 0 is
the top row.  Adding p*k to every part of the empty display's bead set is the
display of the empty partition with r+... (extending r keeps the partition,
shifts all positions).
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
    bead_count: int
    beads: frozenset

    def runner(self, eps):
        return sorted(b for b in self.beads if b % self.runner_count == eps)

    def slots(self, eps):
        return [(b - eps) // self.runner_count for b in self.runner(eps)]


def display(la, p=2, r=None):
    check_partition(la)
    if r is None:
        r = len(la)
    return AbacusDisplay(p, r, frozenset(beta_numbers(la, r)))


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
    lc = len(k_core(la, 2))
    r = len(la)
    if r % 2 != lc % 2:
        r += 1
    return r


def two_quotient(la):
    """(2-core, (q0, q1)) read off the canonical 2-runner display."""
    d = display(la, 2, canonical_bead_count(la))
    quots = []
    for eps in (0, 1):
        slots = d.slots(eps)
        parts = [s - i for i, s in enumerate(slots)]
        quots.append(tuple(p for p in sorted(parts, reverse=True) if p))
    return k_core(la, 2), (quots[0], quots[1])


def from_core_quotient(core, q0, q1):
    """The partition with the given 2-core and 2-quotient."""
    if k_core(core, 2) != core:
        raise ValueError(f"{core} is not a 2-core")
    # each two more beads put one more on each runner, so both hold enough
    d = display(core, 2, len(core) + 2 * max(len(q0), len(q1)))
    beads = []
    for eps, q in ((0, q0), (1, q1)):
        slots = d.slots(eps)
        grown = sorted(q, reverse=False)
        grown = [0] * (len(slots) - len(grown)) + grown
        for i in range(len(slots)):
            beads.append((i + grown[i]) * 2 + eps)
    return partition_from_beta(beads)


def swp(la, eps):
    """Swap the two runners of the display whose bead count r satisfies
    r = 1 - eps mod 2; realized by toggling the last bit of every position."""
    r = len(la)
    if r % 2 != (1 - eps) % 2:
        r += 1
    beads = beta_numbers(la, r)
    return partition_from_beta([b ^ 1 for b in beads])


def bswp(al, eps):
    """Spin analogue of swp, as a rewriting of parts: odd parts congruent to
    2*eps - 1 mod 4 grow by 2, odd parts bigger than 1 congruent to 2*eps + 1
    shrink by 2, and for eps = 0 a part equal to 1 toggles on or off.  Even
    parts never move.  An involution on strict partitions."""
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
    out = tuple(sorted(parts, reverse=True))
    check_strict(out)
    return out

