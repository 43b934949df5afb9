"""Independent computation of v2 by the descending-diagram algorithm.

Walk the diagram from the base point; whenever a chord is first met at its
head (an undercrossing on first passage), switch that crossing.  Each switch
contributes sign * lk of the two-component smoothing, evaluated on the
diagram state at switch time.  The walk ends on a descending diagram, which
represents the unknot, so the accumulated total is v2.

Every switch counts the linking number of its smoothing two ways: half
the signed crossings between its two components, and the signed count of
those whose heads lie after the switched chord's tail.  They must agree,
or `NotDescendingRealizable` is raised: the input was not realizable.

Each count is one scan of every chord in the state its switch sees, done
on Python-int bitsets indexed by chord, 64 chords to a machine word: the
walk keeps the parity of the endpoints passed so far and the tails passed
so far, stores the parity mask at each switched chord's head, and reads
both counts off three masks at its tail (`_flip_counts`).  The descent
takes O(n^2 / 64) word operations for n chords, and keeps one n-bit mask
per switch whose tail the walk has not reached yet.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .diagram import GaussDiagram

__all__ = ["FlipTrace", "descend", "v2_skein"]


class NotDescendingRealizable(ValueError):
    """The two lk counts of a switched crossing disagreed: the diagram state
    is not realizable."""


@dataclass(frozen=True)
class FlipTrace:
    flips: tuple[tuple[int, int, int], ...]  # (chord id, sign at flip time, lk)

    @property
    def total(self) -> int:
        return sum(sign * lk for _, sign, lk in self.flips)


def _flip_counts(e_head: int, e_tail: int, tails: int, pos: int,
                 switched: int) -> tuple[int, int]:
    """(crossings, lk) of the smoothing at a switched chord: one scan of
    every chord in the state its switch sees, on bitsets indexed by chord.

    The chord's head comes before its tail.  `e_head` and `e_tail` hold
    the chords with an odd number of endpoints up to the head and before
    the tail, `tails` those with their tail before the tail, `pos` those
    of sign +1 in the input, and `switched` those switched before the walk
    reached the tail.  A chord with exactly one endpoint strictly between
    head and tail is in `x`.  If it is not in `e_tail`, its other endpoint
    lies before the head, and its sign is flipped iff it is in `switched`.
    If it is in `e_tail`, its other endpoint lies after the tail, it is
    not switched yet, and it counts toward lk iff that endpoint is its
    head, that is, iff it is in `tails`.
    """
    x = e_head ^ e_tail
    pos ^= switched & ~e_tail
    lk_set = x & e_tail & tails
    return (2 * (x & pos).bit_count() - x.bit_count(),
            2 * (lk_set & pos).bit_count() - lk_set.bit_count())


def descend(diagram: GaussDiagram) -> FlipTrace:
    """Switch first-met-at-head crossings until the diagram is descending.

    The walk meets each chord's lower endpoint once and switches the chord
    when that endpoint is its head, so the switched chords are the
    head-first ones, in the order of their heads, and every chord of the
    final diagram is tail-first.  One walk computes each switch's counts at
    its tail; a second, over the switches in circle order, checks them and
    raises at the first whose counts disagree.  The final diagram is the
    input with the switched chords reversed; it is not built.
    """
    tail, sign, at, ids = diagram.tail, diagram.sign, diagram.at, diagram.ids
    digits = "".join(["1" if s > 0 else "0" for s in reversed(sign)])
    pos = int(digits or "0", 2)   # the chords of sign +1
    # switched chord -> the parity mask at its head, then its counts;
    # insertion keeps the heads' circle order
    counts = {}
    parity = tails = switched = 0
    for p, c in enumerate(at):
        bit, t = 1 << c, tail[c]
        if p == t:
            if c in counts:
                counts[c] = _flip_counts(counts[c], parity, tails, pos,
                                         switched)
            tails |= bit
        parity ^= bit
        if p < t:
            counts[c] = parity
            switched |= bit
    flips = []
    for c, (crossings, lk) in counts.items():
        if crossings != 2 * lk:
            raise NotDescendingRealizable(
                f"lk mismatch at chord {ids[c]}: count {lk} "
                f"vs smoothing {Fraction(crossings, 2)}")
        flips.append((ids[c], sign[c], lk))
    return FlipTrace(tuple(flips))


def v2_skein(diagram: GaussDiagram) -> int:
    """v2 as the sum of sign * lk over the descent's crossing switches."""
    return descend(diagram).total
