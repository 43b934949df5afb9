"""Independent computation of v2 by the descending-diagram algorithm.

Walk the diagram from the base point; whenever a chord is first met at its
head (an undercrossing on first passage), switch that crossing.  Each switch
contributes sign * lk of the two-component smoothing, evaluated on the
diagram state at switch time.  The walk ends on a descending diagram, which
represents the unknot, so the accumulated total is v2.

One O(n) scan of the state, a copy of the diagram's tail, head and sign
arrays flipped in place, counts the linking number of a smoothing two
ways: half the signed crossings between its two components, and the
closed-form count of those whose heads lie after the switched chord's
tail.  They must agree, or `NotDescendingRealizable` is
raised: the input was not realizable.  The descent is O(n^2) for n chords.
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
    final_diagram: GaussDiagram

    @property
    def total(self) -> int:
        return sum(sign * lk for _, sign, lk in self.flips)

    def to_dict(self) -> dict:
        return {
            "flips": [{"chord": cid, "sign": sign, "lk": lk}
                      for cid, sign, lk in self.flips],
            "final": self.final_diagram.serialize(),
        }


def _interlock_scan(tail, head, sign, c: int) -> tuple[int, int]:
    """(crossings, lk) of the smoothing at chord index c, on endpoint
    indices: the signed count of chords interlocked with c, and the part of
    that count whose heads lie after c's tail."""
    tc = tail[c]
    lo, hi = min(tc, head[c]), max(tc, head[c])
    crossings = lk = 0
    for t, h, s in zip(tail, head, sign):
        if (lo < t < hi) != (lo < h < hi):
            crossings += s
            if h > tc:
                lk += s
    return crossings, lk


def descend(diagram: GaussDiagram) -> FlipTrace:
    """Switch first-met-at-head crossings until the diagram is descending.

    The state is kept as tail, head and sign lists on endpoint indices and
    flipped in place; the final diagram is built once at the end, by
    `GaussDiagram.from_endpoint_order` from the flipped lists.  The walk
    meets each chord's lower endpoint once and flips the chord when that
    endpoint is its head, so every chord of the final diagram is
    tail-first.
    """
    tail, head, sign = map(list, (diagram.tail, diagram.head, diagram.sign))
    flips = []
    for p, c in enumerate(diagram.at):
        if head[c] != p or tail[c] < p:
            continue
        crossings, lk = _interlock_scan(tail, head, sign, c)
        if crossings != 2 * lk:
            raise NotDescendingRealizable(
                f"lk mismatch at chord {diagram.ids[c]}: count {lk} "
                f"vs smoothing {Fraction(crossings, 2)}")
        flips.append((diagram.ids[c], sign[c], lk))
        tail[c], head[c], sign[c] = head[c], tail[c], -sign[c]
    ids = diagram.ids
    final = GaussDiagram.from_endpoint_order(
        [(ids[c], "T" if tail[c] == p else "H") for p, c in enumerate(diagram.at)],
        dict(zip(ids, sign)))
    return FlipTrace(tuple(flips), final)


def v2_skein(diagram: GaussDiagram) -> int:
    """v2 as the sum of sign * lk over the descent's crossing switches."""
    return descend(diagram).total
