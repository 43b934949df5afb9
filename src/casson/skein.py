"""Independent computation of v2 by the descending-diagram algorithm.

Walk the diagram from the base point; whenever a chord is first met at its
head (an undercrossing on first passage), switch that crossing.  Each switch
contributes sign * lk of the two-component smoothing, evaluated on the
diagram state at switch time.  The walk ends on a descending diagram, which
represents the unknot, so the accumulated total is v2.

The linking number of a smoothing is computed two ways: by the closed-form
chord count and by explicitly two-coloring the smoothed components.  The two
counts must agree, or `NotDescendingRealizable` is raised: a mismatch means
the input was not realizable.  Both are O(n) scans of the state kept on
endpoint indices, so the descent is O(n^2) for n chords.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .diagram import GaussDiagram

__all__ = ["FlipTrace", "descend", "lk_smoothed", "lk_smoothed_two_color", "v2_skein"]


class NotDescendingRealizable(ValueError):
    """The descent's checks failed: the two lk counts disagreed (the diagram
    state is not realizable) or the final diagram is not descending."""


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


def _lk_count(tail, head, sign, c: int) -> int:
    """Closed-form lk of the smoothing at chord index c, on endpoint indices:
    sum of signs of chords interlocked with c whose head lies after c's tail."""
    lo, hi = min(tail[c], head[c]), max(tail[c], head[c])
    tc = tail[c]
    total = 0
    for t, h, s in zip(tail, head, sign):
        if (lo < t < hi) != (lo < h < hi) and h > tc:
            total += s
    return total


def _two_color_crossings(tail, head, sign, c: int) -> int:
    """Signed count of crossings between the two components of the
    smoothing at chord index c; lk is half of it."""
    lo, hi = min(tail[c], head[c]), max(tail[c], head[c])
    total = 0
    for t, h, s in zip(tail, head, sign):
        if (lo < t < hi) != (lo < h < hi):
            total += s
    return total


def _chord_index(diagram: GaussDiagram, chord_id: int) -> int:
    return diagram.chords.index(diagram.chord(chord_id))


def lk_smoothed(diagram: GaussDiagram, chord_id: int) -> int:
    """Closed-form lk of the smoothing at a chord.

    Sum of signs of chords interlocked with it whose head lies on the arc
    from its tail forward to the base point.
    """
    v = diagram.index_view
    return _lk_count(v.tail, v.head, v.sign, _chord_index(diagram, chord_id))


def lk_smoothed_two_color(diagram: GaussDiagram, chord_id: int) -> Fraction:
    """lk of the smoothing by two-coloring the components.

    Smoothing at a chord splits the circle into the arc tail->head and the
    arc head->tail; inter-component crossings are exactly the interlocked
    chords, and lk is half their signed count.  Returns an exact Fraction so
    a non-integer result (impossible on realizable inputs) is visible.
    """
    v = diagram.index_view
    c = _chord_index(diagram, chord_id)
    return Fraction(_two_color_crossings(v.tail, v.head, v.sign, c), 2)


def is_descending(diagram: GaussDiagram) -> bool:
    """Every chord is first met at its tail."""
    return all(c.tail < c.head for c in diagram.chords)


def descend(diagram: GaussDiagram, check_two_color: bool = True) -> FlipTrace:
    """Switch first-met-at-head crossings until the diagram is descending.

    The state is kept as tail, head and sign lists on endpoint indices and
    flipped in place; the final diagram is built once at the end.
    """
    v = diagram.index_view
    tail, head, sign = list(v.tail), list(v.head), list(v.sign)
    flips = []
    for p, c in enumerate(v.at):
        if head[c] != p or tail[c] < p:
            continue
        lk = _lk_count(tail, head, sign, c)
        if check_two_color:
            crossings = _two_color_crossings(tail, head, sign, c)
            if crossings != 2 * lk:
                raise NotDescendingRealizable(
                    f"lk mismatch at chord {diagram.chords[c].id}: count {lk} "
                    f"vs smoothing {Fraction(crossings, 2)}")
        flips.append((diagram.chords[c].id, sign[c], lk))
        tail[c], head[c], sign[c] = head[c], tail[c], -sign[c]
    final = GaussDiagram([c.reversed() if s != c.sign else c
                          for c, s in zip(diagram.chords, sign)],
                         shape=diagram.shape)
    if not is_descending(final):
        raise NotDescendingRealizable("descent ended on a non-descending diagram")
    return FlipTrace(tuple(flips), final)


def v2_skein(diagram: GaussDiagram) -> int:
    """v2 as the sum of sign * lk over the descent's crossing switches."""
    return descend(diagram).total
