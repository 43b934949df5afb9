"""The pairing bracket: signed counts of interlocked two-chord subdiagrams.

A pattern is one of the four interlocked two-chord arrow diagrams: reading
from the base point, its endpoints run a b a b, and each chord points
forward (tail first) or backward.  The bracket of a pattern with a diagram
is the sum of w_a * w_b over chord pairs that match it, with w the chord
signs (or 1, for `unsigned_match_count`); it is linear in integer
combinations of patterns.  Polyak-Viro's v2, the Arf invariant and the
Morse and associator formulas use no other patterns.

The count works on the diagram's integer endpoint arrays
(`GaussDiagram.tail`, `head`, `sign` and `at`): a pair matches when its
endpoints read l_a < l_b < r_a < r_b and each chord points the way the
pattern says, which is a 2D dominance count, done by one Fenwick-tree
sweep in O(n log n).
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagram import GaussDiagram

__all__ = [
    "ArrowPattern",
    "PatternCombination",
    "XUP", "XDOWN", "XFWD", "XBWD", "X_ALL", "XFB",
    "bracket",
    "unsigned_match_count",
]


@dataclass(frozen=True)
class ArrowPattern:
    """Interlocked two-chord pattern given as slots (chord label, 'H'|'T').

    The four slots are listed in circle order from the base point and read
    a b a b, each chord with one head and one tail; any other word raises
    `ValueError`.
    """

    name: str
    slots: tuple[tuple[int, str], ...]
    arity = 2   # chords per pattern

    def __post_init__(self):
        labels = [label for label, _ in self.slots]
        kinds = ({kind for _, kind in self.slots[0::2]},
                 {kind for _, kind in self.slots[1::2]})
        if len(labels) != 4 or labels[0] == labels[1] \
                or labels[2:] != labels[:2] or kinds != ({"H", "T"},) * 2:
            raise ValueError("a pattern is two interlocked chords a b a b, "
                             f"each with one head and one tail; got {self.slots!r}")

    @property
    def forward(self) -> tuple[bool, bool]:
        """(chord a forward, chord b forward); a chord is forward when its
        tail comes first."""
        return self.slots[0][1] == "T", self.slots[1][1] == "T"


@dataclass(frozen=True)
class PatternCombination:
    """Formal integer combination of patterns; the bracket is linear in it."""

    terms: tuple[tuple[int, ArrowPattern], ...]


def _terms(obj) -> tuple[tuple[int, ArrowPattern], ...]:
    return obj.terms if isinstance(obj, PatternCombination) else ((1, obj),)


# The four interlocked two-chord patterns.  Slots 1..4 in order from the base
# point; XUP is pinned by the calibration suite (only this choice reproduces
# the trefoil and figure-eight values together with full move invariance).
XUP = ArrowPattern("xup", ((1, "H"), (2, "T"), (1, "T"), (2, "H")))
XDOWN = ArrowPattern("xdown", ((1, "T"), (2, "H"), (1, "H"), (2, "T")))
XFWD = ArrowPattern("xfwd", ((1, "T"), (2, "T"), (1, "H"), (2, "H")))
XBWD = ArrowPattern("xbwd", ((1, "H"), (2, "H"), (1, "T"), (2, "T")))
X_ALL = PatternCombination(((1, XUP), (1, XDOWN), (1, XFWD), (1, XBWD)))
XFB = PatternCombination(((1, XFWD), (1, XBWD)))


def _interlock_sum(diagram: GaussDiagram, weight, a_forward: bool,
                   b_forward: bool) -> int:
    """Sum of w_a * w_b over chord pairs with l_a < l_b < r_a < r_b, chord a
    pointing forward iff a_forward and chord b iff b_forward.

    One sweep over the endpoints: at each chord's left end l, chords of the
    b kind add their weight times the a-weight stored on (l, r), and chords
    of the a kind then store their weight at their right end r.  Everything
    stored so far has a smaller left end, so the query counts exactly the a
    with l_a < l < r_a < r.
    """
    tail, head = diagram.tail, diagram.head
    size = len(diagram.at)
    tree = [0] * (size + 1)
    total = 0
    for p, c in enumerate(diagram.at):
        t, h = tail[c], head[c]
        forward = p == t
        r = h if forward else t
        if r < p:
            continue
        if forward == b_forward:
            s, i = 0, r                 # prefix through index r - 1
            while i:
                s += tree[i]
                i &= i - 1
            i = p + 1                   # minus prefix through index p
            while i:
                s -= tree[i]
                i &= i - 1
            total += weight[c] * s
        if forward == a_forward:
            i = r + 1
            while i <= size:
                tree[i] += weight[c]
                i += i & -i
    return total


def bracket(pattern, diagram: GaussDiagram) -> int:
    """Sum of chord-sign products over subdiagrams matching the pattern."""
    return sum(coeff * _interlock_sum(diagram, diagram.sign, *pat.forward)
               for coeff, pat in _terms(pattern))


def unsigned_match_count(pattern, diagram: GaussDiagram) -> int:
    """Plain number of matching subdiagrams, ignoring chord signs."""
    ones = (1,) * diagram.n
    return sum(coeff * _interlock_sum(diagram, ones, *pat.forward)
               for coeff, pat in _terms(pattern))
