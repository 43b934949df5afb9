"""The pairing bracket: signed counts of subdiagrams matching an arrow pattern.

A pattern is an unsigned based chord configuration; the bracket of a pattern
with a diagram sums the product of chord signs over all chord subsets whose
endpoint order and arrow directions, read from the base point, match the
pattern.

Both kernels work on the diagram's integer endpoint indices
(`GaussDiagram.index_view`).  The four interlocked two-chord patterns
(`XUP`, `XDOWN`, `XFWD`, `XBWD`) are counted by one Fenwick-tree sweep in
O(n log n): a pair matches when its endpoints read l_a < l_b < r_a < r_b
and each chord points the way the pattern says, which is a 2D dominance
count.  Every other pattern goes through the subset enumerator, which tries
all C(n, k) chord subsets and compares canonical endpoint words;
`enumerated_bracket` runs it for every pattern and is the reference the
fast path is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from .diagram import EndpointIndex, GaussDiagram

__all__ = [
    "ArrowPattern",
    "PatternCombination",
    "XUP", "XDOWN", "XFWD", "XBWD", "X_ALL", "XFB",
    "PATTERNS_BY_NAME",
    "bracket",
    "unsigned_match_count",
    "enumerated_bracket",
]


def _canonical(seq) -> tuple[tuple[int, str], ...]:
    """Endpoint word with chord labels renumbered by first appearance."""
    relabel: dict = {}
    return tuple((relabel.setdefault(key, len(relabel)), kind)
                 for key, kind in seq)


@dataclass(frozen=True)
class ArrowPattern:
    """Chord-configuration template given as slots (chord index, 'H'|'T').

    Slots are listed in circle order starting from the base point; each chord
    index must occur exactly once as head and once as tail.
    """

    name: str
    slots: tuple[tuple[int, str], ...]

    def __post_init__(self):
        ends: dict[int, set[str]] = {}
        for idx, kind in self.slots:
            if kind not in ("H", "T"):
                raise ValueError(f"slot kind must be 'H' or 'T', got {kind!r}")
            ends.setdefault(idx, set()).add(kind)
        if any(kinds != {"H", "T"} for kinds in ends.values()) or \
                len(self.slots) != 2 * len(ends):
            raise ValueError("each pattern chord needs exactly one head and one tail")
        if not ends:
            raise ValueError("pattern must have at least one chord")

    @property
    def arity(self) -> int:
        return len(self.slots) // 2

    @cached_property
    def canonical(self) -> tuple[tuple[int, str], ...]:
        return _canonical(self.slots)

    def __add__(self, other):
        return PatternCombination(((1, self),) + _terms(other))

    def __rmul__(self, k: int):
        return PatternCombination(((k, self),))

    def matches(self, endpoint_seq: list[tuple[int, str]]) -> bool:
        """Does an endpoint sequence (chord key, kind) realize this pattern?

        True when both words agree once chords are relabelled by first
        appearance.
        """
        return _canonical(endpoint_seq) == self.canonical


@dataclass(frozen=True)
class PatternCombination:
    """Formal integer combination of patterns; the bracket is linear in it."""

    terms: tuple[tuple[int, ArrowPattern], ...]

    def __add__(self, other):
        return PatternCombination(self.terms + _terms(other))

    def __rmul__(self, k: int):
        return PatternCombination(tuple((k * c, p) for c, p in self.terms))


def _terms(obj) -> tuple[tuple[int, ArrowPattern], ...]:
    if isinstance(obj, ArrowPattern):
        return ((1, obj),)
    if isinstance(obj, PatternCombination):
        return obj.terms
    raise TypeError(f"expected a pattern or combination, got {type(obj).__name__}")


# The four interlocked two-chord patterns.  Slots 1..4 in order from the base
# point; XUP is pinned by the calibration suite (only this choice reproduces
# the trefoil and figure-eight values together with full move invariance).
XUP = ArrowPattern("xup", ((1, "H"), (2, "T"), (1, "T"), (2, "H")))
XDOWN = ArrowPattern("xdown", ((1, "T"), (2, "H"), (1, "H"), (2, "T")))
XFWD = ArrowPattern("xfwd", ((1, "T"), (2, "T"), (1, "H"), (2, "H")))
XBWD = ArrowPattern("xbwd", ((1, "H"), (2, "H"), (1, "T"), (2, "T")))
X_ALL = PatternCombination(((1, XUP), (1, XDOWN), (1, XFWD), (1, XBWD)))
XFB = PatternCombination(((1, XFWD), (1, XBWD)))

PATTERNS_BY_NAME = {
    "xup": XUP,
    "xdown": XDOWN,
    "xfwd": XFWD,
    "xbwd": XBWD,
    "xall": X_ALL,
}


def _interlock_directions(pattern: ArrowPattern) -> tuple[bool, bool] | None:
    """(first chord forward, second chord forward) for an interlocked
    two-chord pattern, None for any other pattern.  A chord is forward
    when its tail precedes its head."""
    word = pattern.canonical
    if [label for label, _ in word] != [0, 1, 0, 1]:
        return None
    return word[0][1] == "T", word[1][1] == "T"


def _interlock_sum(view: EndpointIndex, weight, a_forward: bool,
                   b_forward: bool) -> int:
    """Sum of w_a * w_b over chord pairs with l_a < l_b < r_a < r_b, chord a
    pointing forward iff a_forward and chord b iff b_forward.

    One sweep over the endpoints: at each chord's left end l, chords of the
    b kind add their weight times the a-weight stored on (l, r), and chords
    of the a kind then store their weight at their right end r.  Everything
    stored so far has a smaller left end, so the query counts exactly the a
    with l_a < l < r_a < r.
    """
    tail, head = view.tail, view.head
    size = len(view.at)
    tree = [0] * (size + 1)
    total = 0
    for p, c in enumerate(view.at):
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


def _enumerate(pattern: ArrowPattern, view: EndpointIndex, weight) -> int:
    """Sum of weight products over all matching chord subsets, by trying
    every subset of the pattern's size."""
    tail, head = view.tail, view.head
    total = 0
    for subset in combinations(range(len(tail)), pattern.arity):
        ends = sorted([(tail[c], c, "T") for c in subset]
                      + [(head[c], c, "H") for c in subset])
        if pattern.matches([(c, kind) for _, c, kind in ends]):
            prod = 1
            for c in subset:
                prod *= weight[c]
            total += prod
    return total


def _count(pattern: ArrowPattern, view: EndpointIndex, weight) -> int:
    directions = _interlock_directions(pattern)
    if directions is None:
        return _enumerate(pattern, view, weight)
    return _interlock_sum(view, weight, *directions)


def bracket(pattern, diagram: GaussDiagram) -> int:
    """Sum of chord-sign products over subdiagrams matching the pattern."""
    view = diagram.index_view
    return sum(coeff * _count(pat, view, view.sign)
               for coeff, pat in _terms(pattern))


def unsigned_match_count(pattern, diagram: GaussDiagram) -> int:
    """Plain number of matching subdiagrams, ignoring chord signs."""
    view = diagram.index_view
    ones = (1,) * diagram.n
    return sum(coeff * _count(pat, view, ones) for coeff, pat in _terms(pattern))


def enumerated_bracket(pattern, diagram: GaussDiagram, signed: bool = True) -> int:
    """`bracket` (or, unsigned, `unsigned_match_count`) by subset enumeration
    for every pattern: the slow reference for the fast kernel."""
    view = diagram.index_view
    weight = view.sign if signed else (1,) * diagram.n
    return sum(coeff * _enumerate(pat, view, weight)
               for coeff, pat in _terms(pattern))
