"""Based Gauss diagrams and constructors from common knot notations.

A Gauss diagram records the double points of a knot projection as signed,
directed chords on the parametrizing circle.  Each chord points from the
overpass to the underpass and carries the local writhe as its sign.  A based
diagram additionally fixes a marked point on the circle; "long" diagrams put
that point at infinity.

Every method reads only the order of the endpoints around the circle, so
a chord's endpoints are integer indices: the 2n endpoints of a diagram sit
at 0..2n-1, numbered from the base point along the orientation.  A move
that inserts or deletes chords builds a new diagram from its endpoint
order (`GaussDiagram.from_endpoint_order`) rather than editing positions.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Literal, NamedTuple

__all__ = [
    "Chord",
    "GaussDiagram",
    "DiagramError",
    "DisagreementError",
    "EndpointIndex",
    "parse_gauss_code",
    "parse_pd_code",
    "from_braid_word",
    "torus_knot_2",
]


class DiagramError(ValueError):
    """Malformed notation or inconsistent diagram data."""


class DisagreementError(ArithmeticError):
    """Formulas that must give one integer do not: always a bug."""


@dataclass(frozen=True)
class Chord:
    """One double point: arrow from the overpass (tail) to the underpass (head)."""

    id: int
    tail: int
    head: int
    sign: int

    def __post_init__(self):
        if self.sign not in (-1, 1):
            raise DiagramError(f"chord {self.id}: sign must be +1 or -1, got {self.sign}")
        if self.tail == self.head:
            raise DiagramError(f"chord {self.id}: tail and head coincide")

    def reversed(self) -> "Chord":
        """Same chord with direction and sign flipped (a crossing change)."""
        return Chord(self.id, self.head, self.tail, -self.sign)


class EndpointIndex(NamedTuple):
    """Integer view of a diagram: endpoints numbered 0..2n-1 from the base point.

    ``tail[i]``, ``head[i]`` and ``sign[i]`` describe ``chords[i]`` of the
    diagram; ``at[p]`` is the index of the chord with an endpoint at p.
    """

    tail: tuple[int, ...]
    head: tuple[int, ...]
    sign: tuple[int, ...]
    at: tuple[int, ...]


class GaussDiagram:
    """Based Gauss diagram: signed directed chords on an oriented circle.

    Immutable after construction; all operations return new diagrams, so
    derived data such as `index_view` is computed once and cached.
    """

    def __init__(self, chords: Iterable[Chord], shape: Literal["closed", "long"] = "closed"):
        self.chords = tuple(chords)
        if shape not in ("closed", "long"):
            raise DiagramError(f"shape must be 'closed' or 'long', got {shape!r}")
        self.shape = shape
        positions = [p for c in self.chords for p in (c.tail, c.head)]
        if set(positions) != set(range(len(positions))):
            raise DiagramError(f"endpoint positions are not exactly "
                               f"0..{len(positions) - 1}")
        ids = [c.id for c in self.chords]
        if len(set(ids)) != len(ids):
            raise DiagramError("duplicate chord ids")
        self._by_id = {c.id: c for c in self.chords}

    @property
    def n(self) -> int:
        return len(self.chords)

    def chord(self, chord_id: int) -> Chord:
        try:
            return self._by_id[chord_id]
        except KeyError:
            raise DiagramError(f"unknown chord id {chord_id}") from None

    def endpoints(self) -> list[tuple[int, Chord, str]]:
        """All 2n endpoints as (position, chord, 'T'|'H'), in circle order."""
        out = [None] * (2 * self.n)
        for c in self.chords:
            out[c.tail] = (c.tail, c, "T")
            out[c.head] = (c.head, c, "H")
        return out

    @cached_property
    def index_view(self) -> EndpointIndex:
        """Tail, head and sign of every chord on integer endpoint indices."""
        at = [0] * (2 * self.n)
        for i, c in enumerate(self.chords):
            at[c.tail] = at[c.head] = i
        return EndpointIndex(tuple(c.tail for c in self.chords),
                             tuple(c.head for c in self.chords),
                             tuple(c.sign for c in self.chords), tuple(at))

    def interlocked(self, a: Chord, b: Chord) -> bool:
        """True when the endpoints of a and b alternate around the circle."""
        lo, hi = min(a.tail, a.head), max(a.tail, a.head)
        return (lo < b.tail < hi) != (lo < b.head < hi)

    @staticmethod
    def from_endpoint_order(order: Iterable[tuple[int, str]], signs: dict[int, int],
                            shape: Literal["closed", "long"] = "closed") -> "GaussDiagram":
        """Build a diagram from endpoint tokens (chord id, 'T'|'H') in circle order.

        The i-th token is the endpoint at position i.
        """
        pos: dict[tuple[int, str], int] = {}
        for i, tok in enumerate(order):
            if tok in pos:
                raise DiagramError(f"endpoint {tok} listed twice")
            pos[tok] = i
        chords = []
        for cid, sign in signs.items():
            if (cid, "T") not in pos or (cid, "H") not in pos:
                raise DiagramError(f"chord {cid}: missing tail or head endpoint")
            chords.append(Chord(cid, pos[(cid, "T")], pos[(cid, "H")], sign))
        if len(pos) != 2 * len(chords):
            raise DiagramError("endpoint tokens do not match the chord set")
        return GaussDiagram(chords, shape=shape)

    def serialize(self) -> str:
        """Canonical Gauss code, labels renumbered by first appearance.

        Tail endpoints print as O tokens (overpass), heads as U tokens.
        """
        relabel: dict[int, int] = {}
        toks = []
        for _, c, kind in self.endpoints():
            if c.id not in relabel:
                relabel[c.id] = len(relabel) + 1
            letter = "O" if kind == "T" else "U"
            s = "+" if c.sign > 0 else "-"
            toks.append(f"{letter}{relabel[c.id]}{s}")
        return "".join(toks)

    def mirror(self) -> "GaussDiagram":
        """Diagram of the mirror knot: every chord reversed, signs negated."""
        return GaussDiagram([c.reversed() for c in self.chords], shape=self.shape)

    def with_base_point_moved(self, steps: int = 1) -> "GaussDiagram":
        """Move the base point forward past `steps` endpoints."""
        order = [(c.id, kind) for _, c, kind in self.endpoints()]
        k = steps % max(len(order), 1) if order else 0
        order = order[k:] + order[:k]
        return GaussDiagram.from_endpoint_order(
            order, {c.id: c.sign for c in self.chords}, shape=self.shape)

    def __repr__(self):
        return f"GaussDiagram({self.serialize()!r}, shape={self.shape!r})"


_GAUSS_TOKEN = re.compile(r"([OU])([1-9][0-9]*)([+-])")


def parse_gauss_code(text: str, shape: Literal["closed", "long"] = "closed") -> GaussDiagram:
    """Parse a Gauss code like ``O1+U2+O3+U1+O2+U3+`` into a based diagram.

    Tokens may be concatenated or whitespace separated; the base point
    precedes the first token.  Each label must appear exactly once as O and
    once as U, with equal signs.
    """
    stripped = "".join(text.split())
    order: list[tuple[int, str]] = []
    seen: dict[int, dict[str, int]] = {}
    i = 0
    while i < len(stripped):
        m = _GAUSS_TOKEN.match(stripped, i)
        if not m:
            raise DiagramError(f"bad Gauss code token at {stripped[i:i+8]!r}")
        letter, label, sgn = m.group(1), int(m.group(2)), 1 if m.group(3) == "+" else -1
        rec = seen.setdefault(label, {})
        if letter in rec:
            raise DiagramError(f"label {label}: duplicate {letter} token")
        rec[letter] = sgn
        # O token is the overpass: chord tail.  U token is the head.
        order.append((label, "T" if letter == "O" else "H"))
        i = m.end()
    signs = {}
    for label, rec in seen.items():
        if set(rec) != {"O", "U"}:
            raise DiagramError(f"label {label}: needs exactly one O and one U token")
        if rec["O"] != rec["U"]:
            raise DiagramError(f"label {label}: O and U signs disagree")
        signs[label] = rec["O"]
    return GaussDiagram.from_endpoint_order(order, signs, shape=shape)


_PD_TUPLE = re.compile(r"X\[\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\]")


def parse_pd_code(text: str) -> GaussDiagram:
    """Parse a planar-diagram code ``X[a,b,c,d] X[...] ...``.

    Edges are numbered 1..2n along the orientation; in each tuple `a` is the
    incoming under-edge and (b, c, d) continue counterclockwise.  The diagram
    is traversed from edge 1.
    """
    cleaned = text.replace(",X", " X").strip()
    tuples = [tuple(int(g) for g in m.groups()) for m in _PD_TUPLE.finditer(cleaned)]
    leftover = _PD_TUPLE.sub("", cleaned).strip(" ,;\n\t")
    if leftover:
        raise DiagramError(f"unparsed PD code fragment {leftover!r}")
    if not tuples:
        return GaussDiagram([])
    n = len(tuples)
    nedges = 2 * n
    edge_use: dict[int, int] = {}
    for t in tuples:
        for e in t:
            edge_use[e] = edge_use.get(e, 0) + 1
    bad = [e for e, k in edge_use.items() if k != 2]
    if bad or set(edge_use) != set(range(1, nedges + 1)):
        raise DiagramError("PD code edges must be 1..2n, each used exactly twice")

    def succ(e: int) -> int:
        return e % nedges + 1

    # next_edge[e] = edge leaving the crossing that e enters; also record
    # the passage (crossing index, 'O'|'U') and the crossing sign.
    next_edge: dict[int, int] = {}
    passage: dict[int, tuple[int, str]] = {}
    signs: dict[int, int] = {}
    for ci, (a, b, c, d) in enumerate(tuples, start=1):
        if succ(a) != c and succ(c) != a:
            raise DiagramError(f"crossing {ci}: under-strand edges {a},{c} not consecutive")
        if a in next_edge:
            raise DiagramError(f"edge {a} enters two crossings as under-edge")
        next_edge[a] = c
        passage[a] = (ci, "U")
        # Over strand: whichever of b, d is the other's successor leaves.
        if succ(d) == b:
            over_in, sign = d, +1
        elif succ(b) == d:
            over_in, sign = b, -1
        else:
            raise DiagramError(f"crossing {ci}: over-strand edges {b},{d} not consecutive")
        if over_in in next_edge:
            raise DiagramError(f"edge {over_in} enters two crossings twice")
        next_edge[over_in] = d if over_in == b else b
        passage[over_in] = (ci, "O")
        signs[ci] = sign

    order: list[tuple[int, str]] = []
    e = 1
    for _ in range(nedges):
        if e not in passage:
            raise DiagramError("inconsistent edge incidences in PD code")
        ci, ou = passage[e]
        order.append((ci, "T" if ou == "O" else "H"))
        e = next_edge[e]
    if e != 1 or len(order) != nedges:
        raise DiagramError("PD code is not a single knot component")
    return GaussDiagram.from_endpoint_order(order, signs)


_BRAID_TOKEN = re.compile(r"(-?)s?([1-9][0-9]*)$")


def parse_braid_tokens(word: str) -> list[int]:
    """Braid word text to signed generator indices (``-s2`` -> -2)."""
    letters = []
    for tok in word.split():
        m = _BRAID_TOKEN.match(tok)
        if not m:
            raise DiagramError(f"unknown braid token {tok!r}")
        idx = int(m.group(2))
        letters.append(-idx if m.group(1) else idx)
    return letters


def braid_closure_components(letters: list[int], strands: int) -> int:
    """Number of components of the closure of the braid word."""
    perm = list(range(strands))
    for a in letters:
        i = abs(a) - 1
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    seen = [False] * strands
    comps = 0
    for s in range(strands):
        if not seen[s]:
            comps += 1
            j = s
            while not seen[j]:
                seen[j] = True
                j = perm[j]
    return comps


def from_braid_word(word: str | list[int], strands: int | None = None) -> GaussDiagram:
    """Long based Gauss diagram of the closure of a braid word, cut on strand 1.

    The word is over generators ``s1 .. s(k-1)`` and inverses (``-s2``); a
    positive letter crosses the strand entering at position i over the one at
    position i+1.  The closure must be a single component.
    """
    letters = parse_braid_tokens(word) if isinstance(word, str) else list(word)
    k = strands or (max((abs(a) for a in letters), default=0) + 1)
    if any(abs(a) >= k for a in letters):
        raise DiagramError("generator index exceeds strand count")
    if braid_closure_components(letters, k) != 1:
        raise DiagramError("braid closure has more than one component")

    order: list[tuple[int, str]] = []
    pos = 0  # start on strand 1 (0-based position), base point below the braid
    for _ in range(k):
        for ci, a in enumerate(letters, start=1):
            i = abs(a) - 1
            if pos == i:
                over = a > 0
                order.append((ci, "T" if over else "H"))
                pos = i + 1
            elif pos == i + 1:
                over = a < 0
                order.append((ci, "T" if over else "H"))
                pos = i
    signs = {ci: (1 if a > 0 else -1) for ci, a in enumerate(letters, start=1)}
    return GaussDiagram.from_endpoint_order(order, signs, shape="long")


def torus_knot_2(n: int) -> GaussDiagram:
    """Diagram of the (n, 2) torus knot, the closure of s1^n, for odd n >= 3."""
    if n < 3 or n % 2 == 0:
        raise DiagramError(f"(n,2) torus knot needs odd n >= 3, got {n}")
    return from_braid_word([1] * n)
