"""Based Gauss diagrams and constructors from common knot notations.

A Gauss diagram records the double points of a knot projection as signed,
directed chords on the parametrizing circle.  Each chord points from the
overpass to the underpass and carries the local writhe as its sign.  Every
diagram is based at endpoint 0, from a long knot or a closed one alike: v2
does not depend on the base point, so a diagram is only its chords.

Every method reads only the order of the endpoints around the circle, so
a chord's endpoints are integer indices: the 2n endpoints of a diagram sit
at 0..2n-1, numbered from the base point along the orientation.  The
diagram is stored once, as integer arrays indexed by chord (ids, tail,
head, sign) plus the chord at each endpoint (at).  Every diagram, from a
notation here or from a plane curve, tangle word, move or skein descent,
is built from its endpoint order, a list of (chord id, 'T'|'H') tokens, by
`GaussDiagram.from_endpoint_order`: the one constructor and the one place
that checks a diagram.
"""

from __future__ import annotations

import re
from typing import Iterable

__all__ = [
    "GaussDiagram",
    "DiagramError",
    "DisagreementError",
    "parse_gauss_code",
    "parse_pd_code",
    "braid_strands",
    "closure_walk",
    "braid_order",
    "from_braid_word",
    "torus_knot_2",
]


class DiagramError(ValueError):
    """Malformed notation or inconsistent diagram data."""


class DisagreementError(ArithmeticError):
    """Formulas that must give one integer do not: always a bug."""


class GaussDiagram:
    """Based Gauss diagram: signed directed chords on an oriented circle.

    Stored as integer arrays indexed by chord: ``ids[i]``, ``tail[i]``,
    ``head[i]`` and ``sign[i]`` describe the i-th chord, and ``at[p]`` is
    the index of the chord with an endpoint at p.  Built only by
    `from_endpoint_order`, which checks it; immutable after construction.
    """

    @property
    def n(self) -> int:
        return len(self.ids)

    def order(self) -> list[tuple[int, str]]:
        """Endpoint tokens (chord id, 'T'|'H') in circle order: the input of
        `from_endpoint_order`."""
        ids, tail = self.ids, self.tail
        return [(ids[i], "T" if tail[i] == p else "H")
                for p, i in enumerate(self.at)]

    @staticmethod
    def from_endpoint_order(order: Iterable[tuple[int, str]],
                            signs: dict[int, int]) -> "GaussDiagram":
        """Build a diagram from endpoint tokens (chord id, 'T'|'H') in circle
        order and the sign of each chord, chords indexed in `signs` order.

        The i-th token is the endpoint at position i.  Checked in this order:
        no token is listed twice, every chord has both endpoints, there are
        no other tokens, and every sign is +1 or -1.
        """
        order = list(order)
        pos = {tok: p for p, tok in enumerate(order)}
        if len(pos) != len(order):
            seen = set()
            for tok in order:
                if tok in seen:
                    raise DiagramError(f"endpoint {tok} listed twice")
                seen.add(tok)
        tail, head, at = [], [], [0] * len(order)
        for i, cid in enumerate(signs):
            t, h = pos.get((cid, "T")), pos.get((cid, "H"))
            if t is None or h is None:
                raise DiagramError(f"chord {cid}: missing tail or head endpoint")
            tail.append(t)
            head.append(h)
            at[t] = at[h] = i
        if len(order) != 2 * len(tail):
            raise DiagramError("endpoint tokens do not match the chord set")
        for cid, sign in signs.items():
            if sign not in (-1, 1):
                raise DiagramError(f"chord {cid}: sign must be +1 or -1, got {sign}")
        g = object.__new__(GaussDiagram)
        g.ids, g.tail, g.head = tuple(signs), tuple(tail), tuple(head)
        g.sign, g.at = tuple(signs.values()), tuple(at)
        return g

    def serialize(self) -> str:
        """Canonical Gauss code, labels renumbered by first appearance.

        Tail endpoints print as O tokens (overpass), heads as U tokens.
        """
        signs = dict(zip(self.ids, self.sign))
        relabel: dict[int, int] = {}
        toks = []
        for cid, kind in self.order():
            label = relabel.setdefault(cid, len(relabel) + 1)
            toks.append(f"{'O' if kind == 'T' else 'U'}{label}"
                        f"{'+' if signs[cid] > 0 else '-'}")
        return "".join(toks)

    def __repr__(self):
        return f"GaussDiagram({self.serialize()!r})"


_GAUSS_TOKEN = re.compile(r"([OU])([1-9][0-9]*)([+-])")
_GAUSS_TOKENS = re.compile(f"(?:{_GAUSS_TOKEN.pattern})*")


def parse_gauss_code(text: str) -> GaussDiagram:
    """Parse a Gauss code like ``O1+U2+O3+U1+O2+U3+`` into a based diagram.

    Tokens may be concatenated or whitespace separated; the base point
    precedes the first token.  Each label must appear exactly once as O and
    once as U, with equal signs.  Tokens are read up to the first that is
    not one, and a sign disagreement before it is reported first.
    """
    stripped = "".join(text.split())
    end = _GAUSS_TOKENS.match(stripped).end()
    order: list[tuple[int, str]] = []
    signs: dict[int, int] = {}
    for letter, label, sgn in _GAUSS_TOKEN.findall(stripped, 0, end):
        label, sgn = int(label), 1 if sgn == "+" else -1
        if signs.setdefault(label, sgn) != sgn:
            raise DiagramError(f"label {label}: O and U signs disagree")
        # O token is the overpass: chord tail.  U token is the head.
        order.append((label, "T" if letter == "O" else "H"))
    if end < len(stripped):
        raise DiagramError(f"bad Gauss code token at {stripped[end:end+8]!r}")
    return GaussDiagram.from_endpoint_order(order, signs)


_PD_TUPLE = re.compile(r"X\[\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\]")


def parse_pd_code(text: str) -> GaussDiagram:
    """Parse a planar-diagram code ``X[a,b,c,d] X[...] ...``.

    Edges are numbered 1..2n along the orientation, so edge e is traversed
    at step e.  In each tuple `a` is the incoming under-edge, `c = a + 1`
    (mod 2n) the outgoing one, and (b, c, d) continue counterclockwise.  The
    base point is at the start of edge 1.
    """
    cleaned = text.replace(",X", " X").strip()
    tuples = [tuple(int(g) for g in m.groups()) for m in _PD_TUPLE.finditer(cleaned)]
    leftover = _PD_TUPLE.sub("", cleaned).strip(" ,;\n\t")
    if leftover:
        raise DiagramError(f"unparsed PD code fragment {leftover!r}")
    nedges = 2 * len(tuples)
    if sorted(e for t in tuples for e in t) != sorted(2 * list(range(1, nedges + 1))):
        raise DiagramError("PD code edges must be 1..2n, each used exactly twice")

    def succ(e: int) -> int:
        return e % nedges + 1

    # passage[e] = the endpoint at the crossing that edge e enters
    passage: dict[int, tuple[int, str]] = {}
    signs: dict[int, int] = {}
    for ci, (a, b, c, d) in enumerate(tuples, start=1):
        if c != succ(a):
            raise DiagramError(f"crossing {ci}: under-strand edge {c} does not "
                               f"follow edge {a}")
        # Over strand: whichever of b, d is the other's successor leaves.
        if succ(d) == b:
            over_in, sign = d, +1
        elif succ(b) == d:
            over_in, sign = b, -1
        else:
            raise DiagramError(f"crossing {ci}: over-strand edges {b},{d} not consecutive")
        for e, kind in ((a, "H"), (over_in, "T")):
            if e in passage:
                raise DiagramError(f"edge {e} enters two crossings")
            passage[e] = (ci, kind)
        signs[ci] = sign
    # 2n distinct edges of 1..2n enter a crossing: every edge, once
    return GaussDiagram.from_endpoint_order(
        [passage[e] for e in range(1, nedges + 1)], signs)


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


def braid_strands(letters: list[int]) -> int:
    """Strand count of a braid word: one more than its largest generator
    index.  Every letter must be a nonzero int."""
    for a in letters:
        if type(a) is not int or a == 0:
            raise DiagramError(f"braid letter {a!r} is not a nonzero integer")
    return max(map(abs, letters), default=0) + 1


def closure_walk(letters: list[int]) -> list[list[int]]:
    """Walk the closure of a braid word once around, from strand 1 at the bottom.

    Returns one list per pass through the braid: the walked strand's
    0-based position before each letter and after the last one.  Each pass
    starts where the previous one ended, and the walk stops back at
    position 0; the closure is a knot exactly when that takes
    `braid_strands(letters)` passes.  Position 0 moves only along the
    letters' transpositions, so the walk stops within len(letters) + 1
    passes, whatever the generator indices: nothing is kept per strand.
    """
    k = braid_strands(letters)
    walk = []
    pos = 0
    while True:
        path = [pos]
        for a in letters:
            i = abs(a) - 1
            if pos == i:
                pos = i + 1
            elif pos == i + 1:
                pos = i
            path.append(pos)
        walk.append(path)
        if pos == 0:
            break
    if len(walk) != k:
        raise DiagramError("braid closure has more than one component")
    return walk


def braid_order(letters: list[int]) -> tuple[list[tuple[int, str]], dict[int, int]]:
    """Endpoint order and chord signs of `from_braid_word`, chord i being the
    i-th letter, read off `closure_walk` (which rejects a link)."""
    order: list[tuple[int, str]] = []
    for path in closure_walk(letters):
        for ci, (a, here, there) in enumerate(zip(letters, path, path[1:]),
                                              start=1):
            if here != there:
                order.append((ci, "T" if (a > 0) == (there > here) else "H"))
    return order, {ci: (1 if a > 0 else -1) for ci, a in enumerate(letters, start=1)}


def from_braid_word(word: str | list[int]) -> GaussDiagram:
    """Gauss diagram of the closure of a braid word, based on strand 1.

    The word is over generators ``s1 .. s(k-1)`` and inverses (``-s2``), where
    k is one more than the largest generator index; a positive letter crosses
    the strand entering at position i over the one at position i+1.
    """
    letters = parse_braid_tokens(word) if isinstance(word, str) else list(word)
    return GaussDiagram.from_endpoint_order(*braid_order(letters))


def torus_knot_2(n: int) -> GaussDiagram:
    """Diagram of the (n, 2) torus knot, the closure of s1^n, for odd n >= 3."""
    if n < 3 or n % 2 == 0:
        raise DiagramError(f"(n,2) torus knot needs odd n >= 3, got {n}")
    return from_braid_word([1] * n)
