"""Reidemeister and base-point moves; random realizable diagram generation.

Realizability is preserved by construction.  Word-level moves (braid
relations, far commutation, conjugation, stabilization, trivial-pair
insertion) rewrite a braid word whose closure is the knot; diagram-level
moves are restricted to operations that are realizable on any diagram:
kink insertion/removal anywhere, removal of an empty bigon (two crossings
with adjacent endpoint pairs), a same-arc finger push, and base point moves.

Arbitrary-arc R2 insertion on the Gauss-diagram level is deliberately not
offered: two arcs of a knot diagram admit a clean bigon between them only
when they border a common face, which the chord data alone cannot see.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Literal

from .diagram import (DiagramError, GaussDiagram, braid_closure_components,
                      from_braid_word)

__all__ = [
    "MoveSite",
    "apply",
    "r1_removal_sites",
    "r2_removal_sites",
    "MoveEngine",
    "random_realizable",
]


@dataclass(frozen=True)
class MoveSite:
    """One applicable move: a kind tag plus location parameters.

    kinds:
      r1_insert   params slot, over ('T' first or 'H' first), sign
      r1_remove   params chord_id
      r2_remove   params chord ids (pair)
      r2_finger   params slot, over (bool), sign (of the first crossing)
      basepoint   params steps
    """

    kind: Literal["r1_insert", "r1_remove", "r2_remove", "r2_finger", "basepoint"]
    params: dict = field(default_factory=dict)


def _endpoint_order(diagram: GaussDiagram) -> list[tuple[int, str]]:
    return [(c.id, kind) for _, c, kind in diagram.endpoints()]


def _fresh_ids(diagram: GaussDiagram, k: int) -> list[int]:
    base = max((c.id for c in diagram.chords), default=0)
    return [base + i + 1 for i in range(k)]


def _rebuild(diagram: GaussDiagram, order, signs) -> GaussDiagram:
    return GaussDiagram.from_endpoint_order(order, signs, shape=diagram.shape)


def r1_removal_sites(diagram: GaussDiagram) -> list[MoveSite]:
    """Chords with both endpoints adjacent (not across the base point)."""
    order = _endpoint_order(diagram)
    sites = []
    for a, b in zip(order, order[1:]):
        if a[0] == b[0]:
            sites.append(MoveSite("r1_remove", {"chord_id": a[0]}))
    return sites


def r2_removal_sites(diagram: GaussDiagram) -> list[MoveSite]:
    """Empty bigons: chord pairs adjacent at both ends, one strand over both,
    opposite signs."""
    order = _endpoint_order(diagram)
    adj: dict[frozenset, list[tuple[str, str]]] = {}
    for (ida, ka), (idb, kb) in zip(order, order[1:]):
        if ida != idb:
            adj.setdefault(frozenset((ida, idb)), []).append((ka, kb))
    sites = []
    for pair, contacts in adj.items():
        if len(contacts) != 2:
            continue
        kinds0, kinds1 = set(contacts[0]), set(contacts[1])
        if kinds0 == {"T"} and kinds1 == {"H"} or kinds0 == {"H"} and kinds1 == {"T"}:
            a, b = sorted(pair)
            if diagram.chord(a).sign != diagram.chord(b).sign:
                sites.append(MoveSite("r2_remove", {"chords": (a, b)}))
    return sites


def apply(diagram: GaussDiagram, site: MoveSite) -> GaussDiagram:
    """Apply a move site; raises DiagramError when the site is not valid."""
    order = _endpoint_order(diagram)
    signs = {c.id: c.sign for c in diagram.chords}

    if site.kind == "basepoint":
        return diagram.with_base_point_moved(site.params.get("steps", 1))

    if site.kind == "r1_insert":
        slot = site.params["slot"]
        if not 0 <= slot <= len(order):
            raise DiagramError(f"r1_insert slot {slot} out of range")
        first = site.params.get("over", "T")
        (cid,) = _fresh_ids(diagram, 1)
        kink = [(cid, first), (cid, "H" if first == "T" else "T")]
        signs[cid] = site.params.get("sign", 1)
        return _rebuild(diagram, order[:slot] + kink + order[slot:], signs)

    if site.kind == "r1_remove":
        cid = site.params["chord_id"]
        if not any(s.params["chord_id"] == cid for s in r1_removal_sites(diagram)):
            raise DiagramError(f"chord {cid} is not a removable kink")
        del signs[cid]
        return _rebuild(diagram, [e for e in order if e[0] != cid], signs)

    if site.kind == "r2_remove":
        pair = tuple(sorted(site.params["chords"]))
        if not any(tuple(sorted(s.params["chords"])) == pair
                   for s in r2_removal_sites(diagram)):
            raise DiagramError(f"chords {pair} do not form a removable bigon")
        for cid in pair:
            del signs[cid]
        return _rebuild(diagram, [e for e in order if e[0] not in pair], signs)

    if site.kind == "r2_finger":
        slot = site.params["slot"]
        if not 0 <= slot <= len(order):
            raise DiagramError(f"r2_finger slot {slot} out of range")
        over = site.params.get("over", True)
        sign = site.params.get("sign", 1)
        c, d = _fresh_ids(diagram, 2)
        k1, k2 = ("T", "H") if over else ("H", "T")
        ins = [(c, k1), (d, k1), (d, k2), (c, k2)]
        signs[c], signs[d] = sign, -sign
        return _rebuild(diagram, order[:slot] + ins + order[slot:], signs)

    raise DiagramError(f"unknown move kind {site.kind!r}")


# Word-level rewriting.  All four sign variants of the triple relation are
# single strand-slides on the closure diagram.
_TRIPLE_REWRITES = [
    # (sa, sb, sc) pattern on generators (i, j, i) -> replacement on (j, i, j)
    ((1, 1, 1), (1, 1, 1)),
    ((-1, -1, -1), (-1, -1, -1)),
    ((1, 1, -1), (-1, 1, 1)),
    ((-1, 1, 1), (1, 1, -1)),
]


def _triple_sites(word: list[int]) -> list[tuple[int, tuple]]:
    sites = []
    for p in range(len(word) - 2):
        a, b, c = word[p:p + 3]
        if abs(a) == abs(c) and abs(abs(a) - abs(b)) == 1:
            pat = (1 if a > 0 else -1, 1 if b > 0 else -1, 1 if c > 0 else -1)
            for src, dst in _TRIPLE_REWRITES:
                if pat == src:
                    sites.append((p, dst))
    return sites


class MoveEngine:
    """Random-move driver holding either a braid word or a bare diagram.

    Word-level moves apply while the word form is retained; once a
    diagram-only move runs, the engine stays in diagram form.
    """

    def __init__(self, word: list[int] | None = None,
                 diagram: GaussDiagram | None = None):
        if (word is None) == (diagram is None):
            raise ValueError("exactly one of word/diagram required")
        self.word = word
        self._diagram = diagram

    def diagram(self) -> GaussDiagram:
        if self.word is not None:
            return from_braid_word(self.word)
        return self._diagram

    def _word_move(self, rng: random.Random) -> str | None:
        w = self.word
        k = max((abs(a) for a in w), default=0) + 1
        choices = ["r2_word", "conjugate", "stabilize"]
        if _triple_sites(w):
            choices.append("triple")
        if any(abs(abs(a) - abs(b)) >= 2 for a, b in zip(w, w[1:])):
            choices.append("commute")
        kind = rng.choice(choices)
        if kind == "r2_word":
            g = rng.choice([g for i in range(1, k) for g in (i, -i)] or [1])
            p = rng.randrange(len(w) + 1)
            self.word = w[:p] + [g, -g] + w[p:]
        elif kind == "conjugate":
            g = rng.choice([g for i in range(1, k) for g in (i, -i)] or [1])
            self.word = [g] + w + [-g]
        elif kind == "stabilize":
            self.word = w + [rng.choice([k, -k])]
        elif kind == "triple":
            p, dst = rng.choice(_triple_sites(w))
            i, j = abs(w[p]), abs(w[p + 1])
            self.word = w[:p] + [dst[0] * j, dst[1] * i, dst[2] * j] + w[p + 3:]
        elif kind == "commute":
            ps = [p for p in range(len(w) - 1)
                  if abs(abs(w[p]) - abs(w[p + 1])) >= 2]
            p = rng.choice(ps)
            self.word = w[:p] + [w[p + 1], w[p]] + w[p + 2:]
        return kind

    def _diagram_move(self, rng: random.Random) -> str:
        g = self.diagram()
        self.word = None
        nslots = 2 * g.n
        kinds = ["r1_insert", "r2_finger", "basepoint"]
        r1s = r1_removal_sites(g)
        r2s = r2_removal_sites(g)
        if r1s:
            kinds.append("r1_remove")
        if r2s:
            kinds.append("r2_remove")
        kind = rng.choice(kinds)
        if kind == "r1_insert":
            site = MoveSite(kind, {"slot": rng.randrange(nslots + 1),
                                   "over": rng.choice("TH"),
                                   "sign": rng.choice((1, -1))})
        elif kind == "r2_finger":
            site = MoveSite(kind, {"slot": rng.randrange(nslots + 1),
                                   "over": rng.choice((True, False)),
                                   "sign": rng.choice((1, -1))})
        elif kind == "basepoint":
            site = MoveSite(kind, {"steps": rng.randrange(1, max(nslots, 2))})
        elif kind == "r1_remove":
            site = rng.choice(r1s)
        else:
            site = rng.choice(r2s)
        self._diagram = apply(g, site)
        return kind

    def random_move(self, rng: random.Random) -> str:
        if self.word is not None and rng.random() < 0.6:
            return self._word_move(rng)
        return self._diagram_move(rng)


def random_braid_word(rng: random.Random, n_letters: int,
                      strands: int | None = None) -> list[int]:
    """Random braid word whose closure is a single component.

    The strand count must satisfy strands - 1 == n_letters mod 2, since a
    k-cycle permutation has the parity of k - 1; an incompatible explicit
    strand count is rejected up front rather than looping forever.
    """
    if n_letters == 0:
        return []
    if strands is None:
        candidates = [k for k in range(2, min(4, n_letters + 1) + 1)
                      if (k - 1) % 2 == n_letters % 2]
        k = rng.choice(candidates)
    else:
        k = strands
        if (k - 1) % 2 != n_letters % 2:
            raise ValueError(f"no single-component closure with {k} strands "
                             f"and {n_letters} letters")
    while True:
        w = [rng.choice((1, -1)) * rng.randint(1, k - 1) for _ in range(n_letters)]
        if braid_closure_components(w, k) == 1:
            return w


def random_realizable(seed: int, n_letters: int, n_moves: int) -> GaussDiagram:
    """Deterministic realizable diagram: random braid closure plus moves."""
    rng = random.Random(seed)
    if n_letters == 0 and n_moves == 0:
        return GaussDiagram([], shape="long")
    engine = MoveEngine(word=random_braid_word(rng, n_letters))
    for _ in range(n_moves):
        engine.random_move(rng)
    return engine.diagram()
