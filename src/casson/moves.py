"""Reidemeister and base-point moves; random realizable diagram generation.

Realizability is preserved by construction.  Word-level moves (braid
relations, far commutation, conjugation, stabilization, trivial-pair
insertion) rewrite a braid word whose closure is the knot.  Diagram-level
moves edit the endpoint order, a list of (chord id, 'T'|'H') tokens from
the base point, and the chord signs, and are restricted to operations that
are realizable on any diagram: inserting a kink (two adjacent tokens of a
new chord) or a same-arc finger push (tokens c d d c of two new chords of
opposite signs) at any slot, removing a kink or an empty bigon (two chords
of opposite signs whose tokens are adjacent at both ends, one strand over
both), and rotating the order, which moves the base point.

Arbitrary-arc R2 insertion on the Gauss-diagram level is deliberately not
offered: two arcs of a knot diagram admit a clean bigon between them only
when they border a common face, which the chord data alone cannot see.
"""

from __future__ import annotations

import random

from .diagram import (DiagramError, GaussDiagram, braid_order, braid_strands,
                      closure_walk, from_braid_word)

__all__ = ["MoveEngine", "random_realizable"]


def _kinks(order: list[tuple[int, str]]) -> list[int]:
    """Chords whose two endpoints are adjacent (not across the base point)."""
    return [a for (a, _), (b, _) in zip(order, order[1:]) if a == b]


def _bigons(order: list[tuple[int, str]],
            signs: dict[int, int]) -> list[tuple[int, int]]:
    """Empty bigons: chord pairs adjacent at both ends, one strand over both,
    opposite signs."""
    contacts: dict[tuple[int, int], list[str]] = {}
    for (a, ka), (b, kb) in zip(order, order[1:]):
        if a != b:
            contacts.setdefault((min(a, b), max(a, b)), []).append(ka + kb)
    return [(a, b) for (a, b), kinds in contacts.items()
            if sorted(kinds) == ["HH", "TT"] and signs[a] != signs[b]]


# Word-level rewriting.  All four sign variants of the triple relation are
# single strand-slides on the closure diagram.
_TRIPLE_REWRITES = {
    # (sa, sb, sc) pattern on generators (i, j, i) -> replacement on (j, i, j)
    (1, 1, 1): (1, 1, 1),
    (-1, -1, -1): (-1, -1, -1),
    (1, 1, -1): (-1, 1, 1),
    (-1, 1, 1): (1, 1, -1),
}


def _triple_sites(word: list[int]) -> list[tuple[int, tuple]]:
    sites = []
    for p in range(len(word) - 2):
        a, b, c = word[p:p + 3]
        if abs(a) == abs(c) and abs(abs(a) - abs(b)) == 1:
            pat = (1 if a > 0 else -1, 1 if b > 0 else -1, 1 if c > 0 else -1)
            if pat in _TRIPLE_REWRITES:
                sites.append((p, _TRIPLE_REWRITES[pat]))
    return sites


class MoveEngine:
    """Random-move driver that starts from a braid word.

    Word-level moves apply while the word form is retained.  The first
    diagram-only move replaces the word by the endpoint order and chord
    signs of its closure, which every later move edits in place.
    """

    def __init__(self, word: list[int]):
        self.word = word
        self.order: list[tuple[int, str]] = []
        self.signs: dict[int, int] = {}

    def diagram(self) -> GaussDiagram:
        if self.word is not None:
            return from_braid_word(self.word)
        return GaussDiagram.from_endpoint_order(self.order, self.signs)

    def _word_move(self, rng: random.Random) -> str | None:
        w = self.word
        k = braid_strands(w)
        # on the empty word (one strand) a letter pair closes to two
        # components, so only a stabilization keeps a knot
        choices = ["r2_word", "conjugate", "stabilize"] if w else ["stabilize"]
        triples = _triple_sites(w)
        commutes = [p for p in range(len(w) - 1)
                    if abs(abs(w[p]) - abs(w[p + 1])) >= 2]
        if triples:
            choices.append("triple")
        if commutes:
            choices.append("commute")
        kind = rng.choice(choices)
        if kind == "r2_word":
            g = rng.choice([g for i in range(1, k) for g in (i, -i)])
            p = rng.randrange(len(w) + 1)
            self.word = w[:p] + [g, -g] + w[p:]
        elif kind == "conjugate":
            g = rng.choice([g for i in range(1, k) for g in (i, -i)])
            self.word = [g] + w + [-g]
        elif kind == "stabilize":
            self.word = w + [rng.choice([k, -k])]
        elif kind == "triple":
            p, dst = rng.choice(triples)
            i, j = abs(w[p]), abs(w[p + 1])
            self.word = w[:p] + [dst[0] * j, dst[1] * i, dst[2] * j] + w[p + 3:]
        elif kind == "commute":
            p = rng.choice(commutes)
            self.word = w[:p] + [w[p + 1], w[p]] + w[p + 2:]
        return kind

    def _diagram_move(self, rng: random.Random) -> str:
        if self.word is not None:
            self.order, self.signs = braid_order(self.word)
            self.word = None
        order, signs = self.order, self.signs
        kinks, bigons = _kinks(order), _bigons(order, signs)
        kinds = ["r1_insert", "r2_finger", "basepoint"]
        if kinks:
            kinds.append("r1_remove")
        if bigons:
            kinds.append("r2_remove")
        kind = rng.choice(kinds)
        if kind in ("r1_insert", "r2_finger"):
            slot = rng.randrange(len(order) + 1)
            over = rng.choice("TH")
            under = "H" if over == "T" else "T"
            sign = rng.choice((1, -1))
            c = max(signs, default=0) + 1
            if kind == "r1_insert":
                order[slot:slot] = [(c, over), (c, under)]
                signs[c] = sign
            else:
                d = c + 1
                order[slot:slot] = [(c, over), (d, over), (d, under), (c, under)]
                signs[c], signs[d] = sign, -sign
        elif kind == "basepoint":
            steps = rng.randrange(1, max(len(order), 2))
            order[:] = order[steps:] + order[:steps]
        else:
            gone = (rng.choice(kinks),) if kind == "r1_remove" else rng.choice(bigons)
            order[:] = [e for e in order if e[0] not in gone]
            for cid in gone:
                del signs[cid]
        return kind

    def random_move(self, rng: random.Random) -> str:
        if self.word is not None and rng.random() < 0.6:
            return self._word_move(rng)
        return self._diagram_move(rng)


def random_braid_word(rng: random.Random, n_letters: int) -> list[int]:
    """Random braid word whose closure is a single component.

    The strand count k, from 2 to 4, is drawn among those with
    k - 1 == n_letters mod 2, since a k-cycle permutation has the parity of
    k - 1; words on k strands are then drawn until one uses all k strands
    and `closure_walk` finds it closes to a knot.
    """
    if n_letters == 0:
        return []
    candidates = [k for k in range(2, min(4, n_letters + 1) + 1)
                  if (k - 1) % 2 == n_letters % 2]
    k = rng.choice(candidates)
    while True:
        w = [rng.choice((1, -1)) * rng.randint(1, k - 1) for _ in range(n_letters)]
        if braid_strands(w) < k:
            continue
        try:
            closure_walk(w)
        except DiagramError:
            continue
        return w


def random_realizable(seed: int, n_letters: int, n_moves: int) -> GaussDiagram:
    """Deterministic realizable diagram: random braid closure plus moves."""
    rng = random.Random(seed)
    engine = MoveEngine(word=random_braid_word(rng, n_letters))
    for _ in range(n_moves):
        engine.random_move(rng)
    return engine.diagram()
