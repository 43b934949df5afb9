"""Nonassociative tangle words and the associator-counting v2 formulas.

A long knot diagram in nonassociative position decomposes into horizontal
strips, each holding one elementary event: a cup (MIN), a cap (MAX), a
crossing of two adjacent strands (X), or an associator (A) that rebrackets
three adjacent strands without crossing them.  The strand sequence at each
level carries a binary bracketing; caps and crossings are legal only on
bracket-sibling strands and associators only where the local tree shape
permits, which is exactly the combinatorial shadow of the geometric
"close-together" condition that makes the decomposition meaningful.

v2 is then half the fwd/bwd-pattern bracket over the diagram's Gauss
diagram plus a signed count of associators by their branch permutation,
evaluated three ways that must agree.  The formulas are the core in
`invariants` (`v2_long`, `v2_closed`), shared with the Morse method of
`plane`; this module supplies only the associator index terms.

Grammar (one event per line, bottom to top, 1-based positions):
    MIN@i:u|d   cup inserting two strands at position i; the letter is the
                left strand's orientation, the right one is opposite
    MAX@i:u|d   cap joining strands i, i+1; the letter must match the left
                strand's orientation
    X@i:+|-:o|u crossing of strands i, i+1; o/u says whether the left
                strand goes over; the sign must equal the resulting writhe
    A@i:L|R     associator on strands i, i+1, i+2; L turns ((a b) c) into
                (a (b c)), R the other way

The bracketing is one binary tree (`_StrandTree`) shared by the tracer
and the random generator, and `_StrandTree.illegal` is the one rule for
which event may run next: the tracer raises its reason for the first event
that fails it, and the generator proposes only events that pass it, so
every generated word traces.  Every node keeps a parent pointer and the
tree keeps its leaves (the strands) in a list in left-to-right order, so
finding the strands at a position, the sibling and associator tests and
the tree surgery of each move take O(1) steps; a cup or a cap also edits
the leaf list.  A strand holds the deque of source records of the arc of
the knot that it ends, and the strand at the arc's other end; a cap
appends the records of one arc to the other's deque in place.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field

from .diagram import GaussDiagram
from .invariants import cross_sign, v2_closed, v2_long, x_counts
from .pairing import XFB, X_ALL, bracket

__all__ = [
    "TangleError",
    "TangleWord",
    "parse_tangle",
    "gauss_of_tangle",
    "associator_stats",
    "v2_natangle",
    "v2_natangle_closed",
    "random_tangle_word",
]

# S3 elements in cycle notation, keyed by the image tuple of (1,2,3)
PERM_NAMES = {
    (1, 2, 3): "1",
    (2, 1, 3): "(1,2)",
    (3, 2, 1): "(1,3)",
    (1, 3, 2): "(2,3)",
    (2, 3, 1): "(1,2,3)",
    (3, 1, 2): "(1,3,2)",
}

_PERM_SIGN = {"1": 1, "(1,2,3)": 1, "(1,3,2)": 1,
              "(1,2)": -1, "(1,3)": -1, "(2,3)": -1}


class TangleError(ValueError):
    """Malformed or illegal tangle word; message names the offending event."""


@dataclass(frozen=True)
class Event:
    kind: str              # 'min' | 'max' | 'cross' | 'assoc'
    pos: int               # 1-based strand position
    orient: str = ""       # min/max annotation
    sign: int = 0          # declared crossing sign
    left_over: bool = False
    side: str = ""         # associator L | R


@dataclass(frozen=True)
class _CrossRec:
    cid: int
    sign: int
    d_over: tuple
    d_under: tuple


@dataclass(frozen=True)
class _AssocRec:
    aid: int
    side: str
    q_up: int


@dataclass
class TangleWord:
    """Validated event sequence with its traced source order.

    source: the knot's passage list in traversal order; crossing passages
    are (cid, 'T'|'H') with the tail at the overpass, associator markers
    are ('A', aid, branch 1|2|3).
    """

    events: tuple
    shape: str
    source: list = field(default_factory=list)
    crossings: dict = field(default_factory=dict)
    assocs: dict = field(default_factory=dict)


def parse_tangle(text: str, shape: str = "long") -> TangleWord:
    events = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#")[0].strip()
        if not line:
            continue
        try:
            head, rest = line.split("@", 1)
            parts = rest.split(":")
            pos = int(parts[0])
        except ValueError:
            raise TangleError(f"line {lineno}: cannot parse {line!r}")
        head = head.upper()
        if head in ("MIN", "MAX"):
            if len(parts) != 2 or parts[1] not in ("u", "d"):
                raise TangleError(f"line {lineno}: {head} needs :u or :d")
            events.append(Event("min" if head == "MIN" else "max", pos,
                                orient=parts[1]))
        elif head == "X":
            if len(parts) != 3 or parts[1] not in ("+", "-") \
                    or parts[2] not in ("o", "u"):
                raise TangleError(f"line {lineno}: X needs :+|-:o|u")
            events.append(Event("cross", pos, sign=1 if parts[1] == "+" else -1,
                                left_over=parts[2] == "o"))
        elif head == "A":
            if len(parts) != 2 or parts[1] not in ("L", "R"):
                raise TangleError(f"line {lineno}: A needs :L or :R")
            events.append(Event("assoc", pos, side=parts[1]))
        else:
            raise TangleError(f"line {lineno}: unknown event {head!r}")
    word = TangleWord(tuple(events), shape)
    _trace(word)
    return word


class _Leaf:
    """A strand.  `piece` holds the records of the arc it ends, in source
    order: an up strand grows it at the back (later in the source), a down
    strand at the front.  `mate` is the strand at the arc's other end, None
    for the arc that starts at the bottom of a long knot."""

    __slots__ = ("orient", "piece", "mate", "parent")

    def __init__(self, orient: str, piece: deque, mate=None):
        self.orient = orient
        self.piece = piece
        self.mate = mate
        self.parent = None


class _Node:
    __slots__ = ("left", "right", "parent")

    def __init__(self, left, right):
        self.left, self.right, self.parent = left, right, None
        left.parent = right.parent = self


class _StrandTree:
    """Bracketed strand sequence: a binary tree with parent pointers and
    its leaves in left-to-right order.  Positions here are 0-based, and
    `apply` does not check legality: `illegal` does."""

    def __init__(self, shape: str):
        # the one shape check: parsing traces a word through a tree, and
        # generation grows one
        if shape not in ("closed", "long"):
            raise TangleError(f"shape must be 'closed' or 'long', got {shape!r}")
        self.root = _Leaf("u", deque()) if shape == "long" else None
        self.leaves = [self.root] if shape == "long" else []

    def siblings(self, i: int):
        """Parent of strands i, i+1 if they are bracket siblings, else None."""
        p = self.leaves[i].parent
        return p if p is not None and p is self.leaves[i + 1].parent else None

    def assoc_ok(self, i: int, side: str) -> bool:
        """Whether strands i..i+2 are bracketed ((a b) c) for side L or
        (a (b c)) for side R."""
        a, b, c = self.leaves[i:i + 3]
        inner, outer = (a, c) if side == "L" else (c, a)
        p = inner.parent
        return p is not None and p is b.parent and p.parent is not None \
            and p.parent is outer.parent

    def illegal(self, ev: Event, final: bool, long_shape: bool) -> str | None:
        """Why `ev` cannot run next, or None when it can; `final` says it
        would be the word's last event.  A crossing's declared sign is the
        tracer's to check, since only the tracer reads it."""
        k = len(self.leaves)
        i = ev.pos - 1
        if ev.kind == "min":
            return None if 1 <= ev.pos <= k + 1 else \
                f"MIN position {ev.pos} out of range 1..{k + 1}"
        if self.root is None:
            return "no strands present"
        if ev.kind == "assoc":
            if not 1 <= ev.pos <= k - 2:
                return f"A position {ev.pos} needs three strands"
            if not self.assoc_ok(i, ev.side):
                return "A:L needs ((a b) c) shape" if ev.side == "L" else \
                    "A:R needs (a (b c)) shape"
            return None
        name = "MAX" if ev.kind == "max" else "X"
        if not 1 <= ev.pos <= k - 1:
            return f"{name} position {ev.pos} out of range"
        if self.siblings(i) is None:
            return f"strands {ev.pos},{ev.pos + 1} are not bracket siblings"
        if ev.kind == "cross":
            return None
        a, b = self.leaves[i], self.leaves[i + 1]
        if a.orient == b.orient:
            return "cap on equally oriented strands"
        if ev.orient != a.orient:
            return (f"MAX annotation {ev.orient!r} does not match left "
                    f"strand {a.orient!r}")
        if a.piece is b.piece and (long_shape or k > 2 or not final):
            return "cap closes off a separate component"
        return None

    def _hang(self, node, parent, old):
        """Hang node below parent (at the root if None) where old hung."""
        node.parent = parent
        if parent is None:
            self.root = node
        elif parent.left is old:
            parent.left = node
        else:
            parent.right = node

    def apply(self, ev: Event) -> None:
        """Cup, cap, cross or rebracket at the event's position."""
        i = ev.pos - 1
        leaves = self.leaves
        if ev.kind == "min":
            lo = _Leaf(ev.orient, deque())
            lo.mate = _Leaf("d" if ev.orient == "u" else "u", lo.piece, lo)
            pair = _Node(lo, lo.mate)
            if self.root is None:
                self.root = pair
            else:
                anchor = leaves[max(i - 1, 0)]
                parent = anchor.parent
                self._hang(_Node(pair, anchor) if i == 0 else
                           _Node(anchor, pair), parent, anchor)
            leaves[i:i] = (lo, lo.mate)
        elif ev.kind == "max":
            a, b = leaves[i], leaves[i + 1]
            up, down = (a, b) if a.orient == "u" else (b, a)
            if up.piece is not down.piece:
                # the knot runs up `up`, over the cap and down `down`: down's
                # arc continues up's, and their far ends become mates.  An arc
                # is entered at a down strand (or the bottom of a long knot)
                # and left at an up strand, so down.mate is never None.
                up.piece.extend(down.piece)
                far_up, far_down = up.mate, down.mate
                far_down.piece, far_down.mate = up.piece, far_up
                if far_up is not None:
                    far_up.mate = far_down
            p = a.parent
            gp = p.parent
            if gp is None:
                self.root = None
            else:
                self._hang(gp.right if gp.left is p else gp.left, gp.parent, gp)
            del leaves[i:i + 2]
            # the detached pair and its parent point at each other: cut
            # those links so they are freed now, not by the cycle collector
            a.parent = b.parent = p.parent = a.mate = b.mate = None
        elif ev.kind == "cross":
            a, b = leaves[i], leaves[i + 1]
            a.parent.left, a.parent.right = b, a
            leaves[i], leaves[i + 1] = b, a
        else:
            a, b, c = leaves[i:i + 3]
            gp = c.parent if ev.side == "L" else a.parent
            gp.left, gp.right = (a, _Node(b, c)) if ev.side == "L" \
                else (_Node(a, b), c)
            gp.left.parent = gp.right.parent = gp


def _strand_dir(orient: str, moving_right: bool):
    """Knot-direction vector of a strand in a crossing strip."""
    if orient == "u":
        return (1, 1) if moving_right else (-1, 1)
    return (-1, -1) if moving_right else (1, -1)


def _cross_dirs(a: _Leaf, b: _Leaf, left_over: bool):
    """(over, under) knot directions where strand a crosses b from the left."""
    d_left = _strand_dir(a.orient, moving_right=True)
    d_right = _strand_dir(b.orient, moving_right=False)
    return (d_left, d_right) if left_over else (d_right, d_left)


def _push(leaf: _Leaf, record):
    if leaf.orient == "u":
        leaf.piece.append(record)
    else:
        leaf.piece.appendleft(record)


def _trace(word: TangleWord):
    """Check each event with `_StrandTree.illegal` (and a crossing's
    declared sign) and apply it, recording the passages of crossings and
    associators; then flatten the source."""
    long_shape = word.shape == "long"
    tree = _StrandTree(word.shape)
    leaves = tree.leaves
    last = len(word.events) - 1

    for step, ev in enumerate(word.events):
        reason = tree.illegal(ev, step == last, long_shape)
        if reason is not None:
            raise TangleError(f"event {step}: {reason}")
        i = ev.pos - 1
        if ev.kind == "max" and leaves[i].piece is leaves[i + 1].piece:
            word.source = list(leaves[i].piece)
        elif ev.kind == "cross":
            a, b = leaves[i], leaves[i + 1]
            d_over, d_under = _cross_dirs(a, b, ev.left_over)
            writhe = cross_sign(d_over, d_under)
            if writhe != ev.sign:
                raise TangleError(f"event {step}: declared sign "
                                  f"{ev.sign:+d} but orientations give "
                                  f"{writhe:+d}")
            cid = len(word.crossings) + 1
            over, under = (a, b) if ev.left_over else (b, a)
            _push(over, (cid, "T"))
            _push(under, (cid, "H"))
            word.crossings[cid] = _CrossRec(cid, writhe, d_over, d_under)
        elif ev.kind == "assoc":
            aid = len(word.assocs) + 1
            strands = leaves[i:i + 3]
            for branch, s in enumerate(strands, start=1):
                _push(s, ("A", aid, branch))
            word.assocs[aid] = _AssocRec(
                aid, ev.side, sum(1 for s in strands if s.orient == "u"))
        tree.apply(ev)

    if long_shape:
        if len(leaves) != 1:
            raise TangleError(f"word leaves {len(leaves)} strands open, need "
                              f"exactly the one long strand")
        word.source = list(tree.root.piece)
    else:
        if tree.root is not None:
            raise TangleError("closed word must cap every strand")
        if not word.events:
            raise TangleError("closed word cannot be empty")


def gauss_of_tangle(word: TangleWord) -> GaussDiagram:
    """Gauss diagram of the traced knot (associator markers dropped)."""
    order = [(cid, kind) for rec in word.source
             if len(rec) == 2 for cid, kind in [rec]]
    signs = {cid: rec.sign for cid, rec in word.crossings.items()}
    return GaussDiagram.from_endpoint_order(order, signs)


@dataclass(frozen=True)
class AssociatorStats:
    N: dict            # cycle-notation name -> signed associator count
    N_total: int
    X: int
    Xplus: int
    Xminus: int
    M: int


def associator_stats(word: TangleWord) -> AssociatorStats:
    # one walk of the source: the branch numbers of each associator's three
    # markers in source order, and each crossing's first passage (for the
    # source-order branch sign)
    branch_order: dict[int, list[int]] = {}
    first = {}
    for rec in word.source:
        if len(rec) == 3:
            branch_order.setdefault(rec[1], []).append(rec[2])
        else:
            first.setdefault(rec[0], rec[1])
    counts = {name: 0 for name in PERM_NAMES.values()}
    for aid, rec in word.assocs.items():
        visits = branch_order.get(aid, [])
        if len(visits) != 3:
            raise TangleError(f"associator {aid}: {len(visits)} branch "
                              f"markers, expected 3")
        # visits[k] is the left-to-right number of the k-th branch in source
        # order; sigma assigns each source-numbered branch its source rank
        # seen from the left-to-right side.  The direction of this map and
        # the sign attached to each rebracketing side are pinned jointly by
        # the calibration fixtures: the opposite choices fail the trefoil.
        sigma = tuple(visits.index(j) + 1 for j in (1, 2, 3))
        name = PERM_NAMES[sigma]
        eps = (-1) ** rec.q_up * _PERM_SIGN[name]
        if rec.side == "L":
            eps = -eps
        counts[name] += eps

    X, Xp = x_counts((c.d_over, c.d_under) if first[cid] == "T"
                     else (c.d_under, c.d_over)
                     for cid, c in word.crossings.items())
    M = sum(1 for ev in word.events if ev.kind == "max")
    return AssociatorStats(N=counts, N_total=sum(counts.values()),
                           X=X, Xplus=Xp, Xminus=X - Xp, M=M)


def v2_natangle(word: TangleWord) -> int:
    """v2 of a long tangle word, by the three formulas of
    `invariants.v2_long` at once."""
    if word.shape != "long":
        raise ValueError("v2_natangle needs a long word; use v2_natangle_closed")
    st = associator_stats(word)
    b = bracket(XFB, gauss_of_tangle(word))
    n = st.N
    k = (n["1"] + n["(1,3)"], n["(2,3)"] + n["(1,3,2)"],
         n["(1,2)"] + n["(1,2,3)"])
    return v2_long("v2_natangle", b, k, st.X, st.Xplus, st.M)


def v2_natangle_closed(word: TangleWord) -> int:
    """v2 of a closed tangle word from the total associator count
    (`invariants.v2_closed`)."""
    if word.shape != "closed":
        raise ValueError("v2_natangle_closed needs a closed word")
    st = associator_stats(word)
    b_all = bracket(X_ALL, gauss_of_tangle(word))
    return v2_closed("v2_natangle_closed", b_all, st.N_total, st.X, st.M)


def _sibling_pairs(tree: _StrandTree):
    """(position, left leaf, right leaf) for bracket-sibling leaves."""
    return [(i + 1, tree.leaves[i], tree.leaves[i + 1])
            for i in range(len(tree.leaves) - 1)
            if tree.siblings(i) is not None]


def _assoc_sites(tree: _StrandTree):
    """(position, side) of legal associator moves."""
    return [(i + 1, side) for i in range(len(tree.leaves) - 2)
            for side in "LR" if tree.assoc_ok(i, side)]


def _cross_event(pos, a, b, left_over):
    sign = cross_sign(*_cross_dirs(a, b, left_over))
    return Event("cross", pos, sign=sign, left_over=left_over)


def _attempt_random_events(rng: random.Random, n_events: int, shape: str):
    """One attempt at a legal word, or None at a dead end.  Every proposed
    event passes `_StrandTree.illegal` (a cap is final only once the word
    stops growing), and the attempt stops only once the word is closed."""
    tree = _StrandTree(shape)
    long_shape = shape == "long"
    events = []

    for _ in range(6 * n_events + 60):
        k = len(tree.leaves)
        done = k == 1 if long_shape else (tree.root is None and events)
        grow = len(events) < n_events
        if done and not grow:
            return events
        options = []
        if grow:
            for i in range(1, k + 2):
                for o in "ud":
                    options.append(Event("min", i, orient=o))
        caps = []
        for pos, a, b in _sibling_pairs(tree):
            options.append(_cross_event(pos, a, b, True))
            options.append(_cross_event(pos, a, b, False))
            cap = Event("max", pos, orient=a.orient)
            if tree.illegal(cap, not grow, long_shape) is None:
                caps.append(cap)
        options.extend(caps)
        assoc = [Event("assoc", pos, side=side)
                 for pos, side in _assoc_sites(tree)]
        options.extend(assoc)
        if not options:
            return None
        if not grow and caps:
            # shrink phase: cap eagerly, with a little residual shuffling
            pick = rng.choice(caps if rng.random() < 0.7 else options)
        elif not grow and assoc:
            pick = rng.choice(assoc + options)
        else:
            pick = rng.choice(options)
        tree.apply(pick)
        events.append(pick)
    return None


def random_tangle_word(seed: int, n_events: int = 12,
                       shape: str = "long") -> TangleWord:
    """Deterministic random legal tangle word; retries dead ends."""
    rng = random.Random(seed)
    for _ in range(500):
        events = _attempt_random_events(rng, n_events, shape)
        if events is not None:
            word = TangleWord(tuple(events), shape)
            _trace(word)
            return word
    raise RuntimeError(f"no legal tangle word found for seed {seed}")
