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
evaluated three ways that must agree.

Grammar (one event per line, bottom to top, 1-based positions):
    MIN@i:u|d   cup inserting two strands at position i; the letter is the
                left strand's orientation, the right one is opposite
    MAX@i:u|d   cap joining strands i, i+1; the letter must match the left
                strand's orientation
    X@i:+|-:o|u crossing of strands i, i+1; o/u says whether the left
                strand goes over; the sign must equal the resulting writhe
    A@i:L|R     associator on strands i, i+1, i+2; L turns ((a b) c) into
                (a (b c)), R the other way
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction

from .diagram import GaussDiagram
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
    "TREFOIL_TANGLE",
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


@dataclass
class _Leaf:
    orient: str            # 'u' or 'd'
    piece: deque
    # the curve is traced through each piece front-to-back; an up strand
    # grows at the back (later in the source), a down strand at the front


class _Node:
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right


def _leaves(tree, out):
    if isinstance(tree, _Leaf):
        out.append(tree)
    else:
        _leaves(tree.left, out)
        _leaves(tree.right, out)
    return out


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
            if len(parts) != 3 or parts[1] not in "+-" or parts[2] not in "ou":
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


def _strand_dir(orient: str, moving_right: bool):
    """Knot-direction vector of a strand in a crossing strip."""
    if orient == "u":
        return (1, 1) if moving_right else (-1, 1)
    return (-1, -1) if moving_right else (1, -1)


def _push(leaf: _Leaf, record):
    if leaf.orient == "u":
        leaf.piece.append(record)
    else:
        leaf.piece.appendleft(record)


def _replace_child(parent, old, new, root_holder):
    if parent is None:
        root_holder[0] = new
    elif parent.left is old:
        parent.left = new
    else:
        parent.right = new


def _find_parent(tree, target, parent=None):
    if tree is target:
        return parent
    if isinstance(tree, _Leaf):
        return None
    return _find_parent(tree.left, target, tree) or \
        _find_parent(tree.right, target, tree)


def _trace(word: TangleWord):
    """Validate the word, build piece connectivity, and flatten the source."""
    long_shape = word.shape == "long"
    root_holder = [None]
    open_pieces = []  # all pieces not yet merged away, for component checks
    if long_shape:
        start = deque()
        root_holder[0] = _Leaf("u", start)
        open_pieces.append(start)
    n_cross = n_assoc = 0

    for step, ev in enumerate(word.events):
        tree = root_holder[0]
        leaves = _leaves(tree, []) if tree is not None else []
        k = len(leaves)

        if ev.kind == "min":
            if not 1 <= ev.pos <= k + 1:
                raise TangleError(f"event {step}: MIN position {ev.pos} "
                                  f"out of range 1..{k + 1}")
            piece = deque()
            open_pieces.append(piece)
            lo = _Leaf(ev.orient, piece)
            ro = _Leaf("d" if ev.orient == "u" else "u", piece)
            pair = _Node(lo, ro)
            if tree is None:
                root_holder[0] = pair
            elif ev.pos == 1:
                anchor = leaves[0]
                parent = _find_parent(tree, anchor)
                _replace_child(parent, anchor, _Node(pair, anchor), root_holder)
            else:
                anchor = leaves[ev.pos - 2]
                parent = _find_parent(tree, anchor)
                _replace_child(parent, anchor, _Node(anchor, pair), root_holder)
            continue

        if tree is None:
            raise TangleError(f"event {step}: no strands present")

        if ev.kind == "max":
            if not 1 <= ev.pos <= k - 1:
                raise TangleError(f"event {step}: MAX position {ev.pos} "
                                  f"out of range")
            a, b = leaves[ev.pos - 1], leaves[ev.pos]
            parent = _find_parent(tree, a)
            if parent is None or not (parent.left is a and parent.right is b):
                raise TangleError(f"event {step}: strands {ev.pos},{ev.pos + 1} "
                                  f"are not bracket siblings")
            if a.orient == b.orient:
                raise TangleError(f"event {step}: cap on equally oriented strands")
            if ev.orient != a.orient:
                raise TangleError(f"event {step}: MAX annotation {ev.orient!r} "
                                  f"does not match left strand {a.orient!r}")
            down, up = (a, b) if a.orient == "d" else (b, a)
            # knot flows up the 'up' strand into the cap and down the 'down'
            # strand, so the up strand's piece precedes the down strand's
            if up.piece is down.piece:
                if long_shape or k > 2 or step != len(word.events) - 1:
                    raise TangleError(f"event {step}: cap closes off a "
                                      f"separate component")
                word.source = list(up.piece)
                open_pieces.remove(up.piece)
                root_holder[0] = None
                continue
            old_up, old_down = up.piece, down.piece
            merged = deque(old_up)
            merged.extend(old_down)
            open_pieces.remove(old_up)
            open_pieces.remove(old_down)
            open_pieces.append(merged)
            # retarget every leaf sharing either old piece (including up and
            # down themselves, so compare against the saved references)
            for leaf in _leaves(tree, []):
                if leaf.piece is old_up or leaf.piece is old_down:
                    leaf.piece = merged
            gp = _find_parent(tree, parent)
            if gp is None:
                raise TangleError(f"event {step}: cap would leave no strands"
                                  if long_shape else
                                  f"event {step}: final cap must close the loop")
            other = gp.right if gp.left is parent else gp.left
            ggp = _find_parent(tree, gp)
            _replace_child(ggp, gp, other, root_holder)
            continue

        if ev.kind == "cross":
            if not 1 <= ev.pos <= k - 1:
                raise TangleError(f"event {step}: X position {ev.pos} out of range")
            a, b = leaves[ev.pos - 1], leaves[ev.pos]
            parent = _find_parent(tree, a)
            if parent is None or not (parent.left is a and parent.right is b):
                raise TangleError(f"event {step}: strands {ev.pos},{ev.pos + 1} "
                                  f"are not bracket siblings")
            n_cross += 1
            cid = n_cross
            d_left = _strand_dir(a.orient, moving_right=True)
            d_right = _strand_dir(b.orient, moving_right=False)
            d_over, d_under = (d_left, d_right) if ev.left_over \
                else (d_right, d_left)
            writhe = _sign_cross(d_over, d_under)
            if writhe != ev.sign:
                raise TangleError(f"event {step}: declared sign "
                                  f"{ev.sign:+d} but orientations give "
                                  f"{writhe:+d}")
            over, under = (a, b) if ev.left_over else (b, a)
            _push(over, (cid, "T"))
            _push(under, (cid, "H"))
            word.crossings[cid] = _CrossRec(cid, writhe, d_over, d_under)
            # swap the two strands in place
            parent.left, parent.right = b, a
            continue

        if ev.kind == "assoc":
            if not 1 <= ev.pos <= k - 2:
                raise TangleError(f"event {step}: A position {ev.pos} "
                                  f"needs three strands")
            a, b, c = leaves[ev.pos - 1], leaves[ev.pos], leaves[ev.pos + 1]
            pa = _find_parent(tree, a)
            pc = _find_parent(tree, c)
            if ev.side == "L":
                # ((a b) c) -> (a (b c)): a,b siblings, their parent sibling of c
                if not (pa is not None and pa.left is a and pa.right is b):
                    raise TangleError(f"event {step}: A:L needs ((a b) c) shape")
                gp = _find_parent(tree, pa)
                if gp is None or gp.left is not pa or gp.right is not c:
                    raise TangleError(f"event {step}: A:L needs ((a b) c) shape")
                gp.left, gp.right = a, _Node(b, c)
            else:
                # (a (b c)) -> ((a b) c)
                if not (pc is not None and pc.left is b and pc.right is c):
                    raise TangleError(f"event {step}: A:R needs (a (b c)) shape")
                gp = _find_parent(tree, pc)
                if gp is None or gp.left is not a or gp.right is not pc:
                    raise TangleError(f"event {step}: A:R needs (a (b c)) shape")
                gp.left, gp.right = _Node(a, b), c
            n_assoc += 1
            aid = n_assoc
            q_up = sum(1 for s in (a, b, c) if s.orient == "u")
            for branch, s in enumerate((a, b, c), start=1):
                _push(s, ("A", aid, branch))
            word.assocs[aid] = _AssocRec(aid, ev.side, q_up)
            continue

        raise TangleError(f"event {step}: unknown kind {ev.kind!r}")

    tree = root_holder[0]
    if word.shape == "long":
        if not isinstance(tree, _Leaf):
            got = len(_leaves(tree, [])) if tree is not None else 0
            raise TangleError(f"word leaves {got} strands open, need exactly "
                              f"the one long strand")
        if tree.orient != "u":
            raise TangleError("long strand must exit upward")
        word.source = list(tree.piece)
    else:
        if tree is not None:
            raise TangleError("closed word must cap every strand")
        if not word.events:
            raise TangleError("closed word cannot be empty")


def _sign_cross(a, b) -> int:
    v = a[0] * b[1] - a[1] * b[0]
    return (v > 0) - (v < 0)


def gauss_of_tangle(word: TangleWord) -> GaussDiagram:
    """Gauss diagram of the traced knot (associator markers dropped)."""
    order = [(cid, kind) for rec in word.source
             if len(rec) == 2 for cid, kind in [rec]]
    signs = {cid: rec.sign for cid, rec in word.crossings.items()}
    return GaussDiagram.from_endpoint_order(order, signs, shape=word.shape)


@dataclass(frozen=True)
class AssociatorStats:
    N: dict            # cycle-notation name -> signed associator count
    N_total: int
    X: int
    Xplus: int
    Xminus: int
    M: int


def associator_stats(word: TangleWord) -> AssociatorStats:
    # source positions of each associator's three branch markers
    branch_order: dict[int, list[int]] = {}
    for idx, rec in enumerate(word.source):
        if len(rec) == 3:
            _, aid, branch = rec
            branch_order.setdefault(aid, []).append(branch)
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

    # first-passage data per crossing, for the source-order branch sign
    first = {}
    for rec in word.source:
        if len(rec) == 2 and rec[0] not in first:
            first[rec[0]] = rec[1]
    X = Xp = 0
    for cid, c in word.crossings.items():
        d_first, d_second = (c.d_over, c.d_under) if first[cid] == "T" \
            else (c.d_under, c.d_over)
        s1, s2 = (d_first[1] > 0) - (d_first[1] < 0), \
            (d_second[1] > 0) - (d_second[1] < 0)
        if s1 == s2:
            X += 1
            eps = _sign_cross(d_first, d_second)
            if (s1 > 0 and eps > 0) or (s1 < 0 and eps < 0):
                Xp += 1
    M = sum(1 for ev in word.events if ev.kind == "max")
    return AssociatorStats(N=counts, N_total=sum(counts.values()),
                           X=X, Xplus=Xp, Xminus=X - Xp, M=M)


def v2_natangle(word: TangleWord) -> int:
    """v2 of a long tangle word, by the three associator formulas at once."""
    if word.shape != "long":
        raise ValueError("v2_natangle needs a long word; use v2_natangle_closed")
    st = associator_stats(word)
    g = gauss_of_tangle(word)
    b = bracket(XFB, g)
    n = st.N
    f1 = Fraction(b, 2) + Fraction(n["1"] + n["(1,3)"], 4) \
        + Fraction(st.X, 4) - Fraction(st.M, 4)
    f2 = Fraction(b, 2) + Fraction(n["(2,3)"] + n["(1,3,2)"], 4) \
        + Fraction(st.Xplus, 2)
    f3 = Fraction(b, 2) + Fraction(n["(1,2)"] + n["(1,2,3)"], 4) \
        + Fraction(st.Xminus, 2)
    if f1 != f2 or f2 != f3:
        raise AssertionError(f"v2_natangle: formulas disagree: {f1} {f2} {f3}")
    if f1.denominator != 1:
        raise AssertionError(f"v2_natangle: non-integral value {f1}")
    return int(f1)


def v2_natangle_closed(word: TangleWord) -> int:
    """v2 of a closed tangle word from the total associator count."""
    if word.shape != "closed":
        raise ValueError("v2_natangle_closed needs a closed word")
    st = associator_stats(word)
    g = gauss_of_tangle(word)
    val = Fraction(bracket(X_ALL, g), 4) + Fraction(st.N_total, 24) \
        + Fraction(st.X, 8) - Fraction(st.M, 24) + Fraction(1, 24)
    if val.denominator != 1:
        raise AssertionError(f"v2_natangle_closed: non-integral value {val}")
    return int(val)


# Long trefoil as a cut-open 2-strand braid closure: cup for the return
# arc's bottom, rebracket, three positive crossings, rebracket, cap.
TREFOIL_TANGLE = """\
MIN@2:u
A@1:R
X@1:+:o
X@1:+:o
X@1:+:o
A@1:L
MAX@2:u
"""


def _sibling_pairs(tree):
    """(position, left leaf, right leaf, parent) for bracket-sibling leaves."""
    leaves = _leaves(tree, [])
    out = []
    for i in range(len(leaves) - 1):
        a, b = leaves[i], leaves[i + 1]
        parent = _find_parent(tree, a)
        if parent is not None and parent.left is a and parent.right is b:
            out.append((i + 1, a, b, parent))
    return out


def _assoc_sites(tree):
    """(position, side) of legal associator moves."""
    leaves = _leaves(tree, [])
    out = []
    for i in range(len(leaves) - 2):
        a, b, c = leaves[i], leaves[i + 1], leaves[i + 2]
        pa = _find_parent(tree, a)
        if pa is not None and pa.left is a and pa.right is b:
            gp = _find_parent(tree, pa)
            if gp is not None and gp.left is pa and gp.right is c:
                out.append((i + 1, "L"))
        pc = _find_parent(tree, c)
        if pc is not None and pc.left is b and pc.right is c:
            gp = _find_parent(tree, pc)
            if gp is not None and gp.left is a and gp.right is pc:
                out.append((i + 1, "R"))
    return out


def _cross_line(pos, a, b, left_over):
    d_left = _strand_dir(a.orient, True)
    d_right = _strand_dir(b.orient, False)
    d_over, d_under = (d_left, d_right) if left_over else (d_right, d_left)
    s = "+" if _sign_cross(d_over, d_under) > 0 else "-"
    return f"X@{pos}:{s}:{'o' if left_over else 'u'}"


def _attempt_random_lines(rng: random.Random, n_events: int, shape: str):
    """One attempt at a legal word; tree-level legality only (the final
    parse still checks connectivity)."""
    root = _Leaf("u", deque()) if shape == "long" else None
    lines = []

    def leaves():
        return _leaves(root, []) if root is not None else []

    def apply_line(line):
        nonlocal root
        head, rest = line.split("@", 1)
        parts = rest.split(":")
        pos = int(parts[0])
        lv = leaves()
        if head == "MIN":
            piece = deque()
            lo = _Leaf(parts[1], piece)
            ro = _Leaf("d" if parts[1] == "u" else "u", piece)
            pair = _Node(lo, ro)
            if root is None:
                root = pair
            elif pos == 1:
                anchor = lv[0]
                p = _find_parent(root, anchor)
                new = _Node(pair, anchor)
                root = new if p is None else root
                if p is not None:
                    if p.left is anchor:
                        p.left = new
                    else:
                        p.right = new
            else:
                anchor = lv[pos - 2]
                p = _find_parent(root, anchor)
                new = _Node(anchor, pair)
                root = new if p is None else root
                if p is not None:
                    if p.left is anchor:
                        p.left = new
                    else:
                        p.right = new
        elif head == "MAX":
            a, b = lv[pos - 1], lv[pos]
            old_a, old_b = a.piece, b.piece
            parent = _find_parent(root, a)
            gp = _find_parent(root, parent)
            if gp is None:
                root = None
            else:
                for leaf in leaves():
                    if leaf.piece is old_b:
                        leaf.piece = old_a
                other = gp.right if gp.left is parent else gp.left
                ggp = _find_parent(root, gp)
                if ggp is None:
                    root = other
                elif ggp.left is gp:
                    ggp.left = other
                else:
                    ggp.right = other
        elif head == "X":
            a = lv[pos - 1]
            parent = _find_parent(root, a)
            parent.left, parent.right = parent.right, parent.left
        else:  # A
            a, b, c = lv[pos - 1], lv[pos], lv[pos + 1]
            if parts[1] == "L":
                pa = _find_parent(root, a)
                gp = _find_parent(root, pa)
                gp.left, gp.right = a, _Node(b, c)
            else:
                pc = _find_parent(root, c)
                gp = _find_parent(root, pc)
                gp.left, gp.right = _Node(a, b), c

    for _ in range(6 * n_events + 60):
        lv = leaves()
        k = len(lv)
        done = (k == 1 and root.orient == "u") if shape == "long" \
            else (root is None and lines)
        grow = len(lines) < n_events
        if done and not grow:
            return lines
        options = []
        if grow:
            for i in range(1, k + 2):
                for o in "ud":
                    options.append(f"MIN@{i}:{o}")
        caps = []
        for pos, a, b, parent in _sibling_pairs(root) if root is not None else []:
            options.append(_cross_line(pos, a, b, True))
            options.append(_cross_line(pos, a, b, False))
            if a.orient != b.orient:
                # never pinch off a separate component: cap only strands of
                # distinct pieces, except the final closure of a closed word;
                # likewise never cap the root pair of a long word
                at_root = _find_parent(root, parent) is None
                if a.piece is not b.piece and not (at_root and shape == "long"):
                    caps.append(f"MAX@{pos}:{a.orient}")
                elif a.piece is b.piece and shape == "closed" and k == 2 \
                        and not grow:
                    caps.append(f"MAX@{pos}:{a.orient}")
        options.extend(caps)
        assoc = [f"A@{pos}:{side}"
                 for pos, side in (_assoc_sites(root) if root is not None else [])]
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
        apply_line(pick)
        lines.append(pick)
    return None


def random_tangle_word(seed: int, n_events: int = 12,
                       shape: str = "long") -> TangleWord:
    """Deterministic random legal tangle word; retries dead ends and words
    whose caps would pinch off a separate component."""
    rng = random.Random(seed)
    for _ in range(500):
        lines = _attempt_random_lines(rng, n_events, shape)
        if lines is None:
            continue
        try:
            return parse_tangle("\n".join(lines), shape)
        except TangleError:
            continue
    raise RuntimeError(f"no legal tangle word found for seed {seed}")
