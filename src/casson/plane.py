"""Polygonal knots, their plane projections, and Morse-theoretic v2 formulas.

A PolyKnot is a 3D polygonal knot with exact rational coordinates, either
closed or long (a long knot runs along the vertical axis outside a bounding
box, oriented upward at both ends).  Projecting to the xy-plane gives a
PlaneCurve whose double points carry over/under data from the z coordinate.

The double points come from one exact sweep: edges whose closed bounding
boxes meet are paired, and each pair goes through one crossing step (the
segment test, the crossing point, the two heights).  `mcint.lk_combinatorial`
runs the same sweep and step over the edges of two loops.

v2 is then computed from curve geometry: a chord-pattern bracket over the
projection's Gauss diagram plus signed index sums over double points and
extrema.  Each index is a difference of prefix sums of per-edge counts of
the rightward ray from the point, one O(E) pass per point.  Three
independent formulas are evaluated for long curves and one for closed
curves; they must agree with each other and with the purely combinatorial
value, which pins every sign convention.  The formulas are the core in
`invariants` (`v2_long`, `v2_closed`), shared with the associator method of
`tangle`; this module supplies only the Morse index terms.

All geometric predicates use Fraction arithmetic; there are no tolerances.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction

from .diagram import GaussDiagram, closure_walk
from .invariants import _sign, cross_sign, v2_closed, v2_gauss, v2_long, x_counts
from .pairing import XUP, XFB, XFWD, XBWD, X_ALL, PatternCombination, bracket

__all__ = [
    "GenericityError",
    "PolyKnot",
    "PlaneCurve",
    "Crossing",
    "MorseStats",
    "project",
    "segment_crossing",
    "morse_stats",
    "v2_morse",
    "v2_morse_closed",
    "arnold_I",
    "polyknot_from_braid",
    "convex_circle_curve",
]

_X2ALL = PatternCombination(((2, XUP), (2, XFWD), (2, XBWD)))


class GenericityError(ValueError):
    """The curve violates a genericity requirement; message names the feature."""


# Largest decimal exponent a coordinate string may carry: Fraction("1e999999999")
# would build a billion-digit integer.  4300 is Python's own digit limit for
# int strings.
_MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"[eE][-+]?([0-9_]*)")


def _frac(v) -> Fraction:
    """Exact rational from an int, a finite float, a Fraction or a numeric
    string with a decimal exponent of at most _MAX_EXPONENT in magnitude;
    anything else is a ValueError."""
    if isinstance(v, bool):
        raise ValueError(f"coordinate {v!r} is not a number")
    m = _EXPONENT.search(v) if isinstance(v, str) else None
    if m:
        digits = m.group(1).replace("_", "").lstrip("0")
        if len(digits) > len(str(_MAX_EXPONENT)) or int(digits or 0) > _MAX_EXPONENT:
            raise ValueError(f"coordinate {v!r} has a decimal exponent above "
                             f"{_MAX_EXPONENT} in magnitude")
    try:
        return Fraction(v)
    except (TypeError, OverflowError, ZeroDivisionError) as exc:
        raise ValueError(f"coordinate {v!r} is not a finite rational") from exc


def _vertex(v) -> tuple[Fraction, Fraction, Fraction]:
    if not isinstance(v, (list, tuple)) or len(v) != 3:
        raise ValueError(f"vertex {v!r} is not a list of 3 coordinates")
    return tuple(_frac(c) for c in v)


def _cross(a, b) -> Fraction:
    return a[0] * b[1] - a[1] * b[0]


def segment_crossing(a, b, c, d, i, j):
    """Where the plane segments ab and cd, named edges i and j, cross.

    Returns (t, u) with a + t(b - a) = c + u(d - c) when the segments cross
    transversally at a point interior to both, and None when they do not
    meet.  Every other contact raises GenericityError naming i and j: a
    collinear overlap, or an endpoint of one segment on the other.  Points
    are Fraction pairs.  Not for edges sharing a vertex, which always meet.
    """
    r = (b[0] - a[0], b[1] - a[1])
    s = (d[0] - c[0], d[1] - c[1])
    denom = _cross(r, s)
    ac = (c[0] - a[0], c[1] - a[1])
    if denom == 0:
        if _cross(ac, r) == 0 and _collinear_overlap(a, b, c, d):
            raise GenericityError(f"edges {i} and {j} overlap")
        return None
    t = _cross(ac, s) / denom
    u = _cross(ac, r) / denom
    if not (0 <= t <= 1 and 0 <= u <= 1):
        return None
    if not (0 < t < 1 and 0 < u < 1):
        raise GenericityError(f"edges {i} and {j} meet at an endpoint")
    return t, u


def _collinear_overlap(a, b, c, d) -> bool:
    lo, hi = min(a[1], b[1]), max(a[1], b[1])
    return any(lo < p[1] < hi for p in (c, d)) or \
        any(min(c[1], d[1]) < y < max(c[1], d[1]) for y in (a[1], b[1]))


def _box_pairs(edges) -> list[tuple[int, int]]:
    """Pairs (i, j), i < j, of positions in `edges`, a list of (start, end)
    segments, whose closed bounding boxes meet, in lexicographic order.

    The edges are sorted by lowest y and swept upward, keeping an active
    list of the edges whose highest y reaches the current edge's lowest, and
    a pair is kept when the closed x-intervals of its two boxes meet as
    well.  Segments of positive length with disjoint closed boxes share no
    point, so no skipped pair could cross, touch, overlap or share an
    endpoint; taken in the order of an all-pairs scan, the kept pairs raise
    the same first GenericityError.  The boxes are compared as exactly as
    the segment test compares its points.
    """
    boxes = [(min(a[1], b[1]), max(a[1], b[1]), min(a[0], b[0]),
              max(a[0], b[0])) for a, b in edges]
    active, pairs = [], []
    for k in sorted(range(len(boxes)), key=lambda k: boxes[k][0]):
        y_lo, _, x_lo, x_hi = boxes[k]
        active = [m for m in active if boxes[m][1] >= y_lo]
        for m in active:
            if boxes[m][2] <= x_hi and x_lo <= boxes[m][3]:
                pairs.append((m, k) if m < k else (k, m))
        active.append(k)
    pairs.sort()
    return pairs


def _crossing(e, f, i, j, seen):
    """The Crossing of edges e and f, named i and j, or None.

    An edge is a (start, end) pair of points (x, y, height).  Raises
    GenericityError when the plane segments touch without crossing, when
    the double point is already in the set `seen` (a triple point; None
    skips that check) or when the two heights there are equal.
    """
    (a, b), (c, d) = e, f
    hit = segment_crossing(a, b, c, d, i, j)
    if hit is None:
        return None
    t, u = hit
    r = (b[0] - a[0], b[1] - a[1])
    s = (d[0] - c[0], d[1] - c[1])
    p = (a[0] + t * r[0], a[1] + t * r[1])
    if seen is not None:
        if p in seen:
            raise GenericityError(f"triple point at {p}")
        seen.add(p)
    z1 = a[2] + t * (b[2] - a[2])
    z2 = c[2] + u * (d[2] - c[2])
    if z1 == z2:
        raise GenericityError(f"double point at {p} with equal heights")
    return Crossing(t1=i + t, t2=j + u, point=p, d1=r, d2=s,
                    over_first=z1 > z2, eps=cross_sign(r, s))


def _check_long_ends(first, last) -> None:
    """GenericityError unless a long knot's last vertex lies above its
    first: the tails run down from the first and up from the last along the
    same vertical axis, so otherwise they overlap."""
    y0, y1 = first[1], last[1]
    if y1 <= y0:
        raise GenericityError(f"long knot ends at y={y1}, not above its "
                              f"start at y={y0}")


@dataclass(frozen=True)
class PolyKnot:
    """3D polygonal knot; coordinates are exact rationals.

    For shape "long" the first and last vertices must lie on the z=0, x=0
    vertical axis; the knot continues straight down from the first vertex and
    straight up from the last, so the curve is oriented upward at infinity.
    """

    vertices: tuple[tuple[Fraction, Fraction, Fraction], ...]
    shape: str = "closed"

    def __post_init__(self):
        verts = tuple(_vertex(v) for v in self.vertices)
        object.__setattr__(self, "vertices", verts)
        if self.shape not in ("closed", "long"):
            raise ValueError(f"shape must be 'closed' or 'long', got {self.shape!r}")
        if self.shape == "closed" and len(verts) < 3:
            raise ValueError("closed knot needs at least 3 vertices")
        if self.shape == "long":
            if len(verts) < 2:
                raise ValueError("long knot needs at least 2 vertices")
            for v in (verts[0], verts[-1]):
                if v[0] != 0 or v[2] != 0:
                    raise ValueError("long knot endpoints must lie on the x=z=0 axis")

    @staticmethod
    def from_json(text: str) -> "PolyKnot":
        """Parse {"shape": ..., "vertices": [[x, y, z], ...]}; every
        malformed document is a ValueError."""
        try:
            obj = json.loads(text)
        except RecursionError:
            raise ValueError("polyknot JSON is nested too deeply") from None
        if not isinstance(obj, dict) or not {"shape", "vertices"} <= obj.keys():
            raise ValueError('polyknot JSON must be an object with "shape" '
                             'and "vertices"')
        if not isinstance(obj["vertices"], list):
            raise ValueError('"vertices" must be a list of [x, y, z] points')
        return PolyKnot(tuple(obj["vertices"]), shape=obj["shape"])

    def to_json(self) -> str:
        return json.dumps({
            "shape": self.shape,
            "vertices": [[str(c) if c.denominator != 1 else str(c.numerator)
                          for c in v] for v in self.vertices],
        })


@dataclass(frozen=True)
class Crossing:
    """Transversal double point of the projected curve.

    t1 < t2 are the two passage parameters (edge index + fraction along the
    edge); d1, d2 the corresponding 2D direction vectors; eps is the
    intersection number of the branches taken in source order.
    """

    t1: Fraction
    t2: Fraction
    point: tuple[Fraction, Fraction]
    d1: tuple[Fraction, Fraction]
    d2: tuple[Fraction, Fraction]
    over_first: bool
    eps: int


class PlaneCurve:
    """Projection of a PolyKnot: extended 2D polyline plus crossing data.

    For long knots the stored polyline includes straight tail segments on the
    vertical axis reaching past the bounding box, so ray and intersection
    queries see the whole curve.
    """

    def __init__(self, points3, shape: str):
        if shape not in ("closed", "long"):
            raise ValueError(f"shape must be 'closed' or 'long', got {shape!r}")
        self.shape = shape
        pts = [tuple(_frac(c) for c in p) for p in points3]
        if shape == "long":
            lo = min(p[1] for p in pts) - 1
            hi = max(p[1] for p in pts) + 1
            first, last = pts[0], pts[-1]
            pts = [(first[0], lo, first[2])] + pts + [(last[0], hi, last[2])]
        self.points3 = pts
        self.points = [(p[0], p[1]) for p in pts]
        # (start, end) of each edge, indexed by edge number, as points
        # (x, y, z): the plane point and its height
        self.edges = list(zip(pts, pts[1:] + pts[:1] if shape == "closed"
                              else pts[1:]))
        self._dirs = self._vertex_dirs()
        self._validate_vertices()
        self.crossings = self._find_crossings()
        self._validate_levels()

    # -- construction helpers -------------------------------------------------

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def _validate_vertices(self):
        ys = [p[1] for p in self.points]
        if len(set(ys)) != len(ys):
            raise GenericityError("two vertices share a y-coordinate")
        if self.shape == "long":
            _check_long_ends(self.points[1], self.points[-2])
        for vi, d_in, d_out in self._dirs:
            if _sign(d_in[1]) != _sign(d_out[1]) and _cross(d_in, d_out) == 0:
                raise GenericityError(f"degenerate extremum at vertex {vi}")

    def _vertex_dirs(self):
        """(vertex index, incoming direction, outgoing direction) at each
        vertex where both neighbors exist."""
        pts, n = self.points, len(self.points)
        out = []
        rng = range(n) if self.shape == "closed" else range(1, n - 1)
        for i in rng:
            a, b, c = pts[(i - 1) % n], pts[i], pts[(i + 1) % n]
            out.append((i, (b[0] - a[0], b[1] - a[1]), (c[0] - b[0], c[1] - b[1])))
        return out

    def _find_crossings(self):
        """Transversal double points, sorted by first passage parameter:
        the crossing step on each pair of non-adjacent edges from the
        bounding-box sweep `_box_pairs`."""
        edges, n = self.edges, self.n_edges
        crossings = []
        seen = set()
        for i, j in _box_pairs(edges):
            # adjacent edges meet at their shared vertex and, unless
            # collinear, nowhere else; a collinear fold-back is rejected as
            # a degenerate extremum, so such a pair never crosses
            if j - i == 1 or (self.shape == "closed" and j - i == n - 1):
                continue
            c = _crossing(edges[i], edges[j], i, j, seen)
            if c is not None:
                crossings.append(c)
        crossings.sort(key=lambda c: c.t1)
        return crossings

    def _validate_levels(self):
        levels = [p[1] for _, p, _, _ in self.extrema()]
        levels += [c.point[1] for c in self.crossings]
        if len(set(levels)) != len(levels):
            raise GenericityError("two critical points share a level")
        vy = {p[1] for p in self.points}
        for c in self.crossings:
            if c.point[1] in vy:
                raise GenericityError(
                    f"double point at {c.point} on a vertex level")

    # -- derived data ---------------------------------------------------------

    def extrema(self):
        """(vertex index, point, 'max'|'min', turn sign) for each y-extremum.

        Turn sign is +1 when the curve turns counterclockwise there.
        """
        out = []
        for vi, d_in, d_out in self._dirs:
            si, so = _sign(d_in[1]), _sign(d_out[1])
            if si > 0 and so < 0:
                out.append((vi, self.points[vi], "max", cross_sign(d_in, d_out)))
            elif si < 0 and so > 0:
                out.append((vi, self.points[vi], "min", cross_sign(d_in, d_out)))
        return out

    def gauss_diagram(self, resolution: str = "height") -> GaussDiagram:
        """Gauss diagram of the resolved projection (tail at the overpass).

        resolution "height" takes each overpass from the knot's z
        coordinates; "ascending" makes the later passage the overpass at
        every double point and "descending" the earlier one, which gives
        the two unknotted resolutions of the curve.
        """
        if resolution not in ("height", "ascending", "descending"):
            raise ValueError(f"unknown resolution {resolution!r}")
        passes, signs = [], {}
        for idx, c in enumerate(self.crossings, start=1):
            over_first = c.over_first if resolution == "height" \
                else resolution == "descending"
            t_over, t_under = (c.t1, c.t2) if over_first else (c.t2, c.t1)
            passes.append((t_over, idx, "T"))
            passes.append((t_under, idx, "H"))
            signs[idx] = c.eps if over_first else -c.eps
        passes.sort()
        order = [(cid, kind) for _, cid, kind in passes]
        return GaussDiagram.from_endpoint_order(order, signs)


def project(knot: PolyKnot) -> PlaneCurve:
    """Project to the xy-plane, resolving crossings by the z coordinate."""
    return PlaneCurve(knot.vertices, knot.shape)


def _ray_prefix(edges, p) -> list[int]:
    """pre[k]: signed crossings of the open rightward ray from p with the
    edges before edge k, a list of E + 1 ints.

    An edge counts iff its y-range strictly straddles p's level; +1 when the
    edge goes up, -1 when down.  An edge that ends at p never counts, and an
    edge through p meets the ray only at p itself, so the index of any arc
    from p back to p is a difference of two entries.
    """
    px, py = p
    pre, n = [0], 0
    for a, b in edges:
        ay, by = a[1], b[1]
        if (ay < py < by or by < py < ay) and \
                a[0] + (py - ay) / (by - ay) * (b[0] - a[0]) > px:
            n += 1 if by > ay else -1
        pre.append(n)
    return pre


@dataclass(frozen=True)
class MorseStats:
    """Signed geometric counts of a plane curve.

    Long curves populate the four I sums; closed curves populate E and Q.
    """

    M: int
    X: int
    Xplus: int | None
    Xminus: int | None
    I_int: int | None = None
    I_out: int | None = None
    I_r: int | None = None
    I_l: int | None = None
    E: int | None = None
    Q: int | None = None


def morse_stats(curve: PlaneCurve) -> MorseStats:
    ext = curve.extrema()
    M = sum(1 for _, _, kind, _ in ext if kind == "max")
    X, Xp = x_counts((c.d1, c.d2) for c in curve.crossings)

    # each double point splits the curve into the arc between its two
    # passages (edges int(t1) + 1 .. int(t2) - 1 in full) and the rest
    edges = curve.edges
    arcs = []
    for c in curve.crossings:
        pre = _ray_prefix(edges, c.point)
        inner = pre[int(c.t2)] - pre[int(c.t1) + 1]
        arcs.append((c, inner, pre[-1] - inner))

    if curve.shape == "long":
        I_int = sum(c.eps * inner for c, inner, _ in arcs)
        I_out = sum(c.eps * outer for c, _, outer in arcs)
        I_r = I_l = 0
        for vi, p, kind, turn in ext:
            # the halves before and after vertex vi, edges 0..vi-1 and vi..
            pre = _ray_prefix(edges, p)
            idx_in, idx_out = pre[vi], pre[-1] - pre[vi]
            # the incoming half approaches p from the right exactly when the
            # curve turns counterclockwise at a maximum, clockwise at a minimum
            in_is_right = turn == (1 if kind == "max" else -1)
            i_r, i_l = (idx_in, idx_out) if in_is_right else (idx_out, idx_in)
            I_r += turn * i_r
            I_l += turn * i_l
        return MorseStats(M=M, X=X, Xplus=Xp, Xminus=X - Xp,
                          I_int=I_int, I_out=I_out, I_r=I_r, I_l=I_l)

    E = sum(turn * _ray_prefix(edges, p)[-1] for _, p, _, turn in ext)
    Q = 0
    for c, inner, outer in arcs:
        # the inner arc arrives along d2 and leaves along d1; counterclockwise
        # turn means positive cross product of (arrival, departure)
        inner_ccw = _cross(c.d2, c.d1) > 0
        q_plus, q_minus = (outer, inner) if inner_ccw else (inner, outer)
        Q += q_plus - q_minus
    return MorseStats(M=M, X=X, Xplus=None, Xminus=None, E=E, Q=Q)


def v2_morse(curve: PlaneCurve) -> int:
    """v2 of a long knot from curve geometry, by the three formulas of
    `invariants.v2_long` at once."""
    if curve.shape != "long":
        raise ValueError("v2_morse needs a long curve; use v2_morse_closed")
    st = morse_stats(curve)
    b = bracket(XFB, curve.gauss_diagram())
    k = (-(st.I_out + st.I_r), 2 * st.I_int, -(st.I_out + st.I_l))
    return v2_long("v2_morse", b, k, st.X, st.Xplus, st.M)


def v2_morse_closed(curve: PlaneCurve) -> int:
    """v2 of a closed knot from curve geometry (`invariants.v2_closed`)."""
    if curve.shape != "closed":
        raise ValueError("v2_morse_closed needs a closed curve")
    st = morse_stats(curve)
    b_all = bracket(X_ALL, curve.gauss_diagram())
    # The Q coefficient is 1/12: summing the three long-curve formulas and
    # rewriting the brackets for a closed diagram forces it, and the trefoil
    # fixture confirms it.  (A coefficient of 1/2 fails on any curve where
    # the two halves at some double point have unequal indices.)
    return v2_closed("v2_morse_closed", b_all, 2 * st.Q - st.E, st.X, st.M)


def arnold_I(curve: PlaneCurve, ascending: bool = True) -> int:
    """The plane-curve characteristic common to all the v2 formulas.

    Computed from the unknotted resolution of the curve, where v2 vanishes
    and the whole formula collapses to a bracket.  The result is independent
    of whether the ascending or descending resolution is used.
    """
    g = curve.gauss_diagram("ascending" if ascending else "descending")
    return -bracket(_X2ALL, g)


def decomposition_identity(curve: PlaneCurve, diagram: GaussDiagram) -> bool:
    """6*v2 = <2 xup + 2 xfwd + 2 xbwd, G> + I for any resolution G of the
    curve."""
    return 6 * v2_gauss(diagram) == bracket(_X2ALL, diagram) + arnold_I(curve)


# -- generic polygonal knots from braid words ---------------------------------

_SHEAR = Fraction(1, 1009)


def _shear_point(x, y, z):
    return (Fraction(x), Fraction(y) + _SHEAR * Fraction(x), Fraction(z))


def polyknot_from_braid(word: list[int], closed: bool = False) -> PolyKnot:
    """Exact polygonal realization of a braid closure.

    Strands run upward through unit strips, one braid letter per strip;
    crossing strands take diagonals with quarter-point height bumps so the
    over strand has larger z at the double point.  Closure arcs nest around
    the right side at distinct levels.  A small global shear removes
    horizontal edges, which keeps all intersections unchanged (shearing is
    linear) while making every vertex level distinct.

    The vertices follow `diagram.closure_walk`, which rejects a braid that
    does not close to a single component: each pass through the braid is
    followed by the closure arc from its top position back to the bottom.
    For the long version the last pass ends at the top of strand 1, so the
    outermost closure arc is cut and both ends run along the vertical axis.
    """
    walk = closure_walk(word)
    k = len(walk)
    pts = []
    for path in walk:
        pts.append((path[0], 0, 0))
        for t, (letter, x, x2) in enumerate(zip(word, path, path[1:])):
            if x == x2:
                pts.append((x, t + 1, 0))
                continue
            z = 1 if (letter > 0) == (x2 < x) else -1
            step = Fraction(x2 - x, 4)
            pts += [(x + step, t + Fraction(1, 4), z),
                    (x + 3 * step, t + Fraction(3, 4), z), (x2, t + 1, 0)]
        top = path[-1]
        if closed or top != 0:
            # closure arc from top position `top` back to bottom position `top`
            o = k - top
            h, b, xr = len(word) + o, -o, k - 1 + o
            pts += [(top, h, 0), (xr, h, 0), (xr, b, 0), (top, b, 0)]
    sheared = [_shear_point(*q) for q in pts]
    # shear leaves x=0 points on the axis, so the long-knot endpoints stay put
    return PolyKnot(tuple(sheared), shape="long" if not closed else "closed")


def convex_circle_curve() -> PolyKnot:
    """Simple closed convex curve with one maximum: a polygonal circle."""
    pts = [("1", "0", "0"), ("3/5", "4/5", "0"), ("-1/5", "9/10", "0"),
           ("-1", "1/10", "0"), ("-3/5", "-3/4", "0"), ("3/10", "-17/20", "0")]
    return PolyKnot(tuple(tuple(Fraction(c) for c in p) for p in pts),
                    shape="closed")
