"""Polygonal knots, their plane projections, and Morse-theoretic v2 formulas.

A PolyKnot is a 3D polygonal knot with exact rational coordinates, either
closed or long (a long knot runs along the vertical axis outside a bounding
box, oriented upward at both ends).  Projecting to the xy-plane gives a
PlaneCurve whose double points carry over/under data from the z coordinate.

v2 is then computed from curve geometry: a chord-pattern bracket over the
projection's Gauss diagram plus signed index sums over double points and
extrema.  Three independent formulas are evaluated for long curves and one
for closed curves; they must agree with each other and with the purely
combinatorial value, which pins every sign convention.  The formulas are the
core in `invariants` (`v2_long`, `v2_closed`), shared with the associator
method of `tangle`; this module supplies only the Morse index terms.

All geometric predicates use Fraction arithmetic; there are no tolerances.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

from .diagram import GaussDiagram
from .invariants import cross_sign, v2_closed, v2_gauss, v2_long, x_counts
from .pairing import XUP, XFB, XFWD, XBWD, X_ALL, PatternCombination, bracket

__all__ = [
    "GenericityError",
    "PolyKnot",
    "PlaneCurve",
    "Crossing",
    "MorseStats",
    "project",
    "segment_crossing",
    "point_index",
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


def _frac(v) -> Fraction:
    """Exact rational from an int, a finite float, a Fraction or a numeric
    string; anything else is a ValueError."""
    if isinstance(v, bool):
        raise ValueError(f"coordinate {v!r} is not a number")
    try:
        return Fraction(v)
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"coordinate {v!r} is not a finite rational") from exc


def _vertex(v) -> tuple[Fraction, Fraction, Fraction]:
    if not isinstance(v, (list, tuple)) or len(v) != 3:
        raise ValueError(f"vertex {v!r} is not a list of 3 coordinates")
    return tuple(_frac(c) for c in v)


def _sign(x) -> int:
    return (x > 0) - (x < 0)


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
    segments, whose closed bounding boxes meet, in lexicographic order (see
    PlaneCurve._find_crossings)."""
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
        obj = json.loads(text)
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

    def perturbed(self, rng: random.Random, scale: Fraction) -> "PolyKnot":
        """Jitter interior vertices by rationals of magnitude <= scale."""
        out = []
        for i, v in enumerate(self.vertices):
            fixed = self.shape == "long" and i in (0, len(self.vertices) - 1)
            if fixed:
                out.append(v)
            else:
                out.append(tuple(c + scale * Fraction(rng.randint(-64, 64), 64)
                                 for c in v))
        return PolyKnot(tuple(out), shape=self.shape)


@dataclass(frozen=True)
class Crossing:
    """Transversal double point of the projected curve.

    t1 < t2 are the two passage parameters (edge index + fraction along the
    edge); d1, d2 the corresponding 2D direction vectors; eps is the
    intersection number of the branches taken in source order; writhe is the
    crossing sign of the resolved knot diagram.
    """

    t1: Fraction
    t2: Fraction
    point: tuple[Fraction, Fraction]
    d1: tuple[Fraction, Fraction]
    d2: tuple[Fraction, Fraction]
    over_first: bool
    eps: int
    writhe: int


class PlaneCurve:
    """Projection of a PolyKnot: extended 2D polyline plus crossing data.

    For long knots the stored polyline includes straight tail segments on the
    vertical axis reaching past the bounding box, so ray and intersection
    queries see the whole curve.
    """

    def __init__(self, points3, shape: str):
        self.shape = shape
        self.points3 = [tuple(_frac(c) for c in p) for p in points3]
        self.points = [(p[0], p[1]) for p in self.points3]
        if shape == "long":
            ys = [p[1] for p in self.points]
            lo, hi = min(ys) - 1, max(ys) + 1
            first, last = self.points3[0], self.points3[-1]
            self.points3 = [(first[0], lo, first[2])] + self.points3 + \
                           [(last[0], hi, last[2])]
            self.points = [(p[0], p[1]) for p in self.points3]
        self._dirs = self._vertex_dirs()
        self._validate_vertices()
        self.crossings = self._find_crossings()
        self._validate_levels()

    # -- construction helpers -------------------------------------------------

    def _edges(self):
        """(start, end) of each edge, indexed by edge number."""
        pts = self.points
        if self.shape == "closed":
            return list(zip(pts, pts[1:] + pts[:1]))
        return list(zip(pts, pts[1:]))

    @property
    def n_edges(self) -> int:
        return len(self.points) if self.shape == "closed" else len(self.points) - 1

    def _validate_vertices(self):
        ys = [p[1] for p in self.points]
        if len(set(ys)) != len(ys):
            raise GenericityError("two vertices share a y-coordinate")
        for a, b in self._edges():
            if a[1] == b[1]:
                raise GenericityError(f"horizontal edge at y={a[1]}")
            if a == b:
                raise GenericityError("zero-length edge")
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
        """Transversal double points, sorted by first passage parameter.

        Only edge pairs whose closed bounding boxes meet reach the segment
        test: the edges are sorted by lowest y and swept upward, keeping an
        active list of the edges whose highest y reaches the current edge's
        lowest, and a pair is a candidate when the closed x-intervals of
        its two boxes meet as well.  Segments with disjoint closed boxes
        share no point, so no skipped pair could cross, touch, overlap or
        share an endpoint; the candidates are tested in the lexicographic
        order of an all-pairs scan, so an input with several faults raises
        the same first GenericityError.  The boxes are compared as
        Fractions, as exactly as the segment test itself.
        """
        edges = self._edges()
        n = self.n_edges
        pts3 = self.points3
        crossings = []
        pts_seen = set()
        for i, j in _box_pairs(edges):
            # adjacent edges meet at their shared vertex and, unless
            # collinear, nowhere else; a collinear fold-back is rejected as
            # a degenerate extremum, so such a pair never crosses
            if j - i == 1 or (self.shape == "closed" and j - i == n - 1):
                continue
            a, b = edges[i]
            c, d = edges[j]
            hit = segment_crossing(a, b, c, d, i, j)
            if hit is None:
                continue
            t, u = hit
            r = (b[0] - a[0], b[1] - a[1])
            s = (d[0] - c[0], d[1] - c[1])
            p = (a[0] + t * r[0], a[1] + t * r[1])
            if p in pts_seen:
                raise GenericityError(f"triple point at {p}")
            pts_seen.add(p)
            z1 = pts3[i][2] + t * (pts3[(i + 1) % len(pts3)][2] - pts3[i][2])
            z2 = pts3[j][2] + u * (pts3[(j + 1) % len(pts3)][2] - pts3[j][2])
            if z1 == z2:
                raise GenericityError(f"double point at {p} with equal heights")
            eps = cross_sign(r, s)
            over_first = z1 > z2
            writhe = eps if over_first else -eps
            crossings.append(Crossing(t1=i + t, t2=j + u, point=p,
                                      d1=r, d2=s, over_first=over_first,
                                      eps=eps, writhe=writhe))
        crossings.sort(key=lambda c: c.t1)
        return crossings

    def _validate_levels(self):
        levels = [self.points[vi][1] for vi, di, do in self._dirs
                  if _sign(di[1]) != _sign(do[1])]
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

    def chain_between(self, t1: Fraction, t2: Fraction, point):
        """Polyline traced from parameter t1 to t2 (t1 < t2), both ends at
        the given plane point.  Crossing parameters are never integers, so
        the interior vertices are exactly those with integer parameter in
        (t1, t2)."""
        pts = [point]
        for i in range(int(t1) + 1, int(t2) + 1):
            pts.append(self.points[i % len(self.points)])
        pts.append(point)
        return pts

    def chain_outside(self, t1: Fraction, t2: Fraction, point):
        """The complement: for closed curves one polyline t2 -> t1 wrapping
        through parameter 0; for long curves the two end pieces."""
        m = self.n_edges
        if self.shape == "closed":
            pts = [point]
            for i in range(int(t2) + 1, int(t1) + m + 1):
                pts.append(self.points[i % len(self.points)])
            pts.append(point)
            return [pts]
        head = [self.points[i] for i in range(0, int(t1) + 1)] + [point]
        tail = [point] + [self.points[i] for i in range(int(t2) + 1, len(self.points))]
        return [head, tail]

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
        return GaussDiagram.from_endpoint_order(order, signs, shape=self.shape)

    def to_svg(self, width: int = 400) -> str:
        """Plain SVG rendering of the projection (documentation aid only)."""
        if not self.points:
            return "<svg xmlns='http://www.w3.org/2000/svg'/>"
        xs = [float(p[0]) for p in self.points]
        ys = [float(p[1]) for p in self.points]
        x0, x1 = min(xs) - 1, max(xs) + 1
        y0, y1 = min(ys) - 1, max(ys) + 1
        sc = width / max(x1 - x0, y1 - y0)
        pts = " ".join(f"{(x - x0) * sc:.1f},{(y1 - y) * sc:.1f}"
                       for x, y in zip(xs, ys))
        tag = "polygon" if self.shape == "closed" else "polyline"
        return (f"<svg xmlns='http://www.w3.org/2000/svg' width='{width}' "
                f"height='{width}'><{tag} points='{pts}' fill='none' "
                f"stroke='black'/></svg>")


def project(knot: PolyKnot) -> PlaneCurve:
    """Project to the xy-plane, resolving crossings by the z coordinate."""
    return PlaneCurve(knot.vertices, knot.shape)


def point_index(p, chain) -> int:
    """Signed crossings of the open rightward ray from p with a polyline.

    An edge counts iff its y-range strictly straddles p's level; +1 when the
    edge goes up, -1 when down.  Edges that only touch the level at an
    endpoint never count, which realizes the open-ray convention exactly.
    """
    total = 0
    for a, b in zip(chain, chain[1:]):
        if min(a[1], b[1]) < p[1] < max(a[1], b[1]):
            x_at = a[0] + (p[1] - a[1]) / (b[1] - a[1]) * (b[0] - a[0])
            if x_at > p[0]:
                total += 1 if b[1] > a[1] else -1
    return total


def _closed_chain(points):
    return list(points) + [points[0]]


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

    if curve.shape == "long":
        I_int = I_out = 0
        for c in curve.crossings:
            mid = curve.chain_between(c.t1, c.t2, c.point)
            i_int = point_index(c.point, mid)
            i_out = sum(point_index(c.point, ch)
                        for ch in curve.chain_outside(c.t1, c.t2, c.point))
            I_int += c.eps * i_int
            I_out += c.eps * i_out
        I_r = I_l = 0
        for vi, p, kind, turn in ext:
            halves = ([curve.points[i] for i in range(vi + 1)],
                      [curve.points[i] for i in range(vi, len(curve.points))])
            idx_in, idx_out = (point_index(p, h) for h in halves)
            # which half approaches p from the right: compare the branch
            # x-offsets at the test level just inside the extremum
            d_in = (p[0] - curve.points[vi - 1][0], p[1] - curve.points[vi - 1][1])
            nxt = curve.points[vi + 1]
            d_out = (nxt[0] - p[0], nxt[1] - p[1])
            eta = 1 if kind == "min" else -1
            in_is_right = eta * Fraction(d_in[0], d_in[1]) > \
                eta * Fraction(d_out[0], d_out[1])
            i_r, i_l = (idx_in, idx_out) if in_is_right else (idx_out, idx_in)
            I_r += turn * i_r
            I_l += turn * i_l
        return MorseStats(M=M, X=X, Xplus=Xp, Xminus=X - Xp,
                          I_int=I_int, I_out=I_out, I_r=I_r, I_l=I_l)

    full = _closed_chain(curve.points)
    E = sum(turn * point_index(p, full) for _, p, _, turn in ext)
    Q = 0
    for c in curve.crossings:
        arc1 = curve.chain_between(c.t1, c.t2, c.point)
        (arc2,) = curve.chain_outside(c.t1, c.t2, c.point)
        i1 = point_index(c.point, arc1)
        i2 = point_index(c.point, arc2)
        # arc1 arrives along d2 and leaves along d1; counterclockwise turn
        # means positive cross product of (arrival, departure)
        arc1_ccw = _cross(c.d2, c.d1) > 0
        q_plus, q_minus = (i2, i1) if arc1_ccw else (i1, i2)
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


def polyknot_from_braid(word: list[int], strands: int | None = None,
                        closed: bool = False) -> PolyKnot:
    """Exact polygonal realization of a braid closure.

    Strands run upward through unit strips, one braid letter per strip;
    crossing strands take diagonals with quarter-point height bumps so the
    over strand has larger z at the double point.  Closure arcs nest around
    the right side at distinct levels.  A small global shear removes
    horizontal edges, which keeps all intersections unchanged (shearing is
    linear) while making every vertex level distinct.

    For the long version the outermost closure arc is cut and both ends run
    along the vertical axis, so the braid must close to a single component.
    """
    k = strands or (max((abs(a) for a in word), default=0) + 1)
    L = len(word)
    if k < 1:
        raise ValueError("need at least one strand")

    # per-pass geometry: points of the strand starting at bottom position p
    def pass_points(p_start):
        pts = [(Fraction(p_start), Fraction(0), Fraction(0))]
        pos = p_start
        for t, letter in enumerate(word):
            i = abs(letter) - 1
            x = Fraction(pos)
            if pos in (i, i + 1):
                x2 = Fraction(i + 1 if pos == i else i)
                entering_i = pos == i + 1
                over = entering_i if letter > 0 else not entering_i
                zq = Fraction(1) if over else Fraction(-1)
                pts.append((x + (x2 - x) / 4, Fraction(t) + Fraction(1, 4), zq))
                pts.append((x + 3 * (x2 - x) / 4, Fraction(t) + Fraction(3, 4), zq))
                pts.append((x2, Fraction(t + 1), Fraction(0)))
                pos = int(x2)
            else:
                pts.append((x, Fraction(t + 1), Fraction(0)))
        return pts, pos

    def closure_arc(p_top):
        """Arc from top position p_top back to bottom position p_top."""
        o = k - p_top
        h = Fraction(L + o)
        b = Fraction(-o)
        xr = Fraction(k - 1 + o)
        xp = Fraction(p_top)
        return [(xp, h, Fraction(0)), (xr, h, Fraction(0)),
                (xr, b, Fraction(0)), (xp, b, Fraction(0))]

    pts = []
    p = 0
    passes = 0
    while True:
        body, p_top = pass_points(p)
        pts.extend(body)
        passes += 1
        if p_top == 0 and not closed:
            break
        pts.extend(closure_arc(p_top))
        p = p_top
        if closed and p == 0:
            break
        if passes > k:
            raise ValueError("braid closure traversal did not close")
    if passes != k:
        raise ValueError(
            f"braid closure has {k - passes + 1} components, need 1")
    sheared = [_shear_point(*q) for q in pts]
    # shear leaves x=0 points on the axis, so the long-knot endpoints stay put
    return PolyKnot(tuple(sheared), shape="long" if not closed else "closed")


def convex_circle_curve() -> PolyKnot:
    """Simple closed convex curve with one maximum: a polygonal circle."""
    pts = [("1", "0", "0"), ("3/5", "4/5", "0"), ("-1/5", "9/10", "0"),
           ("-1", "1/10", "0"), ("-3/5", "-3/4", "0"), ("3/10", "-17/20", "0")]
    return PolyKnot(tuple(tuple(Fraction(c) for c in p) for p in pts),
                    shape="closed")
