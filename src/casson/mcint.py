"""Monte Carlo evaluation of the configuration-space integrals.

Two degree-type integrals over configuration spaces of points on polygonal
curves, both built from the normalized solid-angle 2-form

    omega_hat(v)(A, B) = v . (A x B) / (4 pi |v|^3),

which integrates to 1 over the unit sphere:

  * linking_mc: the Gauss linking integral of two disjoint closed polygons,
    converging to the integer linking number.

  * v2_mc: v2 of a long polygonal knot as a sum of two integrals -- one
    over the 4-point simplex 0 < t1 < t2 < t3 < t4 < 1 and one over 3-point
    configurations with an auxiliary line parameter (the tripods).

What has a closed form is computed in closed form, and only the rest is
sampled.  The simplex stratum is split by the parameter slots (edges and
tails) of its four points.  Over four distinct slots a < b < c < d the
integrand is a product, and that part equals the sum of I(a, c) I(b, d),
where I(p, q) is the Gauss integral of two straight slots, a signed solid
angle over 4 pi (`_gauss`); it is summed once per estimate in O(n^2) for n
slots (`_simplex_exact`).  The rest, the tuples with two points in one
slot, is sampled, and only where the integrand can be nonzero
(`_coincident_points`).  A tripod row draws a pair of curve points and one
slot for the third point; that point and the line parameter integrate to a
Gauss integral of a straight piece of the pair's line against the slot
(`_tripods`), at most 1 in size.  Both are conditional Monte Carlo: the
mean is the same, and the variance can only be lower than with those parts
sampled.  v2_mc samples a power-of-two copy of the knot, translated by its
first vertex (exactly) and of diameter in [0.5, 1), which every integrand,
being translation- and scale-invariant, gives the same value; in that copy
a tail's end at infinity is a point FAR away (`_slot_ends`).

The two estimators sample their curves through one parametrization of a
polygon, closed or long, one equal parameter slot per edge (`_Param`).  The
kernel is component-major: each coordinate is one contiguous array, and
`_omega_hat` sums its dot product as (x + z) + y, numpy 2.4 einsum's order.
lk_combinatorial, the exact linking number that linking_mc is checked
against, counts crossings with the bounding-box sweep of `plane.project`.

Both estimators are deterministic for a fixed (seed, samples) pair: samples
are drawn in fixed-size chunks from counter-based generators keyed by
(seed, stream, chunk index) and reduced in chunk order, so the result is
independent of scheduling and bit-for-bit reproducible.  linking_mc reads
stream 0; v2_mc reads stream 1 for the simplex integral's coincident
slots, four columns a row, and streams 2-4 for the tripods, three columns
a row, all into one mean.  Samples that fall within a small relative
distance of a singular (coincident-point) configuration are rejected and
excluded from both the numerator and the sample count, with the rejection
count reported.

A chunk's draw is drawn and evaluated in BLOCK-row blocks (`_blocked`),
whose values and masks are joined back into one chunk-long array before it
is summed.  The two sizes serve different ends.  CHUNK is part of the RNG
keys, so changing it changes every estimate.  BLOCK only keeps the draw and
an integrand's (3, rows, points) temporaries small enough to stay in cache:
at 32768 rows they take 2-3 MiB each, and the allocator returns them to the
kernel between chunks.  The generator gives the same numbers drawn in
blocks as in one call, and every integrand works row by row, so the block
size cannot change a result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .plane import (GenericityError, PolyKnot, _box_pairs, _check_long_ends,
                    _crossing, _frac)

__all__ = ["McEstimate", "linking_mc", "v2_mc", "v2_mc_series",
           "lk_combinatorial"]

CHUNK = 1 << 15
BLOCK = 1 << 12
_REJECT_EPS = 1e-6


@dataclass(frozen=True)
class McEstimate:
    value: float
    std_error: float
    samples: int
    seed: int
    rejected: int = 0

    def within(self, target: float) -> bool:
        """Whether target lies within three standard errors of the value."""
        return abs(self.value - target) <= 3.0 * max(self.std_error, 1e-12)


def _rng(seed: int, stream: int, chunk: int) -> np.random.Generator:
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, (stream << 32) | chunk],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


class _Accumulator:
    """Streaming mean / standard error over accepted samples."""

    def __init__(self):
        self.n = 0
        self.total = 0.0
        self.total_sq = 0.0
        self.rejected = 0

    def add(self, values: np.ndarray, valid: np.ndarray):
        good = values if valid.all() else values[valid]
        self.n += good.size
        self.rejected += values.size - good.size
        self.total += float(good.sum())
        self.total_sq += float((good * good).sum())

    def mean(self) -> float:
        return self.total / self.n if self.n else 0.0

    def std_error(self) -> float:
        if self.n < 2:
            return float("inf")
        var = self.total_sq / self.n - self.mean() ** 2
        return math.sqrt(max(var, 0.0) / self.n)


def _coords(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three coordinate views of a (..., 3) array (np.moveaxis's, at a
    fraction of its call overhead, which the per-block kernels pay often)."""
    return v[..., 0], v[..., 1], v[..., 2]


def _omega_hat(v: np.ndarray, a: np.ndarray, b: np.ndarray,
               scale: float) -> tuple[np.ndarray, np.ndarray]:
    """(values, valid mask) of the normalized solid-angle coefficient."""
    (x, y, z), (ax, ay, az), (bx, by, bz) = map(_coords, (v, a, b))
    norm = np.sqrt(x * x + y * y + z * z)
    valid = norm > _REJECT_EPS * scale
    safe = np.where(valid, norm, 1.0)
    # a x b as np.cross forms it, dotted as einsum sums it: (x + z) + y
    num = ((x * (ay * bz - az * by) + z * (ax * by - ay * bx))
           + y * (az * bx - ax * bz))
    return num / (4.0 * math.pi * (safe * safe * safe)), valid


# ---------------------------------------------------------------------------
# the polygon parametrization over (0,1)

class _Param:
    """Parametrization t in (0,1) of a closed or long polygonal curve, one
    equal parameter slot per edge.

    The integrands are pulled-back differential forms, so any
    orientation-preserving parametrization gives the same integrals.  A
    long knot has one more slot at each end for its straight tail along -y
    and +y, with a projective stretch t -> length/(1 - t)-style so the slot
    covers the whole infinite ray.

    `start` and `edge` are (3, n) tables, one row per coordinate.  eval
    evaluates every sample on a straight edge of the padded table, into
    (3, ...) buffers; `at` does the same for points given as (slot, offset
    in the slot).  A tail slot's edge is a signed zero ((-0, 0, -0) low,
    0 high), which leaves x and z at the end vertex with the ray's zero
    derivative, so only y is overwritten in the tail slots.  eval returns
    (..., 3) views of the buffers, and `pos[..., k]` is contiguous.
    """

    def __init__(self, vertices, long: bool):
        v = np.asarray([[float(c) for c in p] for p in vertices], dtype=float)
        self.long = long
        diameter = float(np.linalg.norm(v.max(axis=0) - v.min(axis=0)))
        self.scale = diameter
        if long:
            start = np.concatenate((v[:1], v[:-1], v[-1:]))
            edge = np.concatenate(([[-0.0, 0.0, -0.0]], v[1:] - v[:-1],
                                   [[0.0, 0.0, 0.0]]))
        else:
            start, edge = v, np.roll(v, -1, axis=0) - v
        self.start = np.ascontiguousarray(start.T)
        self.edge = np.ascontiguousarray(edge.T)

    def slots(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(slot, offset in the slot) of each parameter t in (0,1)."""
        return self.split(t * self.start.shape[1])

    def split(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(slot, offset in the slot) of each x in [0, n], in slot units;
        a point at the top of slot n - 1, which t * n may round up to n,
        stays in it."""
        seg = np.minimum(x.astype(int), self.start.shape[1] - 1)
        return seg, x - seg

    def eval(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(position, d position / dt) arrays; t strictly inside (0,1)."""
        return self.at(*self.slots(t))

    def at(self, seg: np.ndarray,
           s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """eval at the point s in [0,1) of the way through slot seg."""
        n = self.start.shape[1]
        edge = self.edge.take(seg, axis=1)
        pos = self.start.take(seg, axis=1)
        pos += s * edge
        deriv = edge * n
        if self.long:
            L = self.scale
            # flat views and flat indices, so each tail is found in one
            # scan; s >= 0, and s < 1 in the lower tail, so each tail's
            # clip can bind on one side only
            y, dy, s = pos[1].reshape(-1), deriv[1].reshape(-1), s.reshape(-1)
            lo = np.flatnonzero(seg == 0)
            s0 = np.maximum(s.take(lo), 1e-12)
            y[lo] = self.start[1, 0] - L * (1.0 - s0) / s0
            dy[lo] = L / s0 ** 2 * n
            hi = np.flatnonzero(seg == n - 1)
            s1 = np.minimum(s.take(hi), 1.0 - 1e-12)
            y[hi] = self.start[1, -1] + L * s1 / (1.0 - s1)
            dy[hi] = L / (1.0 - s1) ** 2 * n
        return np.moveaxis(pos, 0, -1), np.moveaxis(deriv, 0, -1)


def _chunks(samples: int):
    """(chunk index, chunk size, samples drawn after it) for the fixed-size
    chunks that cover `samples`, the last one possibly short."""
    for chunk, start in enumerate(range(0, samples, CHUNK)):
        end = min(start + CHUNK, samples)
        yield chunk, end - start, end


def _blocked(integrand, rng: np.random.Generator, rows: int, cols: int,
             *args):
    """(values, valid mask) of integrand(block, *args) over consecutive
    BLOCK-row blocks of rng's (rows, cols) uniform draw, joined in row
    order.  Each block is drawn as it is evaluated: the generator yields
    the same numbers as one rng.random((rows, cols)) call, and no
    chunk-long draw is held."""
    parts = [integrand(rng.random((min(BLOCK, rows - i), cols)), *args)
             for i in range(0, rows, BLOCK)]
    return tuple(np.concatenate(p) for p in zip(*parts))


# Comparator pairs that sort four columns.
_NETWORK = ((0, 1), (2, 3), (0, 2), (1, 3), (1, 2))


def _sort_columns(cols: list) -> np.ndarray:
    """The (m, 4) array of the four columns' rows, each sorted ascending,
    by a min/max sorting network: min and max each return one of their
    inputs, so the values are np.sort's."""
    for i, j in _NETWORK:
        cols[i], cols[j] = (np.minimum(cols[i], cols[j]),
                            np.maximum(cols[i], cols[j]))
    return np.stack(cols, axis=1)


def _check_samples(*counts: int) -> None:
    if any(n < 1 for n in counts):
        raise ValueError(f"sample counts must be at least 1, got {min(counts)}")


# ---------------------------------------------------------------------------
# closed polygons and the linking integral

def linking_mc(loop1, loop2, samples: int, seed: int = 0) -> McEstimate:
    """Gauss linking integral of two disjoint closed polygons.

    Accepts vertex sequences (3D points) or closed PolyKnots.  The estimate
    converges to the linking number; its sign convention matches the signed
    crossing count of lk_combinatorial.
    """
    _check_samples(samples)
    v1, v2 = list(_vertices_of(loop1)), list(_vertices_of(loop2))
    if not v1 or not v2:
        raise ValueError("a linking loop needs at least one vertex")
    # one vertex of the first loop is subtracted exactly from both, as in
    # v2_mc, so loops far from the origin for their size keep their shape
    par1 = _Param(_offsets(v1, v1[0]), long=False)
    par2 = _Param(_offsets(v2, v1[0]), long=False)
    acc = _Accumulator()
    for chunk, m, _ in _chunks(samples):
        acc.add(*_blocked(_linking, _rng(seed, 0, chunk), m, 2,
                          par1, par2))
    return McEstimate(acc.mean(), acc.std_error(), acc.n, seed, acc.rejected)


def _linking(u: np.ndarray, par1: _Param, par2: _Param):
    """The Gauss linking integrand at an (m, 2) draw, one parameter per
    loop."""
    p1, d1 = par1.eval(u[:, 0])
    p2, d2 = par2.eval(u[:, 1])
    return _omega_hat(p1 - p2, d1, d2, max(par1.scale, par2.scale))


def _offsets(vertices, origin) -> np.ndarray:
    """Each vertex minus `origin`, the difference taken before the
    conversion to doubles, so it is exact for exact coordinates."""
    return np.array([[float(c - o) for c, o in zip(p, origin, strict=True)]
                     for p in vertices])


def _vertices_of(loop):
    if isinstance(loop, PolyKnot):
        if loop.shape != "closed":
            raise ValueError("a linking loop must be closed, got a long knot")
        return loop.vertices
    return loop


# Projection directions (0, -s, 1) tried in turn by lk_combinatorial.
_LK_SHEARS = (Fraction(0), Fraction(1, 127), Fraction(1, 61))


def lk_combinatorial(loop1, loop2) -> int:
    """Linking number as the signed count of crossings where loop1 passes
    over loop2, read off the xy-projection, or off the projection along
    (0, -s, 1) for a small rational s when that one is not generic.

    Exact: coordinates become Fractions, a vertex repeated right after
    itself is dropped (its zero-length edge would fail the segment test in
    every projection), and the crossings come from the bounding-box sweep
    and the per-pair crossing step of `plane.project`.
    """
    a, b = _distinct(loop1), _distinct(loop2)
    for shear in _LK_SHEARS:
        try:
            return _lk_projected(a, b, shear)
        except GenericityError:
            continue
    raise ValueError("could not find a generic projection")


def _distinct(loop):
    """The loop's vertices as Fraction triples (by `plane._frac`'s rule),
    without consecutive repeats (the last vertex and the first are
    consecutive too)."""
    pts = [tuple(_frac(c) for c in p) for p in _vertices_of(loop)]
    return [p for k, p in enumerate(pts) if p != pts[k - 1]]


def _lk_projected(a, b, shear: Fraction) -> int:
    """Signed over-crossings of loop a with loop b in the projection
    (x, y + shear * z), where z still orders the points over each image
    point; GenericityError when that projection is not generic.  (A shear
    by x would be a linear map of the xy-projection, which keeps every
    incidence, so it could not make a projection generic.)  The sweep runs
    over both loops' edges at once and keeps the pairs with one edge from
    each loop."""
    def edges(loop):
        pts = [(x, y + shear * z, z) for x, y, z in loop]
        return list(zip(pts, pts[1:] + pts[:1]))

    joined = edges(a) + edges(b)
    total = 0
    for i, j in _box_pairs(joined):
        if i < len(a) <= j:
            c = _crossing(joined[i], joined[j], i, j, None)
            if c is not None and c.over_first:
                total += c.eps
    return total


# ---------------------------------------------------------------------------
# the v2 integrals

def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _triple(u, v, w):
    """u . (v x w), of three coordinate triples."""
    return (u[0] * (v[1] * w[2] - v[2] * w[1])
            + u[1] * (v[2] * w[0] - v[0] * w[2])
            + u[2] * (v[0] * w[1] - v[1] * w[0]))


def _gauss(a, b, c, d) -> np.ndarray:
    """I(p, q), the integral of omega_hat(x(t) - y(s))(x'(t), y'(s)) over t
    on a straight piece p and s on a straight piece q, from the corners
    A, B, C, D of the parallelogram {x - y : x on p, y on q} at (t, s) =
    (start, start), (end, start), (end, end), (start, end), each given as
    three coordinate arrays.

    I is minus the parallelogram's solid angle over 4 pi.  The solid angle
    is the sum of those of the triangles ABC and ACD, each 2 atan2(n, d)
    with n = r1 . (r2 x r3) and d = |r1||r2||r3| + (r1.r2)|r3|
    + (r1.r3)|r2| + (r2.r3)|r1| (Van Oosterom and Strackee 1983).  The sum
    is below 2 pi in size, so it is twice the argument of
    (d1 + i n1)(d2 + i n2).  Both ratios are unchanged when one corner is
    scaled, so a corner at infinity may be given as its direction.
    """
    ra, rb, rc, rd = (np.sqrt(_dot(u, u)) for u in (a, b, c, d))
    ac = _dot(a, c)
    n1, n2 = _triple(a, b, c), _triple(a, c, d)
    d1 = ra * rb * rc + _dot(a, b) * rc + ac * rb + _dot(b, c) * ra
    d2 = ra * rc * rd + ac * rd + _dot(a, d) * rc + _dot(c, d) * ra
    return np.arctan2(n1 * d2 + n2 * d1, d1 * d2 - n1 * n2) / (-2.0 * math.pi)


# Where a tail's far end is put, beyond its vertex along y, in units of the
# knot's diameter (which v2_mc makes 0.5 to 1): the direction of that end
# is then the tail's to 1e-30, below a double's resolution.
FAR = 1e30


def _slot_ends(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi): slot k of the long polygon v runs from lo[k] to hi[k], the
    lower tail from FAR below v[0] and the upper one to FAR above v[-1]."""
    far = np.array([0.0, FAR, 0.0])
    return (np.concatenate((v[:1] - far, v)),
            np.concatenate((v, v[-1:] + far)))


def _gauss_block(lo: np.ndarray, hi: np.ndarray, rows: int, c0: int,
                 c1: int) -> np.ndarray:
    """I(p, q) (`_gauss`) for slots p < rows and c0 <= q < c1 of the slot
    table (lo, hi) (`_slot_ends`), 0 where q < p + 2: adjacent slots are
    coplanar and give 0."""
    corners = [[first[:rows, k, None] - second[None, c0:c1, k]
                for k in range(3)]
               for first, second in ((lo, lo), (hi, lo), (hi, hi), (lo, hi))]
    apart = np.arange(rows)[:, None] <= np.arange(c0, c1) - 2
    return np.where(apart, _gauss(*corners), 0.0)


# Slot pairs in one block of _simplex_exact, whose temporaries then take a
# few MiB whatever the number of slots.
PAIR_BLOCK = 1 << 16


def _simplex_exact(v: np.ndarray) -> float:
    """The simplex stratum over four distinct slots of the long polygon v,
    the sum over a < b < c < d of I(a, c) I(b, d) (`_gauss_block`), in
    O(n^2) time for n slots.

    With R(b, c) the sum of I(b, d) over d > c, it is the sum of
    I(a, c) J(a, c) over a < c, J(a, c) being the sum of R(b, c) over
    a < b < c.  Blocks of about PAIR_BLOCK entries of I, whole columns, are
    taken from the right: the row sums of the blocks done give R, and a
    cumulative sum down each column gives J.
    """
    lo, hi = _slot_ends(v)
    n = len(lo)
    width = max(1, PAIR_BLOCK // n)
    done = np.zeros(n)  # row sums of I over the columns done
    total = 0.0
    for c1 in range(n, 2, -width):
        c0 = max(c1 - width, 2)
        # R(b, c) for b up to c1 - 2; I(p, q) is 0 for p > c1 - 3
        rows = c1 - 1
        g = _gauss_block(lo, hi, rows, c0, c1)
        r = done[:rows, None] + (np.cumsum(g[:, ::-1], axis=1)[:, ::-1] - g)
        below = np.zeros((rows + 1, c1 - c0))
        np.cumsum(r, axis=0, out=below[1:])
        col = np.arange(c1 - c0)
        total += float((g * (below[col + c0, col] - below[1:])).sum())
        done[:rows] += g.sum(axis=1)
    return total


def _coincident_points(r: np.ndarray, n: int) -> np.ndarray:
    """n t1 < n t2 < n t3 < n t4, each a slot plus an offset in it, from an
    (m, 4) draw, uniform on the tuples of n slots that have two equal and
    no more: patterns x=x<y<z, x<y=y<z, x<y<z=z and x=x<y=y.

    Columns 0-2 give three distinct slots i0, i1, i2, each column uniform
    below n, n - 1 and n - 2 and moved by whole slots past the slots taken
    before it.  The fourth point is in slot i0, whose rank among the three
    is uniform, so the equal pair is the first, middle or last slot with
    equal odds, as the first three patterns have equal measure,
    2n(n-1)(n-2) / n^4 of the unit cube each.  With probability
    1 / (2n - 3), its share of the four patterns' measure, x=x<y=y (measure
    3n(n-1) / n^4) puts the third point in i1 instead.  No row is redrawn,
    and one sort orders the points, across slots and in each slot.
    """
    first = r[:, 0] * n
    i0 = np.floor(first)
    second = r[:, 1] * (n - 1)
    second += second >= i0
    i1 = np.floor(second)
    third = r[:, 2] * (n - 2)
    third += third >= np.minimum(i0, i1)
    third += third >= np.maximum(i0, i1)
    # x < 1 picks x=x<y=y; x - floor(x) is uniform in [0, 1) either way, as
    # 1 and 2n - 4 are whole numbers
    x = r[:, 3] * (2 * n - 3)
    third = np.where(x < 1.0, i1 + (third - np.floor(third)), third)
    fourth = i0 + (x - np.floor(x))
    return _sort_columns([first, second, third, fourth])


def _coincident(r: np.ndarray, par: _Param):
    """The simplex stratum on the slot tuples of `_coincident_points`, the
    rest of it: three or four equal slots give 0 (x1, x3 or x2, x4 on one
    straight edge or tail), and four distinct ones are _simplex_exact's.
    A row is weighted by the four patterns' measure,
    P = 3(n-1)(2n-3) / n^3."""
    n = par.start.shape[1]
    pos, der = par.at(*par.split(_coincident_points(r, n)))
    g13, ok1 = _omega_hat(pos[:, 0] - pos[:, 2], der[:, 0], der[:, 2],
                          par.scale)
    g42, ok2 = _omega_hat(pos[:, 3] - pos[:, 1], der[:, 1], der[:, 3],
                          par.scale)
    # omega(x1-x3) ^ omega(x4-x2): dt1^dt3 ^ dt2^dt4 = -dt1^dt2^dt3^dt4,
    # and each factor carries one minus from d(x_i - x_j); the sorted cube
    # has volume 1/24
    weight = 3.0 * (n - 1) * (2 * n - 3) / n ** 3 / 24.0
    return -weight * (g13 * g42), ok1 & ok2


def _tripods(r: np.ndarray, par: _Param, lo: np.ndarray, hi: np.ndarray):
    """The three 3-point integrals (strata 2-4) as one, from an (m, 3)
    draw: a pair ta < tb of curve parameters and a slot k, uniform over the
    n - 2 slots other than those of ta and tb.

    With the pair fixed, the strata's third point and line parameter
    integrate to a Gauss integral J_k of a straight piece of the line
    through xa and xb against slot k (`_chord_gauss`): the segment from xa
    to xb for a slot before ta or after tb (strata 3 and 2), its two outer
    rays for a slot between them (stratum 4).  The third point in the slot
    of ta or tb gives 0, as that slot is coplanar with the line.  The
    strata's pinned signs -1, -1 and +1, each with weight 1/2, and the
    reorderings of their forms make each of them -1/2 times
    omega_hat(xa - xb)(x'a, x'b) J_k, summed over k and integrated over
    ta < tb; the draw's density 2 / (n - 2) makes a row -(n - 2) / 4 times
    that product.  |J| <= 1, so a row is bounded where the pair's factor
    is; it is rejected only where xa and xb nearly coincide.
    """
    n = par.start.shape[1]
    pair = np.stack((np.minimum(r[:, 0], r[:, 1]),
                     np.maximum(r[:, 0], r[:, 1])))
    seg, s = par.slots(pair)
    (xa, xb), (da, db) = par.at(seg, s)
    # component-major (3, m) points, as the slot tables' columns are taken
    xa = np.moveaxis(xa, -1, 0)
    w = np.moveaxis(xb, -1, 0) - xa
    # omega_hat(xa - xb)(x'a, x'b) = omega_hat(w)(x'b, x'a)
    f, ok = _omega_hat(w.T, db, da, par.scale)
    sa, sb = seg
    k = (r[:, 2] * (n - 2)).astype(int)
    k += k >= sa
    k += k >= sb
    j = _chord_gauss(xa - lo.T.take(k, axis=1), xa - hi.T.take(k, axis=1),
                     w, (sa < k) & (k < sb))
    return (-0.25 * (n - 2)) * (f * j), ok


def _chord_gauss(a: np.ndarray, d: np.ndarray, w: np.ndarray,
                 rays: np.ndarray) -> np.ndarray:
    """J, the Gauss integral (`_gauss`) of the segment from x to x + w
    against a slot from lo to hi, given a = x - lo, d = x - hi and w as
    three coordinate arrays each; where `rays`, that of the rest of the
    segment's line instead.

    The parallelogram's corners are a, a + w, d + w and d, and both of its
    triangles have the triple product t = a . (w x d), so six dot products
    and t give J.  The whole line against the slot is the dihedral angle
    at the line between the half-planes through the slot's two ends, over
    2 pi, and the rays are the line less the segment.  Where the slot
    crosses the line in one plane (t = 0), J jumps by 1/2 with t's sign;
    pairs of positive measure meet that only with their points and
    tangents in the slot's plane, where their factor in `_tripods` is 0.
    """
    aa, dd, ww = _dot(a, a), _dot(d, d), _dot(w, w)
    ad, aw, dw = _dot(a, d), _dot(a, w), _dot(d, w)
    t = _triple(a, w, d)
    ra, rd = np.sqrt(aa), np.sqrt(dd)
    # |a + w| and |d + w|, clamped where rounding takes them below 0
    rb = np.sqrt(np.maximum(aa + 2.0 * aw + ww, 0.0))
    rc = np.sqrt(np.maximum(dd + 2.0 * dw + ww, 0.0))
    ac, cd = ad + aw, dd + dw
    d1 = ra * rb * rc + (aa + aw) * rc + ac * rb + (ac + dw + ww) * ra
    d2 = ra * rc * rd + ac * rd + ad * rc + cd * ra
    segment = np.arctan2(t * (d1 + d2), d1 * d2 - t * t) / (-2.0 * math.pi)
    line = np.arctan2(-t * np.sqrt(ww), ad * ww - aw * dw) / (2.0 * math.pi)
    return np.where(rays, line - segment, segment)


# The simplex stratum's orientation sign relative to the natural parameter
# orientation, pinned by calibration: with the tripods' signs, which
# `_tripods` folds into its coefficient, only this choice converges to the
# combinatorial v2 on both the trefoil and figure-eight fixtures (the
# runner-up sign pattern missed by > 0.2 at 2.4e7 samples).
_SIMPLEX_SIGN = 1.0


def _v2_mc_run(knot: PolyKnot, samples: int, seed: int,
               checkpoints: list[int]) -> list[McEstimate]:
    _check_samples(samples, *checkpoints)
    if knot.shape != "long":
        raise ValueError("v2_mc needs a long knot")
    _check_long_ends(knot.vertices[0], knot.vertices[-1])
    # The first vertex is subtracted exactly, so a knot far from the origin
    # for its size keeps its shape in doubles.  Scaling by a power of two is
    # exact in doubles, and every integrand is scale-invariant, so a copy of
    # diameter in [0.5, 1) changes no bit of the sampled simplex stratum; it
    # keeps FAR far, and the products of up to six lengths of the slot
    # ends inside the doubles, whatever the knot's size.
    v = _offsets(knot.vertices, knot.vertices[0])
    _, exponent = math.frexp(float(np.linalg.norm(v.max(axis=0)
                                                   - v.min(axis=0))))
    v = np.ldexp(v, -exponent)
    par = _Param(v, long=True)
    lo, hi = _slot_ends(v)
    exact = _simplex_exact(v)
    # the coincident simplex rows, and the tripods' (streams 2-4)
    simplex, tripods = _Accumulator(), _Accumulator()
    out = []
    cp = sorted(set(checkpoints))
    # the last chunk brings `done` to ceil(samples / 4), so every
    # checkpoint (at most `samples`) is reported inside the loop
    for chunk, m, done in _chunks((samples + 3) // 4):
        simplex.add(*_blocked(_coincident, _rng(seed, 1, chunk), m, 4, par))
        for stream in (2, 3, 4):
            tripods.add(*_blocked(_tripods, _rng(seed, stream, chunk), m, 3,
                                  par, lo, hi))
        while cp and done * 4 >= cp[0]:
            out.append(_combine(simplex, tripods, exact, seed))
            cp.pop(0)
    return out


def _combine(simplex: _Accumulator, tripods: _Accumulator, exact: float,
             seed: int) -> McEstimate:
    value = _SIMPLEX_SIGN * (exact + simplex.mean()) + tripods.mean()
    err = math.sqrt(sum(min(a.std_error(), 1e18) ** 2
                        for a in (simplex, tripods)))
    return McEstimate(value, err, simplex.n + tripods.n, seed,
                      simplex.rejected + tripods.rejected)


def v2_mc(knot: PolyKnot, samples: int, seed: int = 0) -> McEstimate:
    """Monte Carlo estimate of v2 for a long polygonal knot."""
    return _v2_mc_run(knot, samples, seed, [samples])[-1]


def v2_mc_series(knot: PolyKnot, checkpoints: list[int],
                 seed: int = 0) -> list[McEstimate]:
    """Estimates at increasing sample counts, sharing the sample prefix.

    Equivalent to calling v2_mc at each checkpoint (up to chunk-boundary
    rounding) but computed in one accumulation pass.
    """
    if not checkpoints:
        raise ValueError("the checkpoint list is empty")
    return _v2_mc_run(knot, max(checkpoints), seed, list(checkpoints))
