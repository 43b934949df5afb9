"""Monte Carlo evaluation of the configuration-space integrals.

Two degree-type integrals over configuration spaces of points on polygonal
curves, both built from the normalized solid-angle 2-form

    omega_hat(v)(A, B) = v . (A x B) / (4 pi |v|^3),

which integrates to 1 over the unit sphere:

  * linking_mc: the Gauss linking integral of two disjoint closed polygons,
    converging to the integer linking number.

  * v2_mc: v2 of a long polygonal knot as a sum of four integrals -- one
    over the 4-point simplex 0 < t1 < t2 < t3 < t4 < 1 and three
    half-weighted integrals over 3-point configurations with an auxiliary
    line parameter; the half-line parameter domains are mapped to (0,1) by
    t = -u/(1-u) and t = 1/(1-u).

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
stream 0; v2_mc's stratum k reads stream k (1 the simplex integral, 2-4 the
three 3-point integrals).  Samples that fall within a small relative
distance of a singular (coincident-point) configuration are rejected and
excluded from both the numerator and the sample count, with the rejection
count reported.
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
        good = values[valid]
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


def _omega_hat(v: np.ndarray, a: np.ndarray, b: np.ndarray,
               scale: float) -> tuple[np.ndarray, np.ndarray]:
    """(values, valid mask) of the normalized solid-angle coefficient."""
    (x, y, z), (ax, ay, az), (bx, by, bz) = (np.moveaxis(w, -1, 0)
                                             for w in (v, a, b))
    norm = np.sqrt(x * x + y * y + z * z)
    valid = norm > _REJECT_EPS * scale
    safe = np.where(valid, norm, 1.0)
    # a x b as np.cross forms it, dotted as einsum sums it: (x + z) + y
    num = ((x * (ay * bz - az * by) + z * (ax * by - ay * bx))
           + y * (az * bx - ax * bz))
    return num / (4.0 * math.pi * safe ** 3), valid


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
    (3, ...) buffers.  A tail slot's edge is a signed zero ((-0, 0, -0) low,
    0 high), which leaves x and z at the end vertex with the ray's zero
    derivative, so only y is overwritten in the tail slots.  eval returns
    (..., 3) views of the buffers, and `pos[..., k]` is contiguous.
    """

    def __init__(self, vertices, long: bool):
        v = np.asarray([[float(c) for c in p] for p in vertices], dtype=float)
        self.long = long
        diameter = float(np.linalg.norm(v.max(axis=0) - v.min(axis=0)))
        self.scale = max(diameter, 1.0)
        if long:
            start = np.concatenate((v[:1], v[:-1], v[-1:]))
            edge = np.concatenate(([[-0.0, 0.0, -0.0]], v[1:] - v[:-1],
                                   [[0.0, 0.0, 0.0]]))
        else:
            start, edge = v, np.roll(v, -1, axis=0) - v
        self.start = np.ascontiguousarray(start.T)
        self.edge = np.ascontiguousarray(edge.T)

    def eval(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(position, d position / dt) arrays; t strictly inside (0,1)."""
        n = self.start.shape[1]
        x = t * n
        seg = np.minimum(x.astype(int), n - 1)
        s = x - seg
        edge = self.edge.take(seg, axis=1)
        pos = self.start.take(seg, axis=1)
        pos += s * edge
        deriv = edge * n
        if self.long:
            L = self.scale
            y, dy = pos[1], deriv[1]
            lo = seg == 0
            s0 = np.clip(s[lo], 1e-12, 1.0)
            y[lo] = self.start[1, 0] - L * (1.0 - s0) / s0
            dy[lo] = L / s0 ** 2 * n
            hi = seg == n - 1
            s1 = np.clip(s[hi], 0.0, 1.0 - 1e-12)
            y[hi] = self.start[1, -1] + L * s1 / (1.0 - s1)
            dy[hi] = L / (1.0 - s1) ** 2 * n
        return np.moveaxis(pos, 0, -1), np.moveaxis(deriv, 0, -1)


def _chunks(samples: int):
    """(chunk index, chunk size, samples drawn after it) for the fixed-size
    chunks that cover `samples`, the last one possibly short."""
    for chunk, start in enumerate(range(0, samples, CHUNK)):
        end = min(start + CHUNK, samples)
        yield chunk, end - start, end


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
    par1 = _Param(_vertices_of(loop1), long=False)
    par2 = _Param(_vertices_of(loop2), long=False)
    scale = max(par1.scale, par2.scale)
    acc = _Accumulator()
    for chunk, m, _ in _chunks(samples):
        u = _rng(seed, 0, chunk).random((m, 2))
        p1, d1 = par1.eval(u[:, 0])
        p2, d2 = par2.eval(u[:, 1])
        vals, valid = _omega_hat(p1 - p2, d1, d2, scale)
        acc.add(vals, valid)
    return McEstimate(acc.mean(), acc.std_error(), acc.n, seed, acc.rejected)


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
# the four v2 integrals
#
# Each stratum is oriented by its natural parameter coordinates
# (t1, t2, t3[, t4 | t]); the signs below carry the wedge-reordering factors
# of the pulled-back forms plus the per-stratum orientation of the glued
# configuration space, the latter pinned by calibration against the
# combinatorial v2 of the trefoil and figure-eight fixtures.

def _integrand_x(par: _Param, u4: np.ndarray):
    """Simplex integral: omega(x1-x3) ^ omega(x4-x2) over t1<t2<t3<t4."""
    t = np.sort(u4, axis=1)
    pos, der = par.eval(t)
    g13, ok1 = _omega_hat(pos[:, 0] - pos[:, 2], der[:, 0], der[:, 2],
                          par.scale)
    g42, ok2 = _omega_hat(pos[:, 3] - pos[:, 1], der[:, 1], der[:, 3],
                          par.scale)
    # dt1^dt3 ^ dt2^dt4 = -dt1^dt2^dt3^dt4, and each factor carries one
    # minus from d(x_i - x_j)
    return -(g13 * g42) / 24.0, ok1 & ok2


def _tripod(par: _Param, r: np.ndarray, which: int):
    """The three 3-point integrals, `which` (2, 3 or 4) selecting one, from
    a raw (m, 4) draw: three curve parameters and the line parameter."""
    t = np.sort(r[:, :3], axis=1)
    u = np.clip(r[:, 3], 0.0, 1 - 1e-9)
    pos, der = par.eval(t)
    x1, x2, x3 = pos[:, 0], pos[:, 1], pos[:, 2]
    d1, d2, d3 = der[:, 0], der[:, 1], der[:, 2]
    if which == 2:
        w = x1 - x2
        ga, ok1 = _omega_hat(w, d1, d2, par.scale)
        line = (x2 - x3) + u[:, None] * w
        gb, ok2 = _omega_hat(line, d3, w, par.scale)
        # (-1)(dt1^dt2) . (-1)(dt3^dt) , even shuffle
        return ga * gb / 6.0, ok1 & ok2
    if which == 3:
        w = x2 - x3
        ga, ok1 = _omega_hat(w, d2, d3, par.scale)
        line = (x1 - x2) + u[:, None] * w
        gb, ok2 = _omega_hat(line, d1, w, par.scale)
        # (-1)(dt2^dt3) . (+1)(dt1^dt) , even shuffle
        return -(ga * gb) / 6.0, ok1 & ok2
    # which == 4: t ranges over (-inf,0) u (1,inf); both branches evaluated
    w = x3 - x1
    ga, ok1 = _omega_hat(w, d1, d3, par.scale)
    base = x1 - x2
    jac = 1.0 / (1.0 - u) ** 2
    t_neg = -u / (1.0 - u)
    t_pos = 1.0 / (1.0 - u)
    gb_n, ok2 = _omega_hat(base + t_neg[:, None] * w, d2, w, par.scale)
    gb_p, ok3 = _omega_hat(base + t_pos[:, None] * w, d2, w, par.scale)
    # (-1)(dt1^dt3) . (-1)(dt2^dt) , odd shuffle dt1^dt3^dt2^dt
    return -(ga * (gb_n + gb_p) * jac) / 6.0, ok1 & ok2 & ok3


# Per-stratum orientation signs relative to the natural parameter
# orientation used above, pinned by calibration: only this choice converges
# to the combinatorial v2 on both the trefoil and figure-eight fixtures
# (the runner-up sign pattern misses by > 0.2 at 2.4e7 samples).
_STRATUM_SIGNS = (1.0, -1.0, -1.0, 1.0)


def _v2_mc_run(knot: PolyKnot, samples: int, seed: int,
               checkpoints: list[int]) -> list[McEstimate]:
    _check_samples(samples, *checkpoints)
    if knot.shape != "long":
        raise ValueError("v2_mc needs a long knot")
    _check_long_ends(knot.vertices[0], knot.vertices[-1])
    par = _Param(knot.vertices, long=True)
    accs = [_Accumulator() for _ in range(4)]
    out = []
    cp = sorted(set(checkpoints))
    # the last chunk brings `done` to ceil(samples / 4), so every
    # checkpoint (at most `samples`) is reported inside the loop
    for chunk, m, done in _chunks((samples + 3) // 4):
        vals, ok = _integrand_x(par, _rng(seed, 1, chunk).random((m, 4)))
        accs[0].add(_STRATUM_SIGNS[0] * vals, ok)
        for k in (2, 3, 4):
            vals, ok = _tripod(par, _rng(seed, k, chunk).random((m, 4)), k)
            accs[k - 1].add(0.5 * _STRATUM_SIGNS[k - 1] * vals, ok)
        while cp and done * 4 >= cp[0]:
            out.append(_combine(accs, seed))
            cp.pop(0)
    return out


def _combine(accs, seed: int) -> McEstimate:
    value = sum(a.mean() for a in accs)
    err = math.sqrt(sum(min(a.std_error(), 1e18) ** 2 for a in accs))
    return McEstimate(value, err, sum(a.n for a in accs), seed,
                      sum(a.rejected for a in accs))


def v2_mc(knot: PolyKnot, samples: int, seed: int = 0) -> McEstimate:
    """Monte Carlo estimate of v2 for a long polygonal knot."""
    return _v2_mc_run(knot, samples, seed, [samples])[-1]


def v2_mc_series(knot: PolyKnot, checkpoints: list[int],
                 seed: int = 0) -> list[McEstimate]:
    """Estimates at increasing sample counts, sharing the sample prefix.

    Equivalent to calling v2_mc at each checkpoint (up to chunk-boundary
    rounding) but computed in one accumulation pass.
    """
    return _v2_mc_run(knot, max(checkpoints), seed, list(checkpoints))
