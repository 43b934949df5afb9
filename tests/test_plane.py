import hashlib
import math
import random
import re
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from casson.diagram import DiagramError, from_braid_word
from casson.invariants import v2_gauss, x_counts
from casson.moves import random_braid_word
from casson.plane import (Crossing, GenericityError, PlaneCurve, PolyKnot,
                          arnold_I, convex_circle_curve, decomposition_identity,
                          morse_stats, polyknot_from_braid, project, v2_morse,
                          v2_morse_closed)
from conftest import is_descending


def _long_knot(word):
    return polyknot_from_braid(word, closed=False)


def _perturbed(knot, rng, scale):
    """Jitter interior vertices by rationals of magnitude <= scale; a long
    knot keeps its two axis endpoints."""
    last = len(knot.vertices) - 1
    return PolyKnot(tuple(
        v if knot.shape == "long" and i in (0, last)
        else tuple(c + scale * Fraction(rng.randint(-64, 64), 64) for c in v)
        for i, v in enumerate(knot.vertices)), shape=knot.shape)


def test_polyknot_json_roundtrip():
    k = _long_knot([1, 1, 1])
    k2 = PolyKnot.from_json(k.to_json())
    assert k2.vertices == k.vertices and k2.shape == k.shape


def test_polyknot_validation():
    with pytest.raises(ValueError):
        PolyKnot(((1, 0, 0), (0, 5, 0)), shape="long")  # endpoint off axis
    with pytest.raises(ValueError):
        PolyKnot(((0, 0, 0), (0, 1, 0)), shape="ring")


def test_genericity_rejects_horizontal_edge():
    with pytest.raises(GenericityError):
        PlaneCurve([(0, 0, 0), (3, 0, 0), (1, 2, 0)], shape="closed")


def test_genericity_rejects_duplicate_levels():
    with pytest.raises(GenericityError):
        PlaneCurve([(0, 0, 0), (4, 1, 0), (2, 0, 0)], shape="closed")


def test_plane_curve_rejects_unknown_shape():
    # checked before the polyline is set up, so a curve whose validation
    # is patched out rejects it too
    triangle = [(0, 0, 0), (4, 1, 0), (1, 3, 0)]
    for build in (PlaneCurve, _bare_curve):
        with pytest.raises(ValueError, match="got 'open'"):
            build(triangle, "open")


def test_long_trefoil_morse():
    curve = project(_long_knot([1, 1, 1]))
    assert v2_morse(curve) == 1
    assert v2_gauss(curve.gauss_diagram()) == 1


def test_long_figure_eight_morse():
    curve = project(_long_knot([1, -2, 1, -2]))
    assert v2_morse(curve) == -1


def test_closed_trefoil_morse():
    curve = project(polyknot_from_braid([1, 1, 1], closed=True))
    assert v2_morse_closed(curve) == 1


def test_circle_fixture():
    curve = project(convex_circle_curve())
    st = morse_stats(curve)
    assert st.M == 1 and st.X == 0
    assert v2_morse_closed(curve) == 0


def test_kinked_unknot_morse():
    # one positive kink on two strands, still the unknot
    curve = project(_long_knot([1]))
    assert v2_morse(curve) == 0


def test_random_words_morse_agreement():
    for seed in range(15):
        rng = random.Random(seed)
        word = random_braid_word(rng, 6 + seed % 5)
        curve = project(polyknot_from_braid(word, closed=False))
        assert v2_morse(curve) == v2_gauss(curve.gauss_diagram())


def test_random_words_morse_closed_agreement():
    for seed in range(10):
        rng = random.Random(50 + seed)
        word = random_braid_word(rng, 6 + seed % 4)
        curve = project(polyknot_from_braid(word, closed=True))
        based = from_braid_word(word)
        assert v2_morse_closed(curve) == v2_gauss(based)


def test_arnold_resolution_independent():
    for seed in range(10):
        rng = random.Random(seed)
        word = random_braid_word(rng, 7)
        curve = project(polyknot_from_braid(word, closed=False))
        assert arnold_I(curve, ascending=True) == arnold_I(curve, ascending=False)


def test_decomposition_identity():
    for seed in range(10):
        rng = random.Random(30 + seed)
        word = random_braid_word(rng, 7)
        curve = project(polyknot_from_braid(word, closed=False))
        assert decomposition_identity(curve, curve.gauss_diagram())


def test_perturbed_keeps_long_endpoints():
    k = _long_knot([1, 1, 1])
    p = _perturbed(k, random.Random(1), Fraction(1, 997))
    assert p.vertices[0] == k.vertices[0]
    assert p.vertices[-1] == k.vertices[-1]


def test_forced_resolutions_are_unknotted():
    for seed in range(5):
        word = random_braid_word(random.Random(seed), 7)
        curve = project(polyknot_from_braid(word, closed=seed % 2 == 1))
        down = curve.gauss_diagram("descending")
        up = curve.gauss_diagram("ascending")
        assert is_descending(down)
        assert all(h < t for t, h in zip(up.tail, up.head))
        assert v2_gauss(down) == v2_gauss(up) == 0
        assert curve.gauss_diagram().serialize() == \
            curve.gauss_diagram("height").serialize()
    with pytest.raises(ValueError):
        curve.gauss_diagram("sideways")


# -- the bounding-box sweep against the all-pairs scan it replaced -----------

def _sign(x):
    return (x > 0) - (x < 0)


def _cross(a, b):
    return a[0] * b[1] - a[1] * b[0]


def _collinear_overlap(a, b, c, d):
    lo, hi = min(a[1], b[1]), max(a[1], b[1])
    return any(lo < p[1] < hi for p in (c, d)) or \
        any(min(c[1], d[1]) < y < max(c[1], d[1]) for y in (a[1], b[1]))


def _all_pairs_crossings(curve):
    """Reference: the exact segment test on every one of the E(E-1)/2 edge
    pairs, in lexicographic order."""
    pts, pts3, n = curve.points, curve.points3, curve.n_edges
    edges = [(i, pts[i], pts[(i + 1) % len(pts)]) for i in range(n)]
    crossings = []
    pts_seen = {}
    for ii in range(len(edges)):
        for jj in range(ii + 1, len(edges)):
            i, a, b = edges[ii]
            j, c, d = edges[jj]
            adjacent = (j - i) % n in (1, n - 1) if curve.shape == "closed" \
                else j - i == 1
            r = (b[0] - a[0], b[1] - a[1])
            s = (d[0] - c[0], d[1] - c[1])
            denom = _cross(r, s)
            ac = (c[0] - a[0], c[1] - a[1])
            if denom == 0:
                if _cross(ac, r) == 0 and _collinear_overlap(a, b, c, d) \
                        and not adjacent:
                    raise GenericityError(f"edges {i} and {j} overlap")
                continue
            t = _cross(ac, s) / denom
            u = _cross(ac, r) / denom
            if not (0 <= t <= 1 and 0 <= u <= 1):
                continue
            if adjacent:
                if 0 < t < 1 and 0 < u < 1:
                    raise GenericityError(
                        f"adjacent edges {i}, {j} intersect internally")
                continue
            if not (0 < t < 1 and 0 < u < 1):
                raise GenericityError(
                    f"edges {i} and {j} meet at an endpoint")
            p = (a[0] + t * r[0], a[1] + t * r[1])
            if p in pts_seen:
                raise GenericityError(f"triple point at {p}")
            pts_seen[p] = True
            z1 = pts3[i][2] + t * (pts3[(i + 1) % len(pts3)][2] - pts3[i][2])
            z2 = pts3[j][2] + u * (pts3[(j + 1) % len(pts3)][2] - pts3[j][2])
            if z1 == z2:
                raise GenericityError(f"double point at {p} with equal heights")
            eps = _sign(_cross(r, s))
            over_first = z1 > z2
            crossings.append(Crossing(t1=i + t, t2=j + u, point=p, d1=r, d2=s,
                                      over_first=over_first, eps=eps))
    crossings.sort(key=lambda c: c.t1)
    return crossings


def _bare_curve(points3, shape):
    """A PlaneCurve with its polyline set up but nothing validated or
    searched, so that the two crossing searches see the same curve."""
    with mock.patch.multiple(PlaneCurve, _validate_vertices=lambda self: None,
                             _find_crossings=lambda self: [],
                             _validate_levels=lambda self: None):
        return PlaneCurve(points3, shape)


def _outcome(find, curve):
    try:
        return find(curve)
    except GenericityError as exc:
        return f"GenericityError: {exc}"


def _sweep_outcome(points3, shape):
    """The sweep's crossings or error, asserted equal to the reference's."""
    curve = _bare_curve(points3, shape)
    got = _outcome(PlaneCurve._find_crossings, curve)
    assert got == _outcome(_all_pairs_crossings, curve)
    return got


def _fixture_knots():
    knots = [_long_knot(w) for w in ([1, 1, 1], [1, -2, 1, -2], [1])]
    knots += [polyknot_from_braid([1, 1, 1], closed=True), convex_circle_curve()]
    knots += [polyknot_from_braid(random_braid_word(random.Random(seed),
                                                    6 + seed % 5))
              for seed in range(15)]
    knots += [polyknot_from_braid(random_braid_word(random.Random(50 + seed),
                                                    6 + seed % 4), closed=True)
              for seed in range(10)]
    knots.append(_perturbed(_long_knot([1, 1, 1]), random.Random(1),
                            Fraction(1, 997)))
    return [(k.vertices, k.shape) for k in knots] + [
        ([(0, 0, 0), (3, 0, 0), (1, 2, 0)], "closed"),
        ([(0, 0, 0), (4, 1, 0), (2, 0, 0)], "closed"),
    ]


def test_sweep_matches_all_pairs_on_fixtures():
    for points3, shape in _fixture_knots():
        _sweep_outcome(points3, shape)


def test_sweep_matches_all_pairs_on_braid_polyknots():
    # the reference scan takes about 1.5 s on a 41-letter braid, so that
    # size runs once; every other size runs open and closed, one of the two
    # perturbed off the braid's grid, alternating which
    rng = random.Random(2024)
    cases = [(letters, closed) for letters in (3, 7, 13, 22)
             for closed in (False, True)] + [(41, False)]
    for k, (letters, closed) in enumerate(cases):
        knot = polyknot_from_braid(random_braid_word(rng, letters),
                                   closed=closed)
        if (k + k // 2) % 2:
            knot = _perturbed(knot, rng, Fraction(1, 8))
        _sweep_outcome(knot.vertices, knot.shape)


@pytest.mark.parametrize("points3, shape, expected", [
    ([(1, 0, 0), (3, 2, 0), (1, 3, 1), (3, 3, 1)], "closed", "crossings"),
    ([(0, 3, 0), (1, 3, 1), (0, 0, 0)], "long", "meet at an endpoint"),
    ([(0, 2, 0), (0, 0, 1), (0, 3, 0)], "long", "overlap"),
    ([(1, 1, 1), (2, 2, 1), (1, 2, 1), (3, 0, 0), (1, 2, 0)], "closed",
     "triple point"),
    ([(0, 1, 0), (2, 1, 0), (2, 0, 0), (0, 3, 0)], "long", "equal heights"),
    # the third passage through the triple point is at an equal height too
    ([(2, 3, 0), (0, 0, 0), (0, 2, 1), (3, 2, 0), (1, 2, 0)], "closed",
     "triple point"),
])
def test_sweep_matches_all_pairs_on_each_fault(points3, shape, expected):
    got = _sweep_outcome(points3, shape)
    if expected == "crossings":
        assert isinstance(got, list) and got
    else:
        assert got.startswith("GenericityError") and expected in got


@st.composite
def _coarse_polygons(draw):
    """Polygons of at most 10 vertices on a 4 x 4 or 9 x 9 grid with two
    heights, so that shared endpoints, collinear overlaps, triple points and
    equal-height double points all occur, next to clean crossings;
    consecutive vertices project apart."""
    shape = draw(st.sampled_from(("closed", "long")))
    grid = st.integers(0, draw(st.sampled_from((3, 8))))
    pts = draw(st.lists(st.tuples(grid, grid, st.integers(0, 1)),
                        min_size=3, max_size=10))
    if shape == "long":
        pts[0], pts[-1] = (0, pts[0][1], 0), (0, pts[-1][1], 0)
    kept = [p for k, p in enumerate(pts) if k == 0 or p[:2] != pts[k - 1][:2]]
    if shape == "closed":
        while len(kept) > 1 and kept[-1][:2] == kept[0][:2]:
            kept.pop()
    return kept, shape


@settings(max_examples=400, deadline=None)
@given(_coarse_polygons())
def test_sweep_matches_all_pairs_on_coarse_polygons(polygon):
    points3, shape = polygon
    if len(points3) >= (3 if shape == "closed" else 2):
        _sweep_outcome(points3, shape)


# -- prefix-sum Morse indices against the chain-based counts they replaced ---

def _point_index(p, chain):
    """Reference: signed crossings of the open rightward ray from p with a
    polyline, counted edge by edge."""
    total = 0
    for a, b in zip(chain, chain[1:]):
        if min(a[1], b[1]) < p[1] < max(a[1], b[1]):
            x_at = a[0] + (p[1] - a[1]) / (b[1] - a[1]) * (b[0] - a[0])
            if x_at > p[0]:
                total += 1 if b[1] > a[1] else -1
    return total


def _chain_between(curve, t1, t2, point):
    pts = [point]
    for i in range(int(t1) + 1, int(t2) + 1):
        pts.append(curve.points[i % len(curve.points)])
    return pts + [point]


def _chain_outside(curve, t1, t2, point):
    if curve.shape == "closed":
        pts = [point]
        for i in range(int(t2) + 1, int(t1) + curve.n_edges + 1):
            pts.append(curve.points[i % len(curve.points)])
        return [pts + [point]]
    head = curve.points[:int(t1) + 1] + [point]
    tail = [point] + curve.points[int(t2) + 1:]
    return [head, tail]


def _chain_morse_stats(curve):
    """Reference: every index counted on an explicit polyline, the arc
    between a double point's passages, the rest of the curve, or the halves
    of a long curve before and after an extremum."""
    ext = curve.extrema()
    M = sum(1 for _, _, kind, _ in ext if kind == "max")
    X, Xp = x_counts((c.d1, c.d2) for c in curve.crossings)
    if curve.shape == "long":
        I_int = I_out = 0
        for c in curve.crossings:
            I_int += c.eps * _point_index(
                c.point, _chain_between(curve, c.t1, c.t2, c.point))
            I_out += c.eps * sum(
                _point_index(c.point, ch)
                for ch in _chain_outside(curve, c.t1, c.t2, c.point))
        I_r = I_l = 0
        for vi, p, kind, turn in ext:
            idx_in = _point_index(p, curve.points[:vi + 1])
            idx_out = _point_index(p, curve.points[vi:])
            d_in = (p[0] - curve.points[vi - 1][0],
                    p[1] - curve.points[vi - 1][1])
            nxt = curve.points[vi + 1]
            d_out = (nxt[0] - p[0], nxt[1] - p[1])
            eta = 1 if kind == "min" else -1
            in_is_right = eta * Fraction(d_in[0], d_in[1]) > \
                eta * Fraction(d_out[0], d_out[1])
            i_r, i_l = (idx_in, idx_out) if in_is_right else (idx_out, idx_in)
            I_r += turn * i_r
            I_l += turn * i_l
        return (M, X, Xp, X - Xp, I_int, I_out, I_r, I_l)
    full = curve.points + curve.points[:1]
    E = sum(turn * _point_index(p, full) for _, p, _, turn in ext)
    Q = 0
    for c in curve.crossings:
        i1 = _point_index(c.point, _chain_between(curve, c.t1, c.t2, c.point))
        (arc2,) = _chain_outside(curve, c.t1, c.t2, c.point)
        i2 = _point_index(c.point, arc2)
        Q += (i2 - i1) if _cross(c.d2, c.d1) > 0 else (i1 - i2)
    return (M, X, E, Q)


def _stats_tuple(st):
    if st.E is None:
        return (st.M, st.X, st.Xplus, st.Xminus, st.I_int, st.I_out, st.I_r,
                st.I_l)
    return (st.M, st.X, st.E, st.Q)


def _random_polygon(rng, shape):
    """4-14 vertices with coordinates in 0..999, so long edges criss-cross
    and rays from a point cross edges far along the curve; a long polygon
    starts and ends on the axis."""
    pts = [(rng.randint(0, 999), rng.randint(0, 999), rng.randint(0, 999))
           for _ in range(rng.randint(4, 14))]
    if shape == "long":
        pts[0], pts[-1] = (0, pts[0][1], 0), (0, pts[-1][1], 0)
    return PolyKnot(tuple(pts), shape=shape)


def test_morse_stats_match_chain_counts():
    # braid polyknots of 1-20 letters, long and closed, each on the braid's
    # grid and perturbed off it, and random polygons; a knot that is not
    # generic is skipped, and enough of each kind survive
    rng = random.Random(9)
    compared = dict.fromkeys(("braid", "perturbed", "random"), 0)
    knots = []
    for _ in range(30):
        word = random_braid_word(rng, rng.randint(1, 20))
        for closed in (False, True):
            knot = polyknot_from_braid(word, closed=closed)
            knots += [("braid", knot),
                      ("perturbed", _perturbed(knot, rng, Fraction(1, 9)))]
    knots += [("random", _random_polygon(rng, shape))
              for _ in range(60) for shape in ("long", "closed")]
    knots.append(("braid", convex_circle_curve()))
    for kind, knot in knots:
        try:
            curve = project(knot)
        except GenericityError:
            continue
        assert _stats_tuple(morse_stats(curve)) == _chain_morse_stats(curve)
        compared[kind] += 1
    assert min(compared.values()) >= 40


# -- positive scaling and large denominators ---------------------------------
#
# A positive scaling keeps every incidence, orientation and height order,
# which is what running the predicates on a curve scaled to integers
# relies on.

def _scaled_knot(points3, shape, f):
    return PolyKnot(tuple(tuple(f * Fraction(c) for c in p) for p in points3),
                    shape=shape)


def _plane_results(knot):
    """Crossings as (t1, t2, eps, over_first, point), Morse statistics and
    the Morse v2, or the GenericityError."""
    try:
        curve = project(knot)
    except GenericityError as exc:
        return exc
    v2 = v2_morse(curve) if curve.shape == "long" else v2_morse_closed(curve)
    return ([(c.t1, c.t2, c.eps, c.over_first, c.point)
             for c in curve.crossings], _stats_tuple(morse_stats(curve)), v2)


# a double point at (1, 1), level with a vertex that is not an extremum,
# and level with a minimum
_LEVEL_FAULTS = [
    ([(0, 0, 0), (2, 2, 0), (2, -1, 1), (0, 3, 1), (5, 1, 0)], "closed"),
    ([(0, 0, 0), (2, 2, 0), (2, -1, 1), (0, 3, 1), (-1, 1, 0), (-3, 4, 0)],
     "closed"),
]


def _numbers_masked(exc):
    return re.sub(r"-?\d+(/\d+)?", "#", str(exc))


@pytest.mark.parametrize("f", [Fraction(7, 3), Fraction(1, 1009)])
def test_scaling_keeps_plane_results(f):
    # only the double points move, by the same factor, and every error
    # names the same feature
    generic = faults = 0
    for points3, shape in _fixture_knots() + _LEVEL_FAULTS:
        want = _plane_results(PolyKnot(tuple(points3), shape=shape))
        got = _plane_results(_scaled_knot(points3, shape, f))
        if isinstance(want, GenericityError):
            assert isinstance(got, GenericityError)
            assert _numbers_masked(got) == _numbers_masked(want)
            faults += 1
            continue
        generic += 1
        assert got[1:] == want[1:]
        assert [c[:4] for c in got[0]] == [c[:4] for c in want[0]]
        assert [c[4] for c in got[0]] == \
            [(f * x, f * y) for *_, (x, y) in want[0]]
    assert generic >= 25 and faults >= len(_LEVEL_FAULTS)


def _prime_perturbed(knot, rng):
    """Every coordinate but the long axis ends moved by k/(64 p) for its
    own prime p, so the coordinates' common denominator is huge."""
    primes = (p for p in range(1009, 10**6, 2)
              if all(p % d for d in range(3, math.isqrt(p) + 1, 2)))
    last = len(knot.vertices) - 1
    return PolyKnot(tuple(
        v if knot.shape == "long" and i in (0, last)
        else tuple(c + Fraction(rng.randint(-64, 64), 64 * next(primes))
                   for c in v)
        for i, v in enumerate(knot.vertices)), shape=knot.shape)


@pytest.mark.parametrize("closed", [False, True])
def test_many_prime_denominators_match_references(closed):
    knot = _prime_perturbed(polyknot_from_braid(
        random_braid_word(random.Random(7), 12), closed=closed),
        random.Random(8))
    assert math.lcm(*{c.denominator for v in knot.vertices for c in v}) \
        > 10 ** 300
    got = _sweep_outcome(knot.vertices, knot.shape)
    assert isinstance(got, list) and got
    curve = project(knot)
    assert _stats_tuple(morse_stats(curve)) == _chain_morse_stats(curve)


def _braid_constructors_digest(seeds):
    """SHA-256 over each random braid word, its long and closed polyknot
    JSON and its Gauss code; the word has 1 + seed % 24 letters."""
    h = hashlib.sha256()
    for seed in seeds:
        word = random_braid_word(random.Random(seed), 1 + seed % 24)
        h.update(repr(word).encode() + b"\0")
        for closed in (False, True):
            h.update(polyknot_from_braid(word, closed=closed).to_json().encode()
                     + b"\0")
        h.update(from_braid_word(word).serialize().encode() + b"\0")
    return h.hexdigest()


def test_braid_constructors_golden():
    # digest of the two braid-closure constructors before they shared one
    # walk; any change in a vertex, a crossing or the word draws shows here
    assert _braid_constructors_digest(range(100)) == (
        "b2909061a75645ad53579706e1348b9f1bd35ca67113f1b1ef2a8ef0f908e705")


@pytest.mark.parametrize("word", [[1, 1], [2], [1, 3]])
def test_braid_constructors_reject_links_alike(word):
    with pytest.raises(DiagramError) as diagram_exc:
        from_braid_word(word)
    for closed in (False, True):
        with pytest.raises(DiagramError) as plane_exc:
            polyknot_from_braid(word, closed=closed)
        assert str(plane_exc.value) == str(diagram_exc.value) \
            == "braid closure has more than one component"


def test_braid_constructors_name_a_zero_letter():
    with pytest.raises(DiagramError, match="braid letter 0 "):
        from_braid_word([0])
    with pytest.raises(DiagramError, match="braid letter 0 "):
        polyknot_from_braid([1, 0, 1])
