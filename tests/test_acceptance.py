"""End-to-end acceptance battery: one test per release criterion.

Each test appends a single PASS/FAIL line to the report echoed after the
run, then asserts.  Tolerances and time limits are part of the criteria.
"""

import math
import random
import statistics
import time

from casson.diagram import from_braid_word, parse_gauss_code, torus_knot_2
from casson.invariants import arf, crossing_bound, v2_gauss, v2_sym
from casson.moves import MoveEngine, random_braid_word
from casson.pairing import XBWD, XDOWN, XFWD, XUP, bracket
from casson.plane import (arnold_I, convex_circle_curve, decomposition_identity,
                          morse_stats, polyknot_from_braid, project, v2_morse,
                          v2_morse_closed)
from casson.skein import v2_skein
from casson.tangle import (gauss_of_tangle, parse_tangle, random_tangle_word,
                           v2_natangle, v2_natangle_closed)
from casson.mcint import linking_mc, lk_combinatorial, v2_mc_series

from conftest import ACCEPTANCE_LINES
from test_tangle import TREFOIL_TANGLE


def _record(num: int, ok: bool, detail: str):
    ACCEPTANCE_LINES.append(
        f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _timed(fn, *args):
    best = float("inf")
    out = None
    for _ in range(5):
        t0 = time.perf_counter()
        out = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return out, best


def test_criterion_1_named_values():
    unknot = parse_gauss_code("")
    trefoil = from_braid_word([1, 1, 1])
    fig8 = from_braid_word([1, -2, 1, -2])
    ok = True
    worst = 0.0
    for g, want in ((unknot, 0), (trefoil, 1), (fig8, -1)):
        for method in (v2_gauss, v2_sym, v2_skein):
            value, dt = _timed(method, g)
            ok = ok and value == want and dt < 1e-3
            worst = max(worst, dt)
    _record(1, ok, f"unknot/trefoil/4_1 = 0/1/-1 by gauss, sym, skein "
                   f"(slowest call {worst * 1e6:.0f} us)")


def test_criterion_2_torus_law():
    t0 = time.perf_counter()
    ok = True
    for n in range(3, 16, 2):
        want = (n * n - 1) // 8
        g = torus_knot_2(n)
        vals = [v2_gauss(g), v2_sym(g), v2_skein(g)]
        vals.append(v2_morse_closed(project(
            polyknot_from_braid([1] * n, closed=True))))
        word = "MIN@2:u\nA@1:R\n" + "X@1:+:o\n" * n + "A@1:L\nMAX@2:u\n"
        vals.append(v2_natangle(parse_tangle(word)))
        ok = ok and all(v == want for v in vals)
    dt = time.perf_counter() - t0
    ok = ok and dt < 1.0
    _record(2, ok, f"(n^2-1)/8 for odd n=3..15 by all five methods "
                   f"({dt:.2f} s)")


def test_criterion_3_bound(diagram_corpus):
    ok = all(abs(v2_gauss(g)) <= crossing_bound(g.n) for g in diagram_corpus)
    sharp = all(v2_gauss(torus_knot_2(n)) == crossing_bound(n)
                for n in range(3, 16, 2))
    _record(3, ok and sharp,
            "|v2| <= floor(n^2/8) on 500 random diagrams; "
            "equality on every odd torus knot")


def test_criterion_4_oracle_agreement(diagram_corpus):
    t0 = time.perf_counter()
    ok = all(v2_gauss(g) == v2_sym(g) == v2_skein(g) for g in diagram_corpus)
    dt = time.perf_counter() - t0
    ok = ok and dt < 30.0
    _record(4, ok, f"gauss = sym = skein on 500 random diagrams ({dt:.1f} s)")


def test_criterion_5_move_invariance():
    ok = True
    for seed in range(100):
        rng = random.Random(seed)
        engine = MoveEngine(word=random_braid_word(rng, 6 + seed % 9))
        g = engine.diagram()
        ref = (v2_gauss(g), arf(g))
        for _ in range(20):
            engine.random_move(rng)
            g = engine.diagram()
            if (v2_gauss(g), arf(g)) != ref:
                ok = False
    _record(5, ok, "v2 and arf invariant over 100 diagrams x 20 moves")


def test_criterion_6_arf_parity(diagram_corpus):
    ok = all(arf(g) == v2_gauss(g) % 2 for g in diagram_corpus)
    _record(6, ok, "arf = v2 mod 2 on the whole corpus")


def test_criterion_7_morse_agreement():
    t0 = time.perf_counter()
    ok = True
    count = 0
    fixtures = [[1, 1, 1], [1, -2, 1, -2], [1], [-1], [1, -1, 1]]
    for seed in range(45):
        rng = random.Random(seed)
        fixtures.append(random_braid_word(rng, 5 + seed % 6))
    for word in fixtures:
        curve = project(polyknot_from_braid(word, closed=False))
        if v2_morse(curve) != v2_gauss(curve.gauss_diagram()):
            ok = False
        count += 1
    for seed in range(10):
        rng = random.Random(200 + seed)
        word = random_braid_word(rng, 5 + seed % 4)
        curve = project(polyknot_from_braid(word, closed=True))
        if v2_morse_closed(curve) != v2_gauss(from_braid_word(word)):
            ok = False
        count += 1
    circle = project(convex_circle_curve())
    st = morse_stats(circle)
    circle_ok = st.M == 1 and v2_morse_closed(circle) == 0
    ok = ok and circle_ok and count >= 50
    dt = time.perf_counter() - t0
    ok = ok and dt < 60.0
    _record(7, ok, f"morse formulas agree with v2 on {count} knots + circle "
                   f"({dt:.1f} s)")


def test_criterion_8_natangle_agreement():
    ok = True
    count = 0
    word = parse_tangle(TREFOIL_TANGLE)
    ok = ok and v2_natangle(word) == v2_gauss(gauss_of_tangle(word)) == 1
    count += 1
    for seed in range(35):
        w = random_tangle_word(seed, n_events=12, shape="long")
        if v2_natangle(w) != v2_gauss(gauss_of_tangle(w)):
            ok = False
        count += 1
    for seed in range(20):
        w = random_tangle_word(seed, n_events=12, shape="closed")
        if v2_natangle_closed(w) != v2_gauss(gauss_of_tangle(w)):
            ok = False
        count += 1
    ok = ok and count >= 50
    _record(8, ok, f"nonassociative formulas agree with v2 on {count} words")


def test_criterion_9_pattern_sweep(diagram_corpus):
    t0 = time.perf_counter()
    candidates = {}
    for pat in (XUP, XDOWN, XFWD, XBWD):
        for coeff in (1, -1):
            candidates[f"{'+' if coeff > 0 else '-'}{pat.name}"] = (coeff, pat)

    def passes(coeff, pat):
        f = lambda g: coeff * bracket(pat, g)
        named = (f(parse_gauss_code("")) == 0
                 and f(from_braid_word([1, 1, 1])) == 1
                 and f(from_braid_word([1, -2, 1, -2])) == -1)
        if not named:
            return False
        if any(f(torus_knot_2(n)) != (n * n - 1) // 8
               for n in range(3, 16, 2)):
            return False
        for g in diagram_corpus[:100]:
            if abs(f(g)) > crossing_bound(g.n) or f(g) != v2_skein(g):
                return False
        for seed in range(10):
            rng = random.Random(seed)
            engine = MoveEngine(word=random_braid_word(rng, 8))
            ref = f(engine.diagram())
            for _ in range(10):
                engine.random_move(rng)
                if f(engine.diagram()) != ref:
                    return False
        return True

    winners = {name for name, (c, p) in candidates.items() if passes(c, p)}
    dt = time.perf_counter() - t0
    # the two patterns related by reversing all arrows count identical
    # subdiagram sets on realizable inputs, so both survive every filter
    ok = winners == {"+xup", "+xdown"} and dt < 300.0
    _record(9, ok, f"pattern sweep over 8 candidates selects {sorted(winners)} "
                   f"({dt:.1f} s)")


def test_criterion_10_integration():
    hopf_a = [(1, -1, 0), (1, 1, 0), (-1, 1, 0), (-1, -1, 0)]
    hopf_b = [(0, 0.3, 1), (2, 0.3, 1), (2, -0.3, -1), (0, -0.3, -1)]
    t0 = time.perf_counter()
    est = linking_mc(hopf_a, hopf_b, 10 ** 6, seed=1)
    dt_link = time.perf_counter() - t0
    link_ok = (lk_combinatorial(hopf_a, hopf_b) == 1
               and est.within(1.0) and dt_link < 30.0)

    tref = polyknot_from_braid([1, 1, 1], closed=False)
    checkpoints = [10 ** 5 * 2 ** k for k in range(8)]
    errs_by_cp = []
    for cp_idx in range(len(checkpoints)):
        errs_by_cp.append([])
    for seed in (1, 2, 3, 4, 5):
        series = v2_mc_series(tref, checkpoints, seed=seed)
        for i, est_i in enumerate(series):
            errs_by_cp[i].append(abs(est_i.value - 1.0))
    medians = [statistics.median(errs) for errs in errs_by_cp]
    slope = statistics.covariance(
        [math.log(n) for n in checkpoints],
        [math.log(max(e, 1e-9)) for e in medians]) \
        / statistics.variance([math.log(n) for n in checkpoints])
    trend_ok = medians[-1] < 0.3 and slope < 0 and medians[-1] <= medians[0]
    _record(10, link_ok and trend_ok,
            f"linking {est.value:.3f}+-{est.std_error:.3f} "
            f"({dt_link:.1f} s); v2 integral median error "
            f"{medians[0]:.3f} -> {medians[-1]:.3f} over doublings "
            f"(log-log slope {slope:.2f})")


def test_criterion_11_arnold():
    ok = True
    count = 0
    for seed in range(50):
        rng = random.Random(seed)
        word = random_braid_word(rng, 5 + seed % 6)
        closed = seed % 3 == 0
        curve = project(polyknot_from_braid(word, closed=closed))
        if arnold_I(curve, ascending=True) != arnold_I(curve, ascending=False):
            ok = False
        if not decomposition_identity(curve, curve.gauss_diagram()):
            ok = False
        count += 1
    _record(11, ok, f"arnold invariant resolution-independent and "
                    f"decomposition identity holds on {count} fixtures")
