import dataclasses
import random
from fractions import Fraction

import pytest

from casson import plane, tangle
from casson.diagram import (DisagreementError, from_braid_word,
                            parse_gauss_code, torus_knot_2)
from casson.invariants import (arf, check_bound, crossing_bound, report,
                               v2_gauss, v2_long, v2_sym, x_counts)
from casson.pairing import XFB, X_ALL, bracket


def test_unknot_zero():
    g = parse_gauss_code("", shape="long")
    assert v2_gauss(g) == 0
    assert v2_sym(g) == 0
    assert arf(g) == 0


def test_trefoil_one(trefoil):
    assert v2_gauss(trefoil) == 1
    assert v2_sym(trefoil) == 1
    assert arf(trefoil) == 1


def test_figure_eight_minus_one(figure_eight):
    assert v2_gauss(figure_eight) == -1
    assert v2_sym(figure_eight) == -1
    assert arf(figure_eight) == 1


def test_mirror_invariance(trefoil, figure_eight):
    for g in (trefoil, figure_eight):
        assert v2_gauss(g.mirror()) == v2_gauss(g)


def test_torus_law():
    for n in range(3, 16, 2):
        want = (n * n - 1) // 8
        g = torus_knot_2(n)
        assert v2_gauss(g) == want
        assert v2_sym(g) == want


def test_bound_and_sharpness():
    for n in range(3, 16, 2):
        v2, bound, ok = check_bound(torus_knot_2(n))
        assert ok
        assert abs(v2) == bound  # torus knots realize the bound


def test_crossing_bound_values():
    assert [crossing_bound(n) for n in range(0, 7)] == [0, 0, 0, 1, 2, 3, 4]


def test_arf_parity(diagram_corpus):
    for g in diagram_corpus[:100]:
        assert arf(g) == v2_gauss(g) % 2


def test_report_roundtrip(trefoil):
    rep = report(trefoil, method="skein")
    d = rep.to_dict()
    assert d["v2"] == 1 and d["arf"] == 1 and d["method"] == "skein"
    assert d["bound"] == 1 and d["n"] == 3


# -- the shared v2 formula core against the formulas it replaced -------------

def _ref_common_integer(values, context):
    first = values[0]
    if any(v != first for v in values[1:]):
        raise DisagreementError(f"{context}: formulas disagree: {values}")
    if first.denominator != 1:
        raise DisagreementError(f"{context}: non-integral value {first}")
    return int(first)


def _ref_v2_morse(curve):
    """v2_morse as it stood before the formula core, Morse stats included."""
    st = plane.morse_stats(curve)
    b = bracket(XFB, curve.gauss_diagram())
    num1 = 2 * b - (st.I_out + st.I_r) + st.X - st.M
    num3 = 2 * b - (st.I_out + st.I_l) + 2 * st.Xminus
    if num1 % 4 or num3 % 4:
        raise DisagreementError(f"v2_morse: divisibility failure: "
                                f"{num1}/4, {num3}/4")
    f1 = Fraction(num1, 4)
    f2 = Fraction(b, 2) + Fraction(st.I_int, 2) + Fraction(st.Xplus, 2)
    f3 = Fraction(num3, 4)
    return _ref_common_integer([f1, f2, f3], "v2_morse")


def _ref_v2_morse_closed(curve):
    st = plane.morse_stats(curve)
    val = Fraction(bracket(X_ALL, curve.gauss_diagram()), 4) \
        - Fraction(st.E, 24) + Fraction(st.Q, 12) + Fraction(st.X, 8) \
        - Fraction(st.M, 24) + Fraction(1, 24)
    if val.denominator != 1:
        raise DisagreementError(f"v2_morse_closed: non-integral value {val}")
    return int(val)


def _ref_v2_natangle(word):
    st = tangle.associator_stats(word)
    b = bracket(XFB, tangle.gauss_of_tangle(word))
    n = st.N
    f1 = Fraction(b, 2) + Fraction(n["1"] + n["(1,3)"], 4) \
        + Fraction(st.X, 4) - Fraction(st.M, 4)
    f2 = Fraction(b, 2) + Fraction(n["(2,3)"] + n["(1,3,2)"], 4) \
        + Fraction(st.Xplus, 2)
    f3 = Fraction(b, 2) + Fraction(n["(1,2)"] + n["(1,2,3)"], 4) \
        + Fraction(st.Xminus, 2)
    if f1 != f2 or f2 != f3:
        raise DisagreementError(f"v2_natangle: formulas disagree: {f1} {f2} {f3}")
    if f1.denominator != 1:
        raise DisagreementError(f"v2_natangle: non-integral value {f1}")
    return int(f1)


def _ref_v2_natangle_closed(word):
    st = tangle.associator_stats(word)
    val = Fraction(bracket(X_ALL, tangle.gauss_of_tangle(word)), 4) \
        + Fraction(st.N_total, 24) + Fraction(st.X, 8) - Fraction(st.M, 24) \
        + Fraction(1, 24)
    if val.denominator != 1:
        raise DisagreementError(f"v2_natangle_closed: non-integral value {val}")
    return int(val)


def _outcome(fn, arg):
    try:
        return fn(arg)
    except DisagreementError:
        return DisagreementError


def _perturbations(st):
    """(field, stats) with one independent term of st moved by each delta.

    Xminus and N_total are derived (X - Xplus, the sum of N), so they move
    with the terms they come from rather than on their own.
    """
    N = getattr(st, "N", {})
    fields = [f.name for f in dataclasses.fields(st)
              if isinstance(getattr(st, f.name), int)
              and f.name not in ("Xminus", "N_total")]
    for delta in (0, -1, 1, 2, 3, 5, 8, 12, 23, 24):
        for name in fields:
            moved = dataclasses.replace(st, **{name: getattr(st, name) + delta})
            if moved.Xminus is not None:
                moved = dataclasses.replace(moved, Xminus=moved.X - moved.Xplus)
            yield name, moved
        for name in N:
            moved_n = {**N, name: N[name] + delta}
            yield name, dataclasses.replace(st, N=moved_n,
                                            N_total=sum(moved_n.values()))


def _differential(monkeypatch, module, stats_name, source, new, ref):
    st = getattr(module, stats_name)(source)
    raised = 0
    for name, moved in _perturbations(st):
        monkeypatch.setattr(module, stats_name, lambda _src, moved=moved: moved)
        got, want = _outcome(new, source), _outcome(ref, source)
        assert got == want, (name, moved)
        raised += want is DisagreementError
    return raised


def _braid_curves(small_words):
    for word in small_words[:10]:
        yield "long", plane.project(plane.polyknot_from_braid(word, closed=False))
        yield "closed", plane.project(plane.polyknot_from_braid(word, closed=True))


def test_morse_core_matches_previous_formulas(monkeypatch, small_words):
    raised = {"long": 0, "closed": 0}
    for shape, curve in _braid_curves(small_words):
        new, ref = (plane.v2_morse, _ref_v2_morse) if shape == "long" \
            else (plane.v2_morse_closed, _ref_v2_morse_closed)
        assert new(curve) == ref(curve)
        with monkeypatch.context() as m:
            raised[shape] += _differential(m, plane, "morse_stats", curve,
                                           new, ref)
    # the perturbations reach the exit-3 path of both shapes
    assert raised["long"] > 0 and raised["closed"] > 0


@pytest.mark.parametrize("shape", ["long", "closed"])
def test_natangle_core_matches_previous_formulas(monkeypatch, shape):
    new, ref = (tangle.v2_natangle, _ref_v2_natangle) if shape == "long" \
        else (tangle.v2_natangle_closed, _ref_v2_natangle_closed)
    raised = 0
    for seed in range(15):
        word = tangle.random_tangle_word(seed, 12, shape)
        assert new(word) == ref(word)
        with monkeypatch.context() as m:
            raised += _differential(m, tangle, "associator_stats", word,
                                    new, ref)
    assert raised > 0


def test_long_core_checks_agreement_then_integrality():
    assert v2_long("t", 2, (0, 0, 0), 0, 0, 0) == 1
    # all three formulas read 1/2
    with pytest.raises(DisagreementError, match="t: non-integral value 1/2"):
        v2_long("t", 1, (0, 0, 0), 0, 0, 0)
    with pytest.raises(DisagreementError, match="t: formulas disagree"):
        v2_long("t", 0, (0, 0, 0), 1, 0, 0)


def test_x_counts_matches_previous_rule():
    """The X/X+ rule of the old per-method loops, on small integer
    directions, horizontal and parallel ones included."""
    rng = random.Random(0)
    for _ in range(500):
        d1, d2 = ((rng.randint(-2, 2), rng.randint(-2, 2)) for _ in "ab")
        s1, s2 = (d1[1] > 0) - (d1[1] < 0), (d2[1] > 0) - (d2[1] < 0)
        cr = d1[0] * d2[1] - d1[1] * d2[0]
        eps = (cr > 0) - (cr < 0)
        plus = s1 == s2 and ((s1 > 0 and eps > 0) or (s1 < 0 and eps < 0))
        assert x_counts([(d1, d2)]) == (int(s1 == s2), int(plus))
