import pytest

from casson.diagram import from_braid_word, parse_gauss_code
from casson.pairing import (XBWD, XDOWN, XFWD, XUP, X_ALL, ArrowPattern,
                            bracket, unsigned_match_count)


def test_pattern_validation():
    with pytest.raises(ValueError):
        ArrowPattern("bad", ((1, "H"), (1, "H"), (2, "T"), (2, "H")))
    with pytest.raises(ValueError):
        ArrowPattern("bad", ((1, "H"), (1, "Q")))
    with pytest.raises(ValueError):
        ArrowPattern("empty", ())


def test_bracket_empty_diagram():
    g = parse_gauss_code("", shape="long")
    for p in (XUP, XDOWN, XFWD, XBWD):
        assert bracket(p, g) == 0


def test_trefoil_pattern_counts():
    g = from_braid_word([1, 1, 1])
    assert bracket(XUP, g) == 1
    assert bracket(XDOWN, g) == 1
    # the three interlocked pairs split 1 + 1 + 1 across up/down/forward
    assert bracket(X_ALL, g) == 3


def test_single_kink_matches_nothing():
    g = parse_gauss_code("O1+U1+", shape="long")
    assert bracket(X_ALL, g) == 0


def test_linearity():
    g = from_braid_word([1, 1, 1, 1, 1])
    comb = 2 * XUP + (-1) * XFWD
    assert bracket(comb, g) == 2 * bracket(XUP, g) - bracket(XFWD, g)


def test_unsigned_count_ignores_signs():
    pos = from_braid_word([1, 1, 1])
    neg = pos.mirror()
    assert unsigned_match_count(XUP, pos) == unsigned_match_count(XDOWN, neg)


def test_signs_multiply():
    g = from_braid_word([-1, -1, -1])
    # both chords of each matching pair are negative, so products are +1
    assert bracket(XDOWN, g) == unsigned_match_count(XDOWN, g)


# -- the Fenwick kernel against the subset enumerator -------------------------

from hypothesis import given, settings, strategies as st

from casson.diagram import GaussDiagram, torus_knot_2
from casson.moves import random_realizable
from casson.pairing import XFB, enumerated_bracket

ORACLE_PATTERNS = (XUP, XDOWN, XFWD, XBWD, X_ALL)


def _assert_fast_equals_enumerated(g):
    for pat in ORACLE_PATTERNS:
        assert bracket(pat, g) == enumerated_bracket(pat, g), (pat, g)
        assert unsigned_match_count(pat, g) == \
            enumerated_bracket(pat, g, signed=False), (pat, g)


@st.composite
def chord_diagrams(draw, max_chords=12):
    """Arbitrary signed chord diagrams, most of them not realizable."""
    n = draw(st.integers(0, max_chords))
    order = draw(st.permutations([(i, k) for i in range(1, n + 1)
                                  for k in "TH"]))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    shape = draw(st.sampled_from(("closed", "long")))
    return GaussDiagram.from_endpoint_order(
        order, dict(zip(range(1, n + 1), signs)), shape=shape)


@settings(max_examples=300, deadline=None)
@given(chord_diagrams())
def test_fast_bracket_on_arbitrary_diagrams(g):
    _assert_fast_equals_enumerated(g)


def test_fast_bracket_on_corpus(diagram_corpus):
    for g in diagram_corpus:
        _assert_fast_equals_enumerated(g)


def test_torus_law_up_to_641():
    for n in range(3, 642, 2):
        g = torus_knot_2(n)
        assert bracket(XUP, g) == bracket(XDOWN, g) == (n * n - 1) // 8, n


def test_matches_relabels_by_first_appearance():
    assert XUP.matches([(7, "H"), (3, "T"), (7, "T"), (3, "H")])
    assert not XUP.matches([(7, "T"), (3, "H"), (7, "H"), (3, "T")])
    assert not XUP.matches([(7, "H"), (7, "T")])


def test_other_patterns_use_the_enumerator():
    nested = ArrowPattern("nested", ((1, "T"), (2, "T"), (2, "H"), (1, "H")))
    three = ArrowPattern("three", ((1, "H"), (2, "T"), (3, "H"), (1, "T"),
                                   (3, "T"), (2, "H")))
    g = random_realizable(3, 12, 4)
    assert bracket(nested, g) == enumerated_bracket(nested, g)
    assert bracket(three + XFB, g) == \
        enumerated_bracket(three, g) + enumerated_bracket(XFB, g)
    # an endpoint word of chords 5 and 9, nested
    assert nested.matches([(5, "T"), (9, "T"), (9, "H"), (5, "H")])
