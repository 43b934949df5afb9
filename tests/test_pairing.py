import pytest

from casson.diagram import from_braid_word, parse_gauss_code
from casson.pairing import (XBWD, XDOWN, XFWD, XUP, X_ALL, ArrowPattern,
                            PatternCombination, bracket, unsigned_match_count)
from conftest import chords_of, diagram_of, mirror


def test_pattern_validation():
    with pytest.raises(ValueError):
        ArrowPattern("bad", ((1, "H"), (1, "H"), (2, "T"), (2, "H")))
    with pytest.raises(ValueError):
        ArrowPattern("bad", ((1, "H"), (1, "Q")))
    with pytest.raises(ValueError):
        ArrowPattern("empty", ())
    with pytest.raises(ValueError):
        ArrowPattern("nested", ((1, "T"), (2, "T"), (2, "H"), (1, "H")))
    with pytest.raises(ValueError):
        ArrowPattern("three", ((1, "H"), (2, "T"), (3, "H"), (1, "T"),
                               (3, "T"), (2, "H")))


def test_bracket_empty_diagram():
    g = parse_gauss_code("")
    for p in (XUP, XDOWN, XFWD, XBWD):
        assert bracket(p, g) == 0


def test_trefoil_pattern_counts():
    g = from_braid_word([1, 1, 1])
    assert bracket(XUP, g) == 1
    assert bracket(XDOWN, g) == 1
    # the three interlocked pairs split 1 + 1 + 1 across up/down/forward
    assert bracket(X_ALL, g) == 3


def test_single_kink_matches_nothing():
    g = parse_gauss_code("O1+U1+")
    assert bracket(X_ALL, g) == 0


def test_linearity():
    g = from_braid_word([1, 1, 1, 1, 1])
    comb = PatternCombination(((2, XUP), (-1, XFWD)))
    assert bracket(comb, g) == 2 * bracket(XUP, g) - bracket(XFWD, g)


def test_unsigned_count_ignores_signs():
    pos = from_braid_word([1, 1, 1])
    neg = mirror(pos)
    assert unsigned_match_count(XUP, pos) == unsigned_match_count(XDOWN, neg)


def test_signs_multiply():
    g = from_braid_word([-1, -1, -1])
    # both chords of each matching pair are negative, so products are +1
    assert bracket(XDOWN, g) == unsigned_match_count(XDOWN, g)


# -- the Fenwick kernel against the subset enumerator -------------------------

from itertools import combinations
from math import prod

from hypothesis import given, settings, strategies as st

from casson.diagram import GaussDiagram, torus_knot_2

ORACLE_PATTERNS = (XUP, XDOWN, XFWD, XBWD, X_ALL)


def _word(seq):
    """Endpoint word with chord labels renumbered by first appearance."""
    relabel = {}
    return tuple((relabel.setdefault(key, len(relabel)), kind)
                 for key, kind in seq)


def enumerated_bracket(pattern, g, signed=True):
    """Reference bracket: try every chord pair and compare its endpoint word
    with the pattern's, both relabelled by first appearance."""
    terms = getattr(pattern, "terms", ((1, pattern),))
    total = 0
    for coeff, pat in terms:
        want = _word(pat.slots)
        for pair in combinations(chords_of(g), pat.arity):
            ends = sorted([(c.tail, c.id, "T") for c in pair]
                          + [(c.head, c.id, "H") for c in pair])
            if _word((cid, kind) for _, cid, kind in ends) == want:
                total += coeff * (prod(c.sign for c in pair) if signed else 1)
    return total


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
    return GaussDiagram.from_endpoint_order(
        order, dict(zip(range(1, n + 1), signs)))


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


# -- the stored arrays against their two constructors --------------------------

def _serialized_from_chords(g):
    """Reference Gauss code: endpoints sorted by position, labels renumbered
    by first appearance."""
    ends = sorted([(c.tail, c.id, "O", c.sign) for c in chords_of(g)]
                  + [(c.head, c.id, "U", c.sign) for c in chords_of(g)])
    relabel = {}
    return "".join(f"{letter}{relabel.setdefault(cid, len(relabel) + 1)}"
                   f"{'+' if sign > 0 else '-'}"
                   for _, cid, letter, sign in ends)


@settings(max_examples=300, deadline=None)
@given(chord_diagrams())
def test_order_round_trip(g):
    arrays = (g.ids, g.tail, g.head, g.sign, g.at)
    rebuilt = (GaussDiagram.from_endpoint_order(
                   g.order(), dict(zip(g.ids, g.sign))),
               diagram_of(chords_of(g)))
    for h in rebuilt:
        assert (h.ids, h.tail, h.head, h.sign, h.at) == arrays
        assert h.serialize() == g.serialize() == _serialized_from_chords(g)
