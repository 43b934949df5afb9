import pytest
from hypothesis import given, settings, strategies as st

from casson.diagram import (DiagramError, GaussDiagram, braid_strands,
                            closure_walk, from_braid_word, parse_gauss_code, parse_pd_code,
                            torus_knot_2)
from casson.moves import random_realizable
from conftest import mirror


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32), st.integers(0, 20), st.integers(0, 8))
def test_gauss_code_round_trip(seed, letters, moves):
    # a diagram is only its chords, so parsing its code gives it back whole
    g = random_realizable(seed, letters, moves)
    h = parse_gauss_code(g.serialize())
    assert h.serialize() == g.serialize() and repr(h) == repr(g)
    assert sorted(zip(h.tail, h.head, h.sign)) == \
        sorted(zip(g.tail, g.head, g.sign))


def test_parse_gauss_trefoil_roundtrip():
    g = parse_gauss_code("O1+U2+O3+U1+O2+U3+")
    assert g.n == 3
    assert g.serialize() == "O1+U2+O3+U1+O2+U3+"


def test_parse_gauss_empty():
    g = parse_gauss_code("")
    assert g.n == 0


def test_parse_gauss_rejects_garbage():
    with pytest.raises(DiagramError):
        parse_gauss_code("O1+U2")
    with pytest.raises(DiagramError):
        parse_gauss_code("Z9*")


def test_parse_gauss_needs_both_passes():
    with pytest.raises(DiagramError):
        parse_gauss_code("O1+O1+")


def test_pd_code_trefoil():
    g = parse_pd_code("X[1,5,2,4] X[3,1,4,6] X[5,3,6,2]")
    assert g.n == 3
    assert g.sign == (1, 1, 1)


def test_pd_code_mirror_signs():
    g = parse_pd_code("X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]")
    assert g.n == 3
    assert g.sign == (-1, -1, -1)


def test_braid_word_trefoil():
    g = from_braid_word("s1 s1 s1")
    assert g.serialize() == from_braid_word([1, 1, 1]).serialize()
    assert g.n == 3


def test_braid_word_bare_integers():
    assert from_braid_word("1 -2 1 -2").n == 4


def test_braid_multi_component_rejected():
    # two positive crossings on two strands close to a 2-component link
    with pytest.raises(DiagramError):
        from_braid_word([1, 1])


def test_closure_walk_positions():
    # the trefoil's closure passes the braid twice, swapping sides each letter
    assert closure_walk([1, 1, 1]) == [[0, 1, 0, 1], [1, 0, 1, 0]]
    assert closure_walk([]) == [[0]]
    assert [path[-1] for path in closure_walk([1, 2])] == [2, 1, 0]


@pytest.mark.parametrize("letter", [0, 1.0, True, "s1", None])
def test_braid_strands_rejects_non_generators(letter):
    with pytest.raises(DiagramError, match=f"braid letter {letter!r} "):
        braid_strands([1, letter])


def test_braid_strands():
    assert braid_strands([]) == 1
    assert braid_strands([1, -3, 2]) == 4


def test_torus_knots():
    for n in (3, 5, 7, 9):
        g = torus_knot_2(n)
        assert g.n == n
    assert torus_knot_2(3).serialize() == from_braid_word([1, 1, 1]).serialize()


def test_mirror_flips_signs():
    g = from_braid_word([1, 1, 1])
    m = mirror(g)
    assert m.sign == (-1, -1, -1)


def _base_point_moved(g: GaussDiagram) -> GaussDiagram:
    """The diagram with its base point moved forward past one endpoint."""
    order = g.order()
    return GaussDiagram.from_endpoint_order(
        order[1:] + order[:1], dict(zip(g.ids, g.sign)))


def test_base_point_move_cycles():
    g = from_braid_word([1, 1, 1])
    h = g
    for _ in range(2 * g.n):
        h = _base_point_moved(h)
    assert h.serialize() == g.serialize()


# The checks of from_endpoint_order, in the order they run: a token listed
# twice, a missing endpoint, a token count that does not match, a bad sign.
ENDPOINT_REJECTIONS = [
    ([(1, "T"), (1, "T")], {1: 1}, "endpoint (1, 'T') listed twice"),
    ([(1, "T"), (2, "T"), (1, "T")], {2: 1}, "endpoint (1, 'T') listed twice"),
    ([(1, "T")], {1: 1}, "chord 1: missing tail or head endpoint"),
    ([(1, "T")], {1: 2}, "chord 1: missing tail or head endpoint"),
    ([(2, "T"), (2, "H"), (1, "H")], {2: 1, 1: 1},
     "chord 1: missing tail or head endpoint"),
    ([(2, "H"), (1, "T")], {2: 1, 1: 1}, "chord 2: missing tail or head endpoint"),
    ([(1, "T"), (1, "H"), (2, "T")], {1: 2},
     "endpoint tokens do not match the chord set"),
    ([(1, "T"), (1, "X"), (1, "H")], {1: 1},
     "endpoint tokens do not match the chord set"),
    ([(1, "T"), (1, "H")], {1: 2}, "chord 1: sign must be +1 or -1, got 2"),
    ([(1, "T"), (2, "T"), (1, "H"), (2, "H")], {1: 1, 2: 0},
     "chord 2: sign must be +1 or -1, got 0"),
]


def test_from_endpoint_order_validation():
    for order, signs, message in ENDPOINT_REJECTIONS:
        with pytest.raises(DiagramError) as info:
            GaussDiagram.from_endpoint_order(order, signs)
        assert str(info.value) == message, (order, signs)


# One input per rejection branch of the Gauss parser, and the message it
# gives.  A sign disagreement is caught as its token is read, so it beats a
# bad token after it; a bad token beats the endpoint checks, which run on
# the whole code.
GAUSS_REJECTIONS = {
    "O1+O1+": "endpoint (1, 'T') listed twice",              # a token listed twice
    "O1+U1+U1+": "endpoint (1, 'H') listed twice",           # a third token for one label
    "U1+": "chord 1: missing tail or head endpoint",         # a chord with one endpoint
    "O1+U1-": "label 1: O and U signs disagree",             # O and U signs disagree
    "O1+U2+": "chord 1: missing tail or head endpoint",      # two half chords
    "Z9*": "bad Gauss code token at 'Z9*'",                  # not a token
    "U1+O2+U1+": "endpoint (1, 'H') listed twice",           # listed twice beats missing
    "O1+U1-Z": "label 1: O and U signs disagree",            # sign beats a later bad token
    "O1+O1+Z": "bad Gauss code token at 'Z'",                # bad token beats listed twice
    "O1+U1+ O2+U2+O3": "bad Gauss code token at 'O3'",       # whitespace is dropped first
    "O1+U1+O2+U2+xxxxxxxxxx": "bad Gauss code token at 'xxxxxxxx'",
}


@pytest.mark.parametrize("code", list(GAUSS_REJECTIONS), ids=str)
def test_parse_gauss_rejects(code):
    with pytest.raises(DiagramError) as info:
        parse_gauss_code(code)
    assert str(info.value) == GAUSS_REJECTIONS[code]


@pytest.mark.parametrize("code", [
    "X[1,5,2,4] X[3,1,4,6] X[5,3,6,2] X[7]",  # unparsed fragment
    "X[1,5,2,4] X[3,1,4,6]",                  # edges are not 1..2n
    "X[1,5,3,4] X[2,1,4,6] X[5,2,6,3]",       # under pair not consecutive
    "X[2,5,1,4] X[3,1,4,6] X[5,3,6,2]",       # under pair reversed
    "X[1,5,2,4] X[1,3,2,6] X[5,3,6,4]",       # edge 1 enters two crossings
    "X[1,6,2,4] X[3,1,4,5] X[5,3,6,2]",       # over pair not consecutive
    "X[4,1,3,2] X[2,3,1,4]",                  # Hopf link: two components
], ids=["fragment", "edge_count", "under_apart", "under_reversed",
       "enters_twice", "over_apart", "hopf"])
def test_parse_pd_rejects(code):
    with pytest.raises(DiagramError):
        parse_pd_code(code)


def test_pd_code_figure_eight():
    g = parse_pd_code("X[4,2,5,1] X[8,6,1,5] X[6,3,7,4] X[2,7,3,8]")
    assert g.serialize() == "O1+U2-O3-U1+O4+U3-O2-U4+"
