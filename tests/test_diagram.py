import pytest
from hypothesis import given, settings, strategies as st

from casson.diagram import (Chord, DiagramError, GaussDiagram, braid_strands,
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
    assert all(c.sign == 1 for c in g.chords)


def test_pd_code_mirror_signs():
    g = parse_pd_code("X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]")
    assert g.n == 3
    assert all(c.sign == -1 for c in g.chords)


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
    assert sorted(c.sign for c in m.chords) == [-1, -1, -1]


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


def test_from_endpoint_order_validation():
    with pytest.raises(DiagramError):
        GaussDiagram.from_endpoint_order([(1, "T")], {1: 1})
    with pytest.raises(DiagramError):
        GaussDiagram.from_endpoint_order([(1, "T"), (1, "H")], {1: 2})


@pytest.mark.parametrize("ends", [
    [(0, 2), (3, 5)],    # gaps at 1 and 4
    [(0, 2), (1, 2)],    # duplicate
    [(-1, 2), (1, 0)],   # negative index
    [(0, 4), (1, 2)],    # index 2n
    [(0, 1), (2, 7)],    # index beyond 2n
    [(0, 2), (3, 0.5)],  # not an integer
], ids=["gap", "duplicate", "negative", "2n", "beyond_2n", "fraction"])
def test_positions_must_be_0_to_2n_minus_1(ends):
    chords = [Chord(i, t, h, 1) for i, (t, h) in enumerate(ends, start=1)]
    with pytest.raises(DiagramError):
        GaussDiagram(chords)
    ok = [Chord(1, 0, 2, 1), Chord(2, 3, 1, -1)]
    assert GaussDiagram(ok).at == (0, 1, 0, 1)


# One input per rejection branch of the Gauss and PD parsers; only the
# exception type is pinned, not the message.
@pytest.mark.parametrize("code", [
    "O1+O1+",      # a token listed twice
    "O1+U1+U1+",   # a third token for one label
    "U1+",         # a chord with one endpoint
    "O1+U1-",      # O and U signs disagree
    "O1+U2+",      # two half chords
    "Z9*",         # not a token
])
def test_parse_gauss_rejects(code):
    with pytest.raises(DiagramError):
        parse_gauss_code(code)


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
