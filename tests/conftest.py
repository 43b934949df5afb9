import random
from typing import NamedTuple

import pytest

# pass/fail lines recorded by the acceptance tests, echoed after the run
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

from casson.diagram import GaussDiagram, from_braid_word
from casson.moves import random_braid_word, random_realizable


class Chord(NamedTuple):
    """One double point: arrow from the overpass (tail) to the underpass
    (head), endpoints at positions of the circle."""

    id: int
    tail: int
    head: int
    sign: int


def chords_of(diagram: GaussDiagram) -> list[Chord]:
    """The diagram's chords, in chord index order."""
    return list(map(Chord, diagram.ids, diagram.tail, diagram.head,
                    diagram.sign))


def diagram_of(chords) -> GaussDiagram:
    """The diagram with these chords, built by `from_endpoint_order`; the
    endpoint positions are read only for their order."""
    chords = list(chords)
    ends = {}
    for c in chords:
        ends[c.tail], ends[c.head] = (c.id, "T"), (c.id, "H")
    return GaussDiagram.from_endpoint_order(
        [ends[p] for p in sorted(ends)], {c.id: c.sign for c in chords})


def reversed_chord(c: Chord) -> Chord:
    """Same chord with direction and sign flipped (a crossing change)."""
    return Chord(c.id, c.head, c.tail, -c.sign)


def mirror(diagram: GaussDiagram) -> GaussDiagram:
    """Diagram of the mirror knot: every chord reversed, signs negated."""
    return diagram_of(map(reversed_chord, chords_of(diagram)))


def is_descending(diagram) -> bool:
    """Every chord is first met at its tail."""
    return all(t < h for t, h in zip(diagram.tail, diagram.head))


@pytest.fixture(scope="session")
def diagram_corpus():
    """500 deterministic random realizable diagrams, at most 40 chords."""
    corpus = []
    for seed in range(500):
        g = random_realizable(seed, 8 + seed % 14, 4 + seed % 5)
        if g.n > 40:
            g = random_realizable(seed, 8, 3)
        assert g.n <= 40
        corpus.append(g)
    return corpus


@pytest.fixture(scope="session")
def small_words():
    """Deterministic single-component braid words of varied size."""
    words = []
    for seed in range(80):
        rng = random.Random(1000 + seed)
        words.append(random_braid_word(rng, 5 + seed % 8))
    return words


@pytest.fixture
def trefoil():
    return from_braid_word([1, 1, 1])


@pytest.fixture
def figure_eight():
    return from_braid_word([1, -2, 1, -2])
