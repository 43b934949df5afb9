import pytest

from casson.invariants import v2_gauss
from casson.tangle import (TangleError, associator_stats, gauss_of_tangle,
                           parse_tangle, random_tangle_word, v2_natangle,
                           v2_natangle_closed)

# the long trefoil as a tangle word, Gauss code O1+U2+O3+U1+O2+U3+
TREFOIL_TANGLE = """\
MIN@2:u
A@1:R
X@1:+:o
X@1:+:o
X@1:+:o
A@1:L
MAX@2:u
"""


def test_trefoil_fixture():
    word = parse_tangle(TREFOIL_TANGLE)
    g = gauss_of_tangle(word)
    assert g.serialize() == "O1+U2+O3+U1+O2+U3+"
    assert v2_natangle(word) == 1


def test_trefoil_stats():
    st = associator_stats(parse_tangle(TREFOIL_TANGLE))
    assert st.X == 3 and st.M == 1
    assert st.Xplus + st.Xminus == st.X
    assert sum(st.N.values()) == st.N_total


def test_parse_errors():
    with pytest.raises(TangleError):
        parse_tangle("X@1:+:o")  # no strands yet
    with pytest.raises(TangleError):
        parse_tangle("MIN@9:u")  # position out of range
    with pytest.raises(TangleError):
        parse_tangle("FOO@1:u")
    with pytest.raises(TangleError):
        parse_tangle("MIN@1:u\nX@1:-:o")  # declared sign contradicts writhe
    with pytest.raises(TangleError):
        parse_tangle("MIN@1:u\nMAX@1:d")  # annotation mismatch


def test_crossings_need_bracket_siblings():
    # two separate cups: strands 2,3 are adjacent but not siblings
    with pytest.raises(TangleError):
        parse_tangle("MIN@2:u\nMIN@4:u\nX@2:+:o")


def test_long_word_must_end_with_single_strand():
    with pytest.raises(TangleError):
        parse_tangle("MIN@2:u")


def test_separate_component_rejected():
    bad = "MIN@2:u\nMAX@2:u"  # cup immediately capped: a split circle
    with pytest.raises(TangleError):
        parse_tangle(bad)


def test_random_long_agreement():
    for seed in range(25):
        word = random_tangle_word(seed, n_events=12, shape="long")
        assert v2_natangle(word) == v2_gauss(gauss_of_tangle(word))


def test_random_closed_agreement():
    for seed in range(25):
        word = random_tangle_word(seed, n_events=12, shape="closed")
        assert v2_natangle_closed(word) == v2_gauss(gauss_of_tangle(word))


def test_random_generator_deterministic():
    a = random_tangle_word(3, n_events=10)
    b = random_tangle_word(3, n_events=10)
    assert a.events == b.events


def test_shape_guards():
    long_word = parse_tangle(TREFOIL_TANGLE)
    with pytest.raises(ValueError):
        v2_natangle_closed(long_word)
    closed_word = random_tangle_word(0, n_events=8, shape="closed")
    with pytest.raises(ValueError):
        v2_natangle(closed_word)


def test_unknown_shape_rejected():
    with pytest.raises(TangleError, match="'bogus'"):
        parse_tangle("MIN@1:u\nMAX@1:u\n", shape="bogus")
    with pytest.raises(ValueError, match="'bogus'"):
        random_tangle_word(1, 4, shape="bogus")


# -- golden digests of the generator and the tracer ---------------------------

import hashlib


def _line(ev):
    if ev.kind in ("min", "max"):
        return f"{ev.kind.upper()}@{ev.pos}:{ev.orient}"
    if ev.kind == "cross":
        return (f"X@{ev.pos}:{'+' if ev.sign > 0 else '-'}:"
                f"{'o' if ev.left_over else 'u'}")
    return f"A@{ev.pos}:{ev.side}"


def _traced(word):
    return repr((word.source,
                 [(c.cid, c.sign, c.d_over, c.d_under)
                  for c in word.crossings.values()],
                 [(a.aid, a.side, a.q_up) for a in word.assocs.values()]))


def _mutants(lines, seed):
    """Drop line i, swap lines i-1 and i, shift line i one position right."""
    i = 1 + 7 * seed % (len(lines) - 1)
    head, rest = lines[i].split("@", 1)
    pos, _, tail = rest.partition(":")
    yield lines[:i] + lines[i + 1:]
    yield lines[:i - 1] + [lines[i], lines[i - 1]] + lines[i + 1:]
    yield lines[:i] + [f"{head}@{int(pos) + 1}:{tail}"] + lines[i + 1:]


def _golden_digest(seeds, n_events, shape):
    """SHA-256 over each word's text and traced data, and over the traced
    source or exact TangleError message of each of its three mutants."""
    h = hashlib.sha256()
    for seed in seeds:
        word = random_tangle_word(seed, n_events, shape)
        lines = [_line(ev) for ev in word.events]
        h.update("\n".join(lines).encode() + b"\0" + _traced(word).encode() + b"\0")
        for mutant in _mutants(lines, seed):
            try:
                out = _traced(parse_tangle("\n".join(mutant), shape))
            except TangleError as exc:
                out = f"TangleError: {exc}"
            h.update(out.encode() + b"\0")
    return h.hexdigest()


# digests of the generator and tracer before the strand tree kept parent
# pointers; any change in RNG use, tree legality or error text shows here
GOLDEN = [
    (0, 60, 12, "long",
     "9488cd2cccbd41ce16a1f5d319eac1199b867f4fc478fcc58d2fcd6ba76601dc"),
    (0, 60, 12, "closed",
     "7f05c0b2e45c5ff20442431b816c76472ccb5448905d45fb2df14d6013722b27"),
    (0, 60, 40, "long",
     "ee0eb89deb64fa916ea543fc2df55002fd9808615e6cb86e8fb864f752f554da"),
    (0, 60, 40, "closed",
     "8e47423630dc95c346f20da258da1a6e31235c119f84d24e74271271a38c283d"),
    (5, 6, 100, "long",
     "ec8c2512d016e588590fdf29982818cb5788bb123bc19fd700039cb616f9c594"),
]


@pytest.mark.parametrize("start,stop,n_events,shape,expected", GOLDEN,
                         ids=[f"seeds{a}-{b - 1}-n{n}-{shape}"
                              for a, b, n, shape, _ in GOLDEN])
def test_golden_words_and_mutants(start, stop, n_events, shape, expected):
    assert _golden_digest(range(start, stop), n_events, shape) == expected


# -- a cap frees the strands it closes -----------------------------------------

import gc


def test_strand_tree_leaves_no_cyclic_garbage():
    """A capped pair and its parent node are freed by reference counting:
    with the collector off, parsing and evaluating 20 words of 40 events
    leaves nothing for it to find (before caps cut their links, about 580
    objects a word)."""
    texts = ["\n".join(_line(ev) for ev in random_tangle_word(seed, 40).events)
             for seed in range(20)]
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        for text in texts:
            word = parse_tangle(text)
            assert v2_natangle(word) == v2_gauss(gauss_of_tangle(word))
        del word
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
