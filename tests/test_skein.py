import pytest

from casson.diagram import from_braid_word, parse_gauss_code
from casson.skein import _interlock_scan, descend, v2_skein
from casson.invariants import v2_gauss
from conftest import chords_of, diagram_of, is_descending, reversed_chord


def test_descending_fixture():
    # every chord first met at its tail
    g = parse_gauss_code("O1+O2+U2+U1+")
    assert is_descending(g)
    assert v2_skein(g) == 0


def test_trefoil_descent(trefoil):
    trace = descend(trefoil)
    assert v2_skein(trefoil) == 1
    assert is_descending(trace.final_diagram)
    assert len(trace.flips) >= 1
    d = trace.to_dict()
    assert {"chord", "sign", "lk"} <= set(d["flips"][0])


def test_lk_two_ways_agree(diagram_corpus):
    # descend() cross-checks the closed-form count against the two-coloring
    # at every switched crossing and raises on any mismatch
    for g in diagram_corpus[:50]:
        descend(g)


def test_lk_two_ways_on_first_flip(trefoil):
    # the first chord met at its head satisfies the closed form directly
    for cid, kind in trefoil.order():
        if kind == "H":
            crossings, lk = _interlock_scan(trefoil.tail, trefoil.head,
                                            trefoil.sign, trefoil.ids.index(cid))
            assert crossings == 2 * lk
            break


def test_named_values(trefoil, figure_eight):
    assert v2_skein(trefoil) == 1
    assert v2_skein(figure_eight) == -1
    assert v2_skein(parse_gauss_code("")) == 0


def test_oracle_agreement(diagram_corpus):
    for g in diagram_corpus[:100]:
        assert v2_skein(g) == v2_gauss(g)


def test_flip_count_bounded(diagram_corpus):
    for g in diagram_corpus[:20]:
        assert len(descend(g).flips) <= g.n


# -- the running-state descent against a per-flip rebuild ---------------------

from fractions import Fraction

import casson.pairing
import casson.skein


def _naive_descend(diagram):
    """Reference descent: rebuild the diagram after every flip and read lk
    off chord positions, both ways."""
    chords = {c.id: c for c in chords_of(diagram)}
    flips, seen = [], set()
    for c0_id, kind in diagram.order():
        if c0_id in seen:
            continue
        seen.add(c0_id)
        if kind == "T":
            continue
        state = chords_of(diagram_of(chords.values()))
        c = chords[c0_id]
        lo, hi = min(c.tail, c.head), max(c.tail, c.head)
        lk = two = 0
        for other in state:
            if other.id != c.id and (lo < other.tail < hi) != (lo < other.head < hi):
                two += other.sign
                if other.head > c.tail:
                    lk += other.sign
        assert Fraction(two, 2) == lk
        flips.append((c0_id, c.sign, lk))
        chords[c0_id] = reversed_chord(c)
    return flips, diagram_of(chords.values())


def test_descend_equals_per_flip_rebuild(diagram_corpus):
    for g in diagram_corpus[:100]:
        trace = descend(g)
        flips, final = _naive_descend(g)
        assert list(trace.flips) == flips
        assert trace.final_diagram.serialize() == final.serialize()


def test_lk_wrappers_match_reference(diagram_corpus):
    for g in diagram_corpus[:30]:
        for i, c in enumerate(chords_of(g)):
            lo, hi = min(c.tail, c.head), max(c.tail, c.head)
            cross = [o for o in chords_of(g) if o.id != c.id
                     and (lo < o.tail < hi) != (lo < o.head < hi)]
            assert _interlock_scan(g.tail, g.head, g.sign, i) == \
                (sum(o.sign for o in cross),
                 sum(o.sign for o in cross if o.head > c.tail))


def test_skein_checks_every_flip_without_the_bracket(monkeypatch,
                                                     diagram_corpus):
    def forbidden(*args):
        raise AssertionError("v2_skein called the bracket kernel")

    monkeypatch.setattr(casson.pairing, "_interlock_sum", forbidden)
    calls = []
    scan = casson.skein._interlock_scan

    def counted(*args):
        calls.append(args[-1])
        return scan(*args)

    monkeypatch.setattr(casson.skein, "_interlock_scan", counted)
    for g in diagram_corpus[:20]:
        calls.clear()
        trace = descend(g)
        assert len(calls) == len(trace.flips)
