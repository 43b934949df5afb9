import random
from fractions import Fraction

from casson.diagram import (GaussDiagram, from_braid_word, parse_gauss_code,
                            torus_knot_2)
from casson.skein import (NotDescendingRealizable, FlipTrace, _flip_counts,
                          descend, v2_skein)
from casson.invariants import v2_gauss
from conftest import chords_of, diagram_of, is_descending, reversed_chord

import casson.pairing
import casson.skein


# -- the reference scan: one loop over the chords per switch ------------------

def _interlock_scan(tail, head, sign, c: int) -> tuple[int, int]:
    """(crossings, lk) of the smoothing at chord index c, on endpoint
    indices: the signed count of chords interlocked with c, and the part of
    that count whose heads lie after c's tail."""
    tc = tail[c]
    lo, hi = min(tc, head[c]), max(tc, head[c])
    crossings = lk = 0
    for t, h, s in zip(tail, head, sign):
        if (lo < t < hi) != (lo < h < hi):
            crossings += s
            if h > tc:
                lk += s
    return crossings, lk


def _scan_descend(diagram):
    """Reference descent: a state of tail, head and sign lists flipped in
    place, one `_interlock_scan` per switch."""
    tail, head, sign = map(list, (diagram.tail, diagram.head, diagram.sign))
    flips = []
    for p, c in enumerate(diagram.at):
        if head[c] != p or tail[c] < p:
            continue
        crossings, lk = _interlock_scan(tail, head, sign, c)
        if crossings != 2 * lk:
            raise NotDescendingRealizable(
                f"lk mismatch at chord {diagram.ids[c]}: count {lk} "
                f"vs smoothing {Fraction(crossings, 2)}")
        flips.append((diagram.ids[c], sign[c], lk))
        tail[c], head[c], sign[c] = head[c], tail[c], -sign[c]
    return FlipTrace(tuple(flips))


def _final(diagram, trace):
    """The descent's final diagram: the input with the flipped chords
    reversed."""
    flipped = {cid for cid, _, _ in trace.flips}
    return diagram_of(reversed_chord(c) if c.id in flipped else c
                      for c in chords_of(diagram))


def _static_counts(tail, head, sign, c):
    """`_flip_counts` at chord c, whose head comes before its tail, on the
    diagram as given, nothing switched: its masks built chord by chord."""
    h, t = head[c], tail[c]

    def mask(pred):
        return sum(1 << i for i in range(len(tail)) if pred(i))

    return _flip_counts(
        mask(lambda i: (tail[i] <= h) != (head[i] <= h)),
        mask(lambda i: (tail[i] < t) != (head[i] < t)),
        mask(lambda i: tail[i] < t),
        mask(lambda i: sign[i] > 0),
        0)


def test_descending_fixture():
    # every chord first met at its tail
    g = parse_gauss_code("O1+O2+U2+U1+")
    assert is_descending(g)
    assert v2_skein(g) == 0


def test_trefoil_descent(trefoil):
    trace = descend(trefoil)
    assert v2_skein(trefoil) == 1
    assert is_descending(_final(trefoil, trace))
    assert len(trace.flips) >= 1
    assert len(trace.flips[0]) == 3


def test_lk_two_ways_agree(diagram_corpus):
    # descend() cross-checks the closed-form count against the two-coloring
    # at every switched crossing and raises on any mismatch
    for g in diagram_corpus[:50]:
        descend(g)


def test_lk_two_ways_on_first_flip(trefoil):
    # the first chord met at its head satisfies the closed form directly
    for cid, kind in trefoil.order():
        if kind == "H":
            args = (trefoil.tail, trefoil.head, trefoil.sign,
                    trefoil.ids.index(cid))
            crossings, lk = _static_counts(*args)
            assert (crossings, lk) == _interlock_scan(*args)
            assert crossings == 2 * lk
            break
    else:
        raise AssertionError("the trefoil has no head-first chord")


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
        assert _final(g, trace).serialize() == final.serialize()


def test_lk_wrappers_match_reference(diagram_corpus):
    # every chord, turned head-first if it is not: only those are switched
    for g in diagram_corpus[:30]:
        for i, c in enumerate(chords_of(g)):
            if c.tail < c.head:
                c = reversed_chord(c)
            state = [o if o.id != c.id else c for o in chords_of(g)]
            tail, head, sign = ([o[k] for o in state] for k in (1, 2, 3))
            lo, hi = c.head, c.tail
            cross = [o for o in state if o.id != c.id
                     and (lo < o.tail < hi) != (lo < o.head < hi)]
            ref = (sum(o.sign for o in cross),
                   sum(o.sign for o in cross if o.head > c.tail))
            assert _interlock_scan(tail, head, sign, i) == ref
            assert _static_counts(tail, head, sign, i) == ref


def test_skein_checks_every_flip_without_the_bracket(monkeypatch,
                                                     diagram_corpus):
    def forbidden(*args):
        raise AssertionError("v2_skein called the bracket kernel")

    monkeypatch.setattr(casson.pairing, "_interlock_sum", forbidden)
    calls = []
    scan = casson.skein._flip_counts

    def counted(*args):
        calls.append(args)
        return scan(*args)

    monkeypatch.setattr(casson.skein, "_flip_counts", counted)
    for g in diagram_corpus[:20]:
        calls.clear()
        trace = descend(g)
        assert len(calls) == len(trace.flips)


# -- the bitset descent against the reference scan ----------------------------

def _outcome(descent, diagram):
    try:
        trace = descent(diagram)
    except NotDescendingRealizable as e:
        return str(e)
    final = _final(diagram, trace)
    assert is_descending(final)
    return trace.flips, final.serialize()


def test_descend_matches_the_scan_reference_on_random_diagrams():
    # chord diagrams drawn uniformly, most of them not realizable: the same
    # flips and final diagram, or the same error text
    rng = random.Random(2026)
    raised = 0
    for _ in range(5000):
        n = rng.randint(1, 60)
        order = [(cid, kind) for cid in range(1, n + 1) for kind in "TH"]
        rng.shuffle(order)
        g = GaussDiagram.from_endpoint_order(
            order, {cid: rng.choice((-1, 1)) for cid in range(1, n + 1)})
        got = _outcome(descend, g)
        assert got == _outcome(_scan_descend, g), g
        raised += isinstance(got, str)
    assert 4000 < raised < 5000


def test_descend_matches_the_scan_reference_on_torus_knots():
    for n in (3, 5, 7, 41, 321, 2561):
        g = torus_knot_2(n)
        assert _outcome(descend, g) == _outcome(_scan_descend, g)
    assert v2_skein(torus_knot_2(2561)) == (2561 ** 2 - 1) // 8
