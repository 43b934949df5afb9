import random

import pytest

from casson.diagram import DiagramError
from casson.invariants import arf, v2_gauss
from casson.moves import (MoveEngine, MoveSite, apply, r1_removal_sites,
                          r2_removal_sites, random_braid_word,
                          random_realizable)
from casson.skein import v2_skein


def test_r1_insert_remove_roundtrip(trefoil):
    g = apply(trefoil, MoveSite("r1_insert", {"slot": 2, "over": "T", "sign": -1}))
    assert g.n == 4
    assert v2_gauss(g) == 1
    sites = r1_removal_sites(g)
    assert sites
    h = apply(g, sites[0])
    assert h.n == 3 and v2_gauss(h) == 1


def test_r2_finger_remove_roundtrip(trefoil):
    g = apply(trefoil, MoveSite("r2_finger", {"slot": 3, "over": True, "sign": 1}))
    assert g.n == 5
    assert v2_gauss(g) == 1
    sites = r2_removal_sites(g)
    assert sites
    h = apply(g, sites[0])
    assert h.n == 3


def test_invalid_sites_rejected(trefoil):
    with pytest.raises(DiagramError):
        apply(trefoil, MoveSite("r1_remove", {"chord_id": 1}))
    with pytest.raises(DiagramError):
        apply(trefoil, MoveSite("r2_remove", {"chords": (1, 2)}))
    with pytest.raises(DiagramError):
        apply(trefoil, MoveSite("r1_insert", {"slot": 99}))


def test_basepoint_move(trefoil):
    g = apply(trefoil, MoveSite("basepoint", {"steps": 2}))
    assert v2_gauss(g) == 1 and g.n == 3


def test_random_braid_word_parity():
    rng = random.Random(0)
    for n in range(1, 12):
        w = random_braid_word(rng, n)
        k = max(abs(a) for a in w) + 1
        assert (k - 1) % 2 == n % 2


def test_random_realizable_deterministic():
    a = random_realizable(7, 10, 5)
    b = random_realizable(7, 10, 5)
    assert a.serialize() == b.serialize()


def test_moves_on_the_empty_word_keep_one_component():
    # a letter pair on the one-strand empty word closes to two components
    for seed in range(20):
        g = random_realizable(seed, 0, 6)
        assert v2_gauss(g) == v2_skein(g) == 0 and arf(g) == 0


def test_move_invariance_battery():
    for seed in range(30):
        rng = random.Random(seed)
        engine = MoveEngine(word=random_braid_word(rng, 8 + seed % 5))
        g0 = engine.diagram()
        ref = (v2_gauss(g0), arf(g0))
        for _ in range(12):
            engine.random_move(rng)
            g = engine.diagram()
            assert (v2_gauss(g), arf(g)) == ref


def test_moves_preserve_skein_oracle():
    for seed in range(10):
        rng = random.Random(100 + seed)
        engine = MoveEngine(word=random_braid_word(rng, 9))
        ref = v2_skein(engine.diagram())
        for _ in range(8):
            engine.random_move(rng)
        assert v2_skein(engine.diagram()) == ref
