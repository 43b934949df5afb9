import hashlib
import random

from casson.invariants import arf, v2_gauss
from casson.moves import MoveEngine, random_braid_word, random_realizable
from casson.skein import v2_skein

SIZES = (0, 1, 5, 12)


def _moves_digest(seeds):
    """SHA-256 over random_realizable's Gauss code for every (letters,
    moves) pair of SIZES, and over a MoveEngine history on a word of
    1 + seed % 16 letters: each of 20 move kinds and the diagram after it."""
    h = hashlib.sha256()
    for seed in seeds:
        for letters in SIZES:
            for moves in SIZES:
                h.update(random_realizable(seed, letters, moves).serialize().encode()
                         + b"\0")
        rng = random.Random(seed)
        engine = MoveEngine(word=random_braid_word(rng, 1 + seed % 16))
        for _ in range(20):
            kind = engine.random_move(rng)
            h.update(f"{kind} {engine.diagram().serialize()}".encode() + b"\0")
    return h.hexdigest()


def test_random_realizable_and_engine_golden():
    # digest of the generator while diagram moves went through a tagged
    # site object; any change in a random draw, a site order or a move shows
    assert _moves_digest(range(100)) == (
        "a5b81f86f409cc70ef7bf09d66409d2b546f3da729f2d6e175074e25d8ef6994")


def _ladder_moves_digest():
    """SHA-256 over random_realizable's Gauss code at ladder sizes (100, 150
    and 200 letters, 12 moves, seeds 0-9) and over a 200-move MoveEngine
    history on a 40-letter word: each move kind and the diagram after it."""
    h = hashlib.sha256()
    for seed in range(10):
        for letters in (100, 150, 200):
            h.update(random_realizable(seed, letters, 12).serialize().encode()
                     + b"\0")
    rng = random.Random(0)
    engine = MoveEngine(word=random_braid_word(rng, 40))
    for _ in range(200):
        kind = engine.random_move(rng)
        h.update(f"{kind} {engine.diagram().serialize()}".encode() + b"\0")
    return h.hexdigest()


def test_ladder_size_golden():
    # the first golden stops at 12 letters and 12 moves; this one pins the
    # draws where diagrams have hundreds of chords and moves pile up
    assert _ladder_moves_digest() == (
        "f54ab4e6224d671b54282141a5802c9de5eb106dc41b68b25c15468d5b9bffa8")


MOVE_KINDS = {"r2_word", "conjugate", "stabilize", "triple", "commute",
              "r1_insert", "r1_remove", "r2_finger", "r2_remove", "basepoint"}


def test_engine_reaches_every_move_kind_keeping_invariants():
    seen = set()
    for seed in range(3):
        rng = random.Random(seed)
        engine = MoveEngine(word=random_braid_word(rng, 11))
        g = engine.diagram()
        ref = (v2_gauss(g), arf(g), v2_skein(g))
        for _ in range(15):
            seen.add(engine.random_move(rng))
            g = engine.diagram()
            assert (v2_gauss(g), arf(g), v2_skein(g)) == ref
    assert seen == MOVE_KINDS



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
