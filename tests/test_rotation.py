"""v2 does not depend on the projection direction.

The paper reads v2 as the degree of a map: a Gauss-diagram count is the
number of preimages of one regular value, one projection direction, and
every regular value gives the same integer.  So an exact rotation of a
polyknot, projected along z again, must give the unrotated value by every
method: gauss, sym and skein on the new Gauss diagram, and the Morse
formulas on the new plane curve.  A rotated projection that is not generic
is skipped and counted.

The rotations are Cayley transforms R = (I - A)^-1 (I + A) =
I + 2(A + A^2) / (1 + a^2 + b^2 + c^2) of the integer skew matrix A of
(a, b, c), so every entry is an exact Fraction.  Closed knots take any
(a, b, c); long knots take rotations about the y axis only (a = c = 0),
which keep both tails on the vertical axis.
"""

import random
from fractions import Fraction

from casson.invariants import v2_gauss, v2_sym
from casson.mcint import lk_combinatorial
from casson.moves import random_braid_word
from casson.plane import (GenericityError, PolyKnot, polyknot_from_braid,
                          project, v2_morse, v2_morse_closed)
from casson.skein import v2_skein

HOPF_A = [(1, -1, 0), (1, 1, 0), (-1, 1, 0), (-1, -1, 0)]
HOPF_B = [(0, -0.3, -1), (2, -0.3, -1), (2, 0.3, 1), (0, 0.3, 1)]


def rotation(a: int, b: int, c: int):
    """The Cayley rotation of the skew matrix of (a, b, c)."""
    A = ((0, -c, b), (c, 0, -a), (-b, a, 0))
    A2 = [[sum(A[i][k] * A[k][j] for k in range(3)) for j in range(3)]
          for i in range(3)]
    d = 1 + a * a + b * b + c * c
    return tuple(tuple((i == j) + Fraction(2 * (A[i][j] + A2[i][j]), d)
                       for j in range(3)) for i in range(3))


def rotate(R, points):
    return tuple(tuple(sum(r * Fraction(x) for r, x in zip(row, p))
                       for row in R) for p in points)


def values(knot: PolyKnot) -> tuple[int, int, int, int]:
    """(gauss, sym, skein, Morse) of the knot's projection along z."""
    curve = project(knot)
    g = curve.gauss_diagram()
    morse = v2_morse(curve) if knot.shape == "long" else v2_morse_closed(curve)
    return v2_gauss(g), v2_sym(g), v2_skein(g), morse


def _knots():
    rng = random.Random(9)
    closed = [polyknot_from_braid(random_braid_word(rng, rng.randint(4, 9)),
                                  closed=True) for _ in range(10)]
    long = [polyknot_from_braid(random_braid_word(rng, rng.randint(4, 9)))
            for _ in range(6)]
    return closed + long


def test_rotations_are_exact():
    for abc in ((1, 2, 3), (-7, 0, 5), (0, 4, 0)):
        R = rotation(*abc)
        for i in range(3):
            for j in range(3):
                assert sum(R[i][k] * R[j][k] for k in range(3)) == (i == j)
        det = sum(R[0][k] * (R[1][(k + 1) % 3] * R[2][(k + 2) % 3]
                             - R[1][(k + 2) % 3] * R[2][(k + 1) % 3])
                  for k in range(3))
        assert det == 1


def test_every_method_is_rotation_invariant():
    rng = random.Random(4)
    agreed = skipped = 0
    for knot in _knots():
        unrotated = values(knot)
        v2 = unrotated[0]
        assert unrotated == (v2,) * 4
        for _ in range(3):
            if knot.shape == "long":
                abc = (0, rng.choice([b for b in range(-7, 8) if b]), 0)
            else:
                abc = tuple(rng.randint(-7, 7) for _ in "abc")
            turned = PolyKnot(rotate(rotation(*abc), knot.vertices),
                              shape=knot.shape)
            try:
                got = values(turned)
            except GenericityError:
                skipped += 1
                continue
            assert got == (v2,) * 4, (knot.shape, abc)
            agreed += 1
    assert agreed + skipped == 48
    assert agreed >= 24, f"only {agreed} generic rotations, {skipped} skipped"


def test_linking_number_is_rotation_invariant():
    rng = random.Random(2)
    lk = lk_combinatorial(HOPF_A, HOPF_B)
    for _ in range(12):
        R = rotation(*(rng.randint(-7, 7) for _ in "abc"))
        assert lk_combinatorial(rotate(R, HOPF_A), rotate(R, HOPF_B)) == lk
