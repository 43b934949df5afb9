"""v2, Arf and the crossing-number bound via the pairing bracket.

`x_counts`, `v2_long` and `v2_closed` are the formula core of the Morse
(`plane`) and associator (`tangle`) methods, which differ only in the index
terms they pass in.
"""

from __future__ import annotations

from fractions import Fraction

from .diagram import DisagreementError, GaussDiagram
from .pairing import XUP, XDOWN, bracket, unsigned_match_count

__all__ = ["v2_gauss", "v2_sym", "arf", "check_bound", "cross_sign", "x_counts",
           "v2_long", "v2_closed"]


def v2_gauss(diagram: GaussDiagram) -> int:
    """Casson invariant as the signed count of xup subdiagrams."""
    return bracket(XUP, diagram)


def v2_sym(diagram: GaussDiagram) -> int:
    """The all-arrows-inverted form; equals v2_gauss on realizable diagrams."""
    return bracket(XDOWN, diagram)


def arf(diagram: GaussDiagram) -> int:
    """Arf invariant: the number of xup subdiagrams mod 2, signs ignored."""
    return unsigned_match_count(XUP, diagram) % 2


def crossing_bound(n: int) -> int:
    return n * n // 8


def check_bound(diagram: GaussDiagram) -> tuple[int, int, bool]:
    """(v2, floor(n^2/8), |v2| <= bound).  A False flag signals a bug."""
    v2 = v2_gauss(diagram)
    bound = crossing_bound(diagram.n)
    return v2, bound, abs(v2) <= bound


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def cross_sign(a, b) -> int:
    """Sign of the plane cross product a x b of two direction vectors."""
    return _sign(a[0] * b[1] - a[1] * b[0])


def x_counts(pairs) -> tuple[int, int]:
    """(X, X+) of double points given as (first, second) passage directions.

    X counts the double points whose two passages have the same vertical
    direction; X+ those among them where that direction's sign equals the
    sign of d1 x d2.  X- is X - X+.
    """
    X = Xplus = 0
    for d1, d2 in pairs:
        s = _sign(d1[1])
        if s == _sign(d2[1]):
            X += 1
            Xplus += s * cross_sign(d1, d2) > 0
    return X, Xplus


def v2_long(name: str, b: int, k: tuple[int, int, int], X: int, Xplus: int,
            M: int) -> int:
    """v2 of a long knot by three formulas that must agree exactly:

        b/2 + k1/4 + (X - M)/4,   b/2 + k2/4 + X+/2,   b/2 + k3/4 + X-/2

    b is the fwd/bwd-pattern bracket, k the method's three index terms and M
    the number of maxima.  DisagreementError, naming `name`, when the values
    differ or their common value is not an integer.
    """
    k1, k2, k3 = k
    values = (Fraction(2 * b + k1 + X - M, 4),
              Fraction(2 * b + k2 + 2 * Xplus, 4),
              Fraction(2 * b + k3 + 2 * (X - Xplus), 4))
    if len(set(values)) != 1:
        raise DisagreementError(f"{name}: formulas disagree: "
                                f"{' '.join(map(str, values))}")
    return _integral(name, values[0])


def v2_closed(name: str, b_all: int, k: int, X: int, M: int) -> int:
    """v2 of a closed knot: b_all/4 + k/24 + X/8 - M/24 + 1/24, with b_all the
    bracket of all four interlocked patterns and k the method's index term."""
    return _integral(name, Fraction(6 * b_all + k + 3 * X - M + 1, 24))


def _integral(name: str, value: Fraction) -> int:
    if value.denominator != 1:
        raise DisagreementError(f"{name}: non-integral value {value}")
    return int(value)
