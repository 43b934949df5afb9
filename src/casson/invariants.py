"""v2, Arf and the crossing-number bound via the pairing bracket."""

from __future__ import annotations

from dataclasses import dataclass, asdict

from .diagram import GaussDiagram
from .pairing import XUP, XDOWN, bracket, unsigned_match_count

__all__ = ["InvariantReport", "v2_gauss", "v2_sym", "arf", "check_bound", "report"]


@dataclass(frozen=True)
class InvariantReport:
    v2: int
    arf: int
    n: int
    bound: int
    method: str

    def to_dict(self) -> dict:
        return asdict(self)


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


def report(diagram: GaussDiagram, method: str = "gauss") -> InvariantReport:
    from .skein import v2_skein

    if method == "gauss":
        v2 = v2_gauss(diagram)
    elif method == "sym":
        v2 = v2_sym(diagram)
    elif method == "skein":
        v2 = v2_skein(diagram)
    else:
        raise ValueError(f"unknown method {method!r}")
    return InvariantReport(v2=v2, arf=arf(diagram), n=diagram.n,
                           bound=crossing_bound(diagram.n), method=method)
