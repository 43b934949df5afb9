"""Casson knot invariant (v2) by several independent methods.

The package computes the degree-2 Vassiliev invariant of a knot from

  * Gauss diagrams, by signed subdiagram counting (`v2_gauss`, `v2_sym`);
  * the descending-diagram rewriting algorithm (`v2_skein`);
  * Morse-theoretic formulas for generic plane projections (`v2_morse`);
  * associator counting on nonassociative tangle words (`v2_natangle`);
  * Monte Carlo evaluation of the configuration-space integral (`v2_mc`),

together with the Arf invariant, the crossing-number bound, Reidemeister
move engines, and random generators used by the cross-method test battery.
"""

from .diagram import (DiagramError, DisagreementError, GaussDiagram,
                      from_braid_word, parse_gauss_code, parse_pd_code,
                      torus_knot_2)
from .invariants import arf, check_bound, crossing_bound, v2_gauss, v2_sym
from .moves import MoveEngine, random_realizable
from .pairing import (XBWD, XDOWN, XFWD, XUP, X_ALL, ArrowPattern,
                      PatternCombination, bracket, unsigned_match_count)
from .plane import (GenericityError, PlaneCurve, PolyKnot, arnold_I,
                    decomposition_identity, polyknot_from_braid, project,
                    v2_morse, v2_morse_closed)
from .skein import v2_skein
from .tangle import (TangleError, TangleWord, gauss_of_tangle, parse_tangle,
                     random_tangle_word, v2_natangle, v2_natangle_closed)

__version__ = "0.1.0"

__all__ = [
    "DiagramError", "DisagreementError", "GaussDiagram", "from_braid_word",
    "parse_gauss_code", "parse_pd_code", "torus_knot_2",
    "arf", "check_bound", "crossing_bound", "v2_gauss", "v2_sym",
    "MoveEngine", "random_realizable",
    "XBWD", "XDOWN", "XFWD", "XUP", "X_ALL",
    "ArrowPattern", "PatternCombination", "bracket", "unsigned_match_count",
    "GenericityError", "PlaneCurve", "PolyKnot", "arnold_I",
    "decomposition_identity", "polyknot_from_braid", "project",
    "v2_morse", "v2_morse_closed",
    "v2_skein",
    "TangleError", "TangleWord", "gauss_of_tangle", "parse_tangle",
    "random_tangle_word", "v2_natangle", "v2_natangle_closed",
    "__version__",
]
