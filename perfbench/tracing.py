"""Span tracer for the traced benchmark pass.

The tracer replaces public casson functions at the module bindings their
callers use (``casson.cli.v2_gauss``, ``casson.invariants.bracket``, ...)
with wrappers that record a span: name, start, end, parent span and
operation id.  Spans stay in memory until the pass ends.  A span's self
time is its duration minus the time its child spans cover; a layer's self
time is the sum over its spans, the layer being the part of the span name
before the first dot, which is the casson module that does the work.
"""

from __future__ import annotations

import importlib
import math
import sys
import time
from collections import defaultdict


def _count_diagram(tracer, diagram, *args):
    tracer.counts["diagram.diagrams_built"] += 1
    tracer.counts["diagram.chords_built"] += diagram.n


def _count_subsets(tracer, _result, pattern, diagram):
    terms = getattr(pattern, "terms", ((1, pattern),))
    for _, pat in terms:
        tracer.counts["pairing.subsets_tried"] += math.comb(diagram.n, pat.arity)
        tracer.matched.append((pat, diagram))


def _count_flips(tracer, trace, *args):
    tracer.counts["skein.flips"] += len(trace.flips)


def _count_projection(tracer, curve, *args):
    edges = curve.n_edges
    tracer.counts["plane.edges"] += edges
    tracer.counts["plane.edge_pairs"] += edges * (edges - 1) // 2
    tracer.counts["plane.crossings"] += len(curve.crossings)


def _count_events(tracer, word, *args):
    tracer.counts["tangle.events"] += len(word.events)


def _count_mc(tracer, est, *args):
    tracer.counts["mcint.samples"] += est.samples
    tracer.counts["mcint.drawn"] += est.samples + est.rejected


# (module[:class], attribute, span name, counter run after the call returns)
PATCHES = (
    ("casson.cli", "main", "cli.main", None),
    ("casson.cli", "parse_gauss_code", "diagram.parse", None),
    ("casson.cli", "parse_pd_code", "diagram.parse", None),
    ("casson.cli", "from_braid_word", "diagram.parse", None),
    ("casson.cli", "torus_knot_2", "diagram.parse", None),
    ("casson.diagram:GaussDiagram", "from_endpoint_order",
     "diagram.from_endpoint_order", _count_diagram),
    ("casson.cli", "v2_gauss", "invariants.v2_gauss", None),
    ("casson.cli", "v2_sym", "invariants.v2_sym", None),
    ("casson.cli", "arf", "invariants.arf", None),
    ("casson.invariants", "bracket", "pairing.bracket", _count_subsets),
    ("casson.invariants", "unsigned_match_count",
     "pairing.unsigned_match_count", _count_subsets),
    ("casson.plane", "bracket", "pairing.bracket", _count_subsets),
    ("casson.tangle", "bracket", "pairing.bracket", _count_subsets),
    ("casson.cli", "v2_skein", "skein.v2_skein", None),
    ("casson.skein", "descend", "skein.descend", _count_flips),
    ("casson.plane:PolyKnot", "from_json", "plane.from_json", None),
    ("casson.cli", "project", "plane.project", _count_projection),
    ("casson.plane:PlaneCurve", "gauss_diagram", "plane.gauss_diagram", None),
    ("casson.plane", "morse_stats", "plane.morse_stats", None),
    ("casson.cli", "v2_morse", "plane.v2_morse", None),
    ("casson.cli", "v2_morse_closed", "plane.v2_morse", None),
    ("casson.cli", "parse_tangle", "tangle.parse", _count_events),
    ("casson.cli", "gauss_of_tangle", "tangle.gauss_of_tangle", None),
    ("casson.cli", "v2_natangle", "tangle.natangle", None),
    ("casson.cli", "v2_natangle_closed", "tangle.natangle", None),
    ("casson.mcint", "v2_mc", "mcint.v2_mc", _count_mc),
    ("casson.mcint", "linking_mc", "mcint.linking_mc", None),
    ("casson.mcint", "lk_combinatorial", "mcint.lk_combinatorial", None),
)

LAYERS = ("cli", "diagram", "invariants", "pairing", "skein", "plane",
          "tangle", "mcint")


class Tracer:
    """Records spans around the patched functions while installed."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, op]
        self.stack: list[int] = []
        self.op = -1
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.matched: list = []       # (pattern, diagram) of every bracket
        self._undo: list = []

    def wrap(self, fn, name: str, counter):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.op]
            spans.append(rec)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if counter is not None:
                counter(self, result, *args)
            return result

        return traced

    def install(self):
        """Patch every binding whose module is already imported."""
        for target, attr, name, counter in PATCHES:
            modname, _, clsname = target.partition(":")
            if modname not in sys.modules:
                continue
            owner = importlib.import_module(modname)
            if clsname:
                owner = getattr(owner, clsname)
            raw = vars(owner)[attr]
            if isinstance(raw, staticmethod):
                new = staticmethod(self.wrap(raw.__func__, name, counter))
            else:
                new = self.wrap(raw, name, counter)
            self._undo.append((owner, attr, raw))
            setattr(owner, attr, new)

    def uninstall(self):
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()

    def self_times(self) -> tuple[dict, dict, dict]:
        """(duration by span name, self time by span name, self by layer)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        dur, own, layer = defaultdict(float), defaultdict(float), \
            defaultdict(float)
        for (name, start, end, _, _), covered in zip(self.spans, child):
            dur[name] += end - start
            own[name] += end - start - covered
            layer[name.split(".", 1)[0]] += end - start - covered
        return dur, own, layer

    def match_count(self) -> int:
        """Matching subsets over every recorded bracket call, counted with
        the unpatched unsigned_match_count after the traced pass."""
        from casson.pairing import unsigned_match_count
        memo: dict = {}
        total = 0
        for pat, diagram in self.matched:
            key = (pat.slots, diagram.serialize())
            if key not in memo:
                memo[key] = unsigned_match_count(pat, diagram)
            total += memo[key]
        return total

    def metrics(self) -> dict:
        """Per-layer metrics of the traced pass: name -> (value, unit)."""
        dur, own, layer = self.self_times()
        c = self.counts
        tried = c["pairing.subsets_tried"]
        pairs = c["plane.edge_pairs"]
        drawn = c["mcint.drawn"]
        out = {f"{name}.self_s": (layer[name], "s") for name in LAYERS}
        out.update({
            "diagram.diagrams_built": (c["diagram.diagrams_built"], "count"),
            "diagram.chords_built": (c["diagram.chords_built"], "count"),
            "invariants.v2_gauss_s": (dur["invariants.v2_gauss"], "s"),
            "invariants.v2_sym_s": (dur["invariants.v2_sym"], "s"),
            "invariants.arf_s": (dur["invariants.arf"], "s"),
            "pairing.bracket_self_s": (own["pairing.bracket"], "s"),
            "pairing.subsets_tried": (tried, "count"),
            "pairing.match_ratio": (self.match_count() / tried if tried
                                    else 0.0, "1"),
            "skein.descend_s": (dur["skein.descend"], "s"),
            "skein.flips": (c["skein.flips"], "count"),
            "plane.from_json_s": (dur["plane.from_json"], "s"),
            "plane.project_s": (dur["plane.project"], "s"),
            "plane.edges": (c["plane.edges"], "count"),
            "plane.edge_pairs": (pairs, "count"),
            "plane.crossings": (c["plane.crossings"], "count"),
            "plane.crossing_ratio": (c["plane.crossings"] / pairs if pairs
                                     else 0.0, "1"),
            "plane.gauss_diagram_s": (dur["plane.gauss_diagram"], "s"),
            "plane.morse_s": (dur["plane.morse_stats"], "s"),
            "tangle.parse_s": (dur["tangle.parse"], "s"),
            "tangle.events": (c["tangle.events"], "count"),
            "tangle.natangle_self_s": (own["tangle.natangle"], "s"),
            "mcint.v2_mc_s": (dur["mcint.v2_mc"], "s"),
            "mcint.samples": (c["mcint.samples"], "count"),
            "mcint.accept_ratio": (c["mcint.samples"] / drawn if drawn
                                   else 0.0, "1"),
            "mcint.linking_mc_s": (dur["mcint.linking_mc"], "s"),
            "mcint.lk_combinatorial_s": (dur["mcint.lk_combinatorial"], "s"),
        })
        return out
