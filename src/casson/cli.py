"""Command-line front end: invariant computation, generation, verification.

Subcommands:
    v2          compute v2 by one or all methods
    arf         Arf invariant
    bound       |v2| versus the floor(n^2/8) crossing bound
    gen         deterministic random realizable diagram
    moves-check invariance of v2/arf under random moves
    integrate   Monte Carlo configuration-space integral of a polygonal knot
    batch       CSV table of inputs, one result record per row

Exit codes: 0 success, 1 parse error, 2 validation/genericity error (among
them an input over MAX_CHARS characters or MAX_CHORDS chords, a polyknot or
`integrate --knot` over MAX_VERTICES vertices, a tangle word over MAX_EVENTS
events, a `gen` or `moves-check` run whose --letters + 2 * --moves exceeds
MAX_CHORDS, and an `integrate` run over MAX_SAMPLES samples), 3 cross-method
disagreement (always a bug).  The default seed is taken from the CASSON_SEED
environment variable when set; a value that is not an integer is a parse
error.  Tangle words are read as long knots.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import random
import sys

from .diagram import (DiagramError, DisagreementError, GaussDiagram,
                      from_braid_word, parse_gauss_code, parse_pd_code,
                      torus_knot_2)
from .invariants import arf, check_bound, v2_gauss, v2_sym
from .moves import MoveEngine, random_braid_word, random_realizable
from .plane import (GenericityError, PlaneCurve, PolyKnot, project, v2_morse,
                    v2_morse_closed)
from .skein import NotDescendingRealizable, v2_skein
from .tangle import (TangleError, TangleWord, gauss_of_tangle, parse_tangle,
                     v2_natangle, v2_natangle_closed)

SCHEMA_VERSION = 1

EXIT_PARSE = 1
EXIT_VALIDATION = 2
EXIT_DISAGREE = 3

# Most chords an input may have: the skein descent is quadratic, and
# T(10001,2) already takes seconds under --method all.
MAX_CHORDS = 20001

# Most vertices a polyknot input may have: the Morse indices take one O(E)
# pass per double point and extremum, so the chord cap alone does not bound
# a polyknot run.  A 4000-vertex zigzag with 19740 crossings takes about
# 7 minutes under --method all on a 2-vCPU machine.  It caps `integrate` too:
# its sampling does not grow with the vertices, but its exact parse does.
MAX_VERTICES = 4000

# Most events a tangle word may have, counted as parse_tangle counts them
# (lines that are not blank or comments) before any is parsed: tracing
# keeps about 0.55 KB an event.  A random word has about two events a
# chord, so this leaves room for words at the chord cap.
MAX_EVENTS = 100_000

# Most characters an input text may have; a file is read no further than the
# cap + 1, as parsing takes about 8x a text's size in memory.  A 3972-vertex
# braid polyknot is 108 KB, T(20001,2)'s Gauss code 257,802 characters, and a
# random tangle word 8.6 B an event (0.9 MB at the event cap).
MAX_CHARS = 1 << 21

# Most samples `integrate` may draw: 10**7 take about 2.1 s on a 2-vCPU
# machine, so the cap is minutes.  It is here and not in mcint, whose numpy
# import the other commands do not pay for.
MAX_SAMPLES = 10**9

# Sizes of knot that `integrate` samples correctly.  mcint works in doubles,
# on a knot of diameter D: its tails reach 1e12 D past the ends, with
# derivatives up to 1e24 D times the slot count; the fourth stratum's line
# reaches 1e9 times further, so distances run up to about 2e21 D; and a
# sample closer than 1e-6 D to a coincidence is rejected.  The kernel cubes
# distances, and the cubes stay normal doubles (2.2e-308 to 1.8e308) for D
# from 2.8e-97 to 2.8e81; so do its products of one distance and two
# derivatives, up to 4000 vertices.  The bounds keep a margin.  A coordinate
# over MAX_EXTENT is refused too: it may not even convert to a double.
MIN_EXTENT, MAX_EXTENT = 1e-90, 1e80

KINDS = {
    "gauss": "Gauss code, e.g. 'O1+U2+O3+U1+O2+U3+'",
    "pd": "PD code, e.g. 'X[1,5,2,4] X[3,1,4,6] ...'",
    "braid": "braid word, e.g. 's1 s1 s1' or '1 1 1'",
    "torus": "odd n for the (n,2) torus knot",
    "polyknot": "PolyKnot JSON (inline or a file path)",
    "tangle": "tangle word (inline or a file path)",
}

# name -> (source type needed, or None for any diagram; skip reason without
# it; run(diagram, source)).  The callables look their functions up in this
# module at call time, so a function rebound here (by a tracer) is what runs.
METHODS = {
    "gauss": (None, None, lambda g, s: v2_gauss(g)),
    "sym": (None, None, lambda g, s: v2_sym(g)),
    "skein": (None, None, lambda g, s: v2_skein(g)),
    "morse": (PlaneCurve, "not applicable: input has no plane-curve geometry",
              lambda g, s: v2_morse(s) if s.shape == "long"
              else v2_morse_closed(s)),
    "natangle": (TangleWord, "not applicable: input is not a tangle word",
                 lambda g, s: v2_natangle(s) if s.shape == "long"
                 else v2_natangle_closed(s)),
}


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _default_seed() -> int:
    value = os.environ.get("CASSON_SEED", "0")
    try:
        return int(value)
    except ValueError:
        raise CliError(f"CASSON_SEED must be an integer, got {value!r}",
                       EXIT_PARSE) from None


def _parse_input(args) -> tuple[GaussDiagram, object]:
    """(diagram, geometric source or None) for the selected input flag."""
    kinds = [k for k in KINDS if getattr(args, k, None) is not None]
    if len(kinds) != 1:
        raise CliError("exactly one input flag required "
                       f"({'/'.join('--' + k for k in KINDS)})", EXIT_PARSE)
    payload = getattr(args, kinds[0])
    if not isinstance(payload, str):
        # argparse reads `--gauss=--` as an empty list, not as "--"
        raise CliError(f"--{kinds[0]} needs a value", EXIT_PARSE)
    return _read_input(kinds[0], payload)


def _check_limit(kind: str, n: int, unit: str, cap: int) -> None:
    if n > cap:
        raise CliError(f"{kind} input has {n} {unit}, more than the limit of "
                       f"{cap}", EXIT_VALIDATION)


def _read_text(kind: str, payload: str, is_path: bool) -> str:
    """The payload or the file it names, if at most MAX_CHARS characters."""
    if is_path:
        with open(payload) as fh:
            payload = fh.read(MAX_CHARS + 1)
    _check_limit(kind, len(payload), "characters or more", MAX_CHARS)
    return payload


def _polyknot(text: str) -> PolyKnot:
    knot = PolyKnot.from_json(text)
    _check_limit("polyknot", len(knot.vertices), "vertices", MAX_VERTICES)
    return knot


def _check_extent(knot: PolyKnot) -> None:
    """Exit 2 unless the knot's diameter, computed exactly, and every
    coordinate are in the range `integrate` samples correctly."""
    spans = [max(c) - min(c) for c in zip(*knot.vertices)]
    if not (MIN_EXTENT ** 2 <= sum(s * s for s in spans) <= MAX_EXTENT ** 2
            and all(abs(c) <= MAX_EXTENT for v in knot.vertices for c in v)):
        raise CliError(f"integrate needs a knot diameter from {MIN_EXTENT:g} "
                       f"to {MAX_EXTENT:g} and coordinates of at most "
                       f"{MAX_EXTENT:g}, which its doubles hold", EXIT_VALIDATION)


def _read_input(kind: str, payload: str) -> tuple[GaussDiagram, object]:
    """(diagram, source) of one payload: read, size-checked and parsed."""
    if kind not in KINDS:
        raise CliError(f"unknown input kind {kind!r}", EXIT_PARSE)
    try:
        text = _read_text(kind, payload, kind in ("polyknot", "tangle")
                          and os.path.exists(payload))
        if kind == "gauss":
            diagram, source = parse_gauss_code(text), None
        elif kind == "pd":
            diagram, source = parse_pd_code(text), None
        elif kind == "braid":
            diagram, source = from_braid_word(text), None
        elif kind == "torus":
            n = int(text)
            _check_limit(kind, n, "chords", MAX_CHORDS)
            diagram, source = torus_knot_2(n), None
        elif kind == "polyknot":
            source = project(_polyknot(text))
            diagram = source.gauss_diagram()
        else:
            events = sum(1 for line in text.splitlines()
                         if line.split("#")[0].strip())
            _check_limit(kind, events, "events", MAX_EVENTS)
            source = parse_tangle(text)
            diagram = gauss_of_tangle(source)
    except GenericityError as exc:
        raise CliError(f"input fails genericity: {exc}", EXIT_VALIDATION)
    except (DiagramError, TangleError, ValueError, OSError) as exc:
        what = " as a long knot" if kind == "tangle" else ""
        raise CliError(f"cannot parse {kind} input{what}: {exc}", EXIT_PARSE)
    _check_limit(kind, diagram.n, "chords", MAX_CHORDS)
    return diagram, source


def _run_method(method: str, diagram: GaussDiagram, source) -> dict:
    """One method's result record: value, or why it was skipped."""
    needs, skipped, run = METHODS[method]
    if needs is not None and not isinstance(source, needs):
        return {"skipped": skipped}
    try:
        return {"value": run(diagram, source)}
    except GenericityError as exc:
        raise CliError(f"genericity failure in {method}: {exc}", EXIT_VALIDATION)
    except NotDescendingRealizable as exc:
        raise CliError(f"input is not a realizable diagram ({method}): {exc}",
                       EXIT_VALIDATION)
    except DisagreementError as exc:
        raise CliError(f"internal disagreement in method {method}: {exc}",
                       EXIT_DISAGREE)


def _v2_record(diagram: GaussDiagram, source, method: str) -> dict:
    """Results of one method, or of every method for "all"."""
    methods = METHODS if method == "all" else [method]
    results = {m: _run_method(m, diagram, source) for m in methods}
    values = {m: r["value"] for m, r in results.items() if "value" in r}
    agree = len(set(values.values())) <= 1
    rec = {"methods": results, "agreement": agree,
           "n_chords": diagram.n}
    if values:
        rec["v2"] = next(iter(values.values()))
    return rec


def _emit(payload: dict, args) -> None:
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    if getattr(args, "format", "json") == "tsv":
        text = _to_tsv(payload)
    else:
        text = json.dumps(payload, indent=2) + "\n"
    out = getattr(args, "output", None)
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise CliError(f"cannot write output: {exc}", EXIT_PARSE)
    else:
        sys.stdout.write(text)


def _to_tsv(payload: dict) -> str:
    def flat(prefix, obj, rows):
        if isinstance(obj, dict):
            for k, v in obj.items():
                flat(f"{prefix}.{k}" if prefix else str(k), v, rows)
        elif isinstance(obj, list):
            rows.append((prefix, json.dumps(obj)))
        else:
            rows.append((prefix, obj))
        return rows

    return "".join(f"{k}\t{v}\n" for k, v in flat("", payload, []))


# ---------------------------------------------------------------------------
# subcommands

def _cmd_v2(args) -> int:
    diagram, source = _parse_input(args)
    rec = _v2_record(diagram, source, args.method)
    _emit({"command": "v2", **rec}, args)
    return 0 if rec["agreement"] else EXIT_DISAGREE


def _cmd_arf(args) -> int:
    diagram, _ = _parse_input(args)
    _emit({"command": "arf", "arf": arf(diagram), "n_chords": diagram.n}, args)
    return 0


def _cmd_bound(args) -> int:
    diagram, _ = _parse_input(args)
    v2, bound, ok = check_bound(diagram)
    _emit({"command": "bound", "v2": v2, "bound": bound,
           "within_bound": ok, "sharp": abs(v2) == bound,
           "n_chords": diagram.n}, args)
    return 0 if ok else EXIT_DISAGREE


def _check_count(flag: str, value: int, least: int = 0) -> None:
    if value < least:
        kind = "positive" if least else "non-negative"
        raise CliError(f"{flag} must be a {kind} integer, got {value}",
                       EXIT_VALIDATION)


def _check_generation(args) -> None:
    """--letters and --moves of `gen` and `moves-check`: each move adds at
    most two chords, so a run builds at most letters + 2 * moves of them."""
    _check_count("--letters", args.letters)
    _check_count("--moves", args.moves)
    most = args.letters + 2 * args.moves
    if most > MAX_CHORDS:
        raise CliError(f"--letters + 2 * --moves is {most}, more than the "
                       f"limit of {MAX_CHORDS} chords", EXIT_VALIDATION)


def _cmd_gen(args) -> int:
    _check_generation(args)
    seed = args.seed if args.seed is not None else _default_seed()
    diagram = random_realizable(seed, args.letters, args.moves)
    _emit({"command": "gen", "seed": seed,
           "diagram": diagram.serialize(), "n_chords": diagram.n}, args)
    return 0


def _cmd_moves_check(args) -> int:
    _check_generation(args)
    seed = args.seed if args.seed is not None else _default_seed()
    rng = random.Random(seed)
    word = random_braid_word(rng, args.letters)
    engine = MoveEngine(word=word)
    start = engine.diagram()
    ref = (v2_gauss(start), arf(start))
    history = []
    for _ in range(args.moves):
        history.append(engine.random_move(rng))
        g = engine.diagram()
        now = (v2_gauss(g), arf(g))
        if now != ref:
            _emit({"command": "moves-check", "seed": seed, "ok": False,
                   "expected": list(ref), "got": list(now),
                   "history": history}, args)
            return EXIT_DISAGREE
    _emit({"command": "moves-check", "seed": seed, "ok": True,
           "moves": history, "v2": ref[0], "arf": ref[1]}, args)
    return 0


def _cmd_integrate(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    _check_count("--samples", args.samples, least=1)
    if args.samples > MAX_SAMPLES:
        raise CliError(f"--samples is {args.samples}, more than the limit of "
                       f"{MAX_SAMPLES}", EXIT_VALIDATION)
    try:
        knot = _polyknot(_read_text("polyknot", args.knot, True))
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot read knot file: {exc}", EXIT_PARSE)
    if knot.shape != "long":
        raise CliError("integrate needs a long knot, got a closed one",
                       EXIT_VALIDATION)
    _check_extent(knot)
    from .mcint import v2_mc  # numpy: paid only by a run that samples

    est = v2_mc(knot, args.samples, seed)
    rec = {"command": "integrate", "value": est.value, "samples": est.samples,
           "seed": est.seed, "rejected": est.rejected}
    if args.report_variance:
        rec["std_error"] = est.std_error
    _emit(rec, args)
    return 0


def ingest_csv(path: str) -> list[dict]:
    """Rows of name,kind,payload; per-row errors recorded, not fatal."""
    records = []
    csv.field_size_limit(MAX_CHARS + 1)  # one past the cap gets the cap line
    with open(path, newline="") as fh:
        for i, row in enumerate(csv.reader(fh)):
            if not row or (i == 0 and [c.lower() for c in row[:3]]
                           == ["name", "kind", "payload"]):
                continue
            rec = {"name": row[0].strip()}
            if len(row) < 3:
                rec["error"] = "need columns name,kind,payload"
            else:
                rec["kind"] = row[1].strip()
                rec["payload"] = row[2].strip()
            records.append(rec)
    return records


def _cmd_batch(args) -> int:
    try:
        records = ingest_csv(args.table)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise CliError(f"unreadable table: {exc}", EXIT_PARSE)
    out = []
    any_disagree = False
    for rec in records:
        entry = {"name": rec.get("name")}
        if "error" in rec:
            entry["error"] = rec["error"]
            out.append(entry)
            continue
        entry.update({"kind": rec["kind"], "payload": rec["payload"]})
        try:
            diagram, source = _read_input(rec["kind"], rec["payload"])
            entry.update(_v2_record(diagram, source, args.method))
            if not entry["agreement"]:
                any_disagree = True
        except CliError as exc:
            entry["error"] = str(exc)
            any_disagree |= exc.code == EXIT_DISAGREE
        out.append(entry)
    _emit({"command": "batch", "records": out}, args)
    return EXIT_DISAGREE if any_disagree else 0


# ---------------------------------------------------------------------------

def _add_input_flags(sub):
    for kind, help in KINDS.items():
        sub.add_argument(f"--{kind}", help=help)


def _add_output_flags(sub):
    sub.add_argument("-o", "--output", help="write result to a file")
    sub.add_argument("--format", choices=("json", "tsv"), default="json")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it:
    parsing keeps no state in it, and seeds are read at command time."""
    p = argparse.ArgumentParser(prog="casson",
                                description="Casson knot invariant toolkit")
    subs = p.add_subparsers(dest="command", required=True)

    v2p = subs.add_parser("v2", help="compute v2")
    _add_input_flags(v2p)
    v2p.add_argument("--method", default="gauss",
                     choices=(*METHODS, "all"))
    _add_output_flags(v2p)
    v2p.set_defaults(func=_cmd_v2)

    arfp = subs.add_parser("arf", help="Arf invariant")
    _add_input_flags(arfp)
    _add_output_flags(arfp)
    arfp.set_defaults(func=_cmd_arf)

    bp = subs.add_parser("bound", help="crossing-number bound check")
    _add_input_flags(bp)
    _add_output_flags(bp)
    bp.set_defaults(func=_cmd_bound)

    gp = subs.add_parser("gen", help="random realizable diagram")
    gp.add_argument("--seed", type=int, default=None)
    gp.add_argument("--letters", type=int, default=12)
    gp.add_argument("--moves", type=int, default=8)
    _add_output_flags(gp)
    gp.set_defaults(func=_cmd_gen)

    mp = subs.add_parser("moves-check", help="move-invariance self test")
    mp.add_argument("--seed", type=int, default=None)
    mp.add_argument("--letters", type=int, default=10)
    mp.add_argument("--moves", type=int, default=20)
    _add_output_flags(mp)
    mp.set_defaults(func=_cmd_moves_check)

    ip = subs.add_parser("integrate", help="Monte Carlo v2 integral")
    ip.add_argument("--knot", required=True, help="PolyKnot JSON file")
    ip.add_argument("--samples", type=int, default=1_000_000)
    ip.add_argument("--seed", type=int, default=None)
    ip.add_argument("--report-variance", action="store_true")
    _add_output_flags(ip)
    ip.set_defaults(func=_cmd_integrate)

    bt = subs.add_parser("batch", help="process a CSV table")
    bt.add_argument("table", help="CSV with columns name,kind,payload")
    bt.add_argument("--method", default="all",
                    choices=(*METHODS, "all"))
    _add_output_flags(bt)
    bt.set_defaults(func=_cmd_batch)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except CliError as exc:
        print(f"casson: {exc}", file=sys.stderr)
        return exc.code
    except (DiagramError, TangleError) as exc:
        print(f"casson: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except GenericityError as exc:
        print(f"casson: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
