"""Command-line front end: invariant computation, generation, verification.

Subcommands:
    v2          compute v2 by one or all methods
    arf         Arf invariant
    bound       |v2| versus the floor(n^2/8) crossing bound
    gen         deterministic random realizable diagram
    moves-check invariance of v2/arf under random moves
    integrate   Monte Carlo configuration-space integral of a polygonal knot
    batch       CSV table of inputs, one result record per row

Exit codes: 0 success, 1 parse error, 2 validation/genericity error,
3 cross-method disagreement (always a bug).  The default seed is taken
from the CASSON_SEED environment variable when set; a value that is not an
integer is a parse error.  Tangle words are read as long knots.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import random
import sys

from .diagram import (DiagramError, DisagreementError, GaussDiagram,
                      from_braid_word, parse_gauss_code, parse_pd_code,
                      torus_knot_2)
from .invariants import arf, check_bound, crossing_bound, v2_gauss, v2_sym
from .moves import MoveEngine, random_braid_word, random_realizable
from .plane import GenericityError, PolyKnot, project, v2_morse, v2_morse_closed
from .skein import NotDescendingRealizable, v2_skein
from .tangle import (TangleError, TangleWord, gauss_of_tangle, parse_tangle,
                     v2_natangle, v2_natangle_closed)

SCHEMA_VERSION = 1

EXIT_PARSE = 1
EXIT_VALIDATION = 2
EXIT_DISAGREE = 3

_INTEGER_METHODS = ("gauss", "sym", "skein", "morse", "natangle")


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
    kinds = [k for k in ("gauss", "pd", "braid", "torus", "polyknot", "tangle")
             if getattr(args, k, None) is not None]
    if len(kinds) != 1:
        raise CliError("exactly one input flag required "
                       "(--gauss/--pd/--braid/--torus/--polyknot/--tangle)",
                       EXIT_PARSE)
    kind = kinds[0]
    payload = getattr(args, kind)
    return _build_input(kind, payload)


def _build_input(kind: str, payload: str) -> tuple[GaussDiagram, object]:
    try:
        if kind == "gauss":
            return parse_gauss_code(payload, shape="long"), None
        if kind == "pd":
            return parse_pd_code(payload), None
        if kind == "braid":
            return from_braid_word(payload), None
        if kind == "torus":
            return torus_knot_2(int(payload)), None
        if kind in ("polyknot", "tangle"):
            text = payload
            if os.path.exists(payload):
                with open(payload) as fh:
                    text = fh.read()
            if kind == "polyknot":
                curve = project(PolyKnot.from_json(text))
                return curve.gauss_diagram(), curve
            word = parse_tangle(text)
            return gauss_of_tangle(word), word
    except GenericityError as exc:
        raise CliError(f"input fails genericity: {exc}", EXIT_VALIDATION)
    except (DiagramError, TangleError, ValueError) as exc:
        what = "tangle input as a long knot" if kind == "tangle" \
            else f"{kind} input"
        raise CliError(f"cannot parse {what}: {exc}", EXIT_PARSE)
    raise CliError(f"unknown input kind {kind!r}", EXIT_PARSE)


def _run_method(method: str, diagram: GaussDiagram, source) -> dict:
    """One method's result record: value, or why it was skipped."""
    try:
        if method == "gauss":
            return {"value": v2_gauss(diagram)}
        if method == "sym":
            return {"value": v2_sym(diagram)}
        if method == "skein":
            return {"value": v2_skein(diagram)}
        if method == "morse":
            if source is None or isinstance(source, TangleWord):
                return {"skipped": "not applicable: input has no plane-curve "
                                   "geometry"}
            if source.shape == "long":
                return {"value": v2_morse(source)}
            return {"value": v2_morse_closed(source)}
        if method == "natangle":
            if not isinstance(source, TangleWord):
                return {"skipped": "not applicable: input is not a tangle word"}
            if source.shape == "long":
                return {"value": v2_natangle(source)}
            # unreachable while _build_input reads words as long; kept as
            # the binding that perfbench's tracer patches
            return {"value": v2_natangle_closed(source)}
    except GenericityError as exc:
        raise CliError(f"genericity failure in {method}: {exc}", EXIT_VALIDATION)
    except NotDescendingRealizable as exc:
        raise CliError(f"input is not a realizable diagram ({method}): {exc}",
                       EXIT_VALIDATION)
    except DisagreementError as exc:
        raise CliError(f"internal disagreement in method {method}: {exc}",
                       EXIT_DISAGREE)
    raise CliError(f"unknown method {method!r}", EXIT_PARSE)


def _v2_record(diagram: GaussDiagram, source, methods) -> dict:
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
        with open(out, "w") as fh:
            fh.write(text)
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
    methods = list(_INTEGER_METHODS) if args.method == "all" else [args.method]
    rec = _v2_record(diagram, source, methods)
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


def _cmd_gen(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    diagram = random_realizable(seed, args.letters, args.moves)
    _emit({"command": "gen", "seed": seed,
           "diagram": diagram.serialize(), "n_chords": diagram.n}, args)
    return 0


def _cmd_moves_check(args) -> int:
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
    from .mcint import v2_mc

    seed = args.seed if args.seed is not None else _default_seed()
    if args.samples < 1:
        raise CliError(f"--samples must be a positive integer, got "
                       f"{args.samples}", EXIT_VALIDATION)
    try:
        with open(args.knot) as fh:
            knot = PolyKnot.from_json(fh.read())
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot read knot file: {exc}", EXIT_PARSE)
    if knot.shape != "long":
        raise CliError("integrate needs a long knot, got a closed one",
                       EXIT_VALIDATION)
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
    with open(path, newline="") as fh:
        for i, row in enumerate(csv.reader(fh)):
            if not row or (i == 0 and [c.lower() for c in row[:3]]
                           == ["name", "kind", "payload"]):
                continue
            rec = {"name": row[0].strip() if row else f"row{i}"}
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
    except OSError as exc:
        raise CliError(f"unreadable table: {exc}", EXIT_PARSE)
    methods = list(_INTEGER_METHODS) if args.method == "all" else [args.method]
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
            diagram, source = _build_input(rec["kind"], rec["payload"])
            entry.update(_v2_record(diagram, source, methods))
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
    sub.add_argument("--gauss", help="Gauss code, e.g. 'O1+U2+O3+U1+O2+U3+'")
    sub.add_argument("--pd", help="PD code, e.g. 'X[1,5,2,4] X[3,1,4,6] ...'")
    sub.add_argument("--braid", help="braid word, e.g. 's1 s1 s1' or '1 1 1'")
    sub.add_argument("--torus", help="odd n for the (n,2) torus knot")
    sub.add_argument("--polyknot", help="PolyKnot JSON (inline or a file path)")
    sub.add_argument("--tangle", help="tangle word (inline or a file path)")


def _add_output_flags(sub):
    sub.add_argument("-o", "--output", help="write result to a file")
    sub.add_argument("--format", choices=("json", "tsv"), default="json")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="casson",
                                description="Casson knot invariant toolkit")
    subs = p.add_subparsers(dest="command", required=True)

    v2p = subs.add_parser("v2", help="compute v2")
    _add_input_flags(v2p)
    v2p.add_argument("--method", default="gauss",
                     choices=_INTEGER_METHODS + ("all",))
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
                    choices=_INTEGER_METHODS + ("all",))
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
