"""Seeded inputs for the benchmark workloads, and the checks on their results.

Every input reaches the program as text: an argument list for
``casson.cli.main`` or, for the linking integral, vertex lists for
``casson.mcint.linking_mc``.  The generators (``casson.moves``,
``polyknot_from_braid``, ``random_tangle_word``) run here, before any timing.

An operation is a dict:

    {"calls": [argv, ...], "check": <kind>, "v2": <exact value or None>}
    {"link": {"a": [...], "b": [...], "samples": n, "seed": s}, "check": "link"}

An argv element of the form ``@name`` stands for the path of the knot file
``name`` from the workload's file table; the runner writes those files into
a scratch directory and substitutes the paths.

``PYTHONPATH=src python3 perfbench/corpus.py SEEDS...`` prints the digest
of every workload's inputs for those seeds in the format of
``digests.json``, the frozen table that run.py checks each corpus against.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import sys

from casson.moves import random_braid_word, random_realizable
from casson.plane import polyknot_from_braid
from casson.tangle import parse_tangle, random_tangle_word

# The named knots of tests/test_diagram.py: the trefoil and its mirror image,
# both with v2 = 1.
NAMED_PD = (("X[1,5,2,4] X[3,1,4,6] X[5,3,6,2]", 1),
            ("X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]", 1))

# Long polyknots with known v2 for the integral workload.
INTEGRAL_KNOTS = (("3_1", [1, 1, 1], 1),
                  ("4_1", [1, -2, 1, -2], -1),
                  ("7_2", [1] * 7, 6))
MC_SEEDS = (1, 2, 3, 4, 5)
MC_SAMPLES = 500_000
LINK_SAMPLES = 1_000_000
LINK_OPS = 3

# The Hopf pair of acceptance criterion 10; its linking number is 1.
HOPF_A = [[1, -1, 0], [1, 1, 0], [-1, 1, 0], [-1, -1, 0]]
HOPF_B = [[0, 0.3, 1], [2, 0.3, 1], [2, -0.3, -1], [0, -0.3, -1]]
HOPF_LK = 1

# Inputs of each of the six CLI input kinds in the census.
CENSUS_PER_KIND = 167

# Ladder sizes.  Chord counts are held within a few percent of a target so
# that the O(n^2) kernels cost about the same for every seed.
LADDER_TORUS = (41, 161, 321)
LADDER_GAUSS_CHORDS = (100, 150, 150, 200)
LADDER_TANGLE_EVENTS = 100
LADDER_TANGLE_CHORDS = (275, 305)


def braid_text(word: list[int]) -> str:
    return " ".join(("s" if a > 0 else "-s") + str(abs(a)) for a in word)


def tangle_text(word) -> str:
    """Render a TangleWord in the line grammar that casson.tangle parses."""
    lines = []
    for ev in word.events:
        if ev.kind in ("min", "max"):
            lines.append(f"{ev.kind.upper()}@{ev.pos}:{ev.orient}")
        elif ev.kind == "cross":
            lines.append(f"X@{ev.pos}:{'+' if ev.sign > 0 else '-'}:"
                         f"{'o' if ev.left_over else 'u'}")
        else:
            lines.append(f"A@{ev.pos}:{ev.side}")
    text = "\n".join(lines) + "\n"
    if parse_tangle(text, word.shape).events != word.events:
        raise RuntimeError("tangle word does not survive its rendering")
    return text


def _v2_op(flag: str, payload: str, v2: int | None = None) -> dict:
    return {"calls": [["v2", f"{flag}={payload}", "--method", "all"]],
            "check": "v2", "v2": v2}


def _torus_v2(n: int) -> int:
    return (n * n - 1) // 8


def census(seed: int) -> tuple[list[dict], dict]:
    """Small inputs of every CLI input kind, the same number of each, in
    shuffled order.

    The mix is not measured traffic: equal counts give no kind more weight
    than another by assumption, and run.py records each kind's mean latency
    so that a regression in one kind shows whatever its share of the time.
    Sizes cycle over each kind's range and only the inputs themselves are
    random, so every seed does about the same work.
    """
    rng = random.Random(f"census/{seed}")
    ops = []
    for i in range(CENSUS_PER_KIND):
        ops.append(_v2_op("--braid", braid_text(
            random_braid_word(rng, 3 + i % 18))))
    for i in range(CENSUS_PER_KIND):
        sub = rng.randrange(1 << 30)
        g = random_realizable(sub, 8 + i % 14, 4 + i % 5)
        if g.n > 40:
            g = random_realizable(sub, 8, 3)
        ops.append(_v2_op("--gauss", g.serialize()))
    for i in range(CENSUS_PER_KIND):
        pd, v2 = NAMED_PD[i % len(NAMED_PD)]
        ops.append(_v2_op("--pd", pd, v2))
    for i in range(CENSUS_PER_KIND):
        n = 3 + 2 * (i % 7)
        ops.append(_v2_op("--torus", str(n), _torus_v2(n)))
    for i in range(CENSUS_PER_KIND):
        word = random_braid_word(rng, 3 + i % 6)
        ops.append(_v2_op("--polyknot", polyknot_from_braid(word).to_json()))
    for _ in range(CENSUS_PER_KIND):
        word = random_tangle_word(rng.randrange(1 << 30), 12)
        ops.append(_v2_op("--tangle", tangle_text(word)))
    rng.shuffle(ops)
    return ops, {}


def _ladder_op(flag: str, payload: str, v2: int | None = None) -> dict:
    arg = f"{flag}={payload}"
    return {"calls": [["v2", arg, "--method", "all"], ["arf", arg]],
            "check": "v2_arf", "v2": v2}


def ladder(seed: int) -> tuple[list[dict], dict]:
    """Large torus knots, random realizable diagrams and a tangle word."""
    rng = random.Random(f"ladder/{seed}")
    ops = [_ladder_op("--torus", str(n), _torus_v2(n)) for n in LADDER_TORUS]
    for target in LADDER_GAUSS_CHORDS:
        while True:
            g = random_realizable(rng.randrange(1 << 30), target, 12)
            if abs(g.n - target) <= 3:
                break
        ops.append(_ladder_op("--gauss", g.serialize()))
    lo, hi = LADDER_TANGLE_CHORDS
    while True:
        word = random_tangle_word(rng.randrange(1 << 30), LADDER_TANGLE_EVENTS)
        if lo <= len(word.crossings) <= hi:
            break
    ops.append(_ladder_op("--tangle", tangle_text(word)))
    rng.shuffle(ops)
    return ops, {}


def integral(seed: int) -> tuple[list[dict], dict]:
    """Monte Carlo v2 of three knots at fixed seeds, plus the Hopf linking.

    The integrate seeds are the same for every workload seed: the integrand
    is heavy-tailed, so the error metric compares like with like only on a
    fixed sample stream.  The workload seed picks the linking seeds and the
    order of the operations.
    """
    rng = random.Random(f"integral/{seed}")
    files = {}
    ops = []
    for name, word, v2 in INTEGRAL_KNOTS:
        files[name] = polyknot_from_braid(word).to_json()
        for mc_seed in MC_SEEDS:
            ops.append({"calls": [["integrate", "--knot", "@" + name,
                                   "--samples", str(MC_SAMPLES),
                                   "--seed", str(mc_seed),
                                   "--report-variance"]],
                        "check": "integrate", "v2": v2, "knot": name})
    for _ in range(LINK_OPS):
        ops.append({"link": {"a": HOPF_A, "b": HOPF_B,
                             "samples": LINK_SAMPLES,
                             "seed": rng.randrange(1 << 30)},
                    "check": "link"})
    rng.shuffle(ops)
    return ops, files


WORKLOADS = {"census": census, "ladder": ladder, "integral": integral}


def digest(ops: list[dict], files: dict) -> str:
    """SHA-256 of the serialized inputs of one workload and seed."""
    blob = json.dumps({"ops": ops, "files": files}, sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# ---------------------------------------------------------------------------
# checks, applied after the timed loop

def _parse(call) -> dict:
    rc, out, err = call
    if rc != 0:
        raise ValueError(f"exit code {rc}: {err.strip()[:200]}")
    return json.loads(out)


def _check_v2(rec: dict, op: dict) -> int:
    if rec.get("agreement") is not True:
        raise ValueError(f"methods disagree: {rec.get('methods')}")
    if "v2" not in rec:
        raise ValueError("no v2 in the result")
    if op["v2"] is not None and rec["v2"] != op["v2"]:
        raise ValueError(f"v2 = {rec['v2']}, closed form {op['v2']}")
    return rec["v2"]


def check(op: dict, result) -> str | None:
    """None when one execution of an operation is correct, else the reason."""
    if isinstance(result, BaseException):
        return f"exception {result!r}"
    try:
        if op["check"] == "link":
            est, lk = result
            if lk != HOPF_LK:
                raise ValueError(f"lk_combinatorial = {lk}, expected {HOPF_LK}")
            if not math.isfinite(est.value) or round(est.value) != lk:
                raise ValueError(f"linking estimate {est.value} misses {lk}")
            return None
        if op["check"] == "integrate":
            rec = _parse(result[0])
            err = rec["std_error"]
            if not math.isfinite(err) or abs(rec["value"] - op["v2"]) > 4 * err:
                raise ValueError(f"estimate {rec['value']} +- {err} "
                                 f"misses {op['v2']}")
            return None
        v2 = _check_v2(_parse(result[0]), op)
        if op["check"] == "v2_arf":
            arf = _parse(result[1])["arf"]
            if arf != v2 % 2:
                raise ValueError(f"arf {arf} but v2 = {v2}")
        return None
    except (ValueError, KeyError, TypeError) as exc:
        return str(exc)


if __name__ == "__main__":
    seeds = [int(s) for s in sys.argv[1:]]
    table = {name: {str(s): digest(*build(s)) for s in seeds}
             for name, build in WORKLOADS.items()}
    print(json.dumps(table, indent=1, sort_keys=True))
