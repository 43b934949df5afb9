#!/usr/bin/env python3
"""Benchmark of the casson package: three workloads, end to end and by layer.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload census --seed 0 --seconds 36 --trace 0

Workloads (see BENCHMARK.json and corpus.py): census, ladder, integral.
Each run generates its inputs from --seed, then drives the package from
outside through casson.cli.main and casson.mcint.linking_mc in a closed
loop with one client: the next operation starts when the previous one
returns.  The loop runs as many whole passes over the inputs as fit in
--seconds at the speed of the first pass, and at least one.  An input's
latency is the mean of its times over the passes, which spreads each
input's samples over the run; the latency percentiles are taken over
inputs (census has 1002, so its 99th percentile has ten beyond it; that
percentile is in the record, not among the gated metrics, because on a
shared host it drifts by more than any bound the benchmark may set).  The
clock stops between passes, and there every result of the pass is checked
and dropped, so neither the checks nor the kept outputs weigh on the
timings or on peak_rss_mb.

--trace 0 prints the end-to-end metrics:

    setup_s          median time to import the modules the workload calls
                     (numpy too for integral), over fresh interpreters
    inputs_per_s     executions / wall time of the timed loop; the
                     largest inputs weigh most in it
    latency_p50_ms   median over inputs of the input latencies
    time_to_v2_s     geometric mean over the inputs with a v2 of the time
                     to an answer that pins the integer: the latency for
                     the exact methods, and for an integrate call the run
                     time at which 4 standard errors fit in 0.5, that is
                     64 * std_error^2 * seconds; every input weighs the
                     same in it, so a slower small input shows
    peak_rss_mb      ru_maxrss of the benchmark process at the end

A failed operation (exception, non-zero exit, disagreement, wrong closed
form, arf parity, an estimate off by more than 4 standard errors) counts
in "failed"; its share is failed_frac in the record.

--trace 1 runs the same passes twice, untraced and then traced, and prints
the per-layer metrics of tracing.py together with the tracing overhead and
a check that the layers' self times account for the traced wall time.  As
every timed call is a root span, that check only bounds the harness's own
loop; a failed check makes the run not correct, and the traced executions
are checked and counted like the untraced ones.  The record also holds the
mean latency of every input kind.  The last line of standard output is the
result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The line before it is a record of the run (environment, corpus digest,
sample counts, first failures); --out FILE also writes that record to FILE
for compare.py, with the spans of the traced pass as [name, start, end,
parent index, operation index] lists.  numpy and BLAS are held to one
thread.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import io
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# Modules each workload calls into; importing them is the set-up time.
SETUP_IMPORTS = {"census": ("casson.cli",), "ladder": ("casson.cli",),
                 "integral": ("casson.cli", "casson.mcint")}
SETUP_REPEATS = 15
# An integrate call pins the integer v2 once 4 standard errors fit in 0.5.
PIN_SIGMA = 0.125
# Slack on the self-time accounting check, as a share of the traced wall
# time, for clock granularity and run-to-run noise.
ACCOUNTING_SLACK = 0.01


def measure_setup(workload: str) -> float:
    """Median import time of the workload's modules in fresh interpreters."""
    mods = ", ".join(SETUP_IMPORTS[workload])
    code = (f"import sys, time; sys.path.insert(0, {SRC!r}); "
            f"t = time.perf_counter(); import {mods}; "
            f"print(time.perf_counter() - t)")
    times = []
    for i in range(SETUP_REPEATS + 1):  # the first run writes the bytecode
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, timeout=120, check=True)
        if i:
            times.append(float(out.stdout))
    return statistics.median(times)


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu,
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            **{v: os.environ.get(v) for v in THREAD_VARS}}


class Runner:
    """Executes operations against the package and times passes over them."""

    def __init__(self, ops: list[dict], files: dict, workdir: str):
        import casson.cli
        self.cli = casson.cli
        paths = {}
        for name, text in files.items():
            paths["@" + name] = os.path.join(workdir, name + ".json")
            with open(paths["@" + name], "w") as fh:
                fh.write(text)
        self.ops = [{**op, "calls": [[paths.get(a, a) for a in argv]
                                     for argv in op["calls"]]}
                    if "calls" in op else op for op in ops]
        self.mcint = None
        if any(op["check"] in ("integrate", "link") for op in ops):
            # integrate imports casson.mcint on first use; import it here so
            # that no timed operation pays for it
            import casson.mcint
            self.mcint = casson.mcint

    def execute(self, op: dict):
        """One operation: a list of (exit code, stdout, stderr) per call, a
        linking (estimate, lk) pair, or the exception that stopped it."""
        try:
            if "link" in op:
                ln = op["link"]
                est = self.mcint.linking_mc(ln["a"], ln["b"], ln["samples"],
                                            ln["seed"])
                return est, self.mcint.lk_combinatorial(ln["a"], ln["b"])
            out = []
            for argv in op["calls"]:
                buf, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(buf), \
                        contextlib.redirect_stderr(err):
                    rc = self.cli.main(argv)
                out.append((rc, buf.getvalue(), err.getvalue()))
            return out
        except Exception as exc:  # counted as a failed operation
            return exc

    def passes(self, seconds: float, count: int | None = None, tracer=None):
        """Whole passes over the operations: `count` of them, or as many as
        fit in `seconds` at the speed of the first pass (at least one).

        The clock stops between passes.  There each result of the pass is
        checked and reduced to its verdict, so that no output outlives its
        pass.  Returns (executions, wall, passes), each execution being
        (op index, seconds, verdict, integrate outcome) as settle() gives
        them, and wall the summed time of the passes.
        """
        clock = time.perf_counter
        ops = self.ops
        runs = []
        wall = 0.0
        done = 0
        while True:
            batch = []
            t0 = clock()
            for i, op in enumerate(ops):
                if tracer is not None:
                    tracer.op = len(runs) + i
                start = clock()
                result = self.execute(op)
                batch.append((i, clock() - start, result))
            wall += clock() - t0
            runs.extend((i, dt, *settle(ops[i], result))
                        for i, dt, result in batch)
            del batch
            done += 1
            if count is None:
                count = max(int(seconds // wall), 1)
            if done >= count:
                return runs, wall, done


def settle(op: dict, result) -> tuple:
    """(verdict, outcome) of one execution: the verdict is None when it is
    correct, else the reason; the outcome is (std_error, samples) of a
    correct integrate call and None otherwise."""
    import corpus
    why = corpus.check(op, result)
    if why is None and op["check"] == "integrate":
        rec = json.loads(result[0][1])
        return why, (rec["std_error"], rec["samples"])
    return why, None


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    k = max(math.ceil(p / 100 * len(sorted_values)), 1)
    return sorted_values[k - 1]


def input_latencies(ops, runs) -> list[float]:
    """Each operation's mean time over its executions, in operation order."""
    times: list[list[float]] = [[] for _ in ops]
    for i, dt, _, _ in runs:
        times[i].append(dt)
    return [statistics.fmean(t) for t in times]


def kind(op: dict) -> str:
    """The input kind of an operation: its CLI flag, its integrate knot or
    "link"."""
    if "link" in op:
        return "link"
    argv = op["calls"][0]
    if argv[0] == "integrate":
        return "integrate " + op["knot"]
    return argv[1].split("=", 1)[0].lstrip("-")


def kind_latencies(ops, lat: list[float]) -> dict:
    """Mean input latency in ms of every input kind."""
    by_kind: dict[str, list[float]] = {}
    for op, t in zip(ops, lat):
        by_kind.setdefault(kind(op), []).append(t)
    return {k: statistics.fmean(v) * 1e3 for k, v in sorted(by_kind.items())}


def integral_stats(ops, runs) -> dict:
    """Error per root second and sampling rate of the correct integrate
    calls.

    For each (knot, seed) input, std_error * sqrt(mean seconds of a call);
    per knot the median over seeds; the result is the geometric mean over
    knots.
    """
    by_op: dict[int, list[tuple[float, float]]] = {}
    samples = seconds = 0.0
    for i, dt, why, mc in runs:
        if mc is None:
            continue
        by_op.setdefault(i, []).append((mc[0], dt))
        samples += mc[1]
        seconds += dt
    if not by_op:
        return {}
    per_knot: dict[str, list[float]] = {}
    for i, calls in by_op.items():
        err = statistics.median(e for e, _ in calls)
        per_knot.setdefault(ops[i]["knot"], []).append(
            err * math.sqrt(statistics.fmean(dt for _, dt in calls)))
    logs = [math.log(statistics.median(v)) for v in per_knot.values()]
    return {"err_sqrt_s": math.exp(sum(logs) / len(logs)),
            "samples_per_s": samples / seconds}


def time_to_v2(ops, runs, lat: list[float]) -> float:
    """Geometric mean, over the inputs that have a v2, of the time to an
    answer that pins the integer v2.

    For an exact method that is the input's latency.  For an integrate call
    it is the run time at which 4 standard errors fit in 0.5, that is
    (std_error / PIN_SIGMA)^2 * seconds, with the call's std_error (fixed,
    as its seed is) and its mean time.  Linking operations have no v2.
    """
    err: dict[int, float] = {}
    for i, _, _, mc in runs:
        if mc is not None:
            err[i] = mc[0]
    logs = []
    for i, (op, t) in enumerate(zip(ops, lat)):
        if op["check"] == "integrate":
            if i in err:
                logs.append(math.log((err[i] / PIN_SIGMA) ** 2 * t))
        elif op["check"] != "link":
            logs.append(math.log(t))
    return math.exp(statistics.fmean(logs))


def end_to_end(ops, runs, wall: float, setup_s: float) -> dict:
    lat = input_latencies(ops, runs)
    return {
        "setup_s": (setup_s, "s"),
        "inputs_per_s": (len(runs) / wall, "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "time_to_v2_s": (time_to_v2(ops, runs, lat), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }


def traced_metrics(runner, runs, wall, n_passes) -> tuple[dict, dict, list]:
    """Re-run the same passes traced; per-layer metrics, a summary and the
    traced executions.

    Every timed call is a patched root span, so the layers' self times add
    up to the traced wall time less the harness's own loop: the accounting
    check bounds that remainder by the tracing overhead.
    """
    from tracing import LAYERS, Tracer
    tracer = Tracer()
    tracer.install()
    try:
        traced, t_wall, _ = runner.passes(0, count=n_passes, tracer=tracer)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    mc = integral_stats(runner.ops, runs)
    self_sum = sum(metrics[f"{name}.self_s"][0] for name in LAYERS)
    overhead = t_wall - wall
    ok = t_wall - self_sum <= max(overhead, 0.0) + ACCOUNTING_SLACK * t_wall
    metrics.update({
        "mcint.samples_per_s": (mc.get("samples_per_s", 0.0), "1/s"),
        "mcint.err_sqrt_s": (mc.get("err_sqrt_s", 0.0), "sqrt_s"),
        "trace.untraced_wall_s": (wall, "s"),
        "trace.traced_wall_s": (t_wall, "s"),
        "trace.overhead_frac": (overhead / wall, "1"),
        "trace.self_sum_s": (self_sum, "s"),
        "trace.self_sum_ok": (float(ok), "1"),
    })
    if not ok:
        print(f"perfbench: layer self times sum to {self_sum:.3f} s of a "
              f"{t_wall:.3f} s traced pass; tracing overhead "
              f"{overhead:.3f} s", file=sys.stderr)
    share = {name: round(metrics[f"{name}.self_s"][0] / self_sum, 4)
             for name in LAYERS} if self_sum else {}
    summary = {"layer_share": share, "self_sum_ok": ok, "spans": tracer.spans}
    return metrics, summary, traced


def evaluate(ops: list[dict], files: dict, seconds: float, trace: bool,
             setup_s: float) -> tuple[dict, dict]:
    """Time, check and summarize one corpus; returns (result, record part).

    With `trace` the traced executions are checked too and count in
    "attempted" and "failed", and a failed accounting check makes the
    result not correct.
    """
    with tempfile.TemporaryDirectory(dir=HERE, prefix=".work-") as workdir:
        runner = Runner(ops, files, workdir)
        runs, wall, n_passes = runner.passes(seconds)
        if trace:
            metrics, extra, traced = traced_metrics(runner, runs, wall,
                                                    n_passes)
        else:
            metrics = end_to_end(ops, runs, wall, setup_s)
            extra, traced = {}, []
    executions = runs + traced
    failures = [f"{ops[i].get('calls', [['link']])[0][:2]}: {why}"[:300]
                for i, _, why, _ in executions if why is not None]
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    correct = not failures and extra.get("self_sum_ok", True)
    result = {"correct": correct, "attempted": len(executions),
              "failed": len(failures), "metrics": metrics}
    lat = input_latencies(ops, runs)
    record = {"passes": n_passes, "operations": len(ops),
              "executions": len(executions), "wall_s": wall,
              "latency_p99_ms": percentile(sorted(lat), 99) * 1e3,
              "kind_mean_ms": kind_latencies(ops, lat),
              "failed_frac": len(failures) / len(executions),
              "first_failures": failures[:5], **extra, "metrics": metrics}
    return result, record


def frozen_digest(workload: str, seed: int) -> str | None:
    with open(os.path.join(HERE, "digests.json")) as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple:
    """Run one workload; returns (result line, record)."""
    import corpus
    setup_s = measure_setup(workload)
    ops, files = corpus.WORKLOADS[workload](seed)
    digest = corpus.digest(ops, files)
    frozen = frozen_digest(workload, seed)
    if frozen is not None and frozen != digest:
        raise SystemExit(f"perfbench: the {workload} inputs for seed {seed} "
                         f"changed (digest {digest[:12]}, frozen "
                         f"{frozen[:12]}); refusing to measure them")
    result, part = evaluate(ops, files, seconds, trace, setup_s)
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(trace), "digest": digest, "env": environment(),
              **part}
    return result, record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=tuple(SETUP_IMPORTS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also write the run record to this file")
    args = ap.parse_args(argv)

    # a terminated run still removes its scratch directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not os.path.isfile(os.path.join(SRC, "casson", "__init__.py")):
        print(f"perfbench: no casson sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import casson
    if not os.path.abspath(casson.__file__).startswith(SRC + os.sep):
        print(f"perfbench: casson imported from {casson.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2

    result, record = measure(args.workload, args.seed, args.seconds,
                             bool(args.trace))
    spans = record.pop("spans", None)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record if spans is None else {**record, "spans": spans},
                      fh)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
