#!/usr/bin/env python3
"""Compare two benchmark run records.

    python3 perfbench/compare.py BEFORE.json AFTER.json

Each file is a record written by ``run.py --out``.  The comparison is
refused, with exit code 2, when the records differ in workload, seed, trace
mode or corpus digest, so that a change to an input generator cannot pass
for a change in speed, and when either run has failed operations, so that a
wrong answer is never read as a speed-up.  Otherwise it prints each metric
of both runs and their ratio, after / before.
"""

from __future__ import annotations

import json
import sys


def refusal(before: dict, after: dict) -> str | None:
    """Why two records must not be compared, or None."""
    for key in ("workload", "seed", "trace", "digest"):
        if before[key] != after[key]:
            return f"{key} differs: {before[key]} vs {after[key]}"
    for side, rec in (("before", before), ("after", after)):
        if rec["failed_frac"] > 0:
            return (f"the {side} run failed {rec['failed_frac']:.2%} of its "
                    f"operations: {rec['first_failures'][:1]}")
    return None


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    before, after = (json.load(open(path)) for path in argv)
    why = refusal(before, after)
    if why is not None:
        print(f"compare: refusing: {why}", file=sys.stderr)
        return 2
    print(f"{'metric':32} {'before':>14} {'after':>14} {'ratio':>8}  unit")
    for name, m in before["metrics"].items():
        a, b = m["value"], after["metrics"][name]["value"]
        ratio = f"{b / a:8.3f}" if a else f"{'-':>8}"
        print(f"{name:32} {a:14.6g} {b:14.6g} {ratio}  {m['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
