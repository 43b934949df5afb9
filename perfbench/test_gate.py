"""Self-tests of the benchmark: its correctness gate and its metric names.

Run with ``python3 -m pytest perfbench`` from the root of a checkout.  Both
tests time a short slice of the census workload in one pass.
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import casson.cli  # noqa: E402
import compare  # noqa: E402
import corpus  # noqa: E402
import run  # noqa: E402

SLICE = 40


@pytest.fixture(scope="module")
def census_slice():
    ops, files = corpus.census(0)
    return ops[:SLICE], files


def _record(part):
    return {"workload": "census", "seed": 0, "trace": 0, "digest": "slice",
            **part}


def test_wrong_v2_sym_fails_the_run(monkeypatch, census_slice):
    ops, files = census_slice
    honest_result, honest_part = run.evaluate(ops, files, 0, False, 1.0)
    assert honest_result["correct"] and honest_result["failed"] == 0

    honest = casson.cli.v2_sym
    calls = []

    def off_by_one(diagram):
        calls.append(diagram)
        return honest(diagram) + (1 if len(calls) == 1 else 0)

    monkeypatch.setattr(casson.cli, "v2_sym", off_by_one)
    result, part = run.evaluate(ops, files, 0, False, 1.0)
    assert result["attempted"] == SLICE
    assert result["failed"] == 1
    assert part["failed_frac"] > 0
    assert result["correct"] is False
    why = compare.refusal(_record(honest_part), _record(part))
    assert why is not None and "failed" in why


def test_wrong_v2_sym_in_the_traced_pass_fails_the_run(monkeypatch,
                                                      census_slice):
    ops, files = census_slice
    honest = casson.cli.v2_sym
    calls = []

    def counting(diagram):
        calls.append(diagram)
        return honest(diagram)

    monkeypatch.setattr(casson.cli, "v2_sym", counting)
    run.evaluate(ops, files, 0, False, 1.0)
    per_pass = len(calls)
    calls.clear()

    def off_by_one_when_traced(diagram):
        calls.append(diagram)
        return honest(diagram) + (1 if len(calls) == per_pass + 1 else 0)

    monkeypatch.setattr(casson.cli, "v2_sym", off_by_one_when_traced)
    result, part = run.evaluate(ops, files, 0, True, 1.0)
    assert result["attempted"] == 2 * SLICE
    assert result["failed"] == 1
    assert result["correct"] is False
    assert part["self_sum_ok"] is True


def test_metric_names_and_units_match_benchmark_json(census_slice):
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ops, files = census_slice
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        result, _ = run.evaluate(ops, files, 0, trace, 1.0)
        assert result["correct"]
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == {m["name"]: m["unit"] for m in spec[key]}
