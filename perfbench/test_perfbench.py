"""Tests of the benchmark itself, at tiny size through the same code path.

Run with ``PYTHONPATH=src python -m pytest -q perfbench``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from perfbench import run as runner_cli
from perfbench.bench import END_TO_END, PER_LAYER
from perfbench.workloads import GENERATORS, SPECS, generate

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _declared() -> dict:
    return json.loads(BENCHMARK_JSON.read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(GENERATORS))
def test_tiny_run_prints_declared_metrics_and_matching_results(workload, trace, capsys):
    code = runner_cli.main(
        ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace), "--size", "tiny"]
    )
    lines = capsys.readouterr().out.strip().splitlines()
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    declared = _declared()["per_layer" if trace else "end_to_end"]
    assert {name: value["unit"] for name, value in last["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in declared
    }
    assert last["attempted"] >= 1
    # Wrong results or diverging state hashes are never acceptable; a late
    # window (a latency-limit miss on a loaded test machine) is reported
    # but does not fail this test.
    failures = [line for line in lines if "FAILED" in line]
    assert all("after the latency limit" in line for line in failures), failures
    assert code == (0 if last["correct"] else 1)
    if not trace:
        for name, value in last["metrics"].items():
            assert value["value"] > 0, name
    record = json.loads(next(line for line in lines if line.startswith("record "))[7:])
    for key in ("cpu_count", "python", "numpy_importable", "git_commit", "seed", "passes"):
        assert key in record
    assert set(record["input"]) >= {"events", "window_closes", "groups", "queries"}


def test_declared_metrics_match_the_runner():
    declared = _declared()
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == PER_LAYER
    assert [w["name"] for w in declared["workloads"]] == list(SPECS)


def test_workload_descriptions_state_rate_and_latency_limit():
    for workload in _declared()["workloads"]:
        spec = SPECS[workload["name"]]
        assert f"{spec.rate_eps:g} ev/s" in workload["why"]
        assert f"{spec.limit_ms:g} ms" in workload["why"]


@pytest.mark.parametrize("workload", sorted(GENERATORS))
def test_seed_determines_inputs(workload):
    first = generate(workload, 11, "tiny").fingerprint()
    assert generate(workload, 11, "tiny").fingerprint() == first
    assert generate(workload, 12, "tiny").fingerprint() != first


def test_full_size_paced_pass_sees_enough_window_closes():
    for workload in GENERATORS:
        inputs = generate(workload, 1)
        window = inputs.workload[0].window
        closes = (inputs.duration - window.size) // window.slide + 1
        assert closes >= 100, workload
