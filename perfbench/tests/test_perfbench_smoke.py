"""Tiny-size runs of every workload, untraced and traced: the result line keeps
the contract and names exactly the metrics and units BENCHMARK.json declares.
`gauge` is run too, although BENCHMARK.json does not list it."""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = ("sweep", "gauge", "cli-small")


def run(cwd, workload, trace, seed=5):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_spec_matches_harness():
    from run import END_TO_END, PER_LAYER, WORKLOAD_NAMES
    from workloads import WORKLOADS as WORKLOADS_BY_NAME

    assert WORKLOADS == WORKLOAD_NAMES == tuple(WORKLOADS_BY_NAME)
    assert [w["name"] for w in SPEC["workloads"]] == ["sweep", "cli-small"]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_keeps_the_contract(workload, trace):
    done = run(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    detail, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert detail["provenance"]["seed"] == 5 and detail["provenance"]["nproc"] >= 1
    if trace:
        assert detail["samples"]["traced_output_mismatches"] == 0
        assert result["metrics"]["trace.unattributed_ratio"]["value"] < 0.05
        record = json.loads((ROOT / ".bench_out" / "results" /
                             f"{workload}-s5-trace1-tiny.json").read_text())
        if workload == "gauge":  # the campaign's metrics, kept out of the result line
            assert record["layers"]["gauge.self_s"] > 0
            assert record["layers"]["mixed.transform_evolution.self_s"] > 0
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    if workload != "gauge":  # at tiny steps verify-gauge misses criterion 4's 1e-7
        assert result["correct"] and result["failed"] == 0, detail["errors"]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run(tmp_path, "sweep", 0)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_and_accuracy_repeat_for_a_seed(workload):
    """The loops make a fixed number of calls, so a second run of the same seed
    repeats every count, the failures and the accuracy metrics exactly."""
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    for trace, names in ((0, ["trace_error_max", "phase_error_max_rad"]), (1, counts)):
        first, second = (json.loads(run(ROOT, workload, trace, seed=9).stdout.splitlines()[-1])
                         for _ in range(2))
        assert (first["attempted"], first["failed"]) == (second["attempted"], second["failed"])
        for name in names:
            assert first["metrics"][name] == second["metrics"][name], name
