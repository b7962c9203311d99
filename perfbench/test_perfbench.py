"""Tests for the benchmark harness itself.

    python3 -m pytest -q perfbench

Each workload runs in a tiny configuration, untraced and traced; the tests
check the metric names and units against BENCHMARK.json, the exact funnel
counts, and that a corrupted reference digest is counted as a failed op.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run._load_program()

from probe import REFERENCE_S, SpeedProbe  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = 0.01  # seconds; the run still completes the minimum op count
TRACED_OPS = 12


@pytest.fixture(scope="module")
def reference():
    return run.load_reference()


def declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def reported(result: dict) -> dict[str, str]:
    return {name: entry["unit"] for name, entry in result["metrics"].items()}


def test_workload_names_match_benchmark_json():
    assert sorted(WORKLOADS) == sorted(w["name"] for w in BENCHMARK["workloads"])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(name, reference):
    result = run.run_workload(name, 0, TINY, False, reference, setup_samples=2)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= run.MIN_OPS
    assert reported(result) == declared("end_to_end")
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_reports_every_per_layer_metric(name, reference):
    result = run.run_workload(name, 0, TINY, True, reference, min_ops=TRACED_OPS)
    assert result["correct"] and result["failed"] == 0
    assert reported(result) == declared("per_layer")


def _traced_counts(name: str, seed: int, reference: dict) -> dict:
    result = run.run_workload(name, seed, TINY, True, reference, min_ops=TRACED_OPS)
    assert result["correct"]
    return {
        key: entry["value"]
        for key, entry in result["metrics"].items()
        if entry["unit"] == "count" and key != "trace.spans"
    }


def test_census_7x7_funnel_counts_are_exact_and_repeat(reference):
    first = _traced_counts("census-7x7", 5, reference)
    assert first == _traced_counts("census-7x7", 5, reference)
    table = reference["chunks"]
    ops = WORKLOADS["census-7x7"](reference).ops(5)
    chunks = [next(ops) for _ in range(TRACED_OPS)]
    assert first["kernels.census_scan.calls"] == TRACED_OPS
    assert first["kernels.scanned"] == TRACED_OPS << table["chunkBits"]
    assert first["kernels.connected"] == sum(table["connected"][c] for c in chunks)
    assert first["kernels.recheck.calls"] == sum(table["rechecks"][c] for c in chunks)
    assert first["kernels.hits"] == sum(len(table["hits"][c]) for c in chunks)


def test_reference_matches_the_published_census(reference):
    census = reference["census"]
    assert {spec: c["drgSets"] for spec, c in census.items()} == {
        "3^1x3": 11, "3^2x3": 9, "5^1x5": 57, "7^1x7": 247,
    }
    assert all(c["anomalies"] == [] for c in census.values())
    assert census["7^1x7"]["sha256"].startswith("9d47236b96ffe9ab")
    table = reference["chunks"]
    assert len(table["connected"]) << table["chunkBits"] == 16_777_216
    assert sum(table["connected"]) == 16_777_159
    assert sum(len(h) for h in table["hits"]) == 247


def test_corrupted_digest_counts_in_fail_frac(reference):
    bad = copy.deepcopy(reference)
    bad["census"]["3^1x3"]["sha256"] = "0" * 64
    result = run.run_workload("census-small", 0, TINY, True, bad, min_ops=TRACED_OPS)
    ops = WORKLOADS["census-small"](bad).ops(0)
    expected = sum(
        1 for _ in range(result["attempted"]) if any(spec == "3^1x3" for spec, _, _ in next(ops))
    )
    assert expected > 0
    assert result["failed"] == expected
    assert result["fail_frac"] == expected / result["attempted"]
    assert result["correct"] is False


def test_self_time_subtracts_child_spans():
    tracer = Tracer()
    outer = tracer.begin(tracer._name_id("outer"))
    inner = tracer.begin(tracer._name_id("inner"))
    tracer.end(inner)
    tracer.end(outer)
    tracer.rows[outer][3:5] = [0.0, 5.0]
    tracer.rows[inner][3:5] = [1.0, 3.0]
    totals = tracer.totals()
    assert totals["outer"] == {"s": 5.0, "self_s": 3.0}
    assert totals["inner"] == {"s": 2.0, "self_s": 2.0}


def test_run_without_program_source_fails(tmp_path: Path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "census-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_op_latency_is_scaled_by_nearby_probe_samples():
    probe = SpeedProbe()
    probe.samples = [REFERENCE_S, REFERENCE_S, 3 * REFERENCE_S]
    probe.times = [0.0, 0.5, 10.0]
    assert probe.slowdown_around(0.2, 0.3) == pytest.approx(1.0)
    assert probe.slowdown_around(9.5, 9.6) == pytest.approx(3.0)
    assert probe.slowdown_around(5.0, 5.1) == pytest.approx(probe.slowdown())
