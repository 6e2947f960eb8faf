"""Smoke tests for the served-plan benchmark.

Each workload runs in smoke mode (one set-up, a few requests) as a
subprocess, exactly as ``BENCHMARK.json``'s command runs it, and the
output schema is checked against ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from servebench import run as bench

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")

with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as _f:
    BENCHMARK = json.load(_f)
SPEC = bench.load_spec()


def _units(section: str):
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def _run(cwd: str, workload: str, trace: int, seed: int = 3):
    command = [sys.executable, *BENCHMARK["command"][1:],
               "--workload", workload, "--seed", str(seed),
               "--seconds", "2", "--trace", str(trace), "--smoke"]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=180)


def test_spec_matches_benchmark_json():
    assert BENCHMARK["command"][0] == "python3"
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(
        SPEC["workloads"])
    for entry in BENCHMARK["workloads"]:
        workload = SPEC["workloads"][entry["name"]]
        assert entry["why"] == workload["why"]
        assert 0 < workload["tail_percentile"] < 100
    assert _units("end_to_end") == bench.END_TO_END_UNITS
    assert _units("per_layer") == {name: info["unit"] for name, info
                                   in SPEC["per_layer"].items()}
    workloads = set(SPEC["workloads"])
    for name, info in SPEC["per_layer"].items():
        # [end-to-end metric it should move, workload]; "flat" marks a
        # workload where the metric must not move.
        for metric, where in info["moves"]:
            assert where in workloads | {"all"}, name
            assert metric in set(bench.END_TO_END_UNITS) | {"flat"}, name
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert NAME.match(metric["name"]), metric


def test_seeds_generate_different_requests():
    workload = SPEC["workloads"]["t2v-search"]
    if bench.SRC not in sys.path:
        sys.path.insert(0, bench.SRC)
    first = bench.request_digests(workload, seed=1, count=3)
    assert first == bench.request_digests(workload, seed=1, count=3)
    assert set(first).isdisjoint(bench.request_digests(workload, seed=2,
                                                       count=3))


def _check_result(proc, workload: str, trace: int):
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = _units("per_layer" if trace else "end_to_end")
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    path = os.path.join(bench.OUT_DIR, "results",
                        f"{workload}-seed3-trace{trace}.json")
    with open(path) as f:
        record = json.load(f)
    meta = record["metadata"]
    for key in ("cpu_affinity", "python", "numpy", "commit", "seed",
                "seconds", "signatures"):
        assert key in meta
    assert meta["signatures"]
    return record


@pytest.mark.parametrize("workload", list(SPEC["workloads"]))
def test_smoke_end_to_end(workload):
    record = _check_result(_run(bench.ROOT, workload, 0), workload, 0)
    assert record["details"]["tail_percentile"] == \
        SPEC["workloads"][workload]["tail_percentile"]


def test_smoke_per_layer():
    record = _check_result(_run(bench.ROOT, "t2v-search", 1),
                           "t2v-search", 1)
    assert record["metrics"]["service.searches"]["value"] >= 1
    assert record["metrics"]["ordering.evaluations"]["value"] >= 1


def test_fails_without_program_sources(tmp_path):
    shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(os.path.join(bench.ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(str(tmp_path), "t2v-search", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
