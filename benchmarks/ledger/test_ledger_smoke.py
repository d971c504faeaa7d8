"""Smoke test of the ledger benchmark; run it explicitly:

    python3 -m pytest benchmarks/ledger/test_ledger_smoke.py -q

It is outside tier-1's ``testpaths`` on purpose: it starts servers, syncs
files and takes about a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import spec
import streams

LEDGER = os.path.dirname(os.path.abspath(__file__))
ROOT = spec.repo_root()
SCALE = "0.02"


def run(workload: str, seed: int, trace: int, cwd: str = ROOT):
    done = subprocess.run(
        [sys.executable, os.path.join("benchmarks", "ledger", "run.py"),
         "--workload", workload, "--seed", str(seed), "--scale", SCALE,
         "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd,
    )
    return done


def result_of(done) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def detail(workload: str, trace: int) -> dict:
    path = os.path.join(LEDGER, "_out", f"{workload}.trace{trace}.json")
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def test_benchmark_json_is_printed_from_the_spec():
    assert spec.main(["--check"]) == 0


@pytest.mark.parametrize("workload", spec.WORKLOAD_NAMES)
def test_every_name_is_emitted(workload):
    for trace, names in ((0, spec.END_TO_END_NAMES),
                         (1, spec.PER_LAYER_NAMES)):
        result = result_of(run(workload, 1, trace))
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert list(result["metrics"]) == names
        for name, metric in result["metrics"].items():
            assert metric["unit"] == spec.UNITS[name]
            assert isinstance(metric["value"], float)
        context = detail(workload, trace)["context"]
        for field in ("nproc", "python", "wal_fs", "git_commit", "seed",
                      "scale", "fdatasync_probe_us", "cpu_calib_ops_per_s"):
            assert field in context


@pytest.mark.parametrize("workload", ["engine_write", "engine_read"])
def test_embedded_counts_repeat_exactly(workload):
    counted = [
        layer.name for layer in spec.PER_LAYER
        if layer.source == "C" and not layer.name.startswith("run.")
    ]
    seen = []
    for _ in range(2):
        amps = result_of(run(workload, 7, 0))["metrics"]
        layers = result_of(run(workload, 7, 1))["metrics"]
        sources = detail(workload, 1)["sources"]
        own = [name for name in counted if sources.get(name) == workload]
        assert own, "no counter-sourced layer came from the workload itself"
        seen.append(
            [amps[name]["value"]
             for name in ("write_amp", "read_amp", "space_amp")]
            + [layers[name]["value"] for name in own]
        )
    assert seen[0] == seen[1]


def test_seed_decides_the_stream():
    same = [streams.engine_write_plan(3, 400, 2) for _ in range(2)]
    assert same[0] == same[1]
    assert streams.engine_write_plan(4, 400, 2).calls != same[0].calls
    served = [streams.serve_mixed_plan(seed, 400, 2) for seed in (3, 3, 4)]
    assert served[0] == served[1]
    assert served[2].drivers != served[0].drivers


def test_refuses_to_run_without_the_program(tmp_path):
    bare = tmp_path / "bare"
    shutil.copytree(LEDGER, bare / "benchmarks" / "ledger",
                    ignore=shutil.ignore_patterns("_*", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    done = run("engine_read", 1, 0, cwd=str(bare))
    assert done.returncode != 0
    assert done.stdout.strip() == ""
