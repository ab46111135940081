"""Tests of the benchmark itself: size guard, metric names, span arithmetic, smoke runs.

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer
import workloads

HERE = Path(__file__).resolve().parent


@pytest.mark.parametrize(
    "argv, nproc",
    [
        (["oracle", "--N", "14", "--method", "zero_T", "--tmax", "1"], 2),
        (["compare", "--N", "14"], 2),
        (["analyze", "--N", "14", "--method", "oracle_zero_T", "--tmax", "1"], 2),
        (["scan", "--N", "10", "--gamma", "0", "--h", "2", "--jobs", "3"], 2),
        (["scan", "--N", "10", "--gamma", "0", "--h", "2", "--jobs", "0"], 2),
    ],
)
def test_guard_refuses(argv, nproc):
    with pytest.raises(ValueError):
        workloads.validate([argv], nproc)


@pytest.mark.parametrize("smoke", [False, True])
@pytest.mark.parametrize("nproc", [1, 2, 64])
def test_guard_accepts_every_workload(smoke, nproc):
    for name in workloads.NAMES:
        workloads.validate(workloads.ops(name, 7, workloads.scan_jobs(nproc), smoke), nproc)


def test_benchmark_json_names_what_the_benchmark_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.UNITS


def test_blas_threads_pinned_whatever_the_caller_set(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setenv("OMP_NUM_THREADS", "64")
    env = run.pinned_env(2)
    assert {var: env[var] for var in run.BLAS_THREAD_VARS} == dict.fromkeys(run.BLAS_THREAD_VARS, "2")


def _span(i, start, end, parent=None, pid=1, name="x"):
    return {"name": name, "pid": pid, "id": i, "parent": parent, "start": start, "end": end}


def test_self_time_and_cli_time_from_spans():
    spans = [
        _span(0, 1.0, 5.0, name="dynamics.pz_trajectory"),
        _span(1, 1.5, 2.0, parent=0, name="chain.spectral_table"),
        _span(2, 2.0, 2.5, parent=0, name="chain.spectral_table"),
        # Two pool workers overlapping in time: their union counts once.
        _span(0, 6.0, 8.0, pid=2, name="analysis.scan_metric"),
        _span(0, 7.0, 9.0, pid=3, name="analysis.scan_metric"),
    ]
    for s in spans[:1]:
        s["sizes"] = {"N": 10, "n_t": 100}
    m = tracer.op_metrics(spans, wall=10.0, bytes_written=5)
    assert m["dynamics.pz_trajectory.self_s"] == pytest.approx(3.0)
    assert m["chain.spectral_table.s"] == pytest.approx(1.0)
    assert m["chain.spectral_table.calls"] == 2
    assert m["dynamics.kernel.mode_points"] == 2000
    assert m["analysis.scan_metric.s"] == pytest.approx(4.0)
    assert m["cli.self_s"] == pytest.approx(10.0 - 4.0 - 3.0)


def _result(cmd, cwd):
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc, proc.stdout.strip().splitlines()


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_runs_all_workloads(trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", "all", "--seed", "3", "--seconds", "0",
           "--trace", str(trace), "--smoke"]
    proc, lines = _result(cmd, HERE.parent)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    names = tracer.UNITS if trace else run.END_TO_END_UNITS
    assert set(result["metrics"]) == {f"{w}.{m}" for w in workloads.NAMES for m in names}


def test_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", "scan", "--seed", "1", "--seconds", "1",
           "--trace", "0"]
    proc, lines = _result(cmd, tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)
