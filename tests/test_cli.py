"""Command-line interface: outputs, determinism, exit codes."""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import xychain.analysis
import xychain.cli
import xychain.dynamics
from xychain import __version__
from xychain.analysis import _pool_size
from xychain.cli import main


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    return rows[0], rows[1:]


def _read_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def test_version_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "xychain", "--version"],
        capture_output=True, text=True, check=True,
    )
    assert __version__ in proc.stdout


def test_bytes_across_blas_thread_counts(tmp_path):
    # The README commands: closed-form bytes, detectors included, do not depend
    # on the BLAS thread count; dense-oracle bytes may, but agree within 1e-13
    # across counts.
    # One process runs at a time, with at most 2 threads.
    src = str(Path(__file__).resolve().parents[1] / "src")
    commands = (
        "oracle --N 10 --method zero_T --p0x 0.6 --p0z 0.8 --tmax 5 --out ed.csv",
        "evolve --N 100 --tmax 400 --points 40001 --out pz.csv",
        "analyze --N 100 --tmax 2000 --points 80001 --out report.json",
    )
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        (tmp_path / threads).mkdir()
        for command in commands:
            subprocess.run(
                [sys.executable, "-m", "xychain", *command.split()],
                cwd=tmp_path / threads, env=env, capture_output=True, check=True, timeout=300,
            )
    one, two = tmp_path / "1", tmp_path / "2"
    for name in ("pz.csv", "pz.csv.meta.json", "report.json", "ed.csv.meta.json"):
        assert (one / name).read_bytes() == (two / name).read_bytes(), name
    header, rows_one = _read_csv(one / "ed.csv")
    _, rows_two = _read_csv(two / "ed.csv")
    a = np.array(rows_one, dtype=float)
    b = np.array(rows_two, dtype=float)
    assert a.shape == b.shape == (1001, len(header))
    assert np.array_equal(a[:, 0], b[:, 0])
    assert np.abs(a - b).max() <= 1e-13


@pytest.mark.parametrize(
    "command",
    [
        "compare --N 4 --points 0",
        "compare --N 4 --tmax inf",
        "compare --N 4 --tmax nan",
        "compare --N 4 --tmax -1",
        "compare --N 4 --seed -1",
        "compare --N 12 --cap 10 --p0z 2",
        "scan --N 8 --gamma 0 --h 2 --tmax inf --out {out}",
        "scan --N 8 --gamma 0 --h 2 --tmax nan --out {out}",
        "scan --N 8 --gamma 0 --h 2 --points 0 --out {out}",
        "oracle --N 4 --method zero_T --tmax nan --out {out}",
        "oracle --N 4 --method zero_T --tmax inf --out {out}",
        "evolve --N 8 --tmax inf --out {out}",
        "evolve --N 8 --tmax 1 --points 0 --out {out}",
        "analyze --N 8 --tmax nan",
        "analyze --N 20 --tmax 100 --points 4001 --delta -1",
        "analyze --N 20 --tmax 100 --points 4001 --delta nan",
    ],
)
def test_bad_input_refused_before_work(command, tmp_path, monkeypatch):
    # exit 2 (invalid configuration) before any route starts, and no output file
    def refuse(*args, **kwargs):
        raise AssertionError("work started on invalid input")

    for module, name in (
        (xychain.cli, "pz_trajectory"),
        (xychain.cli, "niemeijer_trajectory"),
        (xychain.cli, "oracle_trajectory"),
        (xychain.analysis, "scan_metric"),
    ):
        monkeypatch.setattr(module, name, refuse)
    out = tmp_path / "out.csv"
    assert main(command.format(out=out).split()) == 2
    assert not out.exists()


class TestSpectrum:
    def test_small_ring_table(self, tmp_path):
        out = tmp_path / "spectrum.csv"
        assert main(["spectrum", "--N", "4", "--out", str(out)]) == 0
        header, rows = _read_csv(out)
        assert header == ["q2", "sector", "epsilon", "Gamma", "E", "theta"]
        assert len(rows) == 8
        energies = sorted(float(r[4]) for r in rows)
        root = np.sqrt(2.0) / 2.0
        expected = sorted([5.0, 4.0, 5.0, 6.0, 5 + root, 5 - root, 5 - root, 5 + root])
        assert np.allclose(energies, expected, atol=1e-12)
        assert all(int(r[0]) % 2 == 0 for r in rows if r[1] == "odd")
        assert all(int(r[0]) % 2 == 1 for r in rows if r[1] == "even")
        assert (tmp_path / "spectrum.csv.meta.json").exists()
        meta = _read_json(tmp_path / "spectrum.csv.meta.json")
        assert meta["run"]["command"] == "spectrum"
        assert meta["run"]["version"] == __version__

    def test_byte_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert main(["spectrum", "--N", "8", "--gamma", "0.3", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestEvolve:
    def test_closed_form_rows(self, tmp_path):
        out = tmp_path / "pz.csv"
        code = main([
            "evolve", "--N", "8", "--tmax", "5", "--points", "11", "--out", str(out),
        ])
        assert code == 0
        header, rows = _read_csv(out)
        assert header == ["t", "pz"]
        assert len(rows) == 11
        assert float(rows[0][0]) == 0.0
        assert float(rows[0][1]) == 1.0  # default p0z

    def test_single_point_grid(self, tmp_path):
        out = tmp_path / "one.csv"
        code = main([
            "evolve", "--N", "8", "--tmax", "5", "--points", "1",
            "--p0z", "0.25", "--out", str(out),
        ])
        assert code == 0
        _, rows = _read_csv(out)
        assert len(rows) == 1
        assert float(rows[0][1]) == 0.25

    def test_weak_coupling_columns_and_sidecar(self, tmp_path):
        out = tmp_path / "nm.csv"
        code = main([
            "evolve", "--N", "100", "--h", "10", "--method", "niemeijer",
            "--p0x", "0.6", "--p0z", "0.8", "--tmax", "4", "--points", "41",
            "--out", str(out),
        ])
        assert code == 0
        header, rows = _read_csv(out)
        assert header == ["t", "px", "py", "pz"]
        assert len(rows) == 41
        meta = _read_json(tmp_path / "nm.csv.meta.json")
        assert meta["method"] == "niemeijer"
        assert meta["meta"]["validity"]["gamma_zero"] is True

    def test_config_exit_codes(self, tmp_path):
        out = str(tmp_path / "x.csv")
        assert main(["evolve", "--N", "7", "--tmax", "1", "--out", out]) == 2
        assert main(["evolve", "--N", "8", "--h", "0.5", "--tmax", "1", "--out", out]) == 2
        assert main(["evolve", "--N", "8", "--tmax", "-1", "--out", out]) == 2
        assert main(["evolve", "--N", "8", "--tmax", "1", "--points", "0", "--out", out]) == 2


class TestOracle:
    def test_zero_t_columns(self, tmp_path):
        out = tmp_path / "ed.csv"
        code = main([
            "oracle", "--N", "4", "--method", "zero_T", "--p0x", "0.6",
            "--p0z", "0.8", "--tmax", "2", "--points", "9", "--out", str(out),
        ])
        assert code == 0
        header, rows = _read_csv(out)
        assert header == ["t", "px", "py", "pz", "energy", "purity", "parity"]
        assert len(rows) == 9
        purity = [float(r[5]) for r in rows]
        assert np.ptp(purity) < 1e-10

    def test_cap_exit_code(self, tmp_path):
        out = str(tmp_path / "ed.csv")
        args = ["oracle", "--N", "16", "--method", "zero_T", "--tmax", "1", "--out", out]
        assert main(args) == 3
        assert main(["oracle", "--N", "4", "--method", "zero_T", "--tmax", "0", "--out", out]) == 2


class TestCompare:
    def test_all_routes_agree(self, capsys):
        assert main(["compare", "--N", "4", "--gamma", "0.5", "--h", "2"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["skipped"] == []
        assert len(report["pairs"]) == 3
        for entry in report["pairs"].values():
            assert entry["pass"]
            assert entry["max_abs_diff"] <= 1e-9
        assert len(report["times"]) == 20

    def test_cap_skips_expensive_routes(self, capsys):
        assert main(["compare", "--N", "6", "--cap", "4"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["skipped"] == ["config_sum", "ed_oracle"]
        assert report["pairs"] == {}
        assert "closed_form" in report["values"]


class TestAnalyze:
    def test_weak_coupling_ratio(self, capsys):
        code = main([
            "analyze", "--N", "100", "--method", "niemeijer", "--p0x", "0.6",
            "--p0z", "0.8", "--tmax", "10", "--points", "4001",
        ])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert 1.1 < report["timescales"]["ratio"] < 1.4
        assert report["quiet_cold"] == {"skipped": "tail shorter than 10 N / kappa"}

    def test_closed_form_stages(self, capsys):
        code = main([
            "analyze", "--N", "50", "--tmax", "200", "--points", "20001",
        ])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["timescales"] is None
        assert 40.0 < report["stages"]["t_regular_end"] < 60.0

    def test_coarse_grid_exit_code(self):
        code = main(["analyze", "--N", "100", "--tmax", "400", "--points", "401"])
        assert code == 4


class TestScan:
    def test_four_point_grid_and_parallel_determinism(self, tmp_path):
        serial = tmp_path / "s.csv"
        parallel = tmp_path / "p.csv"
        base = [
            "scan", "--N", "50", "--gamma", "0,1", "--h", "2,10",
            "--tmax", "120", "--points", "2001",
        ]
        assert main(base + ["--out", str(serial)]) == 0
        assert main(base + ["--jobs", "2", "--out", str(parallel)]) == 0
        assert serial.read_bytes() == parallel.read_bytes()
        header, rows = _read_csv(serial)
        assert header == ["gamma", "h", "amplitude", "mean_pz"]
        keys = [(float(r[0]), float(r[1])) for r in rows]
        assert keys == [(0.0, 2.0), (0.0, 10.0), (1.0, 2.0), (1.0, 10.0)]
        amp = {k: float(r[2]) for k, r in zip(keys, rows)}
        assert abs(amp[(0.0, 2.0)] - amp[(0.0, 10.0)]) < 1e-12
        assert amp[(1.0, 10.0)] > amp[(1.0, 2.0)]

    def test_jobs_bytes_with_threaded_kernel(self, tmp_path, monkeypatch):
        # --jobs 1 splits each kernel call over 3 threads here; --jobs 2
        # workers run the kernel on one thread.  The bytes are the same.
        monkeypatch.setattr(xychain.dynamics, "_thread_budget", 3)
        monkeypatch.setattr(xychain.dynamics, "_THREAD_ELEMENTS", 1 << 10)
        base = ["scan", "--N", "60", "--gamma", "0,0.5", "--h", "2,5", "--tmax", "200", "--points", "4001"]
        outputs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}.csv"
            assert main(base + ["--jobs", jobs, "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_bad_lists_exit_code(self, tmp_path):
        out = str(tmp_path / "scan.csv")
        assert main(["scan", "--N", "50", "--gamma", "", "--h", "2", "--out", out]) == 2
        assert main(["scan", "--N", "50", "--gamma", "0;1", "--h", "2", "--out", out]) == 2
        assert main([
            "scan", "--N", "50", "--gamma", "0", "--h", "2", "--tmax", "10", "--out", out,
        ]) == 2

    def test_jobs_bounds(self, tmp_path, monkeypatch):
        out = str(tmp_path / "scan.csv")
        for jobs in ("0", "-3"):
            argv = ["scan", "--N", "8", "--gamma", "0", "--h", "2", "--jobs", jobs, "--out", out]
            assert main(argv) == 2
        assert not (tmp_path / "scan.csv").exists()
        # validation only: no pool is started here
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        assert _pool_size(64, 9) == 4
        assert _pool_size(64, 3) == 3
        assert _pool_size(2, 9) == 2
        assert _pool_size(1, 1) == 1
