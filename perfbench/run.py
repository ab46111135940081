"""Benchmark for xychain: run a workload through the CLI and print its metrics.

    python3 perfbench/run.py --workload closed_form --seed 1 --seconds 20 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory.  Every op runs in a fresh worker process (see ``worker.py``),
as a user runs one CLI command per process; the next op starts when the
previous one ends, for ``--seconds`` and at least ``MIN_OPS`` ops.
``SETUP_ONLY`` more processes only set up, so the median set-up time has
enough samples; set-up time is the main thread's CPU time, which other
load on the machine does not inflate (see ``worker.py``).  The first op of a run checks every output.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs half of
``--seconds`` untraced and half traced and prints the per-layer metrics
and the tracing overhead.  The last line of stdout is the JSON result;
the lines before it record the machine, the sizes and the checks.
``--workload all`` runs the four workloads one after another.
``--smoke`` runs the same commands at tiny sizes.

Exit code 0 when a result was printed (``"correct"`` says whether every
check passed), 2 when the program or the arguments are unusable, 1 when a
worker failed to produce a result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_ONLY = 9  # set-up-only processes per run, besides the op processes
# At least four ops per median: 20 s hold only three dense_oracle ops, and
# their median spread up to 5.4% between runs, against 2.5% for four.
MIN_OPS = 4
TIME_LIMIT_S = 170.0  # a run must end within 180 s
WORK_DIR = ".perfbench_work"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description="xychain benchmark")
    p.add_argument("--workload", choices=(*workloads.NAMES, "all"), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True, help="measured time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own test")
    a = p.parse_args(argv)
    if a.seed < 0:
        p.error("--seed must be nonnegative")
    if a.seconds < 0:
        p.error("--seconds must be nonnegative")
    return a


def machine(nproc: int) -> dict:
    with open("/proc/meminfo", encoding="ascii") as f:
        mem_total = next(line.split(":")[1].strip() for line in f if line.startswith("MemTotal"))
    return {"nproc": nproc, "mem_total": mem_total, "platform": platform.platform()}


def pinned_env(nproc: int) -> dict:
    """The environment for workers, with BLAS threads pinned to nproc whatever the caller set."""
    return dict(os.environ, **{var: str(nproc) for var in BLAS_THREAD_VARS})


def _spawn(cmd: list[str], env: dict, deadline: float) -> bool:
    """Run one worker to completion in its own process group; False on timeout or failure."""
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL, process_group=0)
    try:
        return proc.wait(timeout=max(1.0, deadline - time.monotonic())) == 0
    except subprocess.TimeoutExpired:
        print(f"error: worker exceeded the {TIME_LIMIT_S:.0f} s limit", file=sys.stderr)
        return False
    finally:
        # Stop anything the worker left behind (its scan pool), then reap it.
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()


@dataclass
class Runner:
    """What every worker of one benchmark invocation shares."""

    args: argparse.Namespace
    work: Path
    jobs: int
    env: dict
    deadline: float

    def worker(self, name: str, mode: str, check: bool = False) -> dict | None:
        """Result of one fresh worker process, or None if it failed."""
        workdir = Path(tempfile.mkdtemp(dir=self.work))
        result = workdir / "result.json"
        cmd = [
            sys.executable, str(HERE / "worker.py"), "--root", str(ROOT), "--workdir", str(workdir),
            "--workload", name, "--seed", str(self.args.seed), "--jobs", str(self.jobs),
            "--mode", mode, "--result", str(result),
        ] + (["--check"] if check else []) + (["--smoke"] if self.args.smoke else [])
        ok = _spawn(cmd + ["--t0", repr(time.monotonic())], self.env, self.deadline)
        return json.loads(result.read_text()) if ok and result.exists() else None

    def closed_loop(self, name: str, mode: str, seconds: float) -> list[dict] | None:
        """Ops, each in a fresh process started when the previous one ends.

        Runs for ``seconds`` and at least MIN_OPS ops.  The first op also
        checks the outputs.  None if a worker failed.
        """
        ops = []
        start = time.monotonic()
        while len(ops) < MIN_OPS or time.monotonic() - start < seconds:
            res = self.worker(name, mode, check=not ops)
            if res is None:
                return None
            ops.append(res)
        return ops


def run_workload(runner: Runner, name: str) -> dict | None:
    """Metrics, checks and record of one workload, or None if a worker failed."""
    seconds, jobs = runner.args.seconds, runner.jobs
    dominant = None
    if runner.args.trace:
        import tracer

        untraced = runner.closed_loop(name, "op", seconds / 2)
        traced = runner.closed_loop(name, "traced", seconds / 2) if untraced else None
        if traced is None:
            return None
        report = tracer.layer_report(
            name, [op["layers"] for op in traced], [op["wall_s"] for op in traced],
            [op["wall_s"] for op in untraced], jobs,
        )
        metrics, dominant, ops = report["metrics"], report["dominant"], untraced + traced
        setup_runs = ops
    else:
        setup_only = [runner.worker(name, "setup") for _ in range(SETUP_ONLY)]
        ops = None if None in setup_only else runner.closed_loop(name, "op", seconds)
        if ops is None:
            return None
        setup_runs = setup_only + ops
        values = {
            "wall_s": statistics.median(op["wall_s"] for op in ops),
            "setup_s": statistics.median(r["setup_s"] for r in setup_runs),
            "peak_rss_mb": max(op["peak_rss_kb"] for op in ops) / 1024.0,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    checks = [(f"op{i}.{c[0]}", *c[1:]) for i, op in enumerate(ops) for c in op["checks"]]
    checks += [
        (f"op{i}.same_bytes", op["digest"] == ops[0]["digest"], "outputs differ from op 0")
        for i, op in enumerate(ops[1:], start=1)
    ]
    record = dict(ops[0]["record"], workload=name, seed=runner.args.seed, jobs=jobs,
                  smoke=runner.args.smoke, op_walls_s=[op["wall_s"] for op in ops],
                  setups_s=[r["setup_s"] for r in setup_runs],
                  setup_walls_s=[r["setup_wall_s"] for r in setup_runs])
    return {"metrics": metrics, "checks": checks, "failed": [c for c in checks if not c[1]],
            "record": record, "dominant": dominant}


def _report(name: str, res: dict) -> None:
    """Human-readable lines for one workload, printed before the result line."""
    n_checks, n_failed = len(res["checks"]), len(res["failed"])
    rec = res["record"]
    print(f"== {name}  seed {rec['seed']}  ops timed {len(rec['op_walls_s'])}  "
          f"fail_frac {n_failed}/{n_checks} = {n_failed / n_checks:.3g}")
    for metric, v in res["metrics"].items():
        print(f"   {metric:40s} {v['value']:.6g} {v['unit']}")
    if res["dominant"]:
        d = res["dominant"]
        verdict = "confirmed" if d["confirmed"] else "NOT confirmed"
        print(f"   predicted dominant layer {' + '.join(d['layers'])}: share {d['share']:.3f}, {verdict}")
    for check in res["failed"]:
        print(f"   FAILED {check[0]}: {check[2]}", file=sys.stderr)
    print("record " + json.dumps(rec, sort_keys=True))


def main(argv=None) -> int:
    a = _args(argv)
    # On SIGTERM, unwind through the finally clauses that stop the workers.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "xychain" / "__init__.py").is_file():
        print(f"error: no xychain sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    names = workloads.NAMES if a.workload == "all" else (a.workload,)
    try:
        for name in names:
            workloads.validate(workloads.ops(name, a.seed, workloads.scan_jobs(nproc), a.smoke), nproc)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    env = pinned_env(nproc)
    print("machine " + json.dumps(dict(machine(nproc), blas_env={v: env[v] for v in BLAS_THREAD_VARS})))
    (ROOT / WORK_DIR).mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=ROOT / WORK_DIR))
    runner = Runner(a, work, workloads.scan_jobs(nproc), env, time.monotonic() + TIME_LIMIT_S * len(names))
    try:
        results = {}
        for name in names:
            res = run_workload(runner, name)
            if res is None:
                print(f"error: workload {name} produced no result", file=sys.stderr)
                return 1
            _report(name, res)
            results[name] = res
    finally:
        shutil.rmtree(work)
        with contextlib.suppress(OSError):
            (ROOT / WORK_DIR).rmdir()
    prefix = len(names) > 1
    metrics = {
        (f"{name}.{k}" if prefix else k): v for name, res in results.items() for k, v in res["metrics"].items()
    }
    attempted = sum(len(r["checks"]) for r in results.values())
    failed = sum(len(r["failed"]) for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
