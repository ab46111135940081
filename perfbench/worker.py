"""One benchmark process: set up, run one op of a workload, and report.

``run.py`` starts this script in a fresh process for every op:

    python3 worker.py --root ROOT --workdir DIR --workload NAME --seed N --jobs J
                      --mode {setup,op,traced} --t0 T --result FILE [--check] [--smoke]

Set-up is the work from process start to the start of the op: interpreter
start, importing xychain, building the CLI parser and parsing the op
arguments.  ``setup_s`` is the CPU time the main thread spent on it; set-up
runs on that thread alone, so on an idle machine this equals the wall
time, and it stays put when other processes take the CPUs.  ``setup_wall_s``
is the wall time from ``--t0`` (the parent's monotonic clock just before it
started this process), kept for the record.
An op runs every CLI invocation of the workload once, one after the other,
through ``xychain.cli.main``.  ``setup`` stops before the op; ``traced``
wraps the traced functions first (see ``tracer.py``).  ``--check`` runs the
output checks after the op, outside its timing and after its peak RSS is
read.  The result is written to ``--result`` as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path


def _args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--root", required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--jobs", type=int, required=True)
    p.add_argument("--mode", choices=("setup", "op", "traced"), required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--check", action="store_true")
    p.add_argument("--smoke", action="store_true")
    return p.parse_args(argv)


def _invoke(main, argv: list[str]) -> int:
    """Exit code of one CLI invocation; a crash counts as -1."""
    try:
        return main(argv)
    except SystemExit as exc:  # argparse refused the arguments
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:
        traceback.print_exc()
        return -1


def _outputs(out: Path, stdout: str) -> tuple[int, str]:
    """Bytes written by the op (files plus stdout) and a digest of all of them."""
    digest = hashlib.sha256(stdout.encode())
    size = len(stdout.encode())
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        size += len(data)
    return size, digest.hexdigest()


def _blas() -> dict:
    import numpy as np

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"name": info.get("name"), "version": info.get("version"), "threads": threads}


def _sizes(ns) -> dict:
    """N, time points and dense matrix dimension of one CLI invocation."""
    from xychain.analysis import scan_grid_spec

    sizes = {"command": ns.command, "N": ns.N, "points": getattr(ns, "points", None), "dim": None}
    if ns.command == "scan":
        hs = [float(v) for v in ns.h.split(",")]
        sizes["points"] = scan_grid_spec(ns.N, ns.kappa, hs, ns.tmax, ns.points)[1]
    if ns.command in ("oracle", "compare"):
        sizes["dim"] = 2**ns.N
    return sizes


def main(argv=None) -> int:
    a = _args(argv)
    src = (Path(a.root) / "src").resolve()
    sys.path.insert(0, str(src))
    from xychain import cli

    if src not in Path(cli.__file__).resolve().parents:
        print(f"error: imported xychain from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    import workloads

    parser = cli.build_parser()
    argvs = workloads.ops(a.workload, a.seed, a.jobs, a.smoke)
    parsed = [parser.parse_args(argv) for argv in argvs]
    out = Path(a.workdir) / "out"
    out.mkdir(parents=True)
    os.chdir(out)
    result = {"setup_s": time.thread_time(), "setup_wall_s": time.monotonic() - a.t0}
    if a.mode == "setup":
        Path(a.result).write_text(json.dumps(result))
        return 0

    recorder = None
    if a.mode == "traced":
        import tracer

        spill = Path(a.workdir) / "spans"
        spill.mkdir()
        recorder = tracer.Recorder(spill)
        recorder.install()
    stdout = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(stdout):
        codes = [_invoke(cli.main, argv) for argv in argvs]
    wall = time.perf_counter() - t0
    rss = [resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    size, digest = _outputs(out, stdout.getvalue())
    result.update(
        wall_s=wall,
        peak_rss_kb=max(rss),
        digest=digest,
        checks=[(f"{argv[0]}.exit", code == 0, f"exit code {code}") for argv, code in zip(argvs, codes)],
    )
    if recorder is not None:
        result["layers"] = tracer.op_metrics(recorder.take(), wall, size)
    if a.check:
        import checks

        try:
            result["checks"] += checks.check_outputs(a.workload, out, parsed, a.seed)
        except (OSError, KeyError, ValueError, IndexError):  # missing or malformed output
            result["checks"].append(("outputs.readable", False, traceback.format_exc()))
        result["record"] = {
            "python": platform.python_version(),
            "numpy": sys.modules["numpy"].__version__,
            "blas": _blas(),
            "ops": [_sizes(ns) for ns in parsed],
        }
    Path(a.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
