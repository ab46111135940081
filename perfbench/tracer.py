"""Outside-in tracing: spans around calls into xychain's public functions.

Nothing in ``src/`` is changed.  ``Recorder.install`` replaces each traced
function with a timing wrapper under every module that binds it (the
package re-imports names with ``from .x import y``, so
``xychain.analysis.pz_trajectory`` and ``xychain.cli.pz_trajectory`` are
the same function as ``xychain.dynamics.pz_trajectory``; wrapping only the
defining module would leave nested calls untraced).

A span records name, process, start, end, parent span and sizes.  Spans
stay in memory.  Pool workers forked by ``scan --jobs`` inherit the
wrappers; each writes its spans to ``spill_dir`` when it exits, and
``take`` gathers them.  All processes time with ``time.perf_counter``,
which on Linux reads the system-wide monotonic clock, so spans of
different processes share one time axis.
"""

from __future__ import annotations

import functools
import inspect
import json
import multiprocessing.util
import os
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

# Module -> public functions wrapped, named "<module>.<function>" in spans.
TRACED = {
    "chain": ("spectral_table",),
    "dynamics": ("pz_trajectory", "pz_closed_form", "pz_config_sum"),
    "bessel": ("bessel_j0",),
    "approx": ("niemeijer_trajectory", "regular_stage_pz"),
    "oracle": ("build_hamiltonian", "diagonalize", "oracle_trajectory"),
    "analysis": ("detect_stages", "timescales", "quiet_cold", "scan_metric"),
}


def _ptp(values) -> float:
    return float(np.ptp(np.asarray(values, dtype=np.float64)))


# Span name -> sizes recorded from the bound arguments and the result.
_SIZES = {
    "chain.spectral_table": lambda a, r: {"N": a["params"].N},
    "dynamics.pz_trajectory": lambda a, r: {"N": a["params"].N, "n_t": int(np.size(a["grid"]))},
    "bessel.bessel_j0": lambda a, r: {"points": int(np.size(a["x"]))},
    "approx.niemeijer_trajectory": lambda a, r: {"n_t": int(np.size(a["grid"]))},
    "approx.regular_stage_pz": lambda a, r: {"points": int(np.size(a["t"]))},
    "oracle.build_hamiltonian": lambda a, r: {"dim": int(r.shape[0])},
    "oracle.diagonalize": lambda a, r: {"dim": int(r.energies.size)},
    "oracle.oracle_trajectory": lambda a, r: {
        "time_points": int(r.grid.size),
        "energy_drift": _ptp(r.meta["energy"]),
        "purity_drift": _ptp(r.meta["purity"]),
        "parity_drift": _ptp(r.meta["parity"]),
    },
    "analysis.detect_stages": lambda a, r: {"n_t": int(a["traj"].grid.size)},
    "analysis.scan_metric": lambda a, r: {"N": a["params"].N, "n_t": int(np.size(a["grid"]))},
}


class Recorder:
    """Holds the spans of one process; installed once, before the traced ops."""

    def __init__(self, spill_dir: Path):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._pid = os.getpid()
        self._spill_dir = Path(spill_dir)

    def install(self) -> None:
        """Wrap every traced function wherever the imported xychain modules bind it."""
        modules = [m for n, m in sys.modules.items() if n == "xychain" or n.startswith("xychain.")]
        for module, names in TRACED.items():
            for fname in names:
                original = getattr(sys.modules[f"xychain.{module}"], fname)
                wrapper = self._wrap(f"{module}.{fname}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
        multiprocessing.util.register_after_fork(self, Recorder._after_fork)

    def _wrap(self, name: str, fn):
        signature = inspect.signature(fn)
        sizes = _SIZES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "name": name,
                "pid": self._pid,
                "id": len(self.spans),
                "parent": self._stack[-1] if self._stack else None,
            }
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if sizes is not None:
                span["sizes"] = sizes(signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def _after_fork(self) -> None:
        # A forked pool worker starts with no spans of its own and writes
        # what it records when it exits normally.
        self.spans, self._stack, self._pid = [], [], os.getpid()
        multiprocessing.util.Finalize(None, self._spill, exitpriority=10)

    def _spill(self) -> None:
        (self._spill_dir / f"{self._pid}.json").write_text(json.dumps(self.spans))

    def take(self) -> list[dict]:
        """Spans recorded since the last take, pool workers' included."""
        spans, self.spans = self.spans, []
        for path in sorted(self._spill_dir.glob("*.json")):
            spans.extend(json.loads(path.read_text()))
            path.unlink()
        return spans


def _union_length(intervals) -> float:
    total, reach = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi > reach:
            total += hi - max(lo, reach)
            reach = hi
    return total


# Per-layer metric -> unit.  The order is the order of the report.
UNITS = {
    "dynamics.pz_trajectory.self_s": "s",
    "dynamics.pz_trajectory.calls": "count",
    "dynamics.kernel.mode_points": "count",
    "dynamics.kernel.ns_per_mode_point": "ns",
    "chain.spectral_table.s": "s",
    "chain.spectral_table.calls": "count",
    "bessel.bessel_j0.s": "s",
    "bessel.bessel_j0.calls": "count",
    "bessel.bessel_j0.points": "count",
    "bessel.ns_per_point": "ns",
    "approx.niemeijer_trajectory.self_s": "s",
    "approx.regular_stage_pz.self_s": "s",
    "oracle.build_hamiltonian.s": "s",
    "oracle.diagonalize.s": "s",
    "oracle.dim": "count",
    "oracle.eigh_flops": "flop",
    "oracle.oracle_trajectory.self_s": "s",
    "oracle.evolve.time_points": "count",
    "oracle.energy_drift": "1",
    "oracle.purity_drift": "1",
    "oracle.parity_drift": "1",
    "dynamics.pz_config_sum.s": "s",
    "dynamics.pz_config_sum.calls": "count",
    "dynamics.pz_closed_form.s": "s",
    "dynamics.pz_closed_form.calls": "count",
    "analysis.detect_stages.self_s": "s",
    "analysis.timescales.s": "s",
    "analysis.quiet_cold.s": "s",
    "analysis.scan_metric.s": "s",
    "analysis.scan_metric.calls": "count",
    "cli.scan.pool_efficiency": "ratio",
    "cli.self_s": "s",
    "cli.bytes_written": "bytes",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
}

# The layer predicted to take most of each workload's time.  For scan the
# task seconds are summed over the pool, so the share is taken of
# jobs x wall.
DOMINANT = {
    "closed_form": ("dynamics.pz_trajectory.self_s",),
    "weak_coupling": ("bessel.bessel_j0.s",),
    "dense_oracle": ("oracle.build_hamiltonian.s", "oracle.diagonalize.s"),
    "scan": ("analysis.scan_metric.s",),
}


def op_metrics(spans: list[dict], wall: float, bytes_written: int) -> dict[str, float]:
    """Per-layer metrics of one op from its spans (trace.* and pool_efficiency excluded)."""
    by_name = defaultdict(list)
    child_s = defaultdict(float)
    for s in spans:
        by_name[s["name"]].append(s)
        if s["parent"] is not None:
            child_s[(s["pid"], s["parent"])] += s["end"] - s["start"]

    def total(name):
        return sum(s["end"] - s["start"] for s in by_name[name])

    def self_s(name):
        return sum(s["end"] - s["start"] - child_s[(s["pid"], s["id"])] for s in by_name[name])

    def calls(name):
        return len(by_name[name])

    def sizes(name, key):
        return [s["sizes"][key] for s in by_name[name]]

    mode_points = sum(2 * s["sizes"]["N"] * s["sizes"]["n_t"] for s in by_name["dynamics.pz_trajectory"])
    j0_points = sum(sizes("bessel.bessel_j0", "points"))
    dims = sizes("oracle.diagonalize", "dim")
    roots = [(s["start"], s["end"]) for s in spans if s["parent"] is None]
    return {
        "dynamics.pz_trajectory.self_s": self_s("dynamics.pz_trajectory"),
        "dynamics.pz_trajectory.calls": calls("dynamics.pz_trajectory"),
        "dynamics.kernel.mode_points": mode_points,
        "dynamics.kernel.ns_per_mode_point": (
            1e9 * self_s("dynamics.pz_trajectory") / mode_points if mode_points else 0.0
        ),
        "chain.spectral_table.s": total("chain.spectral_table"),
        "chain.spectral_table.calls": calls("chain.spectral_table"),
        "bessel.bessel_j0.s": total("bessel.bessel_j0"),
        "bessel.bessel_j0.calls": calls("bessel.bessel_j0"),
        "bessel.bessel_j0.points": j0_points,
        "bessel.ns_per_point": 1e9 * total("bessel.bessel_j0") / j0_points if j0_points else 0.0,
        "approx.niemeijer_trajectory.self_s": self_s("approx.niemeijer_trajectory"),
        "approx.regular_stage_pz.self_s": self_s("approx.regular_stage_pz"),
        "oracle.build_hamiltonian.s": total("oracle.build_hamiltonian"),
        "oracle.diagonalize.s": total("oracle.diagonalize"),
        "oracle.dim": max(dims, default=0),
        # Golub & Van Loan's count for all eigenvalues and eigenvectors of a
        # real symmetric matrix: about 9 n^3 flops per diagonalisation.
        "oracle.eigh_flops": sum(9 * d**3 for d in dims),
        "oracle.oracle_trajectory.self_s": self_s("oracle.oracle_trajectory"),
        "oracle.evolve.time_points": sum(sizes("oracle.oracle_trajectory", "time_points")),
        "oracle.energy_drift": max(sizes("oracle.oracle_trajectory", "energy_drift"), default=0.0),
        "oracle.purity_drift": max(sizes("oracle.oracle_trajectory", "purity_drift"), default=0.0),
        "oracle.parity_drift": max(sizes("oracle.oracle_trajectory", "parity_drift"), default=0.0),
        "dynamics.pz_config_sum.s": total("dynamics.pz_config_sum"),
        "dynamics.pz_config_sum.calls": calls("dynamics.pz_config_sum"),
        "dynamics.pz_closed_form.s": total("dynamics.pz_closed_form"),
        "dynamics.pz_closed_form.calls": calls("dynamics.pz_closed_form"),
        "analysis.detect_stages.self_s": self_s("analysis.detect_stages"),
        "analysis.timescales.s": total("analysis.timescales"),
        "analysis.quiet_cold.s": total("analysis.quiet_cold"),
        "analysis.scan_metric.s": total("analysis.scan_metric"),
        "analysis.scan_metric.calls": calls("analysis.scan_metric"),
        # The op's wall outside every library call: parsing, writing, pool start.
        "cli.self_s": wall - _union_length(roots),
        "cli.bytes_written": bytes_written,
    }


def layer_report(workload: str, per_op: list[dict], traced_walls: list[float],
                 untraced_walls: list[float], jobs: int) -> dict:
    """Median per-layer metrics over the traced ops, with overhead and dominance.

    ``per_op`` holds ``op_metrics`` of each traced op.
    """
    metrics = {name: statistics.median(m[name] for m in per_op) for name in per_op[0]}
    wall = statistics.median(traced_walls)
    untraced = statistics.median(untraced_walls)
    pooled = workload == "scan"
    metrics["cli.scan.pool_efficiency"] = (
        metrics["analysis.scan_metric.s"] / (jobs * untraced) if pooled else 0.0
    )
    metrics["trace.wall_s"] = wall
    metrics["trace.untraced_wall_s"] = untraced
    metrics["trace.overhead_s"] = wall - untraced
    layers = DOMINANT[workload]
    share = sum(metrics[name] for name in layers) / ((jobs if pooled else 1) * wall)
    dominance = {"layers": list(layers), "share": share, "confirmed": share > 0.5}
    return {
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in UNITS.items()},
        "dominant": dominance,
    }
