"""The library names that the benchmark in perfbench/ imports or wraps still exist.

The tracer wraps functions by name and reads their arguments by name, and
the output checks import library functions; a rename in src/ would break
the benchmark without failing any other test.  The perfbench files are
read, not changed: tracer.py, checks.py and workloads.py are loaded by path
(they import only numpy and the standard library at module level), and the
imports of every perfbench module are read from its source.  The J0 check
in checks.py splits its points at SERIES_CUTOFF, so that constant must stay
the seam between bessel_j0's two branches.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import inspect
import json
from pathlib import Path

import numpy as np

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _sizes_arguments() -> dict[str, set[str]]:
    """Span name -> the argument names its _SIZES entry reads as a["..."]."""
    tree = ast.parse((PERFBENCH / "tracer.py").read_text(encoding="utf-8"))
    table = next(
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "_SIZES" for t in node.targets)
    )
    out = {}
    for key, value in zip(table.keys, table.values):
        arg = value.args.args[0].arg
        out[key.value] = {
            node.slice.value for node in ast.walk(value)
            if isinstance(node, ast.Subscript) and getattr(node.value, "id", None) == arg
        }
    return out


def test_traced_names_resolve_and_bind_their_sized_arguments():
    tracer = _load("tracer")
    sized = _sizes_arguments()
    assert set(sized) <= {f"{m}.{f}" for m, names in tracer.TRACED.items() for f in names}
    assert set().union(*sized.values()) == {"params", "grid", "x", "t", "traj"}
    for module, names in tracer.TRACED.items():
        for name in names:
            fn = getattr(importlib.import_module(f"xychain.{module}"), name)
            assert callable(fn), f"xychain.{module}.{name}"
            params = inspect.signature(fn).parameters
            missing = sized.get(f"{module}.{name}", set()) - set(params)
            assert not missing, f"xychain.{module}.{name} no longer takes {sorted(missing)}"


def test_benchmark_imports_exist():
    imported = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("xychain"):
                imported |= {(node.module, alias.name) for alias in node.names}
    assert {
        ("xychain.bessel", "SERIES_CUTOFF"),
        ("xychain.analysis", "scan_grid_spec"),
        ("xychain.analysis", "scan_metric"),
        ("xychain.chain", "ChainParams"),
    } <= imported
    for module, name in sorted(imported):
        # `from xychain import cli` names a submodule, an attribute only once imported
        found = hasattr(importlib.import_module(module), name) or importlib.util.find_spec(f"{module}.{name}")
        assert found, f"{module}.{name}"
    from xychain.analysis import scan_metric

    assert list(inspect.signature(scan_metric).parameters) == ["params", "p0z", "grid"]


def _record_branches(monkeypatch) -> dict[str, list[float]]:
    """Wrap both J0 branches; each call appends the x it was given."""
    from xychain import bessel

    seen = {"_trapezoid": [], "_hankel": []}
    for name, xs in seen.items():
        branch = getattr(bessel, name)
        monkeypatch.setattr(bessel, name, lambda y, branch=branch, xs=xs: xs.extend(y.tolist()) or branch(y))
    return seen


def test_series_cutoff_is_the_j0_seam(monkeypatch, tmp_path):
    # perfbench's J0 check samples half its points in [0, SERIES_CUTOFF] and
    # half above it, one per branch; the cutoff must be where bessel_j0
    # switches branch, and the real sampling must reach both.
    from xychain import cli
    from xychain.bessel import SERIES_CUTOFF, bessel_j0

    seen = _record_branches(monkeypatch)
    cut = SERIES_CUTOFF
    for x in (0.0, cut - 1e-9, cut, -cut):
        bessel_j0(x)
    for x in (np.nextafter(cut, np.inf), cut + 1e-9, 999.0):
        bessel_j0(x)
    assert seen["_trapezoid"] == [0.0, cut - 1e-9, cut, cut]
    assert seen["_hankel"] == [np.nextafter(cut, np.inf), cut + 1e-9, 999.0]

    checks, workloads = _load("checks"), _load("workloads")
    (tmp_path / "analyze.json").write_text(json.dumps({"stages": {}, "timescales": {}}))
    for seed in (1, 11):
        seen["_trapezoid"].clear()
        seen["_hankel"].clear()
        parsed = [cli.build_parser().parse_args(argv) for argv in workloads.ops("weak_coupling", seed, 1)]
        results = checks.check_outputs("weak_coupling", tmp_path, parsed, seed)
        assert all(ok for _, ok, _ in results), results
        small, large = seen["_trapezoid"], seen["_hankel"]
        assert len(small) == len(large) == checks.J0_POINTS // 2
        assert all(0.0 <= x <= cut for x in small)
        assert all(cut < x <= parsed[0].kappa * parsed[0].tmax for x in large)
