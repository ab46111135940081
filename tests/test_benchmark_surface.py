"""The library names that the benchmark in perfbench/ imports or wraps still exist.

The tracer wraps functions by name and reads their arguments by name, and
the output checks import library functions; a rename in src/ would break
the benchmark without failing any other test.  The perfbench files are
read, not changed: tracer.py is loaded by path (it imports only numpy and
the standard library), and the imports of every perfbench module are read
from its source.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
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
    tracer = _load_tracer()
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
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"
    from xychain.analysis import scan_metric

    assert list(inspect.signature(scan_metric).parameters) == ["params", "p0z", "grid"]
