"""The demo scripts in scripts/ run end to end at small sizes."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, args, outputs",
    [
        ("fig1_decoherence.py", "--N 6 --points 81 --out fig1.csv", ["fig1.csv"]),
        ("fig2_stages.py", "--N 20 --tmax 300 --points 12001 --out fig2.csv", ["fig2.csv"]),
        (
            "fig3_panels.py",
            "--N 20 --tmax 60 --points 2401 --prefix fig3",
            [f"fig3_gamma{g}_h{h}.csv" for g in (0, 1) for h in (2, 10)],
        ),
    ],
)
def test_script_runs(script, args, outputs, tmp_path):
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args.split()],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    for name in outputs:
        assert (tmp_path / name).stat().st_size > 0, name
