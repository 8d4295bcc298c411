"""Smoke test: every script under ``demos/`` runs to completion.

The stdout of the demos in ``PINNED`` must also equal its golden file,
``tests/golden/demo_<name>.txt``.
"""

import os
import pathlib
import subprocess
import sys

import pytest

import conftest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
PINNED = {"06_contour_calculus"}  # its majorant lines are the contour check's three maxima, proved bounds


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    if demo.stem in PINNED:
        golden = ROOT / "tests" / "golden" / f"demo_{demo.stem}.txt"
        assert proc.stdout == golden.read_text(), f"{golden.name}{conftest.golden_kernel_note()}"
