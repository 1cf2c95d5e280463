"""Every demo script runs to completion against the package in ``src``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# The suite's warning filters (pyproject.toml) do not reach a subprocess, so
# they are passed on.  ``-W`` matches a module name exactly, where the
# suite's filter matches a prefix, so there is one per package module.
MODULES = [
    "deviatoric" if p.stem == "__init__" else f"deviatoric.{p.stem}"
    for p in sorted((ROOT / "src" / "deviatoric").glob("*.py"))
]
WARNING_FILTERS = ["-W", "error::RuntimeWarning"] + [
    f"-Werror::{category}:{module}"
    for category in ("DeprecationWarning", "FutureWarning")
    for module in MODULES
]


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *WARNING_FILTERS, str(demo)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
