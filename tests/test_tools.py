"""The code-line counter in ``tools/``."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COUNTER = ROOT / "tools" / "code_lines.py"

SOURCE = '''"""Module docstring,
over two lines."""

import os  # a comment after code counts


# a comment line
def f(x):
    """One-line docstring."""
    text = """a string that is
    not a docstring"""
    return (x,
            text)


class C:
    """Class docstring."""

    y = 1
'''


def load_counter():
    spec = importlib.util.spec_from_file_location("code_lines", COUNTER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_code_lines_only(tmp_path):
    # import, def, the two lines of the string, return and its continuation,
    # class and the assignment
    path = tmp_path / "sample.py"
    path.write_text(SOURCE)
    assert load_counter().code_lines(str(path)) == 8


def test_prints_each_file_and_the_total(tmp_path):
    paths = [tmp_path / "a.py", tmp_path / "b.py"]
    paths[0].write_text(SOURCE)
    paths[1].write_text("x = 1\n\n# end\n")
    proc = subprocess.run(
        [sys.executable, str(COUNTER), *map(str, paths)], capture_output=True, text=True, check=True
    )
    counts = [line.split()[0] for line in proc.stdout.splitlines()]
    assert counts == ["8", "1", "9"]
    assert proc.stdout.splitlines()[-1].endswith("total")
