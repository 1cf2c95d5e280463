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


def test_sweep_digest_prints_one_line_per_case_and_form():
    """A first line with the digest of the bases B_0 .. B_10, pinned as
    their bits are; then orders 0-2: 6 cases at orders 0 and 1 (random
    tensors, three scales, two seeds) and 12 at order 2 (with their
    symmetrizations), each in three forms.  Every case passes ``verify``,
    and its three forms hold the same arrays, so each digests alike.  The
    certificate has its own digest, apart from the rest of the report."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "sweep_digest.py"), "--orders", "0", "1", "2"],
        capture_output=True, text=True, check=True,
    )
    bases, *rest = proc.stdout.splitlines()
    assert bases == "bases=286fb6f36634dafa"
    lines = [dict(field.split("=", 1) for field in line.split()) for line in rest]
    assert len(lines) == 3 * (6 + 6 + 12)
    assert [line["form"] for line in lines[:3]] == ["decompose", "json", "hand-built"]
    assert list(lines[0]) == ["order", "kind", "scale", "seed", "form", "passes", "deviators",
                              "images", "reconstruct", "certificate", "report", "json"]
    cases = {}
    for line in lines:
        case = tuple(line.pop(key) for key in ("order", "kind", "scale", "seed"))
        line.pop("form")
        cases.setdefault(case, []).append(line)
    assert len(cases) == 24
    for forms in cases.values():
        assert forms[0]["passes"] == "True"
        assert all(len(value) == 16 for key, value in forms[0].items() if key != "passes")
        assert forms[1:] == forms[:1] * 2


# ROADMAP item 3: the vanishing parts of a symmetric tensor at 1e-300 hold
# subnormal rounding noise, and verify fails them
SWEEP_FAILURES = {(str(order), "symmetric", "1e-300", str(seed)) for order in (3, 4, 5, 6) for seed in (0, 1)}


def test_sweep_digest_forms_agree_at_orders_3_to_6():
    """Orders 3-6: 12 cases per order (random tensors and their
    symmetrizations, three scales, two seeds), each in three forms.  The
    three forms of each case digest alike, and every case passes
    ``verify`` but the eight symmetric cases at 1e-300, a known defect."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "sweep_digest.py"), "--orders", "3", "4", "5", "6"],
        capture_output=True, text=True, check=True,
    )
    cases = {}
    for line in proc.stdout.splitlines()[1:]:  # after the line of the bases
        fields = dict(field.split("=", 1) for field in line.split())
        case = tuple(fields.pop(key) for key in ("order", "kind", "scale", "seed"))
        fields.pop("form")
        cases.setdefault(case, []).append(fields)
    assert len(cases) == 48
    for case, forms in cases.items():
        assert len(forms) == 3 and forms[1:] == forms[:1] * 2, case
        assert forms[0]["passes"] == str(case not in SWEEP_FAILURES), case


def test_layer_timings_prints_one_row_per_order():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "layer_timings.py"), "--orders", "2", "4", "--repeat", "1"],
        capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.splitlines()
    header = [cell.strip() for cell in lines[0].strip("|").split("|")]
    assert header == ["n", "parts", "decompose", "reconstruct", "verify", "_apply", "_sum",
                      "residuals", "certificate", "held_kB"]
    rows = [[cell.strip() for cell in line.strip("|").split("|")] for line in lines[2:]]
    assert [row[:2] for row in rows] == [["2", "3"], ["4", "19"]]
    assert all(float(cell) > 0.0 for row in rows for cell in row[2:])


def test_layer_timings_prints_the_material_row():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "layer_timings.py"), "--material", "--repeat", "1"],
        capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.splitlines()
    header = [cell.strip() for cell in lines[0].strip("|").split("|")]
    assert header == ["voigt_to_tensor", "rotate", "stiffness_decompose", "stiffness_reconstruct",
                      "tensor_to_voigt", "coupling_decompose", "coupling_reconstruct",
                      "stiffness_op", "coupling_op", "held_B"]
    assert len(lines) == 3
    row = [cell.strip() for cell in lines[2].strip("|").split("|")]
    assert len(row) == len(header) and all(float(cell) > 0.0 for cell in row)
