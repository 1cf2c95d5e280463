"""Command-line interface: subcommands, exit codes, file pipelines."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from deviatoric import (
    IrreduciblePart,
    decompose,
    from_coords,
    isotropic_stiffness,
    save_tensor,
    save_voigt,
    tensor_to_voigt,
    verify,
)
from deviatoric.cli import main
from deviatoric.serialization import (
    decomposition_to_json, fmt_float, load_decomposition, load_tensor,
)
from forms import json_with_images

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_process(*argv):
    """The CLI run as a process, so that an escaped exception would show as
    a traceback on stderr."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "deviatoric.cli", *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_counts_table_row(capsys):
    code, out, _ = run(capsys, "counts", "--order", "6")
    assert code == 0
    assert out.strip() == "15 36 40 29 15 5 1"


def test_counts_json(capsys):
    code, out, _ = run(capsys, "counts", "--order", "4", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"order": 4, "counts": [3, 6, 6, 3, 1]}


def test_random_is_seed_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(capsys, "random", "--order", "3", "--seed", "7", "--output", str(a))[0] == 0
    assert run(capsys, "random", "--order", "3", "--seed", "7", "--output", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()
    assert run(capsys, "random", "--order", "3", "--seed", "8", "--output", str(b))[0] == 0
    assert a.read_bytes() != b.read_bytes()


def test_random_tensor_too_large_to_hold_is_an_input_error(capsys):
    # an order-30 tensor is 3^30 doubles, 1.46 PiB: its allocation fails at
    # once, so nothing is taken (at orders 16-22 it may partly succeed)
    code, out, err = run(capsys, "random", "--order", "30")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "allocate" in err and "Traceback" not in err


def test_decompose_reconstruct_verify_pipeline(tmp_path, capsys):
    t_path = tmp_path / "t.json"
    d_path = tmp_path / "d.json"
    back_path = tmp_path / "back.json"
    assert run(capsys, "random", "--order", "4", "--seed", "1", "--output", str(t_path))[0] == 0

    code, out, _ = run(
        capsys, "decompose", "--input", str(t_path), "--output", str(d_path), "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["reconstruction_relative"] <= 1e-10

    code, _, _ = run(capsys, "reconstruct", "--input", str(d_path), "--output", str(back_path))
    assert code == 0
    t = load_tensor(t_path)
    back = load_tensor(back_path)
    assert np.linalg.norm((back - t).ravel()) <= 1e-10 * np.linalg.norm(t.ravel())

    code, out, _ = run(
        capsys,
        "verify",
        "--input",
        str(d_path),
        "--against",
        str(t_path),
        "--format",
        "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["passes"] is True
    assert report["counts_ok"] is True
    want = verify(load_decomposition(d_path), t)
    assert report["max_embedding_residual"] == want.max_embedding_residual <= 1e-14


def test_decompose_to_stdout(tmp_path, capsys):
    t_path = tmp_path / "t.json"
    run(capsys, "random", "--order", "2", "--seed", "3", "--output", str(t_path))
    code, out, _ = run(capsys, "decompose", "--input", str(t_path))
    assert code == 0
    assert json.loads(out)["order"] == 2


def test_verify_catches_corruption(tmp_path, capsys):
    t_path = tmp_path / "t.json"
    d_path = tmp_path / "d.json"
    run(capsys, "random", "--order", "3", "--seed", "2", "--output", str(t_path))
    run(capsys, "decompose", "--input", str(t_path), "--output", str(d_path))

    # decompose writes no image: a corrupted deviator fails verify
    raw = json.loads(d_path.read_text())
    assert all("embedded" not in p for p in raw["parts"])
    raw["parts"][1]["deviator"]["components"][0] += 1e-4
    d_path.write_text(json.dumps(raw))
    code, _, _ = run(capsys, "verify", "--input", str(d_path), "--against", str(t_path))
    assert code == 1

    # a file that gives its images: a corrupted image fails verify
    d = decompose(load_tensor(t_path))
    bumped = d.parts[1].embedded.copy()
    bumped[0, 0, 0] += 1e-4
    parts = list(d.parts)
    parts[1] = type(parts[1])(
        s=parts[1].s, J=parts[1].J, deviator=parts[1].deviator, embedded=bumped
    )
    d_path.write_text(json_with_images(type(d)(order=d.order, parts=tuple(parts))))

    code, out, _ = run(capsys, "verify", "--input", str(d_path), "--format", "json")
    assert code == 1
    assert json.loads(out)["passes"] is False
    code, _, _ = run(capsys, "verify", "--input", str(d_path), "--against", str(t_path))
    assert code == 1


@pytest.mark.parametrize("scale", [0.0, 1e-12, 1.0])
def test_decompose_report_matches_verify(tmp_path, capsys, scale):
    t_path = tmp_path / "t.json"
    d_path = tmp_path / "d.json"
    save_tensor(t_path, scale * np.random.default_rng(6).standard_normal((3, 3, 3, 3)))
    t = load_tensor(t_path)
    rel = verify(decompose(t), t).reconstruction_relative
    code, out, _ = run(capsys, "decompose", "--input", str(t_path), "--output", str(d_path))
    assert code == 0
    assert out == f"order = 4\nparts = 19\nreconstruction_relative = {rel:.12g}\n"
    code, out, _ = run(
        capsys, "decompose", "--input", str(t_path), "--output", str(d_path), "--format", "json"
    )
    assert code == 0
    assert out == f'{{"order": 4, "parts": 19, "reconstruction_relative": {fmt_float(rel)}}}\n'


def other_layout_files(tmp_path):
    """Order-3 decomposition files, without images and with them, whose
    parts are moved, dropped, duplicated or relabelled."""
    d = decompose(np.random.default_rng(3).standard_normal((3, 3, 3)))
    files = []
    for text in (decomposition_to_json(d), json_with_images(d)):
        parts = json.loads(text)["parts"]
        k, k2 = [i for i, p in enumerate(parts) if p["s"] == 1][:2]
        relabelled = [dict(p) for p in parts]
        relabelled[k]["J"] = 9
        cases = {
            "moved": parts[1:] + parts[:1],
            "dropped": parts[:-1],
            "duplicated": parts[:k2] + [parts[k]] + parts[k2 + 1 :],
            "relabelled": relabelled,
        }
        for name, other in cases.items():
            path = tmp_path / f"{name}-{'embedded' in parts[0]}.json"
            path.write_text(json.dumps({"order": 3, "parts": other}))
            files.append(path)
    return files


@pytest.mark.parametrize("command", ["reconstruct", "verify"])
def test_another_part_layout_exits_2(tmp_path, capsys, command):
    # a file without parts is the remaining case: test_decomposition_file_without_parts_exits_2
    t_path = tmp_path / "t.json"
    run(capsys, "random", "--order", "3", "--seed", "3", "--output", str(t_path))
    files = other_layout_files(tmp_path)
    assert len(files) == 8
    for path in files:
        against = ("--against", str(t_path)) if command == "verify" else ()
        code, out, err = run(capsys, command, "--input", str(path), *against)
        assert code == 2 and out == "", path
        assert err == f"error: {path}: field 'parts' is not in the (s, J) layout of decompose\n"


def test_canonical_residual_is_relative_to_scale(tmp_path, capsys):
    # two order-1 parts with their contents swapped: the images still sum to
    # the tensor, but a decomposition is its deviators, and in each other's
    # slots they sum to another tensor.  The sum, the tie of each image to
    # its own deviator and the comparison with the canonical decomposition
    # each catch them, at any scale of the tensor
    t_path = tmp_path / "t.json"
    d_path = tmp_path / "d.json"
    save_tensor(t_path, 1e-12 * np.random.default_rng(7).standard_normal((3, 3, 3)))
    d = decompose(load_tensor(t_path))
    i, j = [k for k, p in enumerate(d.parts) if p.s == 1][:2]
    parts = list(d.parts)
    for a, b in ((i, j), (j, i)):
        parts[a] = type(parts[a])(
            s=1, J=parts[a].J, deviator=d.parts[b].deviator, embedded=d.parts[b].embedded
        )
    d_path.write_text(json_with_images(type(d)(order=d.order, parts=tuple(parts))))
    code, out, _ = run(
        capsys, "verify", "--input", str(d_path), "--against", str(t_path), "--format", "json"
    )
    report = json.loads(out)
    assert report["reconstruction_relative"] > 1e-3
    assert report["max_embedding_residual"] > 1e-3
    assert report["canonical_residual"] > 1e-3
    assert code == 1


def test_canonical_residual_catches_what_verify_passes(tmp_path, capsys):
    # the top deviator of a tensor that is mostly that deviator is moved by
    # 0.9e-10 of its norm off the deviators (antisymmetric in its first two
    # indices: symmetry residual 0.9e-10, trace 0) and by 0.9e-10 of |t|
    # along them (its image as much, lambda being 1 at s = n: reconstruction
    # 0.9e-10).  ``verify`` passes at 1e-10, but the deviator has moved by
    # about sqrt(2) * 0.9e-10 of |t|, and the comparison with the canonical
    # decomposition sees it
    t_path = tmp_path / "t.json"
    d_path = tmp_path / "d.json"
    rng = np.random.default_rng(10)
    top = from_coords(rng.standard_normal(13), 6)
    save_tensor(t_path, top + 1e-3 * rng.standard_normal((3,) * 6))
    t = load_tensor(t_path)
    d = decompose(t)
    x = next(p for p in d.parts if p.s == 6).deviator
    off = rng.standard_normal(x.shape)
    off -= off.swapaxes(0, 1)
    along = from_coords(rng.standard_normal(13), 6)
    off *= np.linalg.norm(x) / np.linalg.norm(off)
    along *= np.linalg.norm(t) / np.linalg.norm(along)
    x += 0.9e-10 * (off + along)
    d_path.write_text(decomposition_to_json(d))
    assert verify(load_decomposition(d_path), t).passes(1e-10)
    code, out, _ = run(
        capsys, "verify", "--input", str(d_path), "--against", str(t_path), "--format", "json"
    )
    report = json.loads(out)
    assert 0.8e-10 <= report["reconstruction_relative"] <= 1e-10
    assert 0.8e-10 <= report["max_part_residual"] <= 1e-10
    assert report["max_embedding_residual"] == 0.0 and report["max_cross_correlation"] <= 1e-13
    assert report["canonical_residual"] > 1.2e-10
    assert code == 1 and report["passes"] is False


def test_verify_reports_tilted_images(tmp_path, capsys):
    # each image but one s = 0 image is tilted towards that image by 0.4e-10
    # of its norm, with its deviator kept, and the s = 0 part shrinks so that
    # the images still sum to the tensor.  The images are checked where the
    # file is read: the tie is 4e-11 and the bound 8e-11.  A decomposition
    # is its deviators, so the shrunk s = 0 deviator is what is summed: the
    # sum and the comparison with the canonical decomposition both fail
    t_path = tmp_path / "t.json"
    d_path = tmp_path / "d.json"
    save_tensor(t_path, np.random.default_rng(9).standard_normal((3,) * 6))
    t = load_tensor(t_path)
    d = decompose(t)
    k = next(i for i, p in enumerate(d.parts) if p.s == 0)
    f0 = d.parts[k].embedded
    u = f0 / np.linalg.norm(f0)
    parts = list(d.parts)
    moved = 0.0
    for i, p in enumerate(d.parts):
        if i != k:
            tilt = 0.4e-10 * np.linalg.norm(p.embedded)
            parts[i] = type(p)(s=p.s, J=p.J, deviator=p.deviator, embedded=p.embedded + tilt * u)
            moved += tilt
    shrink = 1.0 - moved / np.linalg.norm(f0)
    p = d.parts[k]
    parts[k] = type(p)(s=p.s, J=p.J, deviator=shrink * p.deviator, embedded=shrink * p.embedded)
    # the tilted images are in the file, each next to its own deviator
    d_path.write_text(json_with_images(type(d)(order=d.order, parts=tuple(parts))))
    code, out, _ = run(
        capsys, "verify", "--input", str(d_path), "--against", str(t_path), "--format", "json"
    )
    report = json.loads(out)
    assert 3e-11 <= report["max_embedding_residual"] <= 5e-11
    assert report["max_cross_correlation"] <= 1e-10
    assert report["reconstruction_relative"] > 1e-10 and report["canonical_residual"] > 1e-10
    assert code == 1 and report["passes"] is False


@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_verify_at_extreme_scales(tmp_path, capsys, scale):
    t_path = tmp_path / "t.json"
    d_path = tmp_path / "d.json"
    save_tensor(t_path, scale * np.random.default_rng(8).standard_normal((3, 3, 3)))
    code, out, _ = run(
        capsys, "decompose", "--input", str(t_path), "--output", str(d_path), "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["reconstruction_relative"] <= 1e-15
    code, out, _ = run(
        capsys, "verify", "--input", str(d_path), "--against", str(t_path), "--format", "json"
    )
    report = json.loads(out)
    assert code == 0 and report["passes"]
    assert report["canonical_residual"] == 0.0
    # the same swap of two order-1 parts as above fails at this scale too
    d = load_decomposition(d_path)
    i, j = [k for k, p in enumerate(d.parts) if p.s == 1][:2]
    parts = list(d.parts)
    for a, b in ((i, j), (j, i)):
        parts[a] = type(parts[a])(
            s=1, J=d.parts[a].J, deviator=d.parts[b].deviator, embedded=d.parts[b].embedded
        )
    d_path.write_text(json_with_images(type(d)(order=d.order, parts=tuple(parts))))
    code, out, _ = run(
        capsys, "verify", "--input", str(d_path), "--against", str(t_path), "--format", "json"
    )
    report = json.loads(out)
    assert report["canonical_residual"] > 1e-3
    assert code == 1


def test_verify_order_mismatch_is_input_error(tmp_path, capsys):
    t_path = tmp_path / "t.json"
    d_path = tmp_path / "d.json"
    run(capsys, "random", "--order", "2", "--seed", "4", "--output", str(t_path))
    run(capsys, "decompose", "--input", str(t_path), "--output", str(d_path))
    other = tmp_path / "other.json"
    run(capsys, "random", "--order", "3", "--seed", "4", "--output", str(other))
    code, _, err = run(capsys, "verify", "--input", str(d_path), "--against", str(other))
    assert code == 2
    assert "order mismatch" in err


def test_input_errors_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"order": 2, "components": [1, 2, 3]}')
    code, _, err = run(capsys, "decompose", "--input", str(bad))
    assert code == 2
    assert "expected 3^2 = 9" in err

    bad.write_text('{"order": 10000000, "components": [1.0]}')
    code, _, err = run(capsys, "decompose", "--input", str(bad))
    assert code == 2
    assert "field 'components' has length 1" in err

    code, _, err = run(capsys, "decompose", "--input", str(tmp_path / "missing.json"))
    assert code == 2
    assert "missing.json" in err

    junk = tmp_path / "junk.json"
    junk.write_text("not json")
    code, _, err = run(capsys, "decompose", "--input", str(junk))
    assert code == 2
    assert "line 1 column 1" in err


@pytest.mark.parametrize("command", ["reconstruct", "verify"])
def test_decomposition_file_without_parts_exits_2(tmp_path, command):
    # every order has at least one part; read as a file without any, an
    # order-20 one would have taken 3^20 doubles
    empty = tmp_path / "empty.json"
    empty.write_text('{"order": 20, "parts": []}')
    proc = run_process(command, "--input", str(empty))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and "field 'parts' is empty" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def rejected_decomposition_files(tmp_path):
    """Order-3 decomposition files that the reader rejects, each with the
    field it names: one that gives the image of only some parts, and one
    without images whose parts are not in the layout of ``decompose``."""
    d = decompose(np.random.default_rng(11).standard_normal((3, 3, 3)))
    mixed = json.loads(json_with_images(d))
    del mixed["parts"][4]["embedded"]
    moved = json.loads(decomposition_to_json(d))
    moved["parts"] = moved["parts"][1:] + moved["parts"][:1]
    files = {}
    for name, raw, field in (
        ("mixed.json", mixed, "parts[4]: has no field 'embedded', unlike parts[0]"),
        ("moved.json", moved, "field 'parts' is not in the (s, J) layout of decompose"),
    ):
        (tmp_path / name).write_text(json.dumps(raw))
        files[tmp_path / name] = field
    return files


@pytest.mark.parametrize("command", ["reconstruct", "verify"])
def test_decomposition_files_the_reader_rejects_exit_2(tmp_path, capsys, command):
    for path, field in rejected_decomposition_files(tmp_path).items():
        code, out, err = run(capsys, command, "--input", str(path))
        assert code == 2 and out == ""
        assert err.startswith(f"error: {path}: {field}")


def test_decompose_report_builds_no_part(tmp_path, capsys, monkeypatch):
    # counting the parts of an order-7 decomposition from its parts would
    # build its 393 images, 6.9 MB
    t_path, d_path = tmp_path / "t.json", tmp_path / "d.json"
    save_tensor(t_path, np.random.default_rng(12).standard_normal((3,) * 7))
    built = []
    init = IrreduciblePart.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(IrreduciblePart, "__init__", counting)
    code, out, _ = run(capsys, "decompose", "--input", str(t_path), "--output", str(d_path))
    assert code == 0 and "parts = 393\n" in out
    assert built == []


def test_non_finite_input_exits_2(tmp_path, capsys):
    bad = tmp_path / "nan.json"
    bad.write_text('{"order": 1, "components": [0.5, NaN, 1]}')
    out_path = tmp_path / "d.json"
    code, out, err = run(capsys, "decompose", "--input", str(bad), "--output", str(out_path))
    assert code == 2
    assert out == ""
    assert "nan.json" in err and "components[1] is not a finite number" in err
    assert not out_path.exists()


def test_stiffness_command_all_input_forms(tmp_path, capsys):
    c = isotropic_stiffness(2.0, 1.0)
    m = tensor_to_voigt(c)
    voigt_json = tmp_path / "m.json"
    voigt_text = tmp_path / "m.txt"
    tensor_json = tmp_path / "c.json"
    save_voigt(voigt_json, m, fmt="json")
    save_voigt(voigt_text, m, fmt="text")
    save_tensor(tensor_json, c)

    for path in (voigt_json, voigt_text, tensor_json):
        out_path = tmp_path / "parts.json"
        code, out, _ = run(
            capsys,
            "stiffness",
            "--input",
            str(path),
            "--output",
            str(out_path),
            "--format",
            "json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["lam"] == pytest.approx(2.0)
        assert report["mu"] == pytest.approx(1.0)
        assert report["norm_d4"] == pytest.approx(0.0, abs=1e-12)
        parts = json.loads(out_path.read_text())
        assert parts["lam"] == pytest.approx(2.0)
        assert parts["d1"]["order"] == 2
        assert parts["d4"]["order"] == 4


def test_stiffness_rejects_wrong_order_tensor(tmp_path, capsys):
    t_path = tmp_path / "t.json"
    run(capsys, "random", "--order", "3", "--seed", "5", "--output", str(t_path))
    code, _, err = run(capsys, "stiffness", "--input", str(t_path))
    assert code == 2
    assert "order 4" in err


def test_coupling_command_variants(tmp_path, capsys):
    rng = np.random.default_rng(45)
    h = rng.standard_normal((3, 3, 3))
    h = 0.5 * (h + h.swapaxes(0, 1))
    h_path = tmp_path / "h.json"
    save_tensor(h_path, h)

    out_path = tmp_path / "parts.json"
    code, out, _ = run(
        capsys,
        "coupling",
        "--input",
        str(h_path),
        "--output",
        str(out_path),
        "--format",
        "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["coefficients"] == "fitted"
    assert report["reconstruction_residual"] <= 1e-10
    parts = json.loads(out_path.read_text())
    assert parts["alpha"] == 0.0
    assert parts["d3"]["order"] == 3

    code, out, _ = run(
        capsys,
        "coupling",
        "--input",
        str(h_path),
        "--coefficients",
        "printed",
        "--output",
        str(out_path),
        "--format",
        "json",
    )
    assert code == 0
    assert json.loads(out)["coefficients"] == "printed"


def material_reports(tmp_path, capsys, scale):
    """The JSON reports of ``stiffness`` and ``coupling`` on fixed inputs
    multiplied by ``scale``."""
    rng = np.random.default_rng(46)
    m = rng.standard_normal((6, 6))
    h = rng.standard_normal((3, 3, 3))
    c_path, h_path, out_path = tmp_path / "c.txt", tmp_path / "h.json", tmp_path / "parts.json"
    save_voigt(c_path, scale * (m + m.T), fmt="text")
    save_tensor(h_path, scale * (h + h.swapaxes(0, 1)))
    reports = []
    for command, path in (("stiffness", c_path), ("coupling", h_path)):
        code, out, err = run(
            capsys, command, "--input", str(path), "--output", str(out_path), "--format", "json"
        )
        assert code == 0, err
        reports.append(json.loads(out))
    return reports


@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_material_reports_at_extreme_scales(tmp_path, capsys, scale):
    stiffness, coupling = material_reports(tmp_path, capsys, scale)
    ref_stiffness, ref_coupling = material_reports(tmp_path, capsys, 1.0)
    for report, ref in ((stiffness, ref_stiffness), (coupling, ref_coupling)):
        norms = [key for key in ref if key.startswith("norm_")]
        assert len(norms) >= 3
        for key in norms + [key for key in ("lam", "mu") if key in ref]:
            assert report[key] == pytest.approx(scale * ref[key], rel=1e-13, abs=0), key
    rel = coupling["reconstruction_residual"] / (scale * ref_coupling["norm_d3"])
    assert 0.0 <= rel <= 1e-13


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_coupling_at_the_float_limit(tmp_path, fmt):
    """A coupling file with entries up to 1.7e308, run as a process: the
    norms in the report may overflow, and a JSON report then fails as an
    input error, but nothing escapes as an exception."""
    h = np.random.default_rng(28).standard_normal((3, 3, 3))
    h = h + h.swapaxes(0, 1)
    h_path, out_path = tmp_path / "h.json", tmp_path / "parts.json"
    save_tensor(h_path, h / np.abs(h).max() * 1.7e308)
    proc = run_process("coupling", "--input", str(h_path), "--output", str(out_path), "--format", fmt)
    assert proc.returncode in (0, 2), proc.stderr
    assert "Traceback" not in proc.stderr


def test_coupling_report_at_the_float_limit_in_process(tmp_path, capsys):
    """Coupling files with entries up to 1.7e308, run in process under the
    suite's warning filter: the text report holds a small reconstruction
    residual; a JSON report with an overflowed norm is an input error."""
    rng = np.random.default_rng(5)
    h_path, out_path = tmp_path / "h.json", tmp_path / "parts.json"
    for _ in range(20):
        h = rng.uniform(-1.0, 1.0, (3, 3, 3))
        save_tensor(h_path, 1.7e308 * np.ldexp(h + h.swapaxes(0, 1), -1))
        argv = ["coupling", "--input", str(h_path), "--output", str(out_path)]
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        report = dict(line.split(" = ") for line in out.splitlines())
        assert float(report["reconstruction_residual"]) <= 1e-12 * 1.7e308
        code, out, err = run(capsys, *argv, "--format", "json")
        assert code == 0 or (code == 2 and "non-finite" in err), err


def test_coupling_rejects_wrong_order(tmp_path, capsys):
    t_path = tmp_path / "t.json"
    run(capsys, "random", "--order", "4", "--seed", "6", "--output", str(t_path))
    code, _, err = run(capsys, "coupling", "--input", str(t_path))
    assert code == 2
    assert "order 3" in err


def test_coupling_rejects_asymmetric_tensor(tmp_path, capsys):
    h = np.zeros((3, 3, 3))
    h[0, 1, 0] = 1.0
    h_path = tmp_path / "h.json"
    save_tensor(h_path, h)
    code, _, err = run(capsys, "coupling", "--input", str(h_path))
    assert code == 2
    assert "symmetry" in err


def test_tolerance_flag(tmp_path, capsys):
    t_path = tmp_path / "t.json"
    d_path = tmp_path / "d.json"
    run(capsys, "random", "--order", "2", "--seed", "9", "--output", str(t_path))
    run(capsys, "decompose", "--input", str(t_path), "--output", str(d_path))
    code, out, _ = run(
        capsys, "verify", "--input", str(d_path), "--tolerance", "1e-6", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["tolerance"] == 1e-6
    # argparse rejects a nonpositive or non-finite tolerance before any compute
    for tolerance in ("0", "inf", "nan"):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--input", str(d_path), "--tolerance", tolerance])
        assert exc.value.code == 2
        capsys.readouterr()
