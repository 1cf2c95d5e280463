"""JSON/text persistence: lossless round-trips and diagnostic errors."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from deviatoric import (
    decompose,
    decomposition_from_json,
    decomposition_to_json,
    load_decomposition,
    load_tensor,
    load_voigt,
    reconstruct,
    save_decomposition,
    save_tensor,
    save_voigt,
    tensor_from_json,
    tensor_to_json,
    voigt_from_text,
    voigt_to_json,
    voigt_to_text,
)
from deviatoric.serialization import fmt_float


def test_fmt_float():
    for x in (0.1, 1.0 / 3.0, -0.0, 1e-300, 123456789.123456789, 2.0**-52):
        assert float(fmt_float(x)) == x
    with pytest.raises(ValueError):
        fmt_float(float("nan"))
    with pytest.raises(ValueError):
        fmt_float(float("inf"))


@pytest.mark.parametrize("order", range(5))
def test_tensor_json_round_trip_is_bit_exact(order):
    rng = np.random.default_rng(40 + order)
    t = rng.standard_normal((3,) * order)
    back = tensor_from_json(tensor_to_json(t))
    assert back.shape == t.shape
    assert np.array_equal(back, t)


def test_tensor_json_awkward_values():
    t = np.array([1.0 / 3.0, -0.0, 1e-300])
    assert np.array_equal(tensor_from_json(tensor_to_json(t)), t)


def test_tensor_json_error_messages():
    with pytest.raises(ValueError, match="missing field 'order'"):
        tensor_from_json('{"components": [1]}')
    with pytest.raises(ValueError, match="expected 3\\^2 = 9"):
        tensor_from_json('{"order": 2, "components": [1, 2, 3]}')
    with pytest.raises(ValueError, match="non-negative integer"):
        tensor_from_json('{"order": -1, "components": []}')
    with pytest.raises(ValueError, match="not a number"):
        tensor_from_json('{"order": 0, "components": ["x"]}')
    with pytest.raises(ValueError, match="line 2 column"):
        tensor_from_json('{"order": 0,\n "components": }')
    with pytest.raises(ValueError, match="myfile.json"):
        tensor_from_json("[]", context="myfile.json")


@pytest.mark.parametrize(
    "token", ["NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400], ids=lambda t: t[:8]
)
def test_tensor_json_rejects_non_finite(tmp_path, token):
    text = f'{{"order": 1, "components": [1, {token}, 3]}}'
    with pytest.raises(ValueError, match=r"components\[1\] is not a finite number"):
        tensor_from_json(text)
    path = tmp_path / "t.json"
    path.write_text(text)
    with pytest.raises(ValueError, match="t.json"):
        load_tensor(path)
    part = f'{{"s": 0, "J": 1, "deviator": {{"order": 0, "components": [{token}]}}, '
    part += '"embedded": {"order": 0, "components": [1]}}'
    with pytest.raises(ValueError, match=r"parts\[0\]\.deviator: components\[0\]"):
        decomposition_from_json(f'{{"order": 0, "parts": [{part}]}}')


def test_decomposition_round_trip():
    rng = np.random.default_rng(41)
    t = rng.standard_normal((3, 3, 3))
    d = decompose(t)
    back = decomposition_from_json(decomposition_to_json(d))
    assert back.order == d.order
    assert len(back.parts) == len(d.parts)
    for p, q in zip(d.parts, back.parts):
        assert (p.s, p.J) == (q.s, q.J)
        assert np.array_equal(p.deviator, q.deviator)
        assert np.array_equal(p.embedded, q.embedded)
    assert_allclose(reconstruct(back), t, atol=1e-12)


def test_decomposition_error_messages():
    with pytest.raises(ValueError, match="missing field 'parts'"):
        decomposition_from_json('{"order": 2}')
    with pytest.raises(ValueError, match="parts\\[0\\]"):
        decomposition_from_json('{"order": 2, "parts": [{"s": 0}]}')
    bad = (
        '{"order": 1, "parts": [{"s": 1, "J": 1,'
        ' "deviator": {"order": 2, "components": [0,0,0,0,0,0,0,0,0]},'
        ' "embedded": {"order": 1, "components": [0,0,0]}}]}'
    )
    with pytest.raises(ValueError, match="does not match s"):
        decomposition_from_json(bad)


def test_file_round_trips(tmp_path):
    rng = np.random.default_rng(42)
    t = rng.standard_normal((3, 3))
    path = tmp_path / "t.json"
    save_tensor(path, t)
    assert np.array_equal(load_tensor(path), t)

    d = decompose(t)
    dpath = tmp_path / "d.json"
    save_decomposition(dpath, d)
    back = load_decomposition(dpath)
    assert np.array_equal(reconstruct(back), reconstruct(d))

    # file context appears in errors
    (tmp_path / "junk.json").write_text("{")
    with pytest.raises(ValueError, match="junk.json"):
        load_tensor(tmp_path / "junk.json")


def test_voigt_json_and_text_round_trips(tmp_path):
    rng = np.random.default_rng(43)
    m = rng.standard_normal((6, 6))
    assert np.array_equal(voigt_from_text(voigt_to_json(m)), m)
    assert np.array_equal(voigt_from_text(voigt_to_text(m)), m)
    for fmt in ("json", "text"):
        path = tmp_path / f"m.{fmt}"
        save_voigt(path, m, fmt=fmt)
        assert np.array_equal(load_voigt(path), m)
    with pytest.raises(ValueError):
        save_voigt(tmp_path / "m.x", m, fmt="csv")


def test_voigt_parse_errors():
    with pytest.raises(ValueError, match="6 rows"):
        voigt_from_text("[[1, 2], [3, 4]]")
    with pytest.raises(ValueError, match="6 lines"):
        voigt_from_text("1 2 3 4 5 6\n1 2 3 4 5 6\n")
    with pytest.raises(ValueError, match="non-numeric"):
        voigt_from_text("\n".join(["1 2 3 4 5 x"] + ["1 2 3 4 5 6"] * 5))
    with pytest.raises(ValueError, match="not a number"):
        voigt_from_text("[" + ", ".join(['[1, 2, 3, 4, 5, "x"]'] + ["[1, 2, 3, 4, 5, 6]"] * 5) + "]")


@pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e400"])
def test_voigt_rejects_non_finite(token):
    text = "\n".join(["1 2 3 4 5 6"] * 2 + [f"1 2 {token} 4 5 6"] + ["1 2 3 4 5 6"] * 3)
    with pytest.raises(ValueError, match=r"entry \[2\]\[2\] is not a finite number"):
        voigt_from_text(text)
    json_token = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}.get(token, token)
    rows = ["[1, 2, 3, 4, 5, 6]"] * 6
    rows[4] = f"[1, {json_token}, 3, 4, 5, 6]"
    with pytest.raises(ValueError, match=r"entry \[4\]\[1\] is not a finite number"):
        voigt_from_text("[" + ", ".join(rows) + "]")


def test_writer_output_is_deterministic():
    rng = np.random.default_rng(44)
    t = rng.standard_normal((3, 3, 3))
    assert tensor_to_json(t) == tensor_to_json(t.copy())
