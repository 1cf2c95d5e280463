"""JSON/text persistence: lossless round-trips and diagnostic errors."""

import time

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
    verify,
    voigt_from_text,
    voigt_to_json,
    voigt_to_text,
)
from deviatoric.decomposition import _record_of
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


def test_reader_rejects_a_huge_order_before_computing_it():
    huge = '{"order": 10000000, "components": [1.0]}'
    part = '{"s": 1, "J": 1, "deviator": {"order": 1, "components": [1, 2, 3]}, "embedded": %s}'
    for read, text in (
        (tensor_from_json, huge),
        (decomposition_from_json, '{"order": 1, "parts": [%s]}' % (part % huge)),
    ):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="field 'components' has length 1, expected 3"):
            read(text)
        assert time.perf_counter() - start < 0.1


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


def reference_tensor_json(t):
    """The writer that formatted one float at a time."""
    components = ", ".join(fmt_float(c) for c in t.ravel())
    return f'{{"order": {t.ndim}, "components": [{components}]}}'


@pytest.mark.parametrize("order", range(7))
def test_writer_matches_per_float_formatting(order):
    rng = np.random.default_rng(45 + order)
    values = rng.standard_normal(3**order) * 10.0 ** rng.integers(-320, 300, 3**order)
    special = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308, 1.0, 1e16, 1e17]
    values[: len(special)] = special[: len(values)]
    t = values.reshape((3,) * order)
    assert tensor_to_json(t) == reference_tensor_json(t)
    d = decompose(rng.standard_normal((3,) * order))
    lines = decomposition_to_json(d).split("\n")
    for line, p in zip(lines[1:-1], d.parts):
        assert reference_tensor_json(p.embedded) in line
        assert reference_tensor_json(p.deviator) in line
    for bad in (np.nan, np.inf, -np.inf):
        t = np.zeros((3, 3))
        t[1, 2] = bad
        with pytest.raises(ValueError, match="cannot serialize non-finite value"):
            tensor_to_json(t)


def test_loaded_images_are_rows_of_one_array(tmp_path):
    t = np.random.default_rng(46).standard_normal((3,) * 4)
    path = tmp_path / "d.json"
    save_decomposition(path, decompose(t))
    d = load_decomposition(path)
    rows = _record_of(d).rows
    assert rows.shape == (len(d.parts), 3**4)
    assert all(p.embedded.base is rows for p in d.parts)


def test_loaded_decomposition_records_its_image_rows():
    t = np.random.default_rng(47).standard_normal((3,) * 5)
    d = decomposition_from_json(decomposition_to_json(decompose(t)))
    rows = _record_of(d).rows
    assert rows is d._record.rows
    for row, p in zip(rows, d.parts):
        assert p.embedded.base is rows
        assert p.embedded.__array_interface__["data"] == row.__array_interface__["data"]
    assert verify(d, t).passes(1e-10)
    d.parts[0].embedded[...] += 0.3 * d.parts[-1].embedded
    assert verify(d, reconstruct(d)).max_cross_correlation > 1e-3
    # every order has at least one part
    with pytest.raises(ValueError, match="field 'parts' is empty"):
        decomposition_from_json('{"order": 3, "parts": []}')


@pytest.mark.parametrize(
    "token, message",
    [
        ("true", "components\\[1\\] is not a number: True"),
        ('"x"', "components\\[1\\] is not a number: 'x'"),
        ("null", "components\\[1\\] is not a number: None"),
        ("1e400", "components\\[1\\] is not a finite number: inf"),
        # an int that rounds down to the largest float, and one that overflows
        (str(2**1024 - 2**970 - 1), "components\\[1\\] is not a finite number: 1797"),
        (str(2**1024), "components\\[1\\] is not a finite number: 1797"),
    ],
)
def test_reader_names_the_bad_component(token, message):
    with pytest.raises(ValueError, match=message):
        tensor_from_json(f'{{"order": 1, "components": [0, {token}, 2]}}')
    part = (
        '{"s": 1, "J": 1, "deviator": {"order": 1, "components": [0, 1, 2]}, '
        f'"embedded": {{"order": 1, "components": [0, {token}, 2]}}}}'
    )
    with pytest.raises(ValueError, match="parts\\[0\\].embedded: " + message):
        decomposition_from_json(f'{{"order": 1, "parts": [{part}]}}')


def test_reader_accepts_the_largest_float_and_ints():
    big = 1.7976931348623157e308
    got = tensor_from_json(f'{{"order": 1, "components": [{big!r}, -3, 0]}}')
    np.testing.assert_array_equal(got, [big, -3.0, 0.0])
