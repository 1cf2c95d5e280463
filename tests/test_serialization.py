"""JSON/text persistence: lossless round-trips and diagnostic errors."""

import dataclasses
import json
import re
import time
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from deviatoric import (
    Decomposition,
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
from deviatoric.decomposition import _plan, _record_of
from deviatoric.serialization import fmt_float
from forms import json_with_images


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


def test_negative_zero_survives_a_round_trip():
    """JSON reads "-0" as the integer 0, so -0.0 is written "-0.0": a
    tensor, a decomposition and a Voigt matrix read back keep every sign
    bit, and write the same text again."""
    assert np.signbit(json.loads(fmt_float(-0.0)))
    t = np.array([[-0.0, 0.0, -1.0], [1e-300, -0.0, 2.0], [0.0, -0.0, -0.0]])
    text = tensor_to_json(t)
    back = tensor_from_json(text)
    assert np.array_equal(np.signbit(back), np.signbit(t)) and np.array_equal(back, t)
    assert tensor_to_json(back) == text
    m = np.where(np.eye(6) > 0, 1.0, -0.0)
    for write in (voigt_to_json, voigt_to_text):
        assert np.array_equal(np.signbit(voigt_from_text(write(m))), np.signbit(m))
    d = decompose(np.random.default_rng(46).standard_normal((3, 3, 3)))
    hand = Decomposition(3, tuple(
        dataclasses.replace(p, deviator=np.where(p.deviator > 0.0, -0.0, p.deviator)) for p in d.parts
    ))
    text = decomposition_to_json(hand)
    back = decomposition_from_json(text)
    for (_, _, a), (_, _, b) in zip(_record_of(hand).stacks, back._record.stacks):
        assert np.array_equal(np.signbit(a), np.signbit(b)) and np.array_equal(a, b)
    assert decomposition_to_json(back) == text


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
    # the file holds the deviators of d, bit for bit, so it sums as d does
    assert np.array_equal(reconstruct(load_decomposition(dpath)), reconstruct(d))
    # a copy is written as d is: its deviators, and no image
    text = dpath.read_text()
    save_decomposition(dpath, Decomposition(d.order, d.parts))
    assert dpath.read_text() == text

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
    # decompose output and a copy are written alike, without images
    for form in (d, Decomposition(d.order, d.parts)):
        lines = decomposition_to_json(form).split("\n")
        assert len(lines) == len(d.parts) + 2
        for line, p in zip(lines[1:-1], d.parts):
            assert line.startswith(f'  {{"s": {p.s}, "J": {p.J}, "deviator": ')
            assert reference_tensor_json(p.deviator) in line and '"embedded"' not in line
    for bad in (np.nan, np.inf, -np.inf):
        t = np.zeros((3, 3))
        t[1, 2] = bad
        with pytest.raises(ValueError, match="cannot serialize non-finite value"):
            tensor_to_json(t)


def test_loaded_images_are_rows_of_one_array(tmp_path):
    """A file with images or without is read as ``decompose`` output: its
    images are built from the deviators, as read-only rows of one array."""
    t = np.random.default_rng(46).standard_normal((3,) * 4)
    path = tmp_path / "d.json"
    for text in (decomposition_to_json(decompose(t)), json_with_images(decompose(t))):
        path.write_text(text)
        d = load_decomposition(path)
        rows = d.parts[0].embedded.base
        assert rows.shape == (len(d.parts), 3**4) and not rows.flags.writeable
        assert all(p.embedded.base is rows for p in d.parts)


def test_loaded_decomposition_records_its_image_rows():
    t = np.random.default_rng(47).standard_normal((3,) * 5)
    d = decomposition_from_json(json_with_images(decompose(t)))
    record = _record_of(d)
    assert record is d._record and record.tie == 0.0
    rows = d.parts[0].embedded.base
    for r, p in zip(_plan(5).row_of, d.parts):
        assert p.embedded.base is rows
        assert p.embedded.__array_interface__["data"] == rows[r].__array_interface__["data"]
    assert verify(d, t).passes(1e-10)
    # the images were checked and dropped: those built are read-only
    with pytest.raises(ValueError, match="read-only"):
        d.parts[0].embedded[...] += 0.3 * d.parts[-1].embedded
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


# an order-3 file written, images included, before files carried only the
# deviators: the decomposition of FIXTURE_TENSOR
FIXTURE = Path(__file__).resolve().parent / "data" / "decomposition_with_images.json"
FIXTURE_TENSOR = np.random.default_rng(19).standard_normal((3, 3, 3))


def test_file_with_images_is_checked_and_dropped():
    text = FIXTURE.read_text()
    raw = json.loads(text)
    d = load_decomposition(FIXTURE)
    report = verify(d, FIXTURE_TENSOR)
    assert report.passes(1e-10) and report.max_embedding_residual == d._record.tie <= 1e-14
    # the images built from the deviators are the stored ones, to rounding
    stored = np.array([p["embedded"]["components"] for p in raw["parts"]])
    built = np.stack([p.embedded.ravel() for p in d.parts])
    assert_allclose(built, stored, rtol=0, atol=1e-15 * np.abs(stored).max())
    # written without its images: the fixture's text without its "embedded"
    # fields, plus the tie of those images to the ones the deviators build;
    # they were built with an earlier deviator basis, so the tie is
    # rounding, and a file leaves out a tie of 0
    tie = '"tie": %s, ' % fmt_float(d._record.tie) if d._record.tie else ""
    expected = re.sub(r', "embedded": \{[^}]*\}', "", text).replace('"parts"', tie + '"parts"', 1)
    assert decomposition_to_json(d) + "\n" == expected
    # an image edited in the file is measured where it comes in
    raw["parts"][2]["embedded"]["components"][0] += 1e-4
    edited = decomposition_from_json(json.dumps(raw))
    report = verify(edited, reconstruct(edited))
    assert report.max_embedding_residual > 1e-6 and not report.passes(1e-10)
    # and written back with its tie, so a save and load reports the same
    text = decomposition_to_json(edited)
    assert text.startswith('{"order": 3, "tie": %s, "parts": [' % fmt_float(edited._record.tie))
    again = decomposition_from_json(text)
    assert verify(again, reconstruct(edited)) == report
    # a file's tie counts where it is larger than that of its images
    raw["tie"] = 0.5
    assert decomposition_from_json(json.dumps(raw))._record.tie == 0.5


@pytest.mark.parametrize("tie", ["-1.0", '"0"', "true", "null", "1e999", "NaN", "Infinity"])
def test_reader_rejects_a_tie_that_is_not_a_finite_number(tie):
    text = decomposition_to_json(decompose(np.ones(3)))
    text = text.replace('"parts"', f'"tie": {tie}, "parts"', 1)
    with pytest.raises(ValueError, match="field 'tie' must be a finite number >= 0, got"):
        decomposition_from_json(text)


# orders 0-8, three seeds an order and one at order 8
ROUND_TRIPS = [(order, seed) for order in range(8) for seed in range(3)] + [(8, 0)]


@pytest.mark.parametrize("order, seed", ROUND_TRIPS)
def test_a_file_of_decompose_output_is_decompose_output(tmp_path, order, seed):
    t = np.random.default_rng([order, seed]).standard_normal((3,) * order)
    d = decompose(t)
    path = tmp_path / "d.json"
    save_decomposition(path, d)
    loaded = load_decomposition(path)
    ours, theirs = _record_of(loaded), _record_of(d)
    assert ours.tie == 0.0
    for (s, index, stack), (s2, index2, stack2) in zip(ours.stacks, theirs.stacks, strict=True):
        assert s == s2 and index.tobytes() == index2.tobytes()
        assert stack.dtype == stack2.dtype and stack.tobytes() == stack2.tobytes()
    assert reconstruct(loaded).tobytes() == reconstruct(d).tobytes()
    assert verify(loaded, t) == verify(d, t)
    text = path.read_text()
    assert decomposition_to_json(loaded) + "\n" == text
    if order <= 6:  # with images, an order-7 file takes about 1 s to write and read
        path.write_text(json_with_images(d))
        with_images = load_decomposition(path)
        assert with_images._record.tie == 0.0
        for (_, _, stack), (_, _, stack2) in zip(with_images._record.stacks, ours.stacks):
            assert stack.tobytes() == stack2.tobytes()
        assert verify(with_images, t) == verify(d, t)
        # written without the images it was read with
        assert decomposition_to_json(with_images) + "\n" == text


def mixed_forms(order=2):
    """Texts of an order-``order`` decomposition in which one part differs
    from parts[0] in giving its image: part 2 has none, and part 1 has
    one."""
    d = decompose(np.random.default_rng(48).standard_normal((3,) * order))
    without_2 = json.loads(json_with_images(d))
    del without_2["parts"][2]["embedded"]
    with_1 = json.loads(decomposition_to_json(d))
    with_1["parts"][1]["embedded"] = {"order": order, "components": [0.0] * 3**order}
    return {
        r"parts\[2\]: has no field 'embedded', unlike parts\[0\]": json.dumps(without_2),
        r"parts\[1\]: has field 'embedded', unlike parts\[0\]": json.dumps(with_1),
    }


def test_reader_rejects_a_file_that_gives_some_images(tmp_path):
    path = tmp_path / "d.json"
    for message, text in mixed_forms().items():
        path.write_text(text)
        with pytest.raises(ValueError, match="d.json: " + message):
            load_decomposition(path)


def out_of_layout(order=4, images=False):
    """Texts of an order-``order`` decomposition, with or without images,
    whose parts are not in the layout of ``decompose``: moved, relabelled,
    one short, one over, and of a larger order than any part's, up to
    10^7."""
    d = decompose(np.random.default_rng(49).standard_normal((3,) * order))
    parts = json.loads(json_with_images(d) if images else decomposition_to_json(d))["parts"]
    relabelled = [dict(p) for p in parts]
    relabelled[3]["J"] = 9
    cases = [
        (order, parts[1:] + parts[:1]),
        (order, relabelled),
        (order, parts[:-1]),
        (order, parts + parts[:1]),
        (order + 1, parts),
        (10**7, parts[:1]),
    ]
    return [json.dumps({"order": n, "parts": p}) for n, p in cases]


LAYOUT_FIELD_ERROR = r"/d.json: field 'parts' is not in the \(s, J\) layout of decompose$"


def test_reader_rejects_parts_without_images_out_of_layout(tmp_path):
    path = tmp_path / "d.json"
    for text in out_of_layout():
        path.write_text(text)
        start = time.perf_counter()
        with pytest.raises(ValueError, match=LAYOUT_FIELD_ERROR):
            load_decomposition(path)
        assert time.perf_counter() - start < 0.1


def test_reader_rejects_parts_with_images_out_of_layout(tmp_path):
    """A file that gives its images is held to the one layout too, at the
    same field, with the same message."""
    path = tmp_path / "d.json"
    texts = out_of_layout(images=True)
    assert all('"embedded"' in text for text in texts)
    for text in texts[:4]:
        path.write_text(text)
        with pytest.raises(ValueError, match=LAYOUT_FIELD_ERROR):
            load_decomposition(path)
    # a file of a larger order than its parts' fails first at an image of another order
    for text in texts[4:]:
        path.write_text(text)
        with pytest.raises(ValueError, match=r"parts\[0\]: embedded order 4 does not match"):
            load_decomposition(path)
