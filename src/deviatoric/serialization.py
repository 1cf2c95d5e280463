"""File formats for tensors, decompositions, and Voigt matrices.

Tensor JSON: {"order": n, "components": [... 3^n floats, row-major ...]}.
Decomposition JSON: {"order": n, "parts": [{"s", "J", "deviator"}]}, where
deviator is a nested tensor object, and a "tie" after "order" when it is
not 0.  Voigt matrices travel as a JSON array of 6 rows or as
whitespace-delimited 6-line text.

Every file has its parts in the (s, J) layout of ``decompose``.  A
decomposition is its deviators, and its images are a fixed linear function
of them, so every decomposition is written without images, and a file is
read as ``decompose`` output: its images are rebuilt from the deviators when
read.  The reader also takes files that give an "embedded" image in every
part, as files once did: it checks each image against its deviator's
embedding and drops it, and the decomposition keeps only how far they were
apart, its tie, which ``verify`` reports as ``max_embedding_residual``.  A
decomposition whose tie is not 0 (it was given images that are not its
deviators' embeddings) is written with its tie, and read back with it, so a
save and load leaves its ``verify`` report as it was.

Writers are hand-rolled for these fixed shapes so every float is emitted
with 17 significant digits; that makes write/read round-trips lossless and
output byte-stable, which the stdlib json encoder does not let us control.
Readers use ``json.loads`` plus validation that names the offending field;
they reject non-finite numbers (``NaN``/``Infinity`` tokens, overflowing
literals), which ``json.loads`` and ``float`` would otherwise let through.
"""

from __future__ import annotations

import json
import math
import sys

import numpy as np

from .core import as_tensor
from .decomposition import Decomposition, _from_record, _plan, _record_of, _stacked

__all__ = [
    "fmt_float",
    "tensor_to_json",
    "tensor_from_json",
    "save_tensor",
    "load_tensor",
    "decomposition_to_json",
    "decomposition_from_json",
    "save_decomposition",
    "load_decomposition",
    "voigt_to_json",
    "voigt_to_text",
    "voigt_from_text",
    "save_voigt",
    "load_voigt",
]


def fmt_float(x: float) -> str:
    """Shortest-of-17-significant-digits decimal form; rejects non-finite."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite value {x!r}")
    return format(x, ".17g")


def _components(t: np.ndarray) -> str:
    flat = t.ravel()
    finite = np.isfinite(flat)
    if not finite.all():
        fmt_float(flat[~finite][0])  # raises for the first non-finite value
    # "%.17g" formats a float exactly as fmt_float does
    return ", ".join(["%.17g"] * flat.size) % tuple(flat.tolist())


def tensor_to_json(t) -> str:
    t = as_tensor(t)
    return f'{{"order": {t.ndim}, "components": [{_components(t)}]}}'


def _fail(context: str, message: str):
    where = f"{context}: " if context else ""
    raise ValueError(f"{where}{message}")


def _get(obj: dict, key: str, context: str):
    if not isinstance(obj, dict):
        _fail(context, f"expected a JSON object, got {type(obj).__name__}")
    if key not in obj:
        _fail(context, f"missing field {key!r}")
    return obj[key]


def _check_number(x, context: str, where: str) -> None:
    if not isinstance(x, (int, float)) or isinstance(x, bool):
        _fail(context, f"{where} is not a number: {x!r}")
    # also false for NaN, and for ints beyond the float range
    if not abs(x) <= sys.float_info.max:
        _fail(context, f"{where} is not a finite number: {x!r}")


def _tensor_from_obj(obj, context: str) -> np.ndarray:
    """New tensor of a ``{"order", "components"}`` object."""
    order = _get(obj, "order", context)
    if not isinstance(order, int) or isinstance(order, bool) or order < 0:
        _fail(context, f"field 'order' must be a non-negative integer, got {order!r}")
    components = _get(obj, "components", context)
    if not isinstance(components, list):
        _fail(context, "field 'components' must be an array")
    if order > len(components).bit_length():  # then 3**order > len(components)
        _fail(context, f"field 'components' has length {len(components)}, expected 3^{order}")
    expected = 3**order
    if len(components) != expected:
        _fail(
            context,
            f"field 'components' has length {len(components)}, expected 3^{order} = {expected}",
        )
    out = np.empty(expected)
    if not _fill(out, components):
        # name the first bad component
        for i, c in enumerate(components):
            _check_number(c, context, f"components[{i}]")
        out[:] = components
    return out.reshape((3,) * order)


def _fill(out: np.ndarray, components: list) -> bool:
    """Write JSON numbers into ``out`` in one pass; False, with ``out`` in
    an unspecified state, unless all of them are ints or floats within the
    float range.  An int just above the largest float rounds down to it, so
    a value of that magnitude is left to the per-element check."""
    if not set(map(type, components)) <= {float, int}:
        return False
    try:
        out[:] = components
    except OverflowError:  # an int beyond the float range
        return False
    return bool(np.all(np.abs(out) < sys.float_info.max))


def _loads(text: str, context: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        _fail(context, f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}")


def tensor_from_json(text: str, context: str = "tensor") -> np.ndarray:
    return _tensor_from_obj(_loads(text, context), context)


def save_tensor(path, t) -> None:
    with open(path, "w") as fh:
        fh.write(tensor_to_json(t))
        fh.write("\n")


def load_tensor(path) -> np.ndarray:
    with open(path) as fh:
        return tensor_from_json(fh.read(), context=str(path))


def decomposition_to_json(d: Decomposition) -> str:
    """The decomposition JSON text of ``d``: its tie if it is not 0, then
    each part's s, J and deviator, in part order, and no image.  It reads
    ``_record_of(d)`` and builds no part.  A tie that is not finite raises
    the error of ``fmt_float``."""
    record = _record_of(d)  # the layout check, before a plan is built
    orders, labels = _plan(d.order)[:2]
    tensors: list = [None] * len(orders)  # the tensor fields of each part
    for s, index, stack in record.stacks:
        for i, row in zip(index.tolist(), stack):
            tensors[i] = f'"deviator": {{"order": {s}, "components": [{_components(row)}]}}'
    tie = f'"tie": {fmt_float(record.tie)}, ' if record.tie else ""
    lines = [f'{{"order": {d.order}, {tie}"parts": [']
    for i, (s, j, fields) in enumerate(zip(orders, labels, tensors)):
        sep = "," if i + 1 < len(tensors) else ""
        lines.append(f'  {{"s": {s}, "J": {j}, {fields}}}{sep}')
    lines.append("]}")
    return "\n".join(lines)


def decomposition_from_json(text: str, context: str = "decomposition") -> Decomposition:
    """The decomposition of a decomposition JSON text; each error names the
    field at fault.  Every order has at least one part, so a file needs one.

    Either every part gives its image (``embedded``) or none does; a file
    that mixes the two is rejected at the first part that differs from
    ``parts[0]``, and a file whose parts are not in the (s, J) layout of
    ``decompose`` at its ``parts`` field.  The parts read are stacked by
    ``_stacked`` into the record of the result, which ``reconstruct`` and
    ``verify`` then read in place, as they read ``decompose`` output.  Its
    images are built from the deviators when read.  Images in the file are
    checked against them and dropped: the record keeps their tie, or the
    file's "tie" where that is larger, which ``verify`` reports."""
    obj = _loads(text, context)
    order = _get(obj, "order", context)
    if not isinstance(order, int) or isinstance(order, bool) or order < 0:
        _fail(context, f"field 'order' must be a non-negative integer, got {order!r}")
    tie = obj.get("tie", 0.0)  # written only for images that were not the embeddings
    if (not isinstance(tie, (int, float)) or isinstance(tie, bool)
            or not 0.0 <= tie <= sys.float_info.max):
        _fail(context, f"field 'tie' must be a finite number >= 0, got {tie!r}")
    raw_parts = _get(obj, "parts", context)
    if not isinstance(raw_parts, list):
        _fail(context, "field 'parts' must be an array")
    if not raw_parts:
        _fail(context, "field 'parts' is empty; every order has at least one part")
    with_images = isinstance(raw_parts[0], dict) and "embedded" in raw_parts[0]
    read = []
    for i, raw in enumerate(raw_parts):
        where = f"{context}: parts[{i}]"
        s = _get(raw, "s", where)
        j = _get(raw, "J", where)
        for name, value in (("s", s), ("J", j)):
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                _fail(where, f"field {name!r} must be a non-negative integer, got {value!r}")
        deviator = _tensor_from_obj(_get(raw, "deviator", where), f"{where}.deviator")
        if deviator.ndim != s:
            _fail(where, f"deviator order {deviator.ndim} does not match s = {s}")
        if ("embedded" in raw) != with_images:
            has = "has no" if with_images else "has"
            _fail(where, f"{has} field 'embedded', unlike parts[0]; "
                         "a file gives the image of every part or of none")
        if with_images:
            embedded = _tensor_from_obj(raw["embedded"], f"{where}.embedded")
            if embedded.ndim != order:
                _fail(where, f"embedded order {embedded.ndim} does not match tensor order {order}")
            read.append((s, j, deviator, embedded))
        else:
            read.append((s, j, deviator))
    try:
        record = _stacked(order, *zip(*read))
    except ValueError:  # the layout's: every shape is checked above
        _fail(context, "field 'parts' is not in the (s, J) layout of decompose")
    return _from_record(order, record._replace(tie=max(record.tie, float(tie))))


def save_decomposition(path, d: Decomposition) -> None:
    with open(path, "w") as fh:
        fh.write(decomposition_to_json(d))
        fh.write("\n")


def load_decomposition(path) -> Decomposition:
    with open(path) as fh:
        return decomposition_from_json(fh.read(), context=str(path))


# ---------------------------------------------------------------------------
# Voigt matrices

def _as_voigt(m) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.shape != (6, 6):
        raise ValueError(f"Voigt matrix must be 6x6, got shape {m.shape}")
    return m


def voigt_to_json(m) -> str:
    m = _as_voigt(m)
    rows = ",\n".join(f" [{_components(row)}]" for row in m)
    return f"[\n{rows}\n]"


def voigt_to_text(m) -> str:
    m = _as_voigt(m)
    return "\n".join(" ".join(fmt_float(x) for x in row) for row in m)


def voigt_from_text(text: str, context: str = "voigt") -> np.ndarray:
    """Parse a Voigt matrix from JSON rows or whitespace-delimited text."""
    stripped = text.lstrip()
    if stripped.startswith("["):
        rows = _loads(text, context)
        if not isinstance(rows, list) or len(rows) != 6:
            _fail(context, "expected a JSON array of 6 rows")
        for i, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != 6:
                _fail(context, f"row {i} must be an array of 6 numbers")
    else:
        rows = [line.split() for line in text.splitlines() if line.strip()]
        if len(rows) != 6 or any(len(row) != 6 for row in rows):
            _fail(context, "expected 6 lines of 6 whitespace-delimited numbers")
        try:
            rows = [[float(x) for x in row] for row in rows]
        except ValueError:
            _fail(context, "non-numeric entry in whitespace-delimited matrix")
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            _check_number(x, context, f"entry [{i}][{j}]")
    return np.array(rows, dtype=float)


def save_voigt(path, m, fmt: str = "json") -> None:
    if fmt == "json":
        payload = voigt_to_json(m)
    elif fmt == "text":
        payload = voigt_to_text(m)
    else:
        raise ValueError(f"format must be 'json' or 'text', got {fmt!r}")
    with open(path, "w") as fh:
        fh.write(payload)
        fh.write("\n")


def load_voigt(path) -> np.ndarray:
    with open(path) as fh:
        return voigt_from_text(fh.read(), context=str(path))
