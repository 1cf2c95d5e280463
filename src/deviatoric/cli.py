"""Command-line front end.

Subcommands: decompose, reconstruct, verify, counts, stiffness, coupling,
random.  Payloads go to --output when given, otherwise to stdout; summary
reports go to stdout; diagnostics go to stderr.  Exit codes: 0 success,
1 verification failure, 2 input error.  ``verify`` also reports how far the
images that a file gives, or gave before it was written back, are from its
deviators' embeddings (``max_embedding_residual``).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Callable

import numpy as np

from .core import _scaled_back, _scaled_rows, frobenius_norm
from .decomposition import (
    Decomposition, _image_norm_bounds, _record_of, counts_row, decompose, reconstruct, verify,
)
from .physics import (
    coupling_decompose,
    coupling_reconstruct,
    stiffness_decompose,
    voigt_to_tensor,
)
from .serialization import (
    decomposition_to_json,
    fmt_float,
    load_decomposition,
    load_tensor,
    tensor_from_json,
    tensor_to_json,
    voigt_from_text,
)

__all__ = ["main"]


def _positive_float(text: str) -> float:
    value = float(text)
    if not 0.0 < value < math.inf:  # inf would pass every report; NaN fails both tests
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deviatoric",
        description="Orthogonal irreducible decomposition of 3-D tensors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_: str, **flags) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_)
        if flags.get("input"):
            p.add_argument("--input", required=True, help="input file path")
        if flags.get("output"):
            p.add_argument("--output", help="output file path (default: stdout)")
        if flags.get("order"):
            p.add_argument("--order", type=int, required=True, help="tensor order n >= 0")
        if flags.get("tolerance"):
            p.add_argument(
                "--tolerance",
                type=_positive_float,
                default=1e-10,
                help="residual tolerance (default 1e-10)",
            )
        p.add_argument(
            "--format",
            choices=("text", "json"),
            default="text",
            help="summary report format (default text)",
        )
        return p

    add("decompose", "split a tensor file into irreducible parts", input=True, output=True)
    add("reconstruct", "sum the parts of a decomposition file", input=True, output=True)
    p = add(
        "verify",
        "check a decomposition file for validity and residuals",
        input=True,
        tolerance=True,
    )
    p.add_argument("--against", help="tensor file the decomposition should reproduce")
    p = add("counts", "print the number of deviators of each order", order=True)
    p = add(
        "stiffness",
        "decompose a stiffness tensor (Voigt 6x6 or order-4 tensor file)",
        input=True,
        output=True,
    )
    p = add("coupling", "decompose a coupling tensor (order-3 tensor file)", input=True, output=True)
    p.add_argument(
        "--coefficients",
        choices=("fitted", "printed"),
        default="fitted",
        help="coefficient variant (default fitted; 'printed' follows the published tables verbatim)",
    )
    p = add("random", "emit a seeded random tensor file", order=True, output=True)
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    return parser


def _json_report(fields: list[tuple[str, object]]) -> str:
    chunks = []
    for key, value in fields:
        if isinstance(value, bool):
            rendered = "true" if value else "false"
        elif isinstance(value, int):
            rendered = str(value)
        elif isinstance(value, float):
            # JSON has no inf: a residual of inf is written as Python's json writes it
            rendered = fmt_float(value) if np.isfinite(value) else json.dumps(value)
        else:
            rendered = json.dumps(str(value))
        chunks.append(f'"{key}": {rendered}')
    return "{" + ", ".join(chunks) + "}"


def _report(fields: list[tuple[str, object]], fmt: str) -> None:
    if fmt == "json":
        print(_json_report(fields))
        return
    for key, value in fields:
        if isinstance(value, float):
            print(f"{key} = {value:.12g}")
        else:
            print(f"{key} = {value}")


def _deliver(args, payload: str, report: Callable[[], list] | None = None) -> int:
    """Print the payload, or write it to ``--output`` and print the fields
    of ``report()``, if given."""
    if args.output is None:
        print(payload)
        return 0
    with open(args.output, "w") as fh:
        fh.write(payload)
        fh.write("\n")
    if report is not None:
        _report(report(), args.format)
    return 0


def _cmd_decompose(args) -> int:
    t = load_tensor(args.input)
    d = decompose(t)

    def report():
        t_norm = frobenius_norm(t)
        res = frobenius_norm(reconstruct(d) - t)
        return [
            ("order", d.order),
            ("parts", sum(d.counts().values())),
            ("reconstruction_relative", res / t_norm if t_norm > 0.0 else res),
        ]

    return _deliver(args, decomposition_to_json(d), report)


def _cmd_reconstruct(args) -> int:
    d = load_decomposition(args.input)
    t = reconstruct(d)
    return _deliver(
        args, tensor_to_json(t), lambda: [("order", d.order), ("norm", frobenius_norm(t))]
    )


def _canonical_residual(d: Decomposition, reference: np.ndarray) -> float:
    """How far the file's parts sit from the canonical decomposition of the
    reference tensor, relative to its norm (absolute for the zero tensor):
    the largest difference of a deviator, or of an image.

    Each deviator difference is taken on its own ``_scaled_rows``, and each
    image difference is bounded from the coordinate norm of its deviator
    difference, times a constant of its slot (``_image_norm_bounds``); no
    image is built.  Both are exactly 0 when the deviators are those of
    ``decompose``."""
    ours, theirs = (_record_of(x, images=False).stacks for x in (d, decompose(reference)))
    delta = [(s, index, a - b) for (s, index, a), (_, _, b) in zip(ours, theirs)]
    norms = [_image_norm_bounds(delta, d.order)]
    for _, _, rows in delta:
        rows, exponent = _scaled_rows(rows)
        norms.append(_scaled_back(exponent, np.linalg.norm(rows, axis=1))[0])
    worst = float(np.concatenate(norms).max())
    scale = frobenius_norm(reference)
    return worst / scale if scale > 0.0 else worst


def _cmd_verify(args) -> int:
    d = load_decomposition(args.input)
    if args.against is not None:
        reference = load_tensor(args.against)
        if reference.ndim != d.order:
            raise ValueError(
                f"order mismatch: decomposition has order {d.order}, "
                f"reference tensor has order {reference.ndim}"
            )
    else:
        reference = reconstruct(d)
    report = verify(d, reference)
    canonical = _canonical_residual(d, reference)
    ok = report.passes(args.tolerance) and canonical <= args.tolerance
    _report(
        [
            ("order", report.order),
            ("counts_ok", report.counts_ok),
            ("reconstruction_relative", report.reconstruction_relative),
            ("max_part_residual", report.max_part_residual),
            ("max_cross_correlation", report.max_cross_correlation),
            ("max_embedding_residual", report.max_embedding_residual),
            ("canonical_residual", canonical),
            ("tolerance", args.tolerance),
            ("passes", ok),
        ],
        args.format,
    )
    return 0 if ok else 1


def _cmd_counts(args) -> int:
    if args.order < 0:
        raise ValueError(f"order must be >= 0, got {args.order}")
    row = counts_row(args.order)
    if args.format == "json":
        print(f'{{"order": {args.order}, "counts": [{", ".join(str(c) for c in row)}]}}')
    else:
        print(" ".join(str(c) for c in row))
    return 0


def _load_stiffness(path: str) -> np.ndarray:
    with open(path) as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        t = tensor_from_json(text, context=str(path))
        if t.ndim != 4:
            raise ValueError(f"{path}: stiffness tensor must have order 4, got {t.ndim}")
        return t
    return voigt_to_tensor(voigt_from_text(text, context=str(path)))


def _cmd_stiffness(args) -> int:
    c = _load_stiffness(args.input)
    sd = stiffness_decompose(c)
    payload = "\n".join(
        [
            "{",
            f'"lam": {fmt_float(sd.lam)},',
            f'"mu": {fmt_float(sd.mu)},',
            f'"d1": {tensor_to_json(sd.d1)},',
            f'"d2": {tensor_to_json(sd.d2)},',
            f'"d4": {tensor_to_json(sd.d4)}',
            "}",
        ]
    )
    return _deliver(
        args,
        payload,
        lambda: [
            ("lam", float(sd.lam)),
            ("mu", float(sd.mu)),
            ("norm_d1", frobenius_norm(sd.d1)),
            ("norm_d2", frobenius_norm(sd.d2)),
            ("norm_d4", frobenius_norm(sd.d4)),
        ],
    )


def _cmd_coupling(args) -> int:
    h = load_tensor(args.input)
    if h.ndim != 3:
        raise ValueError(f"{args.input}: coupling tensor must have order 3, got {h.ndim}")
    cd = coupling_decompose(h, coefficients=args.coefficients)
    payload = "\n".join(
        [
            "{",
            f'"alpha": {fmt_float(cd.alpha)},',
            f'"v1": {tensor_to_json(cd.v1)},',
            f'"v2": {tensor_to_json(cd.v2)},',
            f'"v3": {tensor_to_json(cd.v3)},',
            f'"d1": {tensor_to_json(cd.d1)},',
            f'"d2": {tensor_to_json(cd.d2)},',
            f'"d3": {tensor_to_json(cd.d3)}',
            "}",
        ]
    )
    return _deliver(
        args,
        payload,
        lambda: [
            ("coefficients", args.coefficients),
            ("norm_v2", frobenius_norm(cd.v2)),
            ("norm_v3", frobenius_norm(cd.v3)),
            ("norm_d1", frobenius_norm(cd.d1)),
            ("norm_d3", frobenius_norm(cd.d3)),
            ("reconstruction_residual", frobenius_norm(coupling_reconstruct(cd) - h)),
        ],
    )


def _cmd_random(args) -> int:
    if args.order < 0:
        raise ValueError(f"order must be >= 0, got {args.order}")
    rng = np.random.default_rng(args.seed)
    t = rng.standard_normal((3,) * args.order)
    return _deliver(args, tensor_to_json(t))


_COMMANDS = {
    "decompose": _cmd_decompose,
    "reconstruct": _cmd_reconstruct,
    "verify": _cmd_verify,
    "counts": _cmd_counts,
    "stiffness": _cmd_stiffness,
    "coupling": _cmd_coupling,
    "random": _cmd_random,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    # an input too large to hold (say ``random --order 30``) is an input error
    except (OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
