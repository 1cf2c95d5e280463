"""Print one digest line per case of a fixed sweep of the library's outputs,
so that two checkouts can be compared with one ``diff``.

The cases are orders 0-8, random standard-normal tensors and their
symmetrizations (orders >= 2), at scales 1e-300, 1 and 1e300, from two
seeds; each is read in three forms: ``decompose`` output (verified
before its parts are read), its JSON read back, and a hand-built copy of
its parts.  Each line names the case and
gives the ``passes`` verdict at 1e-10 and a short SHA-256 digest of the
bytes of each output:

* ``deviators``: every part's deviator, in part order;
* ``images``: every part's embedded image (``parts``);
* ``reconstruct``: the ``reconstruct`` output;
* ``certificate``: ``max_cross_correlation`` of ``verify`` against the
  tensor;
* ``report``: every other field of that report, by name;
* ``json``: the ``decomposition_to_json`` text.

    python tools/sweep_digest.py > before.txt      # in one checkout
    python tools/sweep_digest.py > after.txt       # in the other
    diff before.txt after.txt

``--orders 0 1 2`` restricts the sweep.  The package is imported from the
``src`` directory next to this file, so each checkout digests its own code.
Only the standard library and numpy are used.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from deviatoric import Decomposition, decompose, reconstruct, symmetrize, verify  # noqa: E402
from deviatoric.serialization import (  # noqa: E402
    decomposition_from_json,
    decomposition_to_json,
)

SCALES = (1e-300, 1.0, 1e300)
SEEDS = (0, 1)


def digest(*chunks) -> str:
    """The first 16 hex digits of the SHA-256 of the chunks, each a str or
    an array (its float64 bytes)."""
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk.encode() if isinstance(chunk, str) else np.asarray(chunk, float).tobytes())
    return h.hexdigest()[:16]


def tensors(order: int):
    """(kind, scale, seed, tensor) of each case of one order."""
    for seed in SEEDS:
        t = np.random.default_rng(1000 * order + seed).standard_normal((3,) * order)
        kinds = [("random", t)]
        if order >= 2:
            kinds.append(("symmetric", symmetrize(t)))
        for kind, u in kinds:
            for scale in SCALES:
                yield kind, scale, seed, scale * u


def lines(order: int):
    for kind, scale, seed, t in tensors(order):
        d = decompose(t)
        text = decomposition_to_json(d)
        # each form is made when it is read, so that ``decompose`` output is
        # verified before its parts are read, which drops its coordinates
        forms = {
            "decompose": lambda: d,
            "json": lambda: decomposition_from_json(text),
            "hand-built": lambda: Decomposition(order, tuple(d.parts)),
        }
        for form, make in forms.items():
            x = make()
            report = verify(x, t)
            rest = {f.name: getattr(report, f.name) for f in dataclasses.fields(report)
                    if f.name != "max_cross_correlation"}
            parts = x.parts
            fields = [
                f"order={order}", f"kind={kind}", f"scale={scale:g}", f"seed={seed}",
                f"form={form}", f"passes={report.passes(1e-10)}",
                f"deviators={digest(*[p.deviator for p in parts])}",
                f"images={digest(*[p.embedded for p in parts])}",
                f"reconstruct={digest(reconstruct(x))}",
                f"certificate={digest(report.max_cross_correlation)}",
                f"report={digest(repr(rest))}",
                f"json={digest(decomposition_to_json(x))}",
            ]
            yield " ".join(fields)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--orders", type=int, nargs="+", default=list(range(9)),
                        help="tensor orders to sweep (default 0..8)")
    args = parser.parse_args(argv)
    for order in args.orders:
        for line in lines(order):
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
