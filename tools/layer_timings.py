"""Print the warm per-layer timings of ``decompose``, ``reconstruct`` and
``verify``, in microseconds, one row per tensor order.

Each row times, on one random tensor of its order with every cache built:

* ``decompose``, ``reconstruct`` and ``verify`` of its decomposition;
* ``_apply``: E_n t, the product that ``decompose`` starts with;
* ``_sum``: E_n^T c, the product of ``reconstruct`` and of ``verify``'s
  reconstruction;
* ``residuals``: the part residuals that ``verify`` reports
  (``_reported_residuals``);
* ``certificate``: ``verify``'s orthogonality bound
  (``_certified_cross_correlation``).

Each figure is the best over ``--repeat`` batches of the per-call time in a
batch of calls that takes about 10 ms.  BLAS runs one thread (set before
numpy is imported), as in the benchmark.

    python tools/layer_timings.py                  # orders 2-8, best of 7
    python tools/layer_timings.py --orders 7 --repeat 21

The package is imported from the ``src`` directory next to this file.  Only
the standard library and numpy are used.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from deviatoric import decompose, reconstruct, verify  # noqa: E402
from deviatoric.decomposition import (  # noqa: E402
    _apply,
    _certified_cross_correlation,
    _coordinates,
    _plan,
    _reported_residuals,
    _sum,
)

COLUMNS = ("decompose", "reconstruct", "verify", "_apply", "_sum", "residuals", "certificate")


def layers(n: int, seed: int = 0) -> dict:
    """The zero-argument call of each column on one random order-n tensor."""
    t = np.random.default_rng(seed).standard_normal((3,) * n)
    d = decompose(t)
    record = d._record
    c = _coordinates(record, n)
    row = t.reshape(1, -1)
    return {
        "decompose": lambda: decompose(t),
        "reconstruct": lambda: reconstruct(d),
        "verify": lambda: verify(d, t),
        "_apply": lambda: _apply(row, n),
        "_sum": lambda: _sum(c, n),
        "residuals": lambda: _reported_residuals(record, n, c),
        "certificate": lambda: _certified_cross_correlation(record, n, c),
    }


def best_us(call, repeat: int, batch_s: float = 1e-2) -> float:
    """The least per-call time of ``repeat`` batches of ``call``, in µs."""
    call()
    start = time.perf_counter()
    call()
    calls = max(1, int(batch_s / max(time.perf_counter() - start, 1e-7)))
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        for _ in range(calls):
            call()
        best = min(best, (time.perf_counter() - start) / calls)
    return best * 1e6


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--orders", type=int, nargs="+", default=list(range(2, 9)),
                        help="tensor orders (default 2..8)")
    parser.add_argument("--repeat", type=int, default=7, help="batches per figure, best taken (default 7)")
    args = parser.parse_args(argv)
    print("| n | parts | " + " | ".join(COLUMNS) + " |")
    print("|---" * (len(COLUMNS) + 2) + "|")
    for n in args.orders:
        calls = layers(n)
        figures = [f"{best_us(calls[name], args.repeat):.1f}" for name in COLUMNS]
        print(f"| {n} | {len(_plan(n).orders)} | " + " | ".join(figures) + " |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
