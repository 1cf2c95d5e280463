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
  (``_certified_cross_correlation``);
* ``held_kB``: the kilobytes that the ``_change_of_basis`` and ``_pair``
  caches hold after the row's calls, which start from cleared caches.

With ``--material`` it prints one row for the material tensors instead, on
the inputs of the benchmark's grains workload (a positive definite Voigt
matrix, a random rotation, a symmetric coupling tensor):

* the seven calls of its stiffness and coupling ops: ``voigt_to_tensor``,
  ``rotate`` (order 4), ``stiffness_decompose``, ``stiffness_reconstruct``,
  ``tensor_to_voigt``, ``coupling_decompose`` and ``coupling_reconstruct``;
* ``stiffness_op`` and ``coupling_op``: each op as a whole;
* ``held_B``: the bytes of the cached maps and indices those calls read.

Each figure is the best over ``--repeat`` batches of the per-call time in a
batch of calls that takes about 10 ms.  BLAS runs one thread (set before
numpy is imported), as in the benchmark.

    python tools/layer_timings.py                  # orders 2-8, best of 7
    python tools/layer_timings.py --orders 7 --repeat 21
    python tools/layer_timings.py --material

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

from deviatoric import decompose, physics, reconstruct, rotations, verify  # noqa: E402
from deviatoric.decomposition import (  # noqa: E402
    _DENSE_BASE,
    _apply,
    _certified_cross_correlation,
    _change_of_basis,
    _coordinates,
    _pair,
    _plan,
    _reported_residuals,
    _sum,
    _zero_parts,
)

COLUMNS = ("decompose", "reconstruct", "verify", "_apply", "_sum", "residuals", "certificate")
MATERIAL_COLUMNS = (
    "voigt_to_tensor", "rotate", "stiffness_decompose", "stiffness_reconstruct", "tensor_to_voigt",
    "coupling_decompose", "coupling_reconstruct", "stiffness_op", "coupling_op",
)


def layers(n: int, seed: int = 0) -> dict:
    """The zero-argument call of each column on one random order-n tensor."""
    t = np.random.default_rng(seed).standard_normal((3,) * n)
    d = decompose(t)
    record = d._record
    c = _coordinates(record, n)
    zero, hidden = _zero_parts(record, n, c)
    row = t.reshape(1, -1)
    return {
        "decompose": lambda: decompose(t),
        "reconstruct": lambda: reconstruct(d),
        "verify": lambda: verify(d, t),
        "_apply": lambda: _apply(row, n),
        "_sum": lambda: _sum(c, n),
        "residuals": lambda: _reported_residuals(record, n, c, zero, hidden),
        "certificate": lambda: _certified_cross_correlation(record, n, c, zero),
    }


def material_calls(seed: int = 0) -> dict:
    """The zero-argument call of each material column, on inputs made as
    the grains workload makes them."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((6, 6))
    voigt, rotation = a @ a.T + 6.0 * np.eye(6), rotations.random_rotation(rng)
    h = rng.standard_normal((3, 3, 3))
    h = h + h.swapaxes(0, 1)
    c = rotations.rotate(physics.voigt_to_tensor(voigt), rotation)
    sd, cd = physics.stiffness_decompose(c), physics.coupling_decompose(h)

    def stiffness_op():
        turned = rotations.rotate(physics.voigt_to_tensor(voigt), rotation)
        return physics.tensor_to_voigt(physics.stiffness_reconstruct(physics.stiffness_decompose(turned)))

    return {
        "voigt_to_tensor": lambda: physics.voigt_to_tensor(voigt),
        "rotate": lambda: rotations.rotate(c, rotation),
        "stiffness_decompose": lambda: physics.stiffness_decompose(c),
        "stiffness_reconstruct": lambda: physics.stiffness_reconstruct(sd),
        "tensor_to_voigt": lambda: physics.tensor_to_voigt(c),
        "coupling_decompose": lambda: physics.coupling_decompose(h),
        "coupling_reconstruct": lambda: physics.coupling_reconstruct(cd),
        "stiffness_op": stiffness_op,
        "coupling_op": lambda: physics.coupling_reconstruct(physics.coupling_decompose(h)),
    }


def material_held_bytes() -> int:
    """The bytes of the cached maps and indices that the material calls read."""
    arrays = (
        physics._stiffness_split(), physics._STIFFNESS_ENTRIES, physics._coupling_map(),
        physics._coupling_solver(), physics._COUPLING_ENTRIES,
        physics._STIFFNESS_SYMMETRIES[0], physics._COUPLING_SYMMETRY[0], physics._VOIGT_SYMMETRY[0],
        physics._TENSOR_OF_VOIGT, physics._VOIGT_OF_TENSOR,
    )
    return sum(a.nbytes for a in arrays)


def held_kb(n: int) -> float:
    """The kilobytes of the ``_change_of_basis`` and ``_pair`` caches after
    the calls of an order-n row, from cleared caches: E_0 .. E_k, as each
    E_m builds every lower one, and the pairs of orders n, n - 2, ... above
    the dense base, the only ones that ``_apply`` and ``_apply_transposed``
    take at order n."""
    pairs = [_pair(m) for m in range(n, _DENSE_BASE, -2)]
    assert _pair.cache_info().currsize == len(pairs)
    dense = sum(9**m * 8 for m in range(_change_of_basis.cache_info().currsize))
    return (dense + sum(p.row_at.nbytes + sum(g.nbytes for _, g, _ in p.maps) for p in pairs)) / 1e3


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
    parser.add_argument("--material", action="store_true",
                        help="print the row of the stiffness and coupling calls instead")
    args = parser.parse_args(argv)
    if args.material:
        calls = material_calls()
        print("| " + " | ".join(MATERIAL_COLUMNS) + " | held_B |")
        print("|---" * (len(MATERIAL_COLUMNS) + 1) + "|")
        figures = [f"{best_us(calls[name], args.repeat):.1f}" for name in MATERIAL_COLUMNS]
        print("| " + " | ".join(figures + [str(material_held_bytes())]) + " |")
        return 0
    print("| n | parts | " + " | ".join(COLUMNS) + " | held_kB |")
    print("|---" * (len(COLUMNS) + 3) + "|")
    for n in args.orders:
        for cache in (_change_of_basis, _pair):
            cache.cache_clear()
        calls = layers(n)
        figures = [f"{best_us(calls[name], args.repeat):.1f}" for name in COLUMNS] + [f"{held_kb(n):.1f}"]
        print(f"| {n} | {len(_plan(n).orders)} | " + " | ".join(figures) + " |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
