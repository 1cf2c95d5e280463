"""Dense tensor algebra over a fixed three-dimensional Euclidean space.

Tensors are plain ``numpy.ndarray`` objects of shape ``(3,) * order``; an
order-0 tensor is a 0-d array.  Components are stored in row-major order, so
``t.ravel()`` is the canonical flat layout used by the JSON serializers.

Contraction conventions used throughout the package:

* ``contract_complete(a, b)`` sums ``b`` against the *first* ``b.ndim``
  indices of ``a``.
* ``contract_single`` / ``contract_double`` bind the last index (pair of
  indices) of the first argument to the first index (pair) of the second.
* ``symmetrize`` averages over permutations of the chosen positions.

All functions are pure and never modify their inputs.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = [
    "as_tensor",
    "outer",
    "contract_complete",
    "contract_single",
    "contract_double",
    "symmetrize",
    "trace_pair",
    "delta",
    "epsilon",
    "frobenius",
    "frobenius_norm",
]


def _real_array(values, what: str) -> np.ndarray:
    """``values`` as a float64 array, not copied if it is one; a complex
    input, whose cast would drop its imaginary part, raises ``ValueError``."""
    a = np.asarray(values)
    if a.dtype != float:
        if a.dtype.kind == "c":
            raise ValueError(f"{what} must be real, got dtype {a.dtype}")
        a = a.astype(float)
    return a


def as_tensor(values, order: int | None = None) -> np.ndarray:
    """Coerce ``values`` to a float tensor of shape ``(3,) * order``.

    Parameters
    ----------
    values : array_like
        Scalar, nested sequence, or ndarray whose axes all have length 3.
    order : int, optional
        When given, the coerced tensor must have exactly this order.

    Returns
    -------
    numpy.ndarray
        Float64 array of shape ``(3,) * t.ndim``; a float64 ndarray is
        returned as it is.  A complex input raises ``ValueError``.
    """
    t = _real_array(values, "tensor")
    if any(d != 3 for d in t.shape):
        raise ValueError(f"tensor axes must all have length 3, got shape {t.shape}")
    if order is not None and t.ndim != order:
        raise ValueError(f"expected an order-{order} tensor, got order {t.ndim}")
    return t


def outer(a, b) -> np.ndarray:
    """Tensor product; the result order is the sum of the input orders."""
    return np.tensordot(as_tensor(a), as_tensor(b), axes=0)


def contract_complete(a, b) -> np.ndarray:
    """Sum ``b`` against the first ``b.ndim`` indices of ``a``.

    For ``a`` of order n and ``b`` of order m <= n the result has order
    n - m.  An order-0 ``b`` acts as plain scalar multiplication.
    """
    a, b = as_tensor(a), as_tensor(b)
    m = b.ndim
    if m > a.ndim:
        raise ValueError(f"cannot contract order {b.ndim} against order {a.ndim}")
    if m == 0:
        return a * float(b)
    return np.tensordot(a, b, axes=(tuple(range(m)), tuple(range(m))))


def contract_single(a, b) -> np.ndarray:
    """Contract the last index of ``a`` with the first index of ``b``."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 1 or b.ndim < 1:
        raise ValueError("single contraction needs at least one index on each side")
    return np.tensordot(a, b, axes=([a.ndim - 1], [0]))


def contract_double(a, b) -> np.ndarray:
    """Contract the last two indices of ``a`` with the first two of ``b``.

    The pairing is positional: the second-to-last index of ``a`` meets the
    first index of ``b`` and the last meets the second.
    """
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError("double contraction needs at least two indices on each side")
    return np.tensordot(a, b, axes=([a.ndim - 2, a.ndim - 1], [0, 1]))


@lru_cache(maxsize=None)
def _orbit_map(ndim: int, axes: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Orbit code of every component under permutations of ``axes``, and the
    reciprocal orbit size for each code.

    A component's code is the flat index of its multi-index with the entries
    at ``axes`` sorted, i.e. of the orbit's canonical member; the one
    component of an order-0 tensor has code 0 and weight 1.
    """
    index = np.indices((3,) * ndim).reshape(ndim, 3**ndim)
    index[list(axes)] = np.sort(index[list(axes)], axis=0)
    code = 3 ** np.arange(ndim - 1, -1, -1) @ index  # row-major flat index
    weight = 1.0 / np.maximum(np.bincount(code, minlength=3**ndim), 1)
    code.flags.writeable = False
    weight.flags.writeable = False
    return code, weight


@lru_cache(maxsize=None)
def _orbit_basis(s: int) -> np.ndarray:
    """Read-only (3^s, orbits) orthonormal basis M_s of the totally
    symmetric order-s tensors: column o is 1/sqrt(|o|) on the members of
    orbit o of ``_orbit_map`` and 0 elsewhere, so x M_s M_s^T is
    ``symmetrize`` of a flattened x, the mean over each orbit.  Sorted
    multi-indices in lexicographic order have increasing flat indices, so
    the columns follow the orbits' sorted members in that order."""
    code, weight = _orbit_map(s, tuple(range(s)))
    canonical = np.flatnonzero(code == np.arange(code.size))
    basis = np.zeros((code.size, canonical.size))
    basis[np.arange(code.size), np.searchsorted(canonical, code)] = np.sqrt(weight[code])
    basis.flags.writeable = False
    return basis


def symmetrize(t, positions=None) -> np.ndarray:
    """Average ``t`` over all permutations of the given index positions.

    Parameters
    ----------
    t : array_like
        Tensor of any order.
    positions : sequence of int, optional
        Zero-based axes to symmetrize over.  Defaults to all axes (total
        symmetrization).

    Notes
    -----
    Symmetrization is a projection: applying it twice gives the same result.
    Every permutation maps each component onto each member of its orbit
    equally often, so the average over permutations is the mean over the
    component's orbit, computed in O(3^n) from a cached orbit map.
    """
    t = as_tensor(t)
    axes = tuple(range(t.ndim)) if positions is None else tuple(positions)
    if len(set(axes)) != len(axes):
        raise ValueError(f"positions must be distinct, got {axes}")
    if any(a < 0 or a >= t.ndim for a in axes):
        raise ValueError(f"positions {axes} out of range for order {t.ndim}")
    if len(axes) < 2:
        return t.copy()
    code, weight = _orbit_map(t.ndim, tuple(sorted(axes)))
    means = np.bincount(code, weights=t.ravel(), minlength=code.size) * weight
    return means[code].reshape(t.shape)


def trace_pair(t, p: int, q: int) -> np.ndarray:
    """Contract index positions ``p`` and ``q`` of ``t`` with each other."""
    t = as_tensor(t)
    if p == q:
        raise ValueError("trace positions must differ")
    if not (0 <= p < t.ndim and 0 <= q < t.ndim):
        raise ValueError(f"trace positions ({p}, {q}) out of range for order {t.ndim}")
    return np.trace(t, axis1=p, axis2=q)


def delta() -> np.ndarray:
    """Kronecker delta (3x3 identity)."""
    return np.eye(3)


def epsilon() -> np.ndarray:
    """Levi-Civita permutation tensor with epsilon_123 = +1."""
    e = np.zeros((3, 3, 3))
    e[0, 1, 2] = e[1, 2, 0] = e[2, 0, 1] = 1.0
    e[0, 2, 1] = e[2, 1, 0] = e[1, 0, 2] = -1.0
    return e


def frobenius(a, b) -> float:
    """Full contraction of two equal-order tensors (Frobenius inner product)."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim != b.ndim:
        raise ValueError(f"order mismatch: {a.ndim} vs {b.ndim}")
    return float(np.sum(a * b))


def frobenius_norm(t) -> float:
    """Frobenius norm, the square root of ``frobenius(t, t)``, taken on the
    flattened tensor divided exactly by the power of two of its largest
    |entry|, as ``_scaled_rows`` divides it, so the sum of squares neither
    overflows nor underflows at any scale of ``t``; a norm beyond the float
    range is ``inf``.  A NaN entry gives NaN and else an infinite entry
    ``inf``, with no overflow warning from the finite ones."""
    t = as_tensor(t).ravel()
    top = float(np.abs(t).max())
    if not math.isfinite(top):
        return top
    exponent = math.frexp(top)[1]
    t = np.ldexp(t, -exponent)
    try:
        # the dot and square root of np.linalg.norm, without its dispatch
        return math.ldexp(math.sqrt(t.dot(t)), exponent)
    except OverflowError:
        return math.inf


def _scaled_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row of a 2-D array divided, exactly, by 2**e, and the e's; e is
    the binary exponent of the row's largest |entry|, 0 for a zero or
    non-finite row.  A scaled row's sum of squares lies in [1/4, row
    length), so no norm of it overflows or underflows, and a ratio of two
    norms taken on one scaled row is the unscaled one."""
    exponent = np.frexp(np.max(np.abs(rows), axis=1))[1]
    return np.ldexp(rows, -exponent[:, None]), exponent


def _project(
    rows: np.ndarray, to_coords: np.ndarray, from_coords: np.ndarray
) -> tuple[np.ndarray, float]:
    """Coordinates ``rows @ to_coords`` of a 2-D array and the residual of
    ``coordinates @ from_coords`` relative to the rows' norm (absolute for
    zero rows), both on the whole array divided as ``_scaled_rows`` divides
    a row; so a test ``residual <= tol`` is scale-free and rejects NaN and
    inf entries.  Rows already so scaled, whose exponent is 0, are taken as
    they are."""
    exponent = math.frexp(np.abs(rows).max())[1]  # 0 for a zero, NaN or +-inf entry
    scaled = np.ldexp(rows, -exponent) if exponent else rows
    # a non-finite entry, left unscaled, gives a NaN residual and may overflow
    with np.errstate(invalid="ignore", over="ignore"):
        c = scaled @ to_coords
        residual = np.linalg.norm(c @ from_coords - scaled)
        norm = np.linalg.norm(scaled)
        residual = float(residual / norm if norm > 0.0 else residual)
    return (_scaled_back(exponent, c)[0] if exponent else c), residual


def _scaled_back(exponent: int, *arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """Each array times 2**exponent, exactly, undoing ``_scaled_rows``;
    values beyond the float range are +-inf, without a warning."""
    with np.errstate(over="ignore"):
        # a list first: a tuple of a generator is resized, and the freed
        # tuple stays on a free list that resizing never draws from
        return tuple([np.ldexp(a, exponent) for a in arrays])
