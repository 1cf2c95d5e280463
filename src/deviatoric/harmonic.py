"""Deviator spaces: totally symmetric traceless tensors of a given order.

The space of order-s deviators has dimension 2s + 1.  ``build_basis``
constructs a Frobenius-orthonormal basis once per order and caches it, in
the orbit coordinates of the totally symmetric tensors:

1. the orthonormal orbit basis M_s (``core._orbit_basis``) spans the
   totally symmetric order-s tensors, one column per orbit of index
   permutations, (s + 1)(s + 2)/2 in all;
2. in those coordinates the (1,2)-trace into the symmetric order-(s - 2)
   tensors is the small matrix A = tr(M_s) M_{s-2}, one row per orbit of
   order s; its left null space has dimension 2s + 1, and its last 2s + 1
   left singular vectors are orthonormal rows N that span it;
3. the basis is B_s = N M_s^T, orthonormal because N and M_s are.

The construction involves no randomness, so repeated calls return the same
cached, read-only arrays.

Membership in a deviator space is decided by ``core._project`` on the
tensor divided exactly by a power of two, so up to the float limit it does
not depend on the units of the input: ``t`` is a deviator when the residual
of its projection is at most ``MEMBERSHIP_TOL * |t|``.  The zero tensor is
a deviator; a tensor with a NaN entry is not.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import _orbit_basis, _project, as_tensor

__all__ = [
    "DeviatorBasis",
    "build_basis",
    "project_deviator",
    "coords",
    "from_coords",
    "is_deviator",
]

MEMBERSHIP_TOL = 1e-10


@dataclass(frozen=True)
class DeviatorBasis:
    """Orthonormal basis of the order-``order`` deviator space.

    ``tensors`` is a read-only stack of shape ``(2*order + 1,) + (3,)*order``.
    """

    order: int
    tensors: np.ndarray

    def __len__(self) -> int:
        return self.tensors.shape[0]

    def __iter__(self):
        return iter(self.tensors)

    def __getitem__(self, j) -> np.ndarray:
        return self.tensors[j]

    @property
    def flat(self) -> np.ndarray:
        """Basis elements as rows of a ``(2s+1, 3**s)`` matrix."""
        return self.tensors.reshape(len(self), -1)


@lru_cache(maxsize=None)
def build_basis(order: int) -> DeviatorBasis:
    """Return the cached orthonormal deviator basis for the given order."""
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    if order < 2:  # every symmetric tensor of order 0 or 1 is traceless
        stack = np.eye(2 * order + 1)
    else:
        orbits = _orbit_basis(order)
        traces = np.trace(orbits.T.reshape(-1, 3, 3, 3 ** (order - 2)), axis1=1, axis2=2)
        null = np.linalg.svd(traces @ _orbit_basis(order - 2))[0][:, -(2 * order + 1) :]
        stack = null.T @ orbits.T
    tensors = stack.reshape((2 * order + 1,) + (3,) * order)
    tensors.flags.writeable = False
    return DeviatorBasis(order=order, tensors=tensors)


def project_deviator(t) -> np.ndarray:
    """Orthogonal (Frobenius) projection onto the deviator space of ``t.ndim``."""
    t = as_tensor(t)
    basis = build_basis(t.ndim)
    c = basis.flat @ t.ravel()
    return (c @ basis.flat).reshape(t.shape)


def coords(t) -> np.ndarray:
    """Coordinates of a deviator in the orthonormal basis of its order.

    Raises ``ValueError`` unless ``is_deviator(t)``; the zero tensor passes
    and NaN fails.
    """
    t = as_tensor(t)
    flat = build_basis(t.ndim).flat
    c, residual = _project(t.reshape(1, -1), flat.T, flat)
    if not residual <= MEMBERSHIP_TOL:
        raise ValueError(
            f"tensor is not an order-{t.ndim} deviator "
            f"(relative projection residual {residual:.3e})"
        )
    return c[0]


def from_coords(c, order: int) -> np.ndarray:
    """Deviator of the given order with the given coordinates."""
    flat = build_basis(order).flat
    c = np.asarray(c, dtype=float)
    if c.shape != (len(flat),):
        raise ValueError(f"expected {len(flat)} coordinates, got shape {c.shape}")
    return (c @ flat).reshape((3,) * order)


def is_deviator(t) -> bool:
    """Whether ``t`` is totally symmetric and traceless within
    ``MEMBERSHIP_TOL`` relative to its norm; the zero tensor is a deviator."""
    t = as_tensor(t)
    flat = build_basis(t.ndim).flat
    return bool(_project(t.reshape(1, -1), flat.T, flat)[1] <= MEMBERSHIP_TOL)
