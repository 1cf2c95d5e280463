"""Deviator spaces: totally symmetric traceless tensors of a given order.

The space of order-s deviators has dimension 2s + 1.  ``build_basis``
constructs a Frobenius-orthonormal basis once per order and caches it:

1. enumerate the symmetrized monomials ``sym(e_i1 x ... x e_is)`` for
   ``i1 <= ... <= is`` in lexicographic order,
2. take the nullspace of the (1,2)-trace map restricted to their span,
   found by a rank-revealing SVD,
3. orthonormalize with modified Gram-Schmidt.

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

from .core import _orbit_map, _project, as_tensor

__all__ = [
    "DeviatorBasis",
    "build_basis",
    "project_deviator",
    "coords",
    "from_coords",
    "is_deviator",
]

MEMBERSHIP_TOL = 1e-10
_RANK_TOL = 1e-9


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


def _monomials(s: int) -> np.ndarray:
    """Symmetrized monomials ``sym(e_i1 x ... x e_is)``, i1 <= ... <= is in
    lexicographic order, as the rows of a ``(count, 3**s)`` matrix.

    Such a monomial is 1/|orbit| on the orbit of (i1, ..., is) under index
    permutations and 0 elsewhere.  The orbit's code in the cached orbit map
    is the flat index of its sorted member, and sorted multi-indices in
    lexicographic order have increasing flat indices.
    """
    code, weight = _orbit_map(s, tuple(range(s)))
    canonical = np.flatnonzero(code == np.arange(code.size))
    return (code == canonical[:, None]) * weight[canonical, None]


def _gram_schmidt(rows: np.ndarray) -> np.ndarray:
    out: list[np.ndarray] = []
    for row in rows:
        w = row.copy()
        for u in out:
            w -= (u @ w) * u
        nrm = np.linalg.norm(w)
        if nrm < 1e-12:
            raise RuntimeError("degenerate candidate basis (should not happen)")
        out.append(w / nrm)
    return np.asarray(out)


@lru_cache(maxsize=None)
def build_basis(order: int) -> DeviatorBasis:
    """Return the cached orthonormal deviator basis for the given order."""
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    if order == 0:
        stack = np.ones((1,))
    elif order == 1:
        stack = np.eye(3)
    else:
        flat = _monomials(order)
        traces = np.trace(flat.reshape(len(flat), 3, 3, -1), axis1=1, axis2=2)
        u, sigma, _ = np.linalg.svd(traces)
        rank = int(np.sum(sigma > _RANK_TOL * sigma[0]))
        null = u[:, rank:].T  # coefficient rows spanning the traceless subspace
        stack = _gram_schmidt(null @ flat)
    expected = 2 * order + 1
    if stack.shape[0] != expected:
        raise RuntimeError(
            f"deviator space of order {order}: got {stack.shape[0]} basis "
            f"elements, expected {expected}"
        )
    tensors = stack.reshape((expected,) + (3,) * order)
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
