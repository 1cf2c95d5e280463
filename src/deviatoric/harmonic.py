"""Deviator spaces: totally symmetric traceless tensors of a given order.

The space of order-s deviators has dimension 2s + 1.  ``build_basis``
gives a Frobenius-orthonormal basis B_s of it, cached per order.  For
s >= 2, row m + s of B_s (m = -s..s) is the real solid harmonic S_{s,m}
written as a unit deviator (Applequist, J. Phys. A 22, 1989; Schlegel &
Frisch, Int. J. Quantum Chem. 54, 1995): with k = |m|, the polynomial

    sum_j (-1)^j (x^2 + y^2)^j z^(s-k-2j) / (4^j j! (k+j)! (s-k-2j)!)

times Re (m >= 0) or Im (m < 0) of (x + iy)^k.  Its entry on the orbit of
x^a y^b z^c under index permutations (``core._orbits``) is the
polynomial's coefficient of that monomial over s! / (a! b! c!).  Scaled
by 4^s (s!)^2 the entries are integers, and so is their squared norm over
all 3^s entries, so each unit entry is rounded once, from integers alone:
B_s is the same bits on every platform.  B_0 and B_1 are identities.

Membership in a deviator space is decided by ``core._project`` on the
tensor divided exactly by a power of two, so up to the float limit it does
not depend on the units of the input: ``t`` is a deviator when the residual
of its projection is at most ``MEMBERSHIP_TOL * |t|``.  The zero tensor is
a deviator; a tensor with a NaN entry is not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import _orbits, _project, _real_array, as_tensor

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
def _harmonics(s: int) -> np.ndarray:
    """Read-only (2s+1, orbits) values of B_s on the orbits of
    ``core._orbits(s)``: row m + s is the unit real solid harmonic S_{s,m}
    (see the module docstring), each entry rounded once from exact
    integers; the identity below order 2."""
    if s < 2:
        values = np.eye(2 * s + 1)
    else:
        f = [math.factorial(i) for i in range(s + 1)]
        # (a, b, c) of x^a y^b z^c on each orbit, in the order of ``core._orbits``
        exponents = [(s - n, n - c, c) for n in range(s + 1) for c in range(n + 1)]
        column = {(a, b): o for o, (a, b, _) in enumerate(exponents)}
        products = [f[a] * f[b] * f[c] for a, b, c in exponents]  # s! over each orbit's size
        values = np.empty((2 * s + 1, len(exponents)))
        for m, row in zip(range(-s, s + 1), values):
            k, poly = abs(m), [0] * len(exponents)  # coefficients times 4^s s!
            for j in range((s - k) // 2 + 1):
                term = (-1) ** j * 4 ** (s - j) * f[s] // (f[j] * f[k + j] * f[s - k - 2 * j])
                for p in range(j + 1):  # (x^2 + y^2)^j
                    for q in range(m < 0, k + 1, 2):  # the real or imaginary terms of (x + iy)^k
                        poly[column[2 * p + k - q, 2 * (j - p) + q]] += (
                            term * math.comb(j, p) * math.comb(k, q) * (-1) ** (q // 2))
            # entries times 4^s (s!)^2, and their squared norm over all 3^s entries
            entries = [x * g for x, g in zip(poly, products)]
            norm = f[s] * sum(x * y for x, y in zip(poly, entries))
            row[:] = [math.copysign(math.isqrt((x * x << 240) // norm) / 2.0**120, x) for x in entries]
    values.flags.writeable = False
    return values


@lru_cache(maxsize=None)
def build_basis(order: int) -> DeviatorBasis:
    """Return the cached orthonormal deviator basis for the given order:
    ``_harmonics(order)`` gathered to the 3^order entries, C-contiguous."""
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    stack = np.ascontiguousarray(_harmonics(order).take(_orbits(order).orbit, axis=1))
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
    c = _real_array(c, "coordinates")
    if c.shape != (len(flat),):
        raise ValueError(f"expected {len(flat)} coordinates, got shape {c.shape}")
    return (c @ flat).reshape((3,) * order)


def is_deviator(t) -> bool:
    """Whether ``t`` is totally symmetric and traceless within
    ``MEMBERSHIP_TOL`` relative to its norm; the zero tensor is a deviator."""
    t = as_tensor(t)
    flat = build_basis(t.ndim).flat
    return bool(_project(t.reshape(1, -1), flat.T, flat)[1] <= MEMBERSHIP_TOL)
