"""Proper rotations of 3-D tensors.

A rotation is a plain 3x3 ndarray.  ``check_rotation`` enforces orthogonality
and det = +1 to within 1e-12; every rotating function validates its input, so
reflections and shears are rejected everywhere.
"""

from __future__ import annotations

import numpy as np

from .core import _scaled_rows, as_tensor

__all__ = ["check_rotation", "rotate", "rotation_about", "random_rotation"]

_ORTHO_TOL = 1e-12


def check_rotation(r) -> np.ndarray:
    """Validate a proper rotation matrix and return it as float64."""
    r = np.asarray(r, dtype=float)
    if r.shape != (3, 3):
        raise ValueError(f"rotation must be 3x3, got shape {r.shape}")
    if not np.max(np.abs(r @ r.T - np.eye(3))) <= _ORTHO_TOL:
        raise ValueError("matrix is not orthogonal")
    if not abs(np.linalg.det(r) - 1.0) <= _ORTHO_TOL:
        raise ValueError("matrix is not a proper rotation (det != +1)")
    return r


def rotate(t, r) -> np.ndarray:
    """Apply a rotation to every index of ``t``.

    The result satisfies ``out[j1..jn] = r[j1,i1] ... r[jn,in] t[i1..in]``.
    An order-0 tensor is returned unchanged.
    """
    t = as_tensor(t)
    r = check_rotation(r)
    for _ in range(t.ndim):
        # contract axis 0 with r and append the rotated axis at the end;
        # after ndim passes every axis is rotated and back in place
        t = np.tensordot(t, r, axes=([0], [1]))
    return t.copy() if t.ndim == 0 else t


def rotation_about(axis, angle: float) -> np.ndarray:
    """Rotation by ``angle`` (radians) about ``axis`` of any length (Rodrigues formula)."""
    axis = np.asarray(axis, dtype=float)
    if axis.shape != (3,):
        raise ValueError(f"axis must be a 3-vector, got shape {axis.shape}")
    scaled = _scaled_rows(axis.reshape(1, 3))[0][0]
    n = np.linalg.norm(scaled)
    if n == 0.0:
        raise ValueError("axis must be nonzero")
    u = scaled / n
    k = np.array([[0.0, -u[2], u[1]], [u[2], 0.0, -u[0]], [-u[1], u[0], 0.0]])
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Draw a random proper rotation from a seeded generator."""
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 2] = -q[:, 2]
    return q
