"""Proper rotations of 3-D tensors.

A rotation is a plain 3x3 ndarray.  ``check_rotation`` enforces orthogonality
and det = +1 to within 1e-12; every rotating function validates its input, so
reflections and shears are rejected everywhere.
"""

from __future__ import annotations

import numpy as np

from .core import _real_array, _scaled_rows, as_tensor

__all__ = ["check_rotation", "rotate", "rotation_about", "random_rotation"]

_ORTHO_TOL = 1e-12
_EYE = np.eye(3)


def check_rotation(r) -> np.ndarray:
    """Validate a proper rotation matrix and return it as float64; a
    complex matrix is rejected.  The determinant is the triple product of
    the rows, so a NaN entry fails both checks."""
    r = _real_array(r, "rotation")
    if r.shape != (3, 3):
        raise ValueError(f"rotation must be 3x3, got shape {r.shape}")
    if not np.abs(r @ r.T - _EYE).max() <= _ORTHO_TOL:
        raise ValueError("matrix is not orthogonal")
    (a, b, c), (d, e, f), (g, h, i) = r.tolist()
    if not abs(a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g) - 1.0) <= _ORTHO_TOL:
        raise ValueError("matrix is not a proper rotation (det != +1)")
    return r


def rotate(t, r) -> np.ndarray:
    """Apply a rotation to every index of ``t``.

    The result satisfies ``out[j1..jn] = r[j1,i1] ... r[jn,in] t[i1..in]``.
    An order-0 tensor is returned unchanged.
    """
    t = as_tensor(t)
    r = check_rotation(r)
    if t.ndim == 0:
        return t.copy()
    shape, rt = t.shape, r.T
    for _ in shape:
        # contract axis 0 with r and append the rotated axis at the end, the
        # product of np.tensordot(t, r, axes=([0], [1])) without its
        # transposes; after ndim passes every axis is rotated and back in place
        t = np.dot(t.reshape(3, -1).T, rt)
    return t.reshape(shape)


def rotation_about(axis, angle: float) -> np.ndarray:
    """Rotation by a finite ``angle`` (radians) about ``axis`` of any
    nonzero, finite length (Rodrigues formula)."""
    if not np.isfinite(angle):
        raise ValueError("angle must be finite")
    axis = np.asarray(axis, dtype=float)
    if axis.shape != (3,):
        raise ValueError(f"axis must be a 3-vector, got shape {axis.shape}")
    scaled = _scaled_rows(axis.reshape(1, 3))[0][0]
    n = np.linalg.norm(scaled)
    if n == 0.0:
        raise ValueError("axis must be nonzero")
    if not n < np.inf:  # a NaN or +-inf entry; the scaled norm of a finite axis is below 2
        raise ValueError("axis must be finite")
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
