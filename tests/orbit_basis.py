"""The dense orbit bases M_s, a reference for the tests.  The library keeps
only the orbit index (``core._orbits``); this is the (3^s, orbits) array it
once built from ``core._orbit_map``, kept here so that tests can compare
against it."""

from functools import lru_cache

import numpy as np

from deviatoric.core import _orbit_map


@lru_cache(maxsize=None)
def orbit_basis(s: int) -> np.ndarray:
    """Read-only (3^s, orbits) orthonormal basis M_s of the totally
    symmetric order-s tensors: column o is 1/sqrt(|o|) on the members of
    orbit o of ``_orbit_map`` and 0 elsewhere, so x M_s M_s^T is
    ``symmetrize`` of a flattened x, the mean over each orbit.  The columns
    follow the orbits' sorted members in lexicographic order."""
    code, weight = _orbit_map(s, tuple(range(s)))
    canonical = np.flatnonzero(code == np.arange(code.size))
    basis = np.zeros((code.size, canonical.size))
    basis[np.arange(code.size), np.searchsorted(canonical, code)] = np.sqrt(weight[code])
    basis.flags.writeable = False
    return basis
