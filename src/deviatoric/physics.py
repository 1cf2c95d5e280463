"""Decompositions of the piezoelectric-type coupling tensor and the
elasticity stiffness tensor, plus Voigt matrix conversion.

Coupling tensor: order 3 with H_ijk = H_jik.  Its decomposition needs only
four deviators (v2, v3 of order 1, D1 of order 2, D3 of order 3); the
remaining slots are tied to them by alpha = 0, v1 = 5/2 v3 - v2 and
D2 = -2/3 D1.  Two coefficient variants are available:

* ``coefficients="printed"`` evaluates the published component tables
  verbatim,
* ``coefficients="fitted"`` inverts the published reconstruction display
  exactly (pseudo-inverse of an 18-dimensional linear map), which is immune
  to typos in the tables.

``coupling_coefficient_diff`` compares the two variants entry by entry and
is the machine-readable record of where the printed tables deviate.

Stiffness tensor: order 4 with minor and major symmetries.  The classical
form C = lambda*dd + mu*(dd + dd) + {d D1} + {d D2 x 4} + D4 uses the Lame
coefficients; this arrangement is a linear recombination of the orthogonal
slots, so the two scalar parts (and the two order-2 parts) are not mutually
orthogonal, while parts of different deviator order still are.

Voigt conversion is pure index relabeling (11, 22, 33, 23, 13, 12) -> 1..6
with no factor weighting; the 6x6 matrix entries equal tensor components.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .closedform import lift_kernel4
from .core import _project, _scaled_back, _scaled_rows, as_tensor, epsilon
from .harmonic import from_coords

__all__ = [
    "CouplingDeviators",
    "validate_coupling",
    "coupling_decompose",
    "coupling_reconstruct",
    "coupling_coefficient_diff",
    "StiffnessDeviators",
    "validate_stiffness",
    "stiffness_decompose",
    "stiffness_reconstruct",
    "isotropic_stiffness",
    "tensor_to_voigt",
    "voigt_to_tensor",
    "VOIGT_PAIRS",
]

_EPS = epsilon()
_EYE = np.eye(3)

SYMMETRY_TOL = 1e-12


# ---------------------------------------------------------------------------
# coupling tensor

@dataclass(frozen=True)
class CouplingDeviators:
    """Independent deviators of a coupling tensor, with the tied slots
    exposed as properties."""

    v2: np.ndarray
    v3: np.ndarray
    d1: np.ndarray
    d3: np.ndarray

    @property
    def alpha(self) -> float:
        return 0.0

    @property
    def v1(self) -> np.ndarray:
        return 2.5 * self.v3 - self.v2

    @property
    def d2(self) -> np.ndarray:
        return -(2.0 / 3.0) * self.d1


def validate_coupling(h) -> np.ndarray:
    """Check the symmetry H_ijk = H_jik, relative to the largest entry, and
    return the tensor; the zero tensor passes and NaN fails."""
    h = as_tensor(h, order=3)
    if not np.max(np.abs(h - h.swapaxes(0, 1))) <= SYMMETRY_TOL * np.max(np.abs(h)):
        raise ValueError("tensor violates the coupling symmetry H_ijk = H_jik")
    return h


def coupling_reconstruct(cd: CouplingDeviators) -> np.ndarray:
    """Rebuild the coupling tensor from (v2, v3, D1, D3)."""
    v2 = as_tensor(cd.v2, order=1)
    v3 = as_tensor(cd.v3, order=1)
    d1 = as_tensor(cd.d1, order=2)
    d3 = as_tensor(cd.d3, order=3)
    l4 = lift_kernel4()
    return (
        np.einsum("jkt,tis,s->ijk", _EPS, _EPS, v2)
        - np.einsum("jk,i->ijk", _EYE, v2)
        + 2.5 * np.einsum("jk,i->ijk", _EYE, v3)
        + np.einsum("ijks,s->ijk", l4, v3)
        + np.einsum("jks,si->ijk", _EPS, d1)
        - (1.0 / 3.0)
        * (np.einsum("isj,ks->ijk", _EPS, d1) + np.einsum("isk,js->ijk", _EPS, d1))
        + d3
    )


def _printed_coupling_tables(h: np.ndarray) -> CouplingDeviators:
    """The published component tables, evaluated verbatim (1-based indices
    in the comments)."""
    v2 = 0.25 * np.array(
        [
            h[1, 1, 0] - h[0, 1, 1] + h[2, 2, 0] - h[0, 2, 2],  # 221-122+331-133
            h[0, 0, 1] - h[0, 1, 0] + h[2, 2, 1] - h[1, 2, 2],  # 112-121+332-233
            h[0, 2, 2] - h[0, 2, 0] + h[1, 1, 2] - h[1, 2, 1],  # 133-131+223-232
        ]
    )
    v3 = (1.0 / 30.0) * np.array(
        [
            4 * h[0, 0, 0] + h[0, 1, 1] + h[0, 2, 2] + 3 * h[1, 1, 0] + 3 * h[2, 2, 0],
            4 * h[1, 1, 1] + h[0, 1, 0] + h[1, 2, 2] + 3 * h[0, 0, 1] + 3 * h[2, 2, 1],
            4 * h[2, 2, 2] + h[0, 2, 0] + h[1, 2, 1] + 3 * h[0, 0, 2] + 3 * h[1, 1, 2],
        ]
    )
    d1 = np.zeros((3, 3))
    d1[0, 0] = 0.5 * (h[0, 1, 2] - h[0, 2, 1])  # (123 - 132)/2
    d1[1, 1] = 0.5 * (h[1, 2, 0] - h[0, 1, 2])  # (231 - 123)/2
    d1[2, 2] = 0.5 * (h[0, 2, 1] - h[1, 2, 0])  # (132 - 231)/2
    d1[0, 1] = d1[1, 0] = 0.25 * (-h[0, 0, 2] + h[0, 2, 0] + h[1, 1, 2] - h[1, 2, 1])
    d1[0, 2] = d1[2, 0] = 0.25 * (h[0, 0, 1] - h[0, 1, 0] + h[1, 2, 2] - h[2, 2, 1])
    d1[1, 2] = d1[2, 1] = 0.25 * (h[0, 1, 1] - h[1, 1, 0] - h[0, 2, 2] + h[2, 2, 0])

    f15 = 1.0 / 15.0
    orbit_values = {
        (0, 0, 0): 0.4 * h[0, 0, 0] - 0.4 * h[0, 1, 1] - 0.4 * h[0, 2, 2]
        - 0.2 * h[1, 1, 0] - 0.2 * h[2, 2, 0],
        (1, 1, 1): 0.4 * h[1, 1, 1] - 0.4 * h[1, 0, 0] - 0.4 * h[1, 2, 2]
        - 0.2 * h[0, 0, 1] - 0.2 * h[2, 2, 1],
        (2, 2, 2): 0.4 * h[2, 2, 2] - 0.4 * h[2, 1, 1] - 0.4 * h[2, 0, 0]
        - 0.2 * h[0, 0, 2] - 0.2 * h[1, 1, 2],
        # D122 = 8/15 H122 - 1/5 H111 - 2/15 H133 + 4/15 H221 - 1/15 H331
        (0, 1, 1): 8 * f15 * h[0, 1, 1] - 3 * f15 * h[0, 0, 0] - 2 * f15 * h[0, 2, 2]
        + 4 * f15 * h[1, 1, 0] - f15 * h[2, 2, 0],
        # D133 = 8/15 H133 - 1/5 H111 - 1/15 H221 + 4/15 H331 - 2/15 H212
        (0, 2, 2): 8 * f15 * h[0, 2, 2] - 3 * f15 * h[0, 0, 0] - f15 * h[1, 1, 0]
        + 4 * f15 * h[2, 2, 0] - 2 * f15 * h[1, 0, 1],
        # D211 = 8/15 H211 - 1/5 H222 - 2/15 H233 + 4/15 H112 - 1/15 H332
        (0, 0, 1): 8 * f15 * h[1, 0, 0] - 3 * f15 * h[1, 1, 1] - 2 * f15 * h[1, 2, 2]
        + 4 * f15 * h[0, 0, 1] - f15 * h[2, 2, 1],
        # D233 = 8/15 H233 - 2/15 H211 - 1/5 H222 - 1/15 H112 + 4/15 H332
        (1, 2, 2): 8 * f15 * h[1, 2, 2] - 2 * f15 * h[1, 0, 0] - 3 * f15 * h[1, 1, 1]
        - f15 * h[0, 0, 1] + 4 * f15 * h[2, 2, 1],
        # D311 = 8/15 H311 - 2/15 H322 - 1/5 H333 + 4/15 H113 - 1/15 H223
        (0, 0, 2): 8 * f15 * h[2, 0, 0] - 2 * f15 * h[2, 1, 1] - 3 * f15 * h[2, 2, 2]
        + 4 * f15 * h[0, 0, 2] - f15 * h[1, 1, 2],
        # D322 = 8/15 H322 - 2/15 H311 - 1/5 H333 - 1/15 H113 + 4/15 H223
        (1, 1, 2): 8 * f15 * h[2, 1, 1] - 2 * f15 * h[2, 0, 0] - 3 * f15 * h[2, 2, 2]
        - f15 * h[0, 0, 2] + 4 * f15 * h[1, 1, 2],
        (0, 1, 2): (h[0, 1, 2] + h[0, 2, 1] + h[1, 2, 0]) / 3.0,
    }
    d3 = np.zeros((3, 3, 3))
    for orbit, value in orbit_values.items():
        for perm in {
            (orbit[0], orbit[1], orbit[2]),
            (orbit[0], orbit[2], orbit[1]),
            (orbit[1], orbit[0], orbit[2]),
            (orbit[1], orbit[2], orbit[0]),
            (orbit[2], orbit[0], orbit[1]),
            (orbit[2], orbit[1], orbit[0]),
        }:
            d3[perm] = value
    return CouplingDeviators(v2=v2, v3=v3, d1=d1, d3=d3)


def _coupling_parts(x: np.ndarray) -> tuple[np.ndarray, ...]:
    """(v2, v3, D1, D3) of the 18 coupling coordinates ``x``."""
    return x[0:3], x[3:6], from_coords(x[6:11], 2), from_coords(x[11:18], 3)


@lru_cache(maxsize=None)
def _coupling_solver() -> tuple[np.ndarray, np.ndarray]:
    """Pseudo-inverse of the reconstruction display over its 18 deviator
    coordinates, plus the forward matrix."""
    columns = [coupling_reconstruct(CouplingDeviators(*_coupling_parts(x))) for x in np.eye(18)]
    forward = np.stack([c.ravel() for c in columns], axis=1)
    pinv = np.linalg.pinv(forward)
    pinv.flags.writeable = False
    forward.flags.writeable = False
    return pinv, forward


def coupling_decompose(h, coefficients: str = "fitted") -> CouplingDeviators:
    """Deviators of a coupling tensor.

    ``coefficients`` selects the published tables ("printed") or the exact
    inversion of the reconstruction display ("fitted"), either one taken on
    ``_scaled_rows`` of the tensor and scaled back, exact up to the float limit.
    """
    h = validate_coupling(h)
    if coefficients not in ("printed", "fitted"):
        raise ValueError(f"coefficients must be 'printed' or 'fitted', got {coefficients!r}")
    scaled, exponent = _scaled_rows(h.reshape(1, -1))
    if coefficients == "printed":
        cd = _printed_coupling_tables(scaled.reshape(h.shape))
        parts = (cd.v2, cd.v3, cd.d1, cd.d3)
    else:
        pinv, forward = _coupling_solver()
        x, residual = _project(scaled, pinv.T, forward.T)
        if not residual <= 1e-9:  # the zero tensor is representable
            raise ValueError(
                "tensor is not representable by the four coupling deviators (relative "
                f"residual {residual:.3e}); is the coupling symmetry satisfied?"
            )
        parts = _coupling_parts(x[0])
    return CouplingDeviators(*_scaled_back(exponent[0], *parts))


def coupling_coefficient_diff(tol: float = 1e-9) -> dict:
    """Entry-by-entry comparison of the printed coupling tables against the
    exact inversion of the reconstruction display.

    Every linear functional (components of v2, v3, D1, D3) is expanded over
    the 18 independent components H_abk (a <= b); entries whose printed and
    fitted coefficients differ by more than ``tol`` are listed.
    """
    pairs = [(0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)]
    quantities: list[tuple[str, callable]] = []
    for i in range(3):
        quantities.append((f"v2[{i + 1}]", lambda cd, i=i: float(cd.v2[i])))
    for i in range(3):
        quantities.append((f"v3[{i + 1}]", lambda cd, i=i: float(cd.v3[i])))
    for a, b in pairs:
        quantities.append((f"D1[{a + 1},{b + 1}]", lambda cd, a=a, b=b: float(cd.d1[a, b])))
    orbits = [
        (0, 0, 0), (1, 1, 1), (2, 2, 2), (0, 1, 1), (0, 2, 2),
        (0, 0, 1), (1, 2, 2), (0, 0, 2), (1, 1, 2), (0, 1, 2),
    ]
    for o in orbits:
        quantities.append(
            (f"D3[{o[0] + 1},{o[1] + 1},{o[2] + 1}]", lambda cd, o=o: float(cd.d3[o]))
        )

    printed_table: dict[str, dict[str, float]] = {name: {} for name, _ in quantities}
    fitted_table: dict[str, dict[str, float]] = {name: {} for name, _ in quantities}
    differences = []
    for a, b in pairs:
        for k in range(3):
            unit = np.zeros((3, 3, 3))
            unit[a, b, k] = 1.0
            unit[b, a, k] = 1.0
            component = f"H[{a + 1},{b + 1},{k + 1}]"
            printed = _printed_coupling_tables(unit)
            fitted = coupling_decompose(unit, coefficients="fitted")
            for name, read in quantities:
                p, f = read(printed), read(fitted)
                if abs(p) > 1e-14:
                    printed_table[name][component] = p
                if abs(f) > 1e-14:
                    fitted_table[name][component] = f
                if abs(p - f) > tol:
                    differences.append(
                        {
                            "quantity": name,
                            "component": component,
                            "printed": p,
                            "fitted": f,
                        }
                    )
    return {
        "tolerance": tol,
        "differences": differences,
        "printed": printed_table,
        "fitted": fitted_table,
    }


# ---------------------------------------------------------------------------
# stiffness tensor

@dataclass(frozen=True)
class StiffnessDeviators:
    """Lame coefficients, the two order-2 deviators, and the order-4
    remainder of a stiffness tensor."""

    lam: float
    mu: float
    d1: np.ndarray
    d2: np.ndarray
    d4: np.ndarray


def validate_stiffness(c) -> np.ndarray:
    """Check minor (ijkl = jikl = ijlk) and major (ijkl = klij) symmetries,
    relative to the largest entry; the zero tensor passes and NaN fails."""
    c = as_tensor(c, order=4)
    bound = SYMMETRY_TOL * np.max(np.abs(c))
    if not np.max(np.abs(c - c.swapaxes(0, 1))) <= bound:
        raise ValueError("tensor violates the minor symmetry C_ijkl = C_jikl")
    if not np.max(np.abs(c - c.swapaxes(2, 3))) <= bound:
        raise ValueError("tensor violates the minor symmetry C_ijkl = C_ijlk")
    if not np.max(np.abs(c - c.transpose(2, 3, 0, 1))) <= bound:
        raise ValueError("tensor violates the major symmetry C_ijkl = C_klij")
    return c


def _stiffness_base(lam: float, mu: float, d1: np.ndarray, d2: np.ndarray) -> np.ndarray:
    return (
        lam * np.einsum("ij,kl->ijkl", _EYE, _EYE)
        + mu * (np.einsum("ik,jl->ijkl", _EYE, _EYE) + np.einsum("il,jk->ijkl", _EYE, _EYE))
        + np.einsum("ij,kl->ijkl", _EYE, d1)
        + np.einsum("kl,ij->ijkl", _EYE, d1)
        + np.einsum("ik,jl->ijkl", _EYE, d2)
        + np.einsum("il,jk->ijkl", _EYE, d2)
        + np.einsum("jk,il->ijkl", _EYE, d2)
        + np.einsum("jl,ik->ijkl", _EYE, d2)
    )


def stiffness_decompose(c) -> StiffnessDeviators:
    """Lame coefficients plus deviators of a stiffness tensor.

    The order-4 part is the remainder after subtracting the lower-order
    slots, so reconstruction is exact by construction.
    """
    c = validate_stiffness(c)
    c_iikk = float(np.einsum("iikk->", c))
    c_ikik = float(np.einsum("ikik->", c))
    lam = (2.0 * c_iikk - c_ikik) / 15.0
    mu = (3.0 * c_ikik - c_iikk) / 30.0
    dilat = np.einsum("kkij->ij", c) - (c_iikk / 3.0) * _EYE
    voigt_tr = np.einsum("kikj->ij", c) - (c_ikik / 3.0) * _EYE
    d1 = (5.0 / 7.0) * dilat - (4.0 / 7.0) * voigt_tr
    d2 = (3.0 / 7.0) * voigt_tr - (2.0 / 7.0) * dilat
    d4 = c - _stiffness_base(lam, mu, d1, d2)
    return StiffnessDeviators(lam=lam, mu=mu, d1=d1, d2=d2, d4=d4)


def stiffness_reconstruct(sd: StiffnessDeviators) -> np.ndarray:
    """Rebuild the stiffness tensor from its deviators."""
    d1 = as_tensor(sd.d1, order=2)
    d2 = as_tensor(sd.d2, order=2)
    d4 = as_tensor(sd.d4, order=4)
    return _stiffness_base(float(sd.lam), float(sd.mu), d1, d2) + d4


def isotropic_stiffness(lam: float, mu: float) -> np.ndarray:
    """Isotropic stiffness tensor with the given Lame coefficients."""
    return _stiffness_base(float(lam), float(mu), np.zeros((3, 3)), np.zeros((3, 3)))


# ---------------------------------------------------------------------------
# Voigt notation

VOIGT_PAIRS: tuple[tuple[int, int], ...] = ((0, 0), (1, 1), (2, 2), (1, 2), (0, 2), (0, 1))

_VOIGT_INDEX = np.array([[0, 5, 4], [5, 1, 3], [4, 3, 2]])
_VOIGT_FIRST, _VOIGT_SECOND = np.array(VOIGT_PAIRS).T  # tensor index pair of each Voigt index


def tensor_to_voigt(c) -> np.ndarray:
    """6x6 Voigt matrix of a stiffness tensor; pure relabeling, no weights."""
    c = validate_stiffness(c)
    return c[_VOIGT_FIRST[:, None], _VOIGT_SECOND[:, None], _VOIGT_FIRST, _VOIGT_SECOND]


def voigt_to_tensor(m) -> np.ndarray:
    """Stiffness tensor of a symmetric 6x6 Voigt matrix; pure relabeling.

    Symmetry is checked relative to the largest entry; the zero matrix
    passes and NaN fails.
    """
    m = np.asarray(m, dtype=float)
    if m.shape != (6, 6):
        raise ValueError(f"Voigt matrix must be 6x6, got shape {m.shape}")
    if not np.max(np.abs(m - m.T)) <= SYMMETRY_TOL * np.max(np.abs(m)):
        raise ValueError("Voigt matrix must be symmetric")
    return m[_VOIGT_INDEX[:, :, None, None], _VOIGT_INDEX[None, None, :, :]]
