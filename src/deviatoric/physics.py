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

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .closedform import lift_kernel4
from .core import _project, _real_array, _scaled_back, _scaled_rows, as_tensor, epsilon
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
        (v2, v3), exponent = _common_scaled(self.v2, self.v3)
        return _scaled_back(exponent, 2.5 * v3 - v2)[0]

    @property
    def d2(self) -> np.ndarray:
        return -(2.0 / 3.0) * self.d1


def _common_scaled(*arrays) -> tuple[list[np.ndarray], int]:
    """The arrays divided exactly by 2**e, e the binary exponent of their
    largest |entry|, and e; ``_scaled_back`` undoes it.  Raises
    ``ValueError`` for a NaN or +-inf entry, which has no exponent."""
    top = np.abs(np.concatenate([np.ravel(a) for a in arrays])).max()
    if not math.isfinite(top):
        raise ValueError("a deviator has a non-finite entry")
    exponent = math.frexp(top)[1]
    return [np.ldexp(a, -exponent) for a in arrays], exponent


def _check_symmetries(a: np.ndarray, what: str, *checks: tuple[tuple[int, ...], str]) -> None:
    """Raise ``ValueError(message)`` unless ``a`` equals ``a.transpose(axes)``
    within ``SYMMETRY_TOL`` of its largest |entry|, for each (axes, message)
    of ``checks``; NaN and +-inf entries fail.  Compared on ``a`` divided
    exactly by the power of two of that entry, so no difference overflows."""
    top = float(np.abs(a).max())
    if not math.isfinite(top):
        raise ValueError(f"{what} has a non-finite entry")
    exponent = math.frexp(top)[1]
    scaled = np.ldexp(a, -exponent)
    bound = SYMMETRY_TOL * math.ldexp(top, -exponent)
    for axes, message in checks:
        if not np.abs(scaled - scaled.transpose(axes)).max() <= bound:
            raise ValueError(message)


def validate_coupling(h) -> np.ndarray:
    """Check the symmetry H_ijk = H_jik, relative to the largest entry, and
    return the tensor; the zero tensor passes, NaN and +-inf entries fail."""
    h = as_tensor(h, order=3)
    symmetry = ((1, 0, 2), "tensor violates the coupling symmetry H_ijk = H_jik")
    _check_symmetries(h, "coupling tensor", symmetry)
    return h


def coupling_reconstruct(cd: CouplingDeviators) -> np.ndarray:
    """Rebuild the coupling tensor from (v2, v3, D1, D3), summed on
    ``_common_scaled`` deviators: +-inf beyond the float range, no warning.
    Raises ``ValueError`` for a NaN or +-inf deviator entry."""
    (v2, v3, d1, d3), exponent = _common_scaled(
        as_tensor(cd.v2, order=1), as_tensor(cd.v3, order=1),
        as_tensor(cd.d1, order=2), as_tensor(cd.d3, order=3),
    )
    l4 = lift_kernel4()
    h = (
        np.einsum("jkt,tis,s->ijk", _EPS, _EPS, v2)
        - np.einsum("jk,i->ijk", _EYE, v2)
        + 2.5 * np.einsum("jk,i->ijk", _EYE, v3)
        + np.einsum("ijks,s->ijk", l4, v3)
        + np.einsum("jks,si->ijk", _EPS, d1)
        - (1.0 / 3.0)
        * (np.einsum("isj,ks->ijk", _EPS, d1) + np.einsum("isk,js->ijk", _EPS, d1))
        + d3
    )
    return _scaled_back(exponent, h)[0]


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
    relative to the largest entry; the zero tensor passes, NaN and +-inf
    entries fail."""
    c = as_tensor(c, order=4)
    _check_symmetries(
        c,
        "stiffness tensor",
        ((1, 0, 2, 3), "tensor violates the minor symmetry C_ijkl = C_jikl"),
        ((0, 1, 3, 2), "tensor violates the minor symmetry C_ijkl = C_ijlk"),
        ((2, 3, 0, 1), "tensor violates the major symmetry C_ijkl = C_klij"),
    )
    return c


@lru_cache(maxsize=None)
def _stiffness_terms() -> tuple[np.ndarray, np.ndarray]:
    """The eight terms of ``_stiffness_base`` over (i, j, k, l): the index of
    each term's value in (lam, mu, D1, D2) flattened, and its product of
    Kronecker deltas, as two read-only (8, 3, 3, 3, 3) arrays."""
    eye, ones = np.eye(3), np.ones((3, 3), dtype=int)
    index = [np.zeros((3,) * 4, dtype=int), np.ones((3,) * 4, dtype=int)]
    deltas = [
        np.einsum("ij,kl->ijkl", eye, eye),
        np.einsum("ik,jl->ijkl", eye, eye) + np.einsum("il,jk->ijkl", eye, eye),
    ]
    d1, d2 = np.arange(2, 20).reshape(2, 3, 3)
    for spec, d in (("ij,kl", d1), ("kl,ij", d1), ("ik,jl", d2), ("il,jk", d2),
                    ("jk,il", d2), ("jl,ik", d2)):
        # the delta on the first index pair of spec, D1 or D2 on the second
        index.append(np.einsum(spec + "->ijkl", ones, d))
        deltas.append(np.einsum(spec + "->ijkl", eye, ones))
    index, deltas = np.array(index), np.array(deltas)
    index.flags.writeable = deltas.flags.writeable = False
    return index, deltas


def _stiffness_base(lam: float, mu: float, d1: np.ndarray, d2: np.ndarray) -> np.ndarray:
    """lam d_ij d_kl + mu (d_ik d_jl + d_il d_jk) + d_ij D1_kl + D1_ij d_kl
    + d_ik D2_jl + d_il D2_jk + d_jk D2_il + d_jl D2_ik, each term the
    product of its value and its deltas (``_stiffness_terms``), summed term
    by term in this order."""
    index, deltas = _stiffness_terms()
    terms = np.concatenate(([lam, mu], d1.ravel(), d2.ravel()))[index]
    terms *= deltas
    return terms.sum(axis=0)  # over the outer axis numpy adds one term at a time


def stiffness_decompose(c) -> StiffnessDeviators:
    """Lame coefficients plus deviators of a stiffness tensor.

    The order-4 part is the remainder after subtracting the lower-order
    slots, so reconstruction is exact by construction.  Taken on
    ``_scaled_rows`` of the tensor and scaled back, exact up to the float
    limit, as ``coupling_decompose`` is.
    """
    c = validate_stiffness(c)
    scaled, exponent = _scaled_rows(c.reshape(1, -1))
    s = scaled.reshape(c.shape)
    c_iikk = float(np.einsum("iikk->", s))
    c_ikik = float(np.einsum("ikik->", s))
    lam = (2.0 * c_iikk - c_ikik) / 15.0
    mu = (3.0 * c_ikik - c_iikk) / 30.0
    dilat = np.einsum("kkij->ij", s) - (c_iikk / 3.0) * _EYE
    voigt_tr = np.einsum("kikj->ij", s) - (c_ikik / 3.0) * _EYE
    d1 = (5.0 / 7.0) * dilat - (4.0 / 7.0) * voigt_tr
    d2 = (3.0 / 7.0) * voigt_tr - (2.0 / 7.0) * dilat
    d4 = s - _stiffness_base(lam, mu, d1, d2)
    lam, mu, d1, d2, d4 = _scaled_back(exponent[0], lam, mu, d1, d2, d4)
    return StiffnessDeviators(lam=float(lam), mu=float(mu), d1=d1, d2=d2, d4=d4)


def stiffness_reconstruct(sd: StiffnessDeviators) -> np.ndarray:
    """Rebuild the stiffness tensor from its deviators, summed on
    ``_common_scaled`` values, as ``coupling_reconstruct`` sums them: +-inf
    beyond the float range, no warning.  Raises ``ValueError`` for a NaN or
    +-inf deviator entry, such as one that ``stiffness_decompose`` gives
    beyond the float range."""
    (lam, mu, d1, d2, d4), exponent = _common_scaled(
        float(sd.lam), float(sd.mu), as_tensor(sd.d1, order=2),
        as_tensor(sd.d2, order=2), as_tensor(sd.d4, order=4),
    )
    return _scaled_back(exponent, _stiffness_base(lam, mu, d1, d2) + d4)[0]


def isotropic_stiffness(lam: float, mu: float) -> np.ndarray:
    """Isotropic stiffness tensor with the given Lame coefficients, summed
    on ``_common_scaled`` values, as ``stiffness_reconstruct`` sums: +-inf
    beyond the float range, no warning.  Raises ``ValueError`` for a NaN or
    +-inf coefficient."""
    lam, mu = float(lam), float(mu)
    for name, value in (("lam", lam), ("mu", mu)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    (lam, mu), exponent = _common_scaled(lam, mu)
    zero = np.zeros((3, 3))
    return _scaled_back(exponent, _stiffness_base(lam, mu, zero, zero))[0]


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
    passes, NaN and +-inf entries fail, and so does a complex matrix.
    """
    m = _real_array(m, "Voigt matrix")
    if m.shape != (6, 6):
        raise ValueError(f"Voigt matrix must be 6x6, got shape {m.shape}")
    _check_symmetries(m, "Voigt matrix", ((1, 0), "Voigt matrix must be symmetric"))
    return m[_VOIGT_INDEX[:, :, None, None], _VOIGT_INDEX[None, None, :, :]]
