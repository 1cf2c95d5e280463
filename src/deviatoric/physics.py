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

Each of these maps is fixed and linear, so each call is one or two small
products with a read-only matrix or one flat take with a read-only index:
``_stiffness_split`` (20, 81) gives (lam, mu, D1, D2), ``_coupling_map``
(27, 42) rebuilds the coupling tensor and ``_coupling_solver`` (42, 27)
fits it, and the symmetry checks and the Voigt relabelling take flat
indices.  Each matrix is its formula, written over a leading batch axis
(``_stiffness_lower``, ``_coupling_sum``), evaluated once on the identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .closedform import lift_kernel4
from .core import _orbits, _project, _real_array, _scaled_back, as_tensor, epsilon
from .harmonic import build_basis

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
        x, exponent = _common_scaled(np.concatenate((self.v2, self.v3), dtype=float))
        return _scaled_back(exponent, 2.5 * x[3:6] - x[0:3])[0]

    @property
    def d2(self) -> np.ndarray:
        return -(2.0 / 3.0) * self.d1


def _common_scaled(x: np.ndarray) -> tuple[np.ndarray, int]:
    """The entries ``x``, a new flat array, divided in place and exactly by
    2**e, e the binary exponent of their largest |entry|, and e;
    ``_scaled_back`` undoes it.  Raises ``ValueError`` for a NaN or +-inf
    entry, which has no exponent."""
    top = float(np.abs(x).max())
    if not math.isfinite(top):
        raise ValueError("a deviator has a non-finite entry")
    exponent = math.frexp(top)[1]
    return np.ldexp(x, -exponent, out=x), exponent


def _orbit_firsts(*orders: int) -> np.ndarray:
    """Read-only index that takes the flattened totally symmetric tensors
    of ``orders``, side by side, to copies in which every entry is the
    first of its orbit (``core._orbits``), so each is exactly symmetric,
    whatever the rounding of the products that gave them."""
    starts = np.cumsum([0] + [3**s for s in orders])
    index = np.concatenate([start + _orbits(s).firsts[_orbits(s).orbit] for start, s in zip(starts, orders)])
    index.flags.writeable = False
    return index


def _symmetries(shape: tuple[int, ...], *checks: tuple[tuple[int, ...], str]) -> tuple:
    """The (axes, message) ``checks`` of arrays of ``shape`` as one read-only
    (k, size) flat index, whose row r takes a flattened array to its
    ``transpose(axes)`` of check r, and the k messages."""
    flat = np.arange(math.prod(shape)).reshape(shape)
    index = np.stack([flat.transpose(axes).ravel() for axes, _ in checks])
    index.flags.writeable = False
    return index, tuple(message for _, message in checks)


def _check_symmetries(a: np.ndarray, what: str, symmetries: tuple) -> tuple[np.ndarray, int]:
    """Raise ``ValueError`` with the message of the first check of
    ``symmetries`` (``_symmetries``) under which ``a`` differs from its
    transpose by more than ``SYMMETRY_TOL`` of its largest |entry|; NaN and
    +-inf entries fail.  Compared on ``a`` divided exactly by the power of
    two of that entry, so no difference overflows: one take of every
    check's transpose, one subtraction and one maximum per check.  Returns
    the flattened scaled entries and the exponent, the bits of
    ``_scaled_rows`` of ``a.reshape(1, -1)``."""
    top = float(np.abs(a).max())
    if not math.isfinite(top):
        raise ValueError(f"{what} has a non-finite entry")
    exponent = math.frexp(top)[1]
    scaled = np.ldexp(a.ravel(), -exponent)
    bound = SYMMETRY_TOL * math.ldexp(top, -exponent)
    index, messages = symmetries
    worst = np.abs(scaled.take(index) - scaled).max(axis=1)
    for message, difference in zip(messages, worst.tolist()):
        if not difference <= bound:
            raise ValueError(message)
    return scaled, exponent


_COUPLING_SYMMETRY = _symmetries(
    (3,) * 3, ((1, 0, 2), "tensor violates the coupling symmetry H_ijk = H_jik")
)


def validate_coupling(h) -> np.ndarray:
    """Check the symmetry H_ijk = H_jik, relative to the largest entry, and
    return the tensor; the zero tensor passes, NaN and +-inf entries fail."""
    h = as_tensor(h, order=3)
    _check_symmetries(h, "coupling tensor", _COUPLING_SYMMETRY)
    return h


def _coupling_sum(x: np.ndarray) -> np.ndarray:
    """The reconstruction display over a leading batch axis: the coupling
    tensors, shape (N, 3, 3, 3), of the rows of ``x``, shape (N, 42), each
    row the entries of (v2, v3, D1, D3) flattened."""
    v2, v3 = x[:, 0:3], x[:, 3:6]
    d1, d3 = x[:, 6:15].reshape(-1, 3, 3), x[:, 15:42].reshape(-1, 3, 3, 3)
    return (
        np.einsum("jkt,tis,ns->nijk", _EPS, _EPS, v2)
        - np.einsum("jk,ni->nijk", _EYE, v2)
        + 2.5 * np.einsum("jk,ni->nijk", _EYE, v3)
        + np.einsum("ijks,ns->nijk", lift_kernel4(), v3)
        + np.einsum("jks,nsi->nijk", _EPS, d1)
        - (1.0 / 3.0)
        * (np.einsum("isj,nks->nijk", _EPS, d1) + np.einsum("isk,njs->nijk", _EPS, d1))
        + d3
    )


@lru_cache(maxsize=None)
def _coupling_map() -> np.ndarray:
    """Read-only (27, 42) matrix of ``_coupling_sum``: the flattened coupling
    tensor of the flattened (v2, v3, D1, D3)."""
    matrix = np.ascontiguousarray(_coupling_sum(np.eye(42)).reshape(42, 27).T)
    matrix.flags.writeable = False
    return matrix


def coupling_reconstruct(cd: CouplingDeviators) -> np.ndarray:
    """Rebuild the coupling tensor from (v2, v3, D1, D3), one product of
    ``_coupling_map`` with their ``_common_scaled`` entries: +-inf beyond
    the float range, no warning.  Raises ``ValueError`` for a NaN or +-inf
    deviator entry."""
    x, exponent = _common_scaled(np.concatenate((
        as_tensor(cd.v2, order=1), as_tensor(cd.v3, order=1),
        as_tensor(cd.d1, order=2).ravel(), as_tensor(cd.d3, order=3).ravel(),
    )))
    return _scaled_back(exponent, (_coupling_map() @ x).reshape(3, 3, 3))[0]


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
    firsts = zip(*np.unravel_index(_orbits(3).firsts, (3, 3, 3)))
    d3 = np.array([orbit_values[first] for first in firsts])[_orbits(3).orbit].reshape(3, 3, 3)
    return CouplingDeviators(v2=v2, v3=v3, d1=d1, d3=d3)


_COUPLING_ENTRIES = _orbit_firsts(1, 1, 2, 3)


@lru_cache(maxsize=None)
def _coupling_solver() -> np.ndarray:
    """Read-only (42, 27) matrix of the fitted decomposition: the entries of
    (v2, v3, D1, D3) of the flattened coupling tensor.  It is the
    pseudo-inverse of the reconstruction display over the 18 deviator
    coordinates (``_coupling_map`` times their lift to entries), lifted to
    entries.  The display has full column rank (condition number 6), so
    the pseudo-inverse is R^-1 Q^T of its QR factors; that rounds the round
    trip about four times closer than ``np.linalg.pinv``'s SVD form."""
    lift = np.zeros((42, 18))
    lift[0:6, 0:6] = np.eye(6)
    lift[6:15, 6:11] = build_basis(2).flat.T
    lift[15:42, 11:18] = build_basis(3).flat.T
    q, r = np.linalg.qr(_coupling_map() @ lift)
    solver = lift @ np.linalg.solve(r, q.T)
    solver.flags.writeable = False
    return solver


def coupling_decompose(h, coefficients: str = "fitted") -> CouplingDeviators:
    """Deviators of a coupling tensor.

    ``coefficients`` selects the published tables ("printed") or the exact
    inversion of the reconstruction display ("fitted": one product with
    ``_coupling_solver`` and one take, ``_COUPLING_ENTRIES``, so D1 and D3
    are exactly symmetric; the four deviators are views of one new array),
    either one taken on the tensor divided by the power of two of its
    largest |entry| (as ``_scaled_rows`` divides it) and scaled back, exact
    up to the float limit.
    """
    h = as_tensor(h, order=3)
    scaled, exponent = _check_symmetries(h, "coupling tensor", _COUPLING_SYMMETRY)
    if coefficients not in ("printed", "fitted"):
        raise ValueError(f"coefficients must be 'printed' or 'fitted', got {coefficients!r}")
    if coefficients == "printed":
        cd = _printed_coupling_tables(scaled.reshape(h.shape))
        return CouplingDeviators(*_scaled_back(exponent, cd.v2, cd.v3, cd.d1, cd.d3))
    x, residual = _project(scaled.reshape(1, -1), _coupling_solver().T, _coupling_map().T)
    if not residual <= 1e-9:  # the zero tensor is representable
        raise ValueError(
            "tensor is not representable by the four coupling deviators (relative "
            f"residual {residual:.3e}); is the coupling symmetry satisfied?"
        )
    x = _scaled_back(exponent, x[0].take(_COUPLING_ENTRIES))[0]
    return CouplingDeviators(x[0:3], x[3:6], x[6:15].reshape(3, 3), x[15:42].reshape(3, 3, 3))


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


_STIFFNESS_SYMMETRIES = _symmetries(
    (3,) * 4,
    ((1, 0, 2, 3), "tensor violates the minor symmetry C_ijkl = C_jikl"),
    ((0, 1, 3, 2), "tensor violates the minor symmetry C_ijkl = C_ijlk"),
    ((2, 3, 0, 1), "tensor violates the major symmetry C_ijkl = C_klij"),
)


def validate_stiffness(c) -> np.ndarray:
    """Check minor (ijkl = jikl = ijlk) and major (ijkl = klij) symmetries,
    relative to the largest entry; the zero tensor passes, NaN and +-inf
    entries fail."""
    c = as_tensor(c, order=4)
    _check_symmetries(c, "stiffness tensor", _STIFFNESS_SYMMETRIES)
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


def _stiffness_lower(s: np.ndarray) -> np.ndarray:
    """(lam, mu, D1, D2) of stiffness tensors over a leading batch axis:
    rows (N, 20) of ``s``, shape (N, 3, 3, 3, 3), each row lam, mu and the
    entries of D1 and D2."""
    c_iikk = np.einsum("niikk->n", s)
    c_ikik = np.einsum("nikik->n", s)
    lam = (2.0 * c_iikk - c_ikik) / 15.0
    mu = (3.0 * c_ikik - c_iikk) / 30.0
    dilat = np.einsum("nkkij->nij", s) - (c_iikk / 3.0)[:, None, None] * _EYE
    voigt_tr = np.einsum("nkikj->nij", s) - (c_ikik / 3.0)[:, None, None] * _EYE
    d1 = (5.0 / 7.0) * dilat - (4.0 / 7.0) * voigt_tr
    d2 = (3.0 / 7.0) * voigt_tr - (2.0 / 7.0) * dilat
    return np.concatenate((lam[:, None], mu[:, None], d1.reshape(-1, 9), d2.reshape(-1, 9)), axis=1)


@lru_cache(maxsize=None)
def _stiffness_split() -> np.ndarray:
    """Read-only (20, 81) matrix of ``_stiffness_lower``: (lam, mu, D1, D2)
    of the flattened stiffness tensor."""
    matrix = np.ascontiguousarray(_stiffness_lower(np.eye(81).reshape((81,) + (3,) * 4)).T)
    matrix.flags.writeable = False
    return matrix


_STIFFNESS_ENTRIES = _orbit_firsts(0, 0, 2, 2)


def stiffness_decompose(c) -> StiffnessDeviators:
    """Lame coefficients plus deviators of a stiffness tensor.

    (lam, mu, D1, D2) are one product of ``_stiffness_split`` with the
    entries scaled by the symmetry check, as ``_scaled_rows`` scales them,
    and one take (``_STIFFNESS_ENTRIES``), so D1 and D2 are exactly symmetric;
    the order-4 part is the remainder after subtracting the lower-order
    slots, so reconstruction is exact by construction.  Scaled back, exact
    up to the float limit, as ``coupling_decompose`` is.  D1, D2 and D4 are
    views of one new array.
    """
    c = as_tensor(c, order=4)
    s, exponent = _check_symmetries(c, "stiffness tensor", _STIFFNESS_SYMMETRIES)
    parts = np.empty(101)  # lam, mu, D1, D2 and D4, flattened, scaled back at once
    x = np.dot(_stiffness_split(), s).take(_STIFFNESS_ENTRIES, out=parts[:20])
    np.subtract(s, _stiffness_base(x[0], x[1], x[2:11], x[11:20]).ravel(), out=parts[20:])
    parts = _scaled_back(exponent, parts)[0]
    return StiffnessDeviators(
        lam=float(parts[0]), mu=float(parts[1]), d1=parts[2:11].reshape(3, 3),
        d2=parts[11:20].reshape(3, 3), d4=parts[20:].reshape(c.shape),
    )


def stiffness_reconstruct(sd: StiffnessDeviators) -> np.ndarray:
    """Rebuild the stiffness tensor from its deviators, summed on
    ``_common_scaled`` values, as ``coupling_reconstruct`` sums them: +-inf
    beyond the float range, no warning.  Raises ``ValueError`` for a NaN or
    +-inf deviator entry, such as one that ``stiffness_decompose`` gives
    beyond the float range."""
    x, exponent = _common_scaled(np.concatenate((
        (float(sd.lam), float(sd.mu)), as_tensor(sd.d1, order=2).ravel(),
        as_tensor(sd.d2, order=2).ravel(), as_tensor(sd.d4, order=4).ravel(),
    )))
    c = _stiffness_base(x[0], x[1], x[2:11], x[11:20]) + x[20:].reshape((3,) * 4)
    return _scaled_back(exponent, c)[0]


def isotropic_stiffness(lam: float, mu: float) -> np.ndarray:
    """Isotropic stiffness tensor with the given Lame coefficients, summed
    on ``_common_scaled`` values, as ``stiffness_reconstruct`` sums: +-inf
    beyond the float range, no warning.  Raises ``ValueError`` for a NaN or
    +-inf coefficient."""
    lam, mu = float(lam), float(mu)
    for name, value in (("lam", lam), ("mu", mu)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    x, exponent = _common_scaled(np.array([lam, mu]))
    zero = np.zeros((3, 3))
    return _scaled_back(exponent, _stiffness_base(x[0], x[1], zero, zero))[0]


# ---------------------------------------------------------------------------
# Voigt notation

VOIGT_PAIRS: tuple[tuple[int, int], ...] = ((0, 0), (1, 1), (2, 2), (1, 2), (0, 2), (0, 1))

_VOIGT_FIRST, _VOIGT_SECOND = np.array(VOIGT_PAIRS).T  # tensor index pair of each Voigt index
_VOIGT_INDEX = np.array([[0, 5, 4], [5, 1, 3], [4, 3, 2]])  # Voigt index of each tensor index pair
# flat index of every Voigt entry in the stiffness tensor, and of every
# tensor entry in the Voigt matrix: each relabelling is one take
_TENSOR_OF_VOIGT = np.ravel_multi_index(
    (_VOIGT_FIRST[:, None], _VOIGT_SECOND[:, None], _VOIGT_FIRST, _VOIGT_SECOND), (3,) * 4
)
_VOIGT_OF_TENSOR = np.ravel_multi_index((_VOIGT_INDEX[:, :, None, None], _VOIGT_INDEX), (6, 6))
_TENSOR_OF_VOIGT.flags.writeable = _VOIGT_OF_TENSOR.flags.writeable = False
_VOIGT_SYMMETRY = _symmetries((6, 6), ((1, 0), "Voigt matrix must be symmetric"))


def tensor_to_voigt(c) -> np.ndarray:
    """6x6 Voigt matrix of a stiffness tensor; pure relabeling, no weights."""
    return validate_stiffness(c).take(_TENSOR_OF_VOIGT)


def voigt_to_tensor(m) -> np.ndarray:
    """Stiffness tensor of a symmetric 6x6 Voigt matrix; pure relabeling.

    Symmetry is checked relative to the largest entry; the zero matrix
    passes, NaN and +-inf entries fail, and so does a complex matrix.
    """
    m = _real_array(m, "Voigt matrix")
    if m.shape != (6, 6):
        raise ValueError(f"Voigt matrix must be 6x6, got shape {m.shape}")
    _check_symmetries(m, "Voigt matrix", _VOIGT_SYMMETRY)
    return m.take(_VOIGT_OF_TENSOR)
