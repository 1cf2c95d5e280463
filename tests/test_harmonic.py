"""Orthonormal bases of the deviator spaces and projection onto them."""

import hashlib
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from deviatoric import (
    build_basis,
    coords,
    delta,
    frobenius_norm,
    from_coords,
    is_deviator,
    outer,
    project_deviator,
    random_rotation,
    rotate,
    rotation_about,
    symmetrize,
    trace_pair,
)
from deviatoric.core import _orbit_map
from orbit_basis import orbit_basis


@pytest.mark.parametrize("s", range(11))
def test_basis_dimension_is_2s_plus_1(s):
    assert len(build_basis(s)) == 2 * s + 1


@pytest.mark.parametrize("s", range(11))
def test_basis_elements_are_orthonormal_deviators(s):
    basis = build_basis(s)
    flat = basis.flat
    assert_allclose(flat @ flat.T, np.eye(2 * s + 1), atol=1e-12)
    for b in basis:
        if s >= 2:
            assert_allclose(b, symmetrize(b), atol=1e-12)
            assert_allclose(np.trace(b, axis1=0, axis2=1), np.zeros((3,) * (s - 2)), atol=1e-12)


# builds every basis up to order 10 in a fresh process, with no cache of an
# earlier test, and prints the peak of the memory that the builds traced
BUILD_ALL = """
import tracemalloc
from deviatoric import build_basis
tracemalloc.start()
for s in range(11):
    build_basis(s)
print(tracemalloc.get_traced_memory()[1])
"""


def test_bases_up_to_order_10_take_under_64_mb():
    """The bases up to order 10 (14 MB) and the build's temporaries stay
    under 32 MB, as no dense orbit basis M_s is built (19 MB here; 62 MB
    when B_s came from M_s and an SVD); the 3^8-square V of a full SVD of
    the order-10 trace would take 344 MB alone."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", BUILD_ALL], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) <= 32 * 10**6


# the first 16 hex digits of the SHA-256 of the bytes of B_s, s = 0..10: the
# same on every platform, as B_s is rounded from exact integers
BASIS_DIGESTS = [
    "6c3c396ed6b5c36d", "1332df685c45a61a", "5763fc6fd2c61c67", "2cb2c5fec23d7c11",
    "4f29a074640190d2", "1a1be68a53943c91", "26e002207aa44100", "3a8fe8575c61c750",
    "5812f0d9cf4fefd7", "8864659576e45c1a", "c31c48cdbc5063c1",
]


@pytest.mark.parametrize("s", range(11))
def test_basis_bits_are_pinned(s):
    """B_s is the closed form, bit for bit, whatever the BLAS, its threads
    or the numpy version; a C-contiguous stack."""
    tensors = build_basis(s).tensors
    assert tensors.flags.c_contiguous
    assert hashlib.sha256(tensors.tobytes()).hexdigest()[:16] == BASIS_DIGESTS[s]


@pytest.mark.parametrize("s", range(2, 11))
def test_basis_rows_are_real_solid_harmonics_in_m_order(s):
    """Row m + s of B_s is S_{s,m}: turned by phi about z, rows m and -m
    mix as cos(m phi) e_m + sin(m phi) e_{-m}, and row m = 0 is fixed."""
    phi, m = 0.7, np.arange(-s, s + 1)
    turn = rotation_about((0, 0, 1), phi)
    got = np.array([coords(rotate(b, turn)) for b in build_basis(s)])
    want = np.diag(np.cos(m * phi))
    want[m + s, s - m] += np.sin(m * phi)
    assert_allclose(got, want, rtol=0, atol=1e-14)


def test_basis_is_cached_and_read_only():
    basis = build_basis(3)
    assert build_basis(3) is basis
    with pytest.raises(ValueError):
        basis.tensors[0, 0, 0, 0] = 1.0


def test_project_deviator_fixes_deviators():
    rng = np.random.default_rng(11)
    for s in range(2, 6):
        d = from_coords(rng.standard_normal(2 * s + 1), s)
        assert_allclose(project_deviator(d), d, atol=1e-12)


def test_project_deviator_kills_trace_carriers():
    # sym(delta x w) spans the orthogonal complement of the order-3 deviators
    # inside the symmetric tensors, so its projection vanishes
    rng = np.random.default_rng(12)
    w = rng.standard_normal(3)
    carrier = symmetrize(outer(delta(), w))
    assert_allclose(project_deviator(carrier), np.zeros((3, 3, 3)), atol=1e-12)


def test_project_deviator_is_orthogonal_projection():
    rng = np.random.default_rng(13)
    a = rng.standard_normal((3, 3, 3))
    b = rng.standard_normal((3, 3, 3))
    pa = project_deviator(a)
    assert_allclose(project_deviator(pa), pa, atol=1e-12)
    # self-adjoint: <Pa, b> = <a, Pb>
    assert np.sum(pa * b) == pytest.approx(np.sum(a * project_deviator(b)))


def test_coords_round_trip():
    rng = np.random.default_rng(14)
    for s in range(5):
        c = rng.standard_normal(2 * s + 1)
        d = from_coords(c, s)
        assert_allclose(coords(d), c, atol=1e-12)
        assert d.ndim == s


def test_coords_rejects_non_deviators():
    with pytest.raises(ValueError):
        coords(np.eye(3))  # traceful
    t = np.zeros((3, 3, 3))
    t[0, 1, 2] = 1.0
    with pytest.raises(ValueError):
        coords(t)  # not symmetric


def test_is_deviator():
    assert not is_deviator(np.eye(3))
    assert is_deviator(np.array(build_basis(4)[3]))
    assert is_deviator(np.zeros((3, 3)))


SCALES = (1e-300, 1e-200, 1e-12, 1e12, 1e200, 1e300)


def test_membership_is_relative_to_scale():
    rng = np.random.default_rng(22)
    tiny = 1e-12 * rng.standard_normal((3, 3))
    assert not is_deviator(tiny)
    with pytest.raises(ValueError):
        coords(tiny)
    zero = np.zeros((3, 3, 3))
    assert is_deviator(zero)
    assert_allclose(coords(zero), np.zeros(7))
    for s in (2, 3, 4):
        d = from_coords(rng.standard_normal(2 * s + 1), s)
        for scale in SCALES:
            assert is_deviator(scale * d)
            assert_allclose(coords(scale * d), scale * coords(d), rtol=1e-12)
    for s in (2, 3, 4):
        other = rng.standard_normal((3,) * s)
        for scale in SCALES:
            assert not is_deviator(scale * other)
            with pytest.raises(ValueError):
                coords(scale * other)


def at_float_limit(t):
    """``t`` rescaled so that its largest |entry| is 1.5e308."""
    return t / np.abs(t).max() * 1.5e308


def test_membership_at_the_float_limit():
    rng = np.random.default_rng(23)
    for s in (2, 3, 4):
        d = at_float_limit(from_coords(rng.standard_normal(2 * s + 1), s))
        assert is_deviator(d)
        # the coordinates are exact; those beyond the float range are +-inf
        with np.errstate(over="ignore"):
            expected = np.ldexp(coords(np.ldexp(d, -1024)), 1024)
        np.testing.assert_array_equal(coords(d), expected)
        other = at_float_limit(rng.standard_normal((3,) * s))
        assert not is_deviator(other)
        with pytest.raises(ValueError):
            coords(other)


@pytest.mark.parametrize("s", range(5))
def test_membership_rejects_non_finite_entries(s):
    d = from_coords(np.random.default_rng(24).standard_normal(2 * s + 1), s)
    first = np.arange(d.size).reshape(d.shape) == 0
    for bad in (np.nan, np.inf, -np.inf):
        for t in (np.full_like(d, bad), np.where(first, bad, d)):
            assert not is_deviator(t)
            with pytest.raises(ValueError):
                coords(t)


def test_deviator_space_is_rotation_invariant():
    rng = np.random.default_rng(15)
    for s in (2, 3):
        d = from_coords(rng.standard_normal(2 * s + 1), s)
        r = random_rotation(rng)
        rotated = rotate(d, r)
        assert is_deviator(rotated)
        assert_allclose(project_deviator(rotated), rotated, atol=1e-12)


def distinct_permutations(index):
    """Every distinct ordering of the multiset ``index``."""
    if not index:
        yield ()
        return
    for first in sorted(set(index)):
        rest = list(index)
        rest.remove(first)
        for tail in distinct_permutations(rest):
            yield (first,) + tail


def reference_monomial(index):
    """sym(e_i1 x ... x e_is) by listing every distinct permutation of
    ``index``."""
    s = len(index)
    t = np.zeros((3,) * s)
    counts = [index.count(i) for i in range(3)]
    value = math.prod(math.factorial(c) for c in counts) / math.factorial(s)
    for perm in distinct_permutations(index):
        t[perm] = value
    return t


def orbit_trace_map(s):
    """The (1,2)-trace from the symmetric order-s tensors to the order-(s-2)
    ones in the orbit coordinates of both, the count_s x count_{s-2}
    matrix A, whose left null space is the deviator space."""
    columns = [trace_pair(m.reshape((3,) * s), 0, 1).ravel() for m in orbit_basis(s).T]
    return np.stack(columns) @ orbit_basis(s - 2)


@pytest.mark.parametrize("s", range(2, 11))
def test_trace_map_has_a_null_space_of_dimension_2s_plus_1(s):
    """A has full column rank count_s - (2s + 1), far from singular, so its
    left null space has dimension 2s + 1; the last 2s + 1 left singular
    vectors annihilate A to rounding, and so do the 2s + 1 rows of B_s in
    the orbit coordinates."""
    a = orbit_trace_map(s)
    u, sigma, _ = np.linalg.svd(a)
    rank = len(a) - (2 * s + 1)
    assert len(sigma) == rank and sigma[rank - 1] >= 1e-2 * sigma[0]
    assert np.linalg.norm(u[:, rank:].T @ a, 2) <= 1e-15 * sigma[0]
    assert np.linalg.norm(build_basis(s).flat @ orbit_basis(s) @ a, 2) <= 1e-15 * sigma[0]


def gram_schmidt(rows):
    out = []
    for row in rows:
        w = row.copy()
        for u in out:
            w -= (u @ w) * u
        out.append(w / np.linalg.norm(w))
    return np.asarray(out)


def reference_basis(s):
    """An orthonormal deviator basis from the permutation-listed monomials:
    the last 2s + 1 left singular vectors of their traces, in a full SVD,
    combine them, and Gram-Schmidt orthonormalizes the combinations."""
    monomials = [
        reference_monomial(idx) for idx in itertools.combinations_with_replacement(range(3), s)
    ]
    flat = np.stack([m.ravel() for m in monomials])
    traces = np.stack([trace_pair(m, 0, 1).ravel() for m in monomials])
    u = np.linalg.svd(traces)[0]
    return gram_schmidt(u[:, -(2 * s + 1) :].T @ flat)


@pytest.mark.parametrize("s", range(2, 10))
def test_basis_matches_permutation_listed_monomials(s):
    """B_s spans the reference's deviator space: B_s^T B_s = R^T R, entry by
    entry.  Each row of either basis is a symmetric tensor, the same over
    every orbit of index permutations to rounding, so the products are
    compared at the orbits' sorted members; the 3^s-square ones would take
    3.1 GB at s = 9."""
    code, _ = _orbit_map(s, tuple(range(s)))
    basis, reference = build_basis(s).flat, reference_basis(s)
    for flat in (basis, reference):
        assert_allclose(flat[:, code], flat, rtol=0, atol=1e-16)
    members = np.unique(code)
    b, r = basis[:, members], reference[:, members]
    assert_allclose(b.T @ b, r.T @ r, rtol=0, atol=1e-14)


def closed_form_deviator(t):
    """The deviator part of a totally symmetric tensor of order 2, 3 or 4."""
    d = delta()
    if t.ndim == 2:
        return t - d * np.trace(t) / 3
    tr = trace_pair(t, 0, 1)
    if t.ndim == 3:
        return t - 3 / 5 * symmetrize(outer(d, tr))
    return t - 6 / 7 * symmetrize(outer(d, tr)) + 3 / 35 * symmetrize(outer(d, d)) * np.trace(tr)


@pytest.mark.parametrize("s", (2, 3, 4))
def test_basis_projects_onto_the_closed_form_deviator_part(s):
    """B_s^T B_s on a symmetric tensor is its closed-form deviator part, an
    oracle that takes no SVD."""
    flat = build_basis(s).flat
    rng = np.random.default_rng(30 + s)
    for _ in range(20):
        t = symmetrize(rng.standard_normal((3,) * s))
        got = (flat.T @ (flat @ t.ravel())).reshape(t.shape)
        assert frobenius_norm(got - closed_form_deviator(t)) <= 1e-15 * frobenius_norm(t)
