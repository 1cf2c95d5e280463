"""Orthonormal bases of the deviator spaces and projection onto them."""

import itertools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from deviatoric import (
    build_basis,
    coords,
    delta,
    from_coords,
    is_deviator,
    outer,
    project_deviator,
    random_rotation,
    rotate,
    symmetrize,
    trace_pair,
)
from deviatoric.harmonic import _RANK_TOL, _gram_schmidt, _monomials


@pytest.mark.parametrize("s", range(9))
def test_basis_dimension_is_2s_plus_1(s):
    assert len(build_basis(s)) == 2 * s + 1


@pytest.mark.parametrize("s", range(7))
def test_basis_elements_are_orthonormal_deviators(s):
    basis = build_basis(s)
    flat = basis.flat
    assert_allclose(flat @ flat.T, np.eye(2 * s + 1), atol=1e-12)
    for b in basis:
        if s >= 2:
            assert_allclose(b, symmetrize(b), atol=1e-12)
            assert_allclose(np.trace(b, axis1=0, axis2=1), np.zeros((3,) * (s - 2)), atol=1e-12)


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


def reference_monomial(index):
    """sym(e_i1 x ... x e_is) by listing every permutation of ``index``."""
    s = len(index)
    t = np.zeros((3,) * s)
    counts = [index.count(i) for i in range(3)]
    value = math.prod(math.factorial(c) for c in counts) / math.factorial(s)
    for perm in set(itertools.permutations(index)):
        t[perm] = value
    return t


def reference_basis(s):
    """The basis built from the permutation-listed monomials."""
    monomials = [
        reference_monomial(idx) for idx in itertools.combinations_with_replacement(range(3), s)
    ]
    flat = np.stack([m.ravel() for m in monomials])
    traces = np.stack([trace_pair(m, 0, 1).ravel() for m in monomials])
    u, sigma, _ = np.linalg.svd(traces)
    rank = int(np.sum(sigma > _RANK_TOL * sigma[0]))
    return flat, _gram_schmidt(u[:, rank:].T @ flat)


@pytest.mark.parametrize("s", range(2, 9))
def test_basis_matches_permutation_listed_monomials(s):
    flat, basis = reference_basis(s)
    np.testing.assert_array_equal(_monomials(s), flat)
    np.testing.assert_array_equal(build_basis(s).flat, basis)
