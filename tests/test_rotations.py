"""Proper rotations acting on tensors of any order."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from deviatoric import (
    check_rotation,
    delta,
    epsilon,
    outer,
    random_rotation,
    rotate,
    rotation_about,
)


def test_rotation_about_z_quarter_turn():
    r = rotation_about([0.0, 0.0, 1.0], np.pi / 2.0)
    assert_allclose(r @ [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], atol=1e-15)
    assert_allclose(rotate(np.array([1.0, 0.0, 0.0]), r), [0.0, 1.0, 0.0], atol=1e-15)


def test_rotation_about_ignores_axis_length():
    rng = np.random.default_rng(4)
    for axis in ([0.0, 0.0, 1.0], rng.standard_normal(3)):
        axis = np.asarray(axis)
        angle = rng.uniform(-np.pi, np.pi)
        unit = rotation_about(axis / np.sqrt(axis @ axis), angle)
        for scale in (1e-300, 1e-200, 1e-12, 1e12, 1e200, 1e300):
            assert_allclose(rotation_about(scale * axis, angle), unit, rtol=0, atol=1e-15)
    angle = rng.uniform(-np.pi, np.pi)
    unit = rotation_about(np.ones(3) / np.sqrt(3.0), angle)
    assert_allclose(rotation_about([1.5e308] * 3, angle), unit, rtol=0, atol=1e-15)


def test_rotate_matches_per_factor_action():
    rng = np.random.default_rng(5)
    r = random_rotation(rng)
    v = rng.standard_normal(3)
    w = rng.standard_normal(3)
    assert_allclose(rotate(outer(v, w), r), outer(r @ v, r @ w), atol=1e-13)
    u = rng.standard_normal(3)
    assert_allclose(rotate(outer(outer(v, w), u), r), outer(outer(r @ v, r @ w), r @ u), atol=1e-13)


def test_rotate_scalar_is_identity():
    r = random_rotation(np.random.default_rng(6))
    assert rotate(np.asarray(2.5), r) == pytest.approx(2.5)


def test_rotation_preserves_norm():
    rng = np.random.default_rng(7)
    for order in range(5):
        t = rng.standard_normal((3,) * order)
        r = random_rotation(rng)
        assert np.linalg.norm(rotate(t, r).ravel()) == pytest.approx(
            np.linalg.norm(t.ravel())
        )


def test_delta_epsilon_isotropic():
    rng = np.random.default_rng(8)
    for _ in range(5):
        r = random_rotation(rng)
        assert_allclose(rotate(delta(), r), delta(), atol=1e-13)
        assert_allclose(rotate(epsilon(), r), epsilon(), atol=1e-13)


def test_rotation_composition():
    rng = np.random.default_rng(9)
    r1 = random_rotation(rng)
    r2 = random_rotation(rng)
    t = rng.standard_normal((3, 3, 3))
    assert_allclose(rotate(rotate(t, r1), r2), rotate(t, r2 @ r1), atol=1e-13)


def test_check_rotation_rejects_improper_and_skew():
    with pytest.raises(ValueError):
        check_rotation(np.diag([1.0, 1.0, -1.0]))  # reflection
    with pytest.raises(ValueError):
        check_rotation(np.eye(3) + 0.01)
    with pytest.raises(ValueError):
        check_rotation(np.eye(4))
    nan = np.full((3, 3), np.nan)
    with pytest.raises(ValueError):
        check_rotation(nan)
    with pytest.raises(ValueError):
        rotate(np.ones((3, 3)), nan)


def test_random_rotation_seeded_and_proper():
    a = random_rotation(np.random.default_rng(123))
    b = random_rotation(np.random.default_rng(123))
    assert_allclose(a, b)
    rng = np.random.default_rng(10)
    for _ in range(50):
        r = random_rotation(rng)
        assert_allclose(r @ r.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(r) == pytest.approx(1.0)
