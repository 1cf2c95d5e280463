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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_rotation_about_rejects_a_non_finite_axis(bad):
    for k in range(3):
        axis = np.array([0.0, 0.5, 1.0])
        axis[k] = bad
        with pytest.raises(ValueError, match="axis must be finite"):
            rotation_about(axis, 0.3)
    with pytest.raises(ValueError, match="axis must be finite"):
        rotation_about([bad] * 3, 0.3)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_rotation_about_rejects_a_non_finite_angle(bad):
    for axis in ([0.0, 0.0, 1.0], [0.3, -1.0, 2.0]):
        with pytest.raises(ValueError, match="angle must be finite"):
            rotation_about(axis, bad)


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


def test_rotation_rejects_complex_input():
    # a cast to float would rotate 1j * ones(3) into zeros
    with pytest.raises(ValueError, match="rotation must be real"):
        check_rotation(np.eye(3, dtype=complex))
    with pytest.raises(ValueError, match="tensor must be real"):
        rotate(1j * np.ones(3), np.eye(3))


def test_random_rotation_seeded_and_proper():
    a = random_rotation(np.random.default_rng(123))
    b = random_rotation(np.random.default_rng(123))
    assert_allclose(a, b)
    rng = np.random.default_rng(10)
    for _ in range(50):
        r = random_rotation(rng)
        assert_allclose(r @ r.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(r) == pytest.approx(1.0)


def tensordot_rotate(t, r):
    """The rotation as one ``np.tensordot`` per axis."""
    for _ in range(t.ndim):
        t = np.tensordot(t, r, axes=([0], [1]))
    return t.copy() if t.ndim == 0 else t


@pytest.mark.parametrize("order", range(9))
def test_rotate_is_the_tensordot_loop_bit_for_bit(order):
    # one 2-D product per axis on the same operands: the same arithmetic,
    # so the same bits, at every order and scale
    rng = np.random.default_rng(100 + order)
    for k in (-1000, -20, 0, 20, 1000):
        for _ in range(3):
            t = np.ldexp(rng.standard_normal((3,) * order), k)
            r = random_rotation(rng)
            got = rotate(t, r)
            assert got.shape == t.shape
            assert got.tobytes() == tensordot_rotate(t, r).tobytes()


def test_check_rotation_rejects_reflections_shears_nan_and_complex():
    rng = np.random.default_rng(11)
    r = random_rotation(rng)
    reflections = [np.diag([1.0, 1.0, -1.0]), -np.eye(3), -r, r[[1, 0, 2]]]
    for m in reflections:
        with pytest.raises(ValueError, match=r"det != \+1"):
            check_rotation(m)
    for shear in (1e-11, 1e-6, 0.5):
        sheared = r.copy()
        sheared[0, 1] += shear
        with pytest.raises(ValueError, match="not orthogonal"):
            check_rotation(sheared)
    for bad in (np.nan, np.inf, -np.inf):
        for index in np.ndindex(3, 3):
            spoiled = r.copy()
            spoiled[index] = bad
            with pytest.raises(ValueError, match="not orthogonal"):
                check_rotation(spoiled)
    with pytest.raises(ValueError, match="rotation must be real"):
        check_rotation(r.astype(complex))
    # det is the triple product of the rows, as np.linalg.det measures it
    for _ in range(50):
        r = random_rotation(rng)
        assert check_rotation(r) is r
        (a, b, c) = r
        assert abs(a @ np.cross(b, c) - np.linalg.det(r)) <= 1e-15
