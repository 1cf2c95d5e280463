"""Dense tensor primitives: construction, contraction, symmetrization."""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from deviatoric import (
    Decomposition,
    as_tensor,
    contract_complete,
    contract_double,
    contract_single,
    decompose,
    delta,
    epsilon,
    frobenius,
    frobenius_norm,
    from_coords,
    outer,
    rotation_about,
    symmetrize,
    trace_pair,
    verify,
    voigt_to_json,
    voigt_to_text,
)
from deviatoric.core import _orbit_map, _orbits, _project
from orbit_basis import orbit_basis

V = np.array([1.0, 2.0, 3.0])


def test_as_tensor_orders():
    assert as_tensor(5.0).ndim == 0
    assert as_tensor([1, 2, 3]).ndim == 1
    assert as_tensor(np.zeros((3, 3, 3))).ndim == 3
    t = as_tensor([1, 2, 3], order=1)
    assert_allclose(t, [1.0, 2.0, 3.0])


def test_as_tensor_rejects_bad_shapes():
    with pytest.raises(ValueError):
        as_tensor([1, 2])
    with pytest.raises(ValueError):
        as_tensor(np.zeros((3, 4)))
    with pytest.raises(ValueError):
        as_tensor(np.zeros((3, 3)), order=3)


@pytest.mark.parametrize(
    "values", [[3j, 4, 0], 1j * np.ones((3, 3)), np.zeros(3, dtype=complex), 2j],
    ids=["list", "array", "complex zeros", "scalar"],
)
def test_as_tensor_rejects_complex_input(values):
    # a cast to float would drop the imaginary part, giving |[3j, 4, 0]| = 4
    with pytest.raises(ValueError, match="tensor must be real, got dtype complex"):
        as_tensor(values)
    with pytest.raises(ValueError, match="must be real"):
        frobenius_norm(values)


def hand_built_with_complex_image():
    """``verify`` of a hand-built order-2 decomposition whose last image has
    an imaginary part; dropped, the image would be exact."""
    t = np.random.default_rng(5).standard_normal((3, 3))
    parts = list(decompose(t).parts)
    parts[-1] = dataclasses.replace(parts[-1], embedded=parts[-1].embedded + 1j)
    return verify(Decomposition(2, tuple(parts)), t)


@pytest.mark.parametrize(
    "call",
    [
        hand_built_with_complex_image,
        lambda: from_coords(np.ones(5) + 1j, 2),
        lambda: rotation_about((0.0, 0.0, 1.0 + 1j), 0.3),
        lambda: voigt_to_json(np.eye(6) + 1j),
        lambda: voigt_to_text(np.eye(6) + 1j),
    ],
    ids=["hand-built parts", "from_coords", "rotation axis", "voigt_to_json", "voigt_to_text"],
)
def test_boundaries_reject_complex_input(call):
    """Every boundary that takes floats raises the ``ValueError`` of
    ``as_tensor`` for a complex input, rather than drop its imaginary part
    with a warning."""
    with pytest.raises(ValueError, match="must be real, got dtype complex"):
        call()


def test_as_tensor_keeps_a_float64_array():
    t = np.arange(27.0).reshape(3, 3, 3)
    assert as_tensor(t) is t
    for values in ([1, 2, 3], np.arange(3, dtype=np.float32), [True, False, True]):
        assert as_tensor(values).dtype == np.float64


def test_outer_orders_add():
    t = outer(V, V)
    assert t.ndim == 2
    assert t[1, 2] == 6.0
    assert outer(t, V).ndim == 3
    # outer with a scalar keeps the other factor
    assert_allclose(outer(2.0, V), 2.0 * V)


def test_contract_complete_known_values():
    # delta against delta is the trace of the identity
    assert contract_complete(delta(), delta()) == pytest.approx(3.0)
    # scalar second argument multiplies (m = 0 convention)
    assert_allclose(contract_complete(outer(V, V), 2.0), 2.0 * outer(V, V))
    # epsilon applied to e1 x e2 picks out e3
    e1, e2 = np.eye(3)[0], np.eye(3)[1]
    assert_allclose(contract_complete(epsilon(), outer(e1, e2)), [0.0, 0.0, 1.0], atol=1e-15)
    # complete contraction of two order-2 tensors is the Frobenius pairing
    assert contract_complete(outer(V, V), outer(V, V)) == pytest.approx(196.0)


def test_contract_complete_binds_leading_indices():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 3, 3))
    b = rng.standard_normal((3, 3))
    assert_allclose(contract_complete(a, b), np.einsum("ijk,ij->k", a, b))


def test_contract_single_and_double():
    t2 = outer(V, V)
    assert_allclose(contract_single(t2, V), 14.0 * V)
    t4 = outer(t2, t2)
    assert_allclose(contract_double(t4, t2), 196.0 * t2)
    rng = np.random.default_rng(1)
    a = rng.standard_normal((3, 3, 3))
    b = rng.standard_normal((3, 3))
    assert_allclose(contract_single(a, b), np.einsum("ijk,kl->ijl", a, b))
    assert_allclose(contract_double(a, b), np.einsum("ijk,jk->i", a, b))


def test_symmetrize_full_and_partial():
    t = np.zeros((3, 3, 3))
    t[0, 1, 2] = 6.0
    full = symmetrize(t)
    for perm in [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]:
        assert full[perm] == pytest.approx(1.0)
    part = symmetrize(t, (1, 2))
    assert part[0, 1, 2] == pytest.approx(3.0)
    assert part[0, 2, 1] == pytest.approx(3.0)
    assert part[1, 0, 2] == 0.0


def test_symmetrize_idempotent():
    rng = np.random.default_rng(2)
    t = rng.standard_normal((3, 3, 3, 3))
    once = symmetrize(t, (1, 3))
    assert_allclose(symmetrize(once, (1, 3)), once)
    assert_allclose(symmetrize(symmetrize(t)), symmetrize(t))


def reference_symmetrize(t, axes):
    """Average over every permutation of ``axes`` by explicit transposes."""
    if len(axes) < 2:
        return t.copy()
    acc = np.zeros_like(t)
    for perm in itertools.permutations(axes):
        order = list(range(t.ndim))
        for slot, src in zip(axes, perm):
            order[slot] = src
        acc += t.transpose(order)
    return acc / math.factorial(len(axes))


@st.composite
def tensors_and_positions(draw):
    order = draw(st.integers(0, 6))
    positions = draw(st.permutations(range(order)))[: draw(st.integers(0, order))]
    seed = draw(st.integers(0, 2**32 - 1))
    scale = draw(st.sampled_from([1e-300, 1e-12, 1.0, 1e12, 1e300]))
    t = scale * np.random.default_rng(seed).standard_normal((3,) * order)
    return t, tuple(positions)


@settings(max_examples=60, deadline=None)
@given(tensors_and_positions())
def test_symmetrize_matches_permutation_average(case):
    t, positions = case
    # max-norm comparisons, which neither overflow nor underflow at the
    # extreme scales
    got = symmetrize(t, positions)
    want = reference_symmetrize(t, positions)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    again = symmetrize(got, positions)
    assert np.max(np.abs(again - got)) <= 1e-13 * np.max(np.abs(got))


def test_orbit_map_of_order_0():
    """The one component of an order-0 tensor is its own orbit, so M_0 is
    the 1 x 1 identity."""
    code, weight = _orbit_map(0, ())
    np.testing.assert_array_equal(code, [0])
    np.testing.assert_array_equal(weight, [1.0])
    np.testing.assert_array_equal(orbit_basis(0), [[1.0]])
    assert [a.tolist() for a in _orbits(0)] == [[0], [0], [1]]


@pytest.mark.parametrize("order", range(6))
def test_orbit_basis_is_orthonormal_and_symmetrizes(order):
    """The orbit index ``_orbits`` is that of the dense orbit basis M_s:
    orbit o holds the entries of column o, the first of them at
    ``firsts[o]``, a sorted multi-index, and ``sizes[o]`` of them, the
    multinomial s! / (a! b! c!); so M_s built from it is orthonormal and
    symmetrizes, and a symmetric tensor is its values at the firsts,
    gathered."""
    basis, orbits = orbit_basis(order), _orbits(order)
    assert basis.shape == (3**order, (order + 1) * (order + 2) // 2)
    np.testing.assert_array_equal(np.argmax(basis, axis=1), orbits.orbit)
    np.testing.assert_array_equal(np.argmax(basis, axis=0), orbits.firsts)
    for first, size in zip(orbits.firsts, orbits.sizes):
        index = np.unravel_index(first, (3,) * order)
        assert list(index) == sorted(index)
        counts = [list(index).count(i) for i in range(3)]
        assert size == math.factorial(order) // math.prod(map(math.factorial, counts))
    assert_allclose(basis.T @ basis, np.eye(basis.shape[1]), rtol=0, atol=1e-15)
    t = np.random.default_rng(order).standard_normal((3,) * order)
    assert_allclose(t.ravel() @ basis @ basis.T, symmetrize(t).ravel(), rtol=0, atol=1e-15)
    x = symmetrize(t).ravel()
    np.testing.assert_array_equal(x[orbits.firsts][orbits.orbit], x[orbits.firsts[orbits.orbit]])
    assert_allclose(x[orbits.firsts][orbits.orbit], x, rtol=0, atol=1e-15)


def test_symmetrize_validates_positions():
    t = np.zeros((3, 3))
    with pytest.raises(ValueError):
        symmetrize(t, (0, 0))
    with pytest.raises(ValueError):
        symmetrize(t, (0, 5))


def test_trace_pair():
    assert trace_pair(outer(V, V), 0, 1) == pytest.approx(14.0)
    rng = np.random.default_rng(3)
    t = rng.standard_normal((3, 3, 3))
    assert_allclose(trace_pair(t, 0, 2), np.einsum("iji->j", t))


def test_delta_epsilon_values():
    assert_allclose(delta(), np.eye(3))
    eps = epsilon()
    assert eps[0, 1, 2] == 1.0
    assert eps[1, 2, 0] == 1.0
    assert eps[2, 0, 1] == 1.0
    assert eps[0, 2, 1] == -1.0
    assert eps[1, 0, 2] == -1.0
    assert eps[0, 0, 1] == 0.0
    # antisymmetry and the contraction identity eps.eps = delta delta - delta delta
    assert_allclose(eps, -eps.swapaxes(0, 1))
    lhs = np.einsum("ijk,lmk->ijlm", eps, eps)
    rhs = np.einsum("il,jm->ijlm", np.eye(3), np.eye(3)) - np.einsum(
        "im,jl->ijlm", np.eye(3), np.eye(3)
    )
    assert_allclose(lhs, rhs)


def test_frobenius():
    assert frobenius(epsilon(), epsilon()) == pytest.approx(6.0)
    assert frobenius_norm(delta()) == pytest.approx(np.sqrt(3.0))
    with pytest.raises(ValueError):
        frobenius(delta(), V)


@pytest.mark.parametrize("exponent", [-300, -200, -160, -100, 0, 100, 160, 200, 300])
def test_frobenius_norm_is_scale_covariant(exponent):
    t = np.random.default_rng(61).standard_normal((3,) * 5)
    unit = frobenius_norm(t)
    assert unit == float(np.linalg.norm(t.ravel()))
    scaled = frobenius_norm(10.0**exponent * t)
    assert scaled == pytest.approx(10.0**exponent * unit, rel=1e-14)
    assert frobenius_norm(np.zeros((3, 3))) == 0.0
    assert math.isnan(frobenius_norm(np.full((3,), np.nan)))
    assert frobenius_norm(np.array([np.inf, 1.0, 0.0])) == math.inf
    assert frobenius_norm(np.full((3, 3), 1e308)) == math.inf


@pytest.mark.parametrize("exponent", [-1000, -500, 0, 500, 1020])
def test_project_is_exact_under_power_of_two_scaling(exponent):
    rng = np.random.default_rng(62)
    to_coords = np.linalg.qr(rng.standard_normal((9, 4)))[0]  # orthonormal columns
    from_coords = to_coords.T
    inside = rng.standard_normal((2, 4)) @ from_coords
    outside = rng.standard_normal((2, 9))
    for rows in (inside, outside):
        unit_coords, unit_residual = _project(rows, to_coords, from_coords)
        coords, residual = _project(np.ldexp(rows, exponent), to_coords, from_coords)
        np.testing.assert_array_equal(coords, np.ldexp(unit_coords, exponent))
        assert residual == unit_residual
    assert unit_residual > 0.1
    assert _project(np.ldexp(inside, exponent), to_coords, from_coords)[1] <= 1e-15
    coords, residual = _project(np.zeros((2, 9)), to_coords, from_coords)
    assert residual == 0.0 and not coords.any()
    for bad in (np.nan, np.inf):
        assert math.isnan(_project(np.full((2, 9), bad), to_coords, from_coords)[1])


def scaled_rows_frobenius_norm(t):
    """The norm as ``_scaled_rows`` and ``_scaled_back`` took it: the row's
    power of two from ``np.frexp``, undone by ``np.ldexp``."""
    rows = as_tensor(t).reshape(1, -1)
    exponent = np.frexp(np.max(np.abs(rows), axis=1))[1]
    scaled = np.ldexp(rows, -exponent[:, None])
    with np.errstate(over="ignore"):
        return float(np.ldexp(np.linalg.norm(scaled[0]), exponent[0]))


def scaled_rows_project(rows, to_coords, from_coords):
    """``_project`` as it scaled every input with ``_scaled_rows``."""
    exponent = np.frexp(np.max(np.abs(rows.reshape(1, -1)), axis=1))[1]
    scaled = np.ldexp(rows, -exponent[0])
    with np.errstate(invalid="ignore", over="ignore"):
        c = scaled @ to_coords
        residual = np.linalg.norm(c @ from_coords - scaled)
        norm = np.linalg.norm(scaled)
        residual = float(residual / norm if norm > 0.0 else residual)
        return np.ldexp(c, exponent[0]), residual


@st.composite
def tensors_at_any_scale(draw):
    """A tensor of order 0 to 4 with entries in (-1, 1) times 2^k, k from
    -1074 to 1023 (so from subnormal to the float limit), with some entries
    set to 0, NaN or +-inf."""
    order = draw(st.integers(0, 4))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    t = np.ldexp(rng.uniform(-1.0, 1.0, (3,) * order), draw(st.integers(-1074, 1023)))
    for value in draw(st.lists(st.sampled_from([0.0, np.nan, np.inf, -np.inf]), max_size=3)):
        t.flat[rng.integers(t.size)] = value
    return t


def same_float(a: float, b: float) -> bool:
    return (math.isnan(a) and math.isnan(b)) or np.float64(a).tobytes() == np.float64(b).tobytes()


@settings(max_examples=200, deadline=None)
@given(tensors_at_any_scale())
def test_frobenius_norm_has_the_bits_of_the_scaled_rows_form(t):
    assert same_float(frobenius_norm(t), scaled_rows_frobenius_norm(t))


@settings(max_examples=100, deadline=None)
@given(tensors_at_any_scale())
def test_project_has_the_bits_of_the_scaled_rows_form(t):
    # rows already scaled (exponent 0) skip the scaling; every other input is
    # scaled and scaled back as before
    rng = np.random.default_rng(63)
    rows = t.reshape(1, -1)
    to_coords = np.linalg.qr(rng.standard_normal((rows.shape[1], rows.shape[1])))[0][:, :1]
    coords, residual = _project(rows, to_coords, to_coords.T)
    want_coords, want_residual = scaled_rows_project(rows, to_coords, to_coords.T)
    assert coords.tobytes() == want_coords.tobytes()
    assert same_float(residual, want_residual)
