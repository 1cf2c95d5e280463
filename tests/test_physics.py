"""Coupling-tensor and stiffness-tensor decompositions, Voigt conversion."""

import json
import time
import warnings
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from deviatoric import (
    CouplingDeviators,
    build_basis,
    coupling_coefficient_diff,
    coupling_decompose,
    coupling_reconstruct,
    decompose,
    epsilon,
    isotropic_stiffness,
    lift_kernel4,
    random_rotation,
    rotate,
    stiffness_decompose,
    stiffness_reconstruct,
    symmetrize,
    tensor_to_voigt,
    trace_pair,
    validate_coupling,
    validate_stiffness,
    voigt_to_tensor,
)
from deviatoric import physics
from deviatoric.core import _scaled_rows
from deviatoric.physics import StiffnessDeviators


def random_coupling(rng):
    h = rng.standard_normal((3, 3, 3))
    return 0.5 * (h + h.swapaxes(0, 1))


def random_stiffness(rng):
    c = rng.standard_normal((3, 3, 3, 3))
    c = 0.5 * (c + c.swapaxes(0, 1))
    c = 0.5 * (c + c.swapaxes(2, 3))
    return 0.5 * (c + c.transpose(2, 3, 0, 1))


# ---------------------------------------------------------------------------
# coupling tensor


def test_validate_coupling():
    h = np.zeros((3, 3, 3))
    h[0, 1, 0] = 1.0
    with pytest.raises(ValueError):
        validate_coupling(h)
    h[1, 0, 0] = 1.0
    validate_coupling(h)


def test_boundary_checks_reject_nan():
    h = np.full((3, 3, 3), np.nan)
    with pytest.raises(ValueError):
        validate_coupling(h)
    for variant in ("printed", "fitted"):
        with pytest.raises(ValueError):
            coupling_decompose(h, coefficients=variant)
    with pytest.raises(ValueError):
        validate_stiffness(np.full((3, 3, 3, 3), np.nan))
    with pytest.raises(ValueError):
        voigt_to_tensor(np.full((6, 6), np.nan))


@pytest.mark.parametrize(
    "check, shape",
    [(validate_coupling, (3, 3, 3)), (validate_stiffness, (3, 3, 3, 3)), (voigt_to_tensor, (6, 6))],
    ids=["validate_coupling", "validate_stiffness", "voigt_to_tensor"],
)
def test_boundary_checks_reject_infinite_entries(check, shape):
    # inf - inf in a symmetry residual would warn before the check rejects
    for bad in (np.inf, -np.inf, np.nan):
        one = np.zeros(shape)
        one[(1,) * len(shape)] = bad
        for x in (one, np.full(shape, bad)):
            with pytest.raises(ValueError, match="non-finite entry"):
                check(x)


@pytest.mark.parametrize("variant", ["printed", "fitted"])
def test_coupling_is_exact_under_power_of_two_scaling(variant):
    h = random_coupling(np.random.default_rng(27))
    unit = coupling_decompose(h, coefficients=variant)
    # the last exponent puts the largest entry in [2^1022, 2^1023)
    for exponent in (-1000, 1000, 1023 - np.frexp(np.abs(h).max())[1]):
        cd = coupling_decompose(np.ldexp(h, exponent), coefficients=variant)
        for name in ("v2", "v3", "d1", "d3"):
            with np.errstate(over="ignore"):
                expected = np.ldexp(getattr(unit, name), exponent)
            np.testing.assert_array_equal(getattr(cd, name), expected, err_msg=name)


def test_zero_coupling_gives_zero_deviators():
    for variant in ("printed", "fitted"):
        cd = coupling_decompose(np.zeros((3, 3, 3)), coefficients=variant)
        for field in (cd.v2, cd.v3, cd.d1, cd.d3, cd.v1, cd.d2):
            assert np.linalg.norm(np.asarray(field).ravel()) == 0.0
        assert cd.alpha == 0.0


def test_single_entry_coupling_values():
    # H123 = H213 = 1, every other independent component zero
    h = np.zeros((3, 3, 3))
    h[0, 1, 2] = 1.0
    h[1, 0, 2] = 1.0
    for variant in ("printed", "fitted"):
        cd = coupling_decompose(h, coefficients=variant)
        assert cd.d3[0, 1, 2] == pytest.approx(1.0 / 3.0)
        assert cd.d1[0, 0] == pytest.approx(0.5)


def test_derived_slots():
    rng = np.random.default_rng(25)
    cd = coupling_decompose(random_coupling(rng))
    assert cd.alpha == 0.0
    assert_allclose(cd.v1, 2.5 * cd.v3 - cd.v2)
    assert_allclose(cd.d2, -(2.0 / 3.0) * cd.d1)


def test_coupling_parts_are_deviators():
    rng = np.random.default_rng(26)
    for _ in range(10):
        h = random_coupling(rng)
        scale = np.linalg.norm(h.ravel())
        for variant in ("printed", "fitted"):
            cd = coupling_decompose(h, coefficients=variant)
            for d in (cd.d1, cd.d2):
                assert np.max(np.abs(d - d.T)) <= 1e-10 * scale
                assert abs(np.trace(d)) <= 1e-10 * scale
            d3 = cd.d3
            assert np.max(np.abs(d3 - symmetrize(d3))) <= 1e-10 * scale
            assert np.max(np.abs(np.trace(d3, axis1=0, axis2=1))) <= 1e-10 * scale


def test_fitted_round_trip():
    rng = np.random.default_rng(27)
    for _ in range(20):
        h = random_coupling(rng)
        cd = coupling_decompose(h, coefficients="fitted")
        rel = np.linalg.norm((coupling_reconstruct(cd) - h).ravel())
        rel /= np.linalg.norm(h.ravel())
        assert rel <= 1e-12


def test_reconstruct_pure_top_deviator_is_identity():
    rng = np.random.default_rng(28)
    h = random_coupling(rng)
    d3 = coupling_decompose(h).d3
    cd = CouplingDeviators(v2=np.zeros(3), v3=np.zeros(3), d1=np.zeros((3, 3)), d3=d3)
    assert_allclose(coupling_reconstruct(cd), d3, atol=1e-14)


def test_reconstruct_zero_deviators_is_zero():
    cd = CouplingDeviators(
        v2=np.zeros(3), v3=np.zeros(3), d1=np.zeros((3, 3)), d3=np.zeros((3, 3, 3))
    )
    assert_allclose(coupling_reconstruct(cd), np.zeros((3, 3, 3)))


def test_coefficient_variants_differ_in_one_functional():
    # the published tables and the exact inversion disagree only in the third
    # component of v2 (a misplaced 1/4 between H133 and H113)
    diff = coupling_coefficient_diff()
    assert {d["quantity"] for d in diff["differences"]} == {"v2[3]"}
    assert {d["component"] for d in diff["differences"]} == {"H[1,1,3]", "H[1,3,3]"}


def test_coefficient_diff_matches_shipped_record():
    shipped = json.loads(
        resources.files("deviatoric")
        .joinpath("data", "coupling_coefficient_diff.json")
        .read_text()
    )
    fresh = coupling_coefficient_diff()
    assert len(shipped["differences"]) == len(fresh["differences"])
    for a, b in zip(shipped["differences"], fresh["differences"]):
        assert a["quantity"] == b["quantity"]
        assert a["component"] == b["component"]
        assert a["printed"] == pytest.approx(b["printed"], abs=1e-12)
        assert a["fitted"] == pytest.approx(b["fitted"], abs=1e-12)
    for table in ("printed", "fitted"):
        for quantity, row in shipped[table].items():
            for component, value in row.items():
                assert fresh[table][quantity][component] == pytest.approx(value, abs=1e-12)


def test_engine_alpha_vanishes_on_coupling_tensors():
    rng = np.random.default_rng(29)
    for _ in range(10):
        h = random_coupling(rng)
        alpha = next(p for p in decompose(h).parts if p.s == 0)
        assert abs(float(alpha.deviator)) <= 1e-12 * np.linalg.norm(h.ravel())


def test_engine_slot_ranks_match_four_deviators():
    # on the symmetry subspace only two independent vectors and one order-2
    # deviator survive: stacked engine coordinates have rank 6 and 5
    rng = np.random.default_rng(30)
    rows_s1, rows_s2 = [], []
    for _ in range(40):
        d = decompose(random_coupling(rng))
        rows_s1.append(np.concatenate([p.deviator for p in d.parts if p.s == 1]))
        rows_s2.append(np.concatenate([p.deviator.ravel() for p in d.parts if p.s == 2]))
    assert np.linalg.matrix_rank(np.stack(rows_s1), tol=1e-8) == 6
    assert np.linalg.matrix_rank(np.stack(rows_s2), tol=1e-8) == 5


def test_coupling_decompose_rejects_bad_inputs():
    h = np.zeros((3, 3, 3))
    h[0, 1, 0] = 1.0
    with pytest.raises(ValueError):
        coupling_decompose(h)
    with pytest.raises(ValueError):
        coupling_decompose(np.zeros((3, 3, 3)), coefficients="guessed")


# ---------------------------------------------------------------------------
# stiffness tensor


def test_validate_stiffness():
    c = np.zeros((3, 3, 3, 3))
    c[0, 1, 0, 0] = 1.0
    with pytest.raises(ValueError):
        validate_stiffness(c)  # minor (first pair)
    c = random_stiffness(np.random.default_rng(31))
    validate_stiffness(c)
    broken = c.copy()
    broken[0, 0, 0, 1] += 1e-6
    with pytest.raises(ValueError):
        validate_stiffness(broken)


def test_isotropic_recovery():
    c = isotropic_stiffness(2.0, 1.0)
    # contraction oracles for the isotropic closed form
    assert trace_pair(trace_pair(c, 0, 1), 0, 1) == pytest.approx(24.0)  # 9 lam + 6 mu
    assert trace_pair(trace_pair(c, 0, 2), 0, 1) == pytest.approx(18.0)  # 3 lam + 12 mu
    sd = stiffness_decompose(c)
    assert sd.lam == pytest.approx(2.0, abs=1e-12)
    assert sd.mu == pytest.approx(1.0, abs=1e-12)
    for d in (sd.d1, sd.d2, sd.d4):
        assert np.max(np.abs(d)) <= 1e-12


def test_zero_stiffness():
    sd = stiffness_decompose(np.zeros((3, 3, 3, 3)))
    assert sd.lam == 0.0 and sd.mu == 0.0
    assert np.max(np.abs(sd.d4)) == 0.0


def test_stiffness_round_trip_and_part_validity():
    rng = np.random.default_rng(32)
    for _ in range(10):
        c = random_stiffness(rng)
        scale = np.linalg.norm(c.ravel())
        sd = stiffness_decompose(c)
        rel = np.linalg.norm((stiffness_reconstruct(sd) - c).ravel()) / scale
        assert rel <= 1e-14
        for d in (sd.d1, sd.d2):
            assert np.max(np.abs(d - d.T)) <= 1e-12 * scale
            assert abs(np.trace(d)) <= 1e-12 * scale
        assert np.max(np.abs(sd.d4 - symmetrize(sd.d4))) <= 1e-12 * scale
        assert np.max(np.abs(np.trace(sd.d4, axis1=0, axis2=1))) <= 1e-12 * scale


def test_lame_functionals_match_trace_oracles():
    rng = np.random.default_rng(33)
    for _ in range(5):
        c = random_stiffness(rng)
        c_iikk = trace_pair(trace_pair(c, 0, 1), 0, 1)
        c_ikik = trace_pair(trace_pair(c, 0, 2), 0, 1)
        sd = stiffness_decompose(c)
        assert sd.lam == pytest.approx((2.0 * c_iikk - c_ikik) / 15.0, abs=1e-12)
        assert sd.mu == pytest.approx((3.0 * c_ikik - c_iikk) / 30.0, abs=1e-12)


def einsum_stiffness_base(lam, mu, d1, d2):
    """The isotropic and order-2 slots of a stiffness tensor, as einsum terms."""
    eye = np.eye(3)
    return (
        lam * np.einsum("ij,kl->ijkl", eye, eye)
        + mu * (np.einsum("ik,jl->ijkl", eye, eye) + np.einsum("il,jk->ijkl", eye, eye))
        + np.einsum("ij,kl->ijkl", eye, d1)
        + np.einsum("kl,ij->ijkl", eye, d1)
        + np.einsum("ik,jl->ijkl", eye, d2)
        + np.einsum("il,jk->ijkl", eye, d2)
        + np.einsum("jk,il->ijkl", eye, d2)
        + np.einsum("jl,ik->ijkl", eye, d2)
    )


def test_stiffness_base_is_the_einsum_form_bit_for_bit():
    # each broadcast term multiplies the same two floats as its einsum term,
    # and the terms are summed in the same order
    rng = np.random.default_rng(35)
    for scale in (1e-300, 1.0, 1e300):
        for _ in range(20):
            lam, mu = scale * rng.standard_normal(2)
            d1, d2 = scale * rng.standard_normal((2, 3, 3))
            want = einsum_stiffness_base(lam, mu, d1, d2)
            assert physics._stiffness_base(lam, mu, d1, d2).tobytes() == want.tobytes()


def test_stiffness_decompose_is_linear():
    rng = np.random.default_rng(34)
    a, b = random_stiffness(rng), random_stiffness(rng)
    sa, sb = stiffness_decompose(a), stiffness_decompose(b)
    sc = stiffness_decompose(2.0 * a - 0.5 * b)
    assert sc.lam == pytest.approx(2.0 * sa.lam - 0.5 * sb.lam)
    assert sc.mu == pytest.approx(2.0 * sa.mu - 0.5 * sb.mu)
    assert_allclose(sc.d1, 2.0 * sa.d1 - 0.5 * sb.d1, atol=1e-13)
    assert_allclose(sc.d4, 2.0 * sa.d4 - 0.5 * sb.d4, atol=1e-13)


def test_reconstruct_lambda_only():
    sd = StiffnessDeviators(
        lam=1.0, mu=0.0, d1=np.zeros((3, 3)), d2=np.zeros((3, 3)), d4=np.zeros((3, 3, 3, 3))
    )
    c = stiffness_reconstruct(sd)
    assert c[0, 0, 1, 1] == pytest.approx(1.0)
    assert c[0, 1, 0, 1] == pytest.approx(0.0)


# ---------------------------------------------------------------------------
# Voigt notation


def test_voigt_identity_matrix():
    c = voigt_to_tensor(np.eye(6))
    assert c[0, 0, 0, 0] == 1.0
    assert c[1, 2, 1, 2] == 1.0
    assert c[0, 0, 1, 1] == 0.0


def test_voigt_isotropic_values():
    m = tensor_to_voigt(isotropic_stiffness(2.0, 1.0))
    assert m[0, 0] == pytest.approx(4.0)
    assert m[0, 1] == pytest.approx(2.0)
    assert m[3, 3] == pytest.approx(1.0)


def test_voigt_round_trips_are_exact():
    rng = np.random.default_rng(35)
    m = rng.standard_normal((6, 6))
    m = 0.5 * (m + m.T)
    assert np.array_equal(tensor_to_voigt(voigt_to_tensor(m)), m)
    c = random_stiffness(rng)
    assert np.array_equal(voigt_to_tensor(tensor_to_voigt(c)), c)


def test_voigt_rejects_bad_input():
    with pytest.raises(ValueError):
        voigt_to_tensor(np.eye(5))
    skew = np.eye(6)
    skew[0, 1] = 1.0
    with pytest.raises(ValueError):
        voigt_to_tensor(skew)
    with pytest.raises(ValueError, match="Voigt matrix must be real"):
        voigt_to_tensor(np.eye(6, dtype=complex))


def test_complex_tensors_are_rejected():
    # a cast to float would drop the imaginary part, and verify would pass
    t = 1j * np.random.default_rng(37).standard_normal((3, 3, 3))
    with pytest.raises(ValueError, match="tensor must be real"):
        decompose(t)
    with pytest.raises(ValueError, match="tensor must be real"):
        stiffness_decompose(isotropic_stiffness(2.0, 1.0) + 0j)


@pytest.mark.parametrize("lam, mu, name", [
    (np.nan, 1.0, "lam"), (np.inf, 1.0, "lam"), (1.0, np.nan, "mu"), (1.0, -np.inf, "mu"),
])
def test_isotropic_stiffness_rejects_non_finite_coefficients(lam, mu, name):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        isotropic_stiffness(lam, mu)


def test_isotropic_stiffness_overflows_to_inf_without_a_warning():
    # C_1111 = lambda + 2 mu lies beyond the float range; the others do not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        c = isotropic_stiffness(1e308, 1e308)
        assert np.array_equal(isotropic_stiffness(2.0, 1.0), 2.0 * isotropic_stiffness(1.0, 0.5))
    assert c[0, 0, 0, 0] == np.inf and not np.isnan(c).any()
    assert c[0, 0, 1, 1] == 1e308 and c[0, 1, 0, 1] == 1e308


# ---------------------------------------------------------------------------
# symmetry checks are relative to the input's scale


def test_asymmetric_inputs_are_rejected_at_small_scale():
    rng = np.random.default_rng(36)
    with pytest.raises(ValueError):
        stiffness_decompose(1e-14 * rng.standard_normal((3, 3, 3, 3)))
    for variant in ("printed", "fitted"):
        with pytest.raises(ValueError):
            coupling_decompose(1e-14 * rng.standard_normal((3, 3, 3)), coefficients=variant)
    with pytest.raises(ValueError):
        voigt_to_tensor(1e-14 * rng.standard_normal((6, 6)))


@pytest.mark.parametrize("scale", [0.0, 1e-300, 1e-14, 1.0, 1e14, 1e300])
def test_symmetric_inputs_pass_at_every_scale(scale):
    # max-norm bounds, which neither overflow nor underflow at the extremes
    rng = np.random.default_rng(37)
    c = scale * random_stiffness(rng)
    bound = 1e-12 * np.max(np.abs(c))
    assert np.max(np.abs(stiffness_reconstruct(stiffness_decompose(c)) - c)) <= bound
    assert np.array_equal(voigt_to_tensor(tensor_to_voigt(c)), c)
    h = scale * random_coupling(rng)
    bound = 1e-12 * np.max(np.abs(h))
    assert np.max(np.abs(coupling_reconstruct(coupling_decompose(h)) - h)) <= bound
    coupling_decompose(h, coefficients="printed")


# ---------------------------------------------------------------------------
# the float limit


def float_limit_couplings():
    """Coupling tensors whose entries reach 1.7e308."""
    rng = np.random.default_rng(5)
    for _ in range(20):
        h = rng.uniform(-1.0, 1.0, (3, 3, 3))
        yield 1.7e308 * np.ldexp(h + h.swapaxes(0, 1), -1)


def test_coupling_round_trip_at_the_float_limit():
    for h in float_limit_couplings():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cd = coupling_decompose(h)
            back = coupling_reconstruct(cd)
            v1 = cd.v1
        # compared on values divided by 2^1000, where no difference overflows
        scaled = np.ldexp(h, -1000)
        assert np.max(np.abs(np.ldexp(back, -1000) - scaled)) <= 1e-12 * np.max(np.abs(scaled))
        want = 2.5 * np.ldexp(cd.v3, -1000) - np.ldexp(cd.v2, -1000)
        assert_allclose(np.ldexp(v1, -1000), want, rtol=1e-15)


def float_limit_stiffnesses():
    """Stiffness tensors whose entries reach 1.7e308."""
    rng = np.random.default_rng(6)
    for _ in range(20):
        c = random_stiffness(rng)
        yield 1.7e308 * (c / np.max(np.abs(c)))


def test_stiffness_round_trip_at_the_float_limit():
    round_trips, beyond_range = 0, []
    for index, c in enumerate(float_limit_stiffnesses()):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sd = stiffness_decompose(c)
        got = (sd.lam, sd.mu, sd.d1, sd.d2, sd.d4)
        # the deviators of c / 2^1000, times 2^1000: +-inf where beyond the float range
        small = stiffness_decompose(np.ldexp(c, -1000))
        with np.errstate(over="ignore"):
            want = [np.ldexp(x, 1000) for x in (small.lam, small.mu, small.d1, small.d2, small.d4)]
        for a, b in zip(got, want):
            assert np.array_equal(a, b)
        if not all(np.isfinite(x).all() for x in got):
            beyond_range.append(index)
            # an inf deviator has no exponent to scale by: rejected, not NaN
            with pytest.raises(ValueError, match="non-finite entry"):
                stiffness_reconstruct(sd)
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            back = stiffness_reconstruct(sd)
        # compared on values divided by 2^1000, where no difference overflows
        scaled = np.ldexp(c, -1000)
        assert np.max(np.abs(np.ldexp(back, -1000) - scaled)) <= 1e-12 * np.max(np.abs(scaled))
        round_trips += 1
    # tensor 3 has deviators beyond the float range, though its entries are not
    assert beyond_range == [3] and round_trips == 19


def test_stiffness_reconstruct_overflows_to_inf_without_a_warning():
    # C_1111 = lambda + 2 mu lies beyond the float range
    zeros = np.zeros((3, 3))
    big = StiffnessDeviators(lam=1.6e308, mu=0.2e308, d1=zeros, d2=zeros, d4=np.zeros((3,) * 4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        back = stiffness_reconstruct(big)
    assert back[0, 0, 0, 0] == np.inf and not np.isnan(back).any()
    assert back[0, 0, 1, 1] == 1.6e308 and back[0, 1, 0, 1] == 0.2e308


def test_coupling_reconstruct_overflows_to_inf_without_a_warning():
    # H_111 = (5/2 + 2) v3_1 lies beyond the float range
    big = CouplingDeviators(np.zeros(3), np.array([1.6e308, 0.0, 0.0]), np.zeros((3, 3)),
                            np.zeros((3, 3, 3)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        back = coupling_reconstruct(big)
    assert back[0, 0, 0] == np.inf and not np.isnan(back).any()
    unit = coupling_reconstruct(CouplingDeviators(big.v2, big.v3 / 1.6e308, big.d1, big.d3))
    finite = np.isfinite(back)
    assert_allclose(back[finite], 1.6e308 * unit[finite], rtol=1e-15)


@pytest.mark.parametrize("name", ["v2", "v3", "d1", "d3"])
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_coupling_reconstruct_rejects_a_non_finite_deviator(name, bad):
    cd = coupling_decompose(random_coupling(np.random.default_rng(28)))
    spoiled = np.array(getattr(cd, name))
    spoiled.flat[0] = bad
    built = CouplingDeviators(**{**vars(cd), name: spoiled})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="non-finite entry"):
            coupling_reconstruct(built)
        if name in ("v2", "v3"):
            with pytest.raises(ValueError, match="non-finite entry"):
                built.v1
        else:
            assert np.isfinite(built.v1).all()


@pytest.mark.parametrize(
    "check, first, second",
    [
        (validate_coupling, (0, 1, 0), (1, 0, 0)),
        (validate_stiffness, (0, 1, 0, 0), (1, 0, 0, 0)),
        (voigt_to_tensor, (0, 1), (1, 0)),
    ],
    ids=["validate_coupling", "validate_stiffness", "voigt_to_tensor"],
)
def test_symmetry_checks_at_the_float_limit(check, first, second):
    # the residual 1.7e308 - (-1.7e308) would overflow on the unscaled values
    for value in (1.7e308, 1.7):
        x = np.zeros((3,) * len(first) if len(first) > 2 else (6, 6))
        x[first], x[second] = value, -value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="symmetr"):
                check(x)


# ---------------------------------------------------------------------------
# the cached linear maps against per-call einsum forms

EYE = np.eye(3)
EPS = epsilon()


def einsum_stiffness_lower(c):
    """lam, mu, D1 and D2 of one stiffness tensor, flattened, by per-call
    traces."""
    c_iikk = float(np.einsum("iikk->", c))
    c_ikik = float(np.einsum("ikik->", c))
    lam = (2.0 * c_iikk - c_ikik) / 15.0
    mu = (3.0 * c_ikik - c_iikk) / 30.0
    dilat = np.einsum("kkij->ij", c) - (c_iikk / 3.0) * EYE
    voigt_tr = np.einsum("kikj->ij", c) - (c_ikik / 3.0) * EYE
    d1 = (5.0 / 7.0) * dilat - (4.0 / 7.0) * voigt_tr
    d2 = (3.0 / 7.0) * voigt_tr - (2.0 / 7.0) * dilat
    return np.concatenate(([lam, mu], d1.ravel(), d2.ravel()))


def einsum_coupling_sum(v2, v3, d1, d3):
    """The reconstruction display of one coupling tensor, term by term."""
    return (
        np.einsum("jkt,tis,s->ijk", EPS, EPS, v2)
        - np.einsum("jk,i->ijk", EYE, v2)
        + 2.5 * np.einsum("jk,i->ijk", EYE, v3)
        + np.einsum("ijks,s->ijk", lift_kernel4(), v3)
        + np.einsum("jks,si->ijk", EPS, d1)
        - (1.0 / 3.0) * (np.einsum("isj,ks->ijk", EPS, d1) + np.einsum("isk,js->ijk", EPS, d1))
        + d3
    )


def einsum_coupling_fit(h):
    """The entries of (v2, v3, D1, D3) of the least-squares fit of the
    reconstruction display over the 18 deviator coordinates, built per call."""
    b2, b3 = build_basis(2).flat, build_basis(3).flat

    def parts(x):
        return x[0:3], x[3:6], (x[6:11] @ b2).reshape(3, 3), (x[11:18] @ b3).reshape(3, 3, 3)

    forward = np.stack([einsum_coupling_sum(*parts(x)).ravel() for x in np.eye(18)], axis=1)
    x = np.linalg.lstsq(forward, h.ravel(), rcond=None)[0]
    return np.concatenate([np.ravel(p) for p in parts(x)])


def entries(*arrays):
    return np.concatenate([np.ravel(a) for a in arrays])


def assert_relative(got, want, tol):
    # norms of the entries divided by the power of two of want's largest:
    # 2^900 squared overflows
    k = np.frexp(np.max(np.abs(want)))[1]
    assert np.linalg.norm(np.ldexp(got - want, -k)) <= tol * np.linalg.norm(np.ldexp(want, -k))


seeds = st.integers(0, 2**32 - 1)
wide_exponents = st.integers(-900, 900)


@settings(max_examples=60, deadline=None)
@given(seeds, wide_exponents)
def test_stiffness_split_matches_the_per_call_traces(seed, k):
    c = np.ldexp(random_stiffness(np.random.default_rng(seed)), k)
    sd = stiffness_decompose(c)
    want = einsum_stiffness_lower(c)
    assert_relative(entries(sd.lam, sd.mu, sd.d1, sd.d2), want, 1e-14)
    base = einsum_stiffness_base(want[0], want[1], want[2:11].reshape(3, 3), want[11:].reshape(3, 3))
    assert_relative(sd.d4, c - base, 1e-14)


@settings(max_examples=60, deadline=None)
@given(seeds, wide_exponents)
def test_coupling_map_matches_the_per_call_einsums(seed, k):
    # any four arrays, deviators or not: the display is linear in each
    rng = np.random.default_rng(seed)
    parts = [np.ldexp(rng.standard_normal(shape), k) for shape in ((3,), (3,), (3, 3), (3, 3, 3))]
    assert_relative(coupling_reconstruct(CouplingDeviators(*parts)), einsum_coupling_sum(*parts), 1e-14)


@settings(max_examples=60, deadline=None)
@given(seeds, wide_exponents)
def test_coupling_solver_matches_the_per_call_fit(seed, k):
    h = np.ldexp(random_coupling(np.random.default_rng(seed)), k)
    cd = coupling_decompose(h)
    assert_relative(entries(cd.v2, cd.v3, cd.d1, cd.d3), einsum_coupling_fit(h), 1e-14)


def cached_arrays():
    return {
        "_stiffness_split": physics._stiffness_split(),
        "_STIFFNESS_ENTRIES": physics._STIFFNESS_ENTRIES,
        "_coupling_map": physics._coupling_map(),
        "_coupling_solver": physics._coupling_solver(),
        "_COUPLING_ENTRIES": physics._COUPLING_ENTRIES,
        "_STIFFNESS_SYMMETRIES": physics._STIFFNESS_SYMMETRIES[0],
        "_COUPLING_SYMMETRY": physics._COUPLING_SYMMETRY[0],
        "_VOIGT_SYMMETRY": physics._VOIGT_SYMMETRY[0],
        "_TENSOR_OF_VOIGT": physics._TENSOR_OF_VOIGT,
        "_VOIGT_OF_TENSOR": physics._VOIGT_OF_TENSOR,
    }


def test_cached_maps_are_read_only():
    shapes = {"_stiffness_split": (20, 81), "_STIFFNESS_ENTRIES": (20,), "_coupling_map": (27, 42),
              "_coupling_solver": (42, 27), "_COUPLING_ENTRIES": (42,),
              "_STIFFNESS_SYMMETRIES": (3, 81), "_COUPLING_SYMMETRY": (1, 27),
              "_VOIGT_SYMMETRY": (1, 36), "_TENSOR_OF_VOIGT": (6, 6), "_VOIGT_OF_TENSOR": (3, 3, 3, 3)}
    for name, array in cached_arrays().items():
        assert array.shape == shapes[name], name
        assert not array.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            array.flat[0] = 0


def test_each_map_builds_cold_within_2_ms():
    # best of five cold builds, each on the warm maps and bases it reads
    for build in (physics._stiffness_split, physics._coupling_map, physics._coupling_solver):
        best = float("inf")
        for _ in range(5):
            build.cache_clear()
            start = time.perf_counter()
            build()
            best = min(best, time.perf_counter() - start)
        assert best <= 2e-3, build.__name__


def test_symmetry_check_scales_as_scaled_rows():
    rng = np.random.default_rng(38)
    for k in (-1074, -1000, -30, 0, 30, 1000, 1023):
        c = np.ldexp(random_stiffness(rng) / 4.0, k)
        scaled, exponent = physics._check_symmetries(c, "stiffness tensor", physics._STIFFNESS_SYMMETRIES)
        want, want_exponent = _scaled_rows(c.reshape(1, -1))
        assert scaled.tobytes() == want[0].tobytes() and exponent == want_exponent[0]


def test_symmetry_check_raises_the_first_failing_message():
    c = random_stiffness(np.random.default_rng(39))
    major = c.copy()
    major[0, 1, 0, 2] = major[1, 0, 0, 2] = major[0, 1, 2, 0] = major[1, 0, 2, 0] = 5.0
    with pytest.raises(ValueError, match="major symmetry"):
        validate_stiffness(major)
    second = c.copy()
    second[0, 1, 0, 2] = second[1, 0, 0, 2] = 5.0
    with pytest.raises(ValueError, match="C_ijkl = C_ijlk"):
        validate_stiffness(second)
    with pytest.raises(ValueError, match="C_ijkl = C_jikl"):
        validate_stiffness(np.random.default_rng(40).standard_normal((3, 3, 3, 3)))


def test_split_deviators_are_exactly_symmetric():
    # each order-2 and order-3 deviator is taken from one value per orbit
    # (before, D1 and D2 were, but the fitted D3 missed in 55 of 200)
    rng = np.random.default_rng(42)
    for _ in range(50):
        sd = stiffness_decompose(random_stiffness(rng))
        for d in (sd.d1, sd.d2):
            assert np.array_equal(d, d.T)
        cd = coupling_decompose(random_coupling(rng))
        assert np.array_equal(cd.d1, cd.d1.T)
        for axes in ((1, 0, 2), (0, 2, 1), (2, 1, 0), (1, 2, 0), (2, 0, 1)):
            assert np.array_equal(cd.d3, cd.d3.transpose(axes))


def test_voigt_takes_are_the_index_relabelling():
    rng = np.random.default_rng(41)
    pairs = np.array(physics.VOIGT_PAIRS)
    voigt_of = np.array([[0, 5, 4], [5, 1, 3], [4, 3, 2]])
    c = random_stiffness(rng)
    want = c[pairs[:, 0, None], pairs[:, 1, None], pairs[:, 0], pairs[:, 1]]
    assert tensor_to_voigt(c).tobytes() == want.tobytes()
    m = rng.standard_normal((6, 6))
    m = m + m.T
    assert voigt_to_tensor(m).tobytes() == m[voigt_of[:, :, None, None], voigt_of].tobytes()


@settings(max_examples=40, deadline=None)
@given(seeds, st.integers(-300, 300))
def test_stiffness_split_is_rotation_equivariant(seed, k):
    rng = np.random.default_rng(seed)
    c, r = np.ldexp(random_stiffness(rng), k), random_rotation(rng)
    sd, turned = stiffness_decompose(c), stiffness_decompose(rotate(c, r))
    tol = 1e-13 * np.max(np.abs(c))
    assert abs(turned.lam - sd.lam) <= tol and abs(turned.mu - sd.mu) <= tol
    for name in ("d1", "d2", "d4"):
        assert np.max(np.abs(getattr(turned, name) - rotate(getattr(sd, name), r))) <= tol, name


@settings(max_examples=40, deadline=None)
@given(seeds, st.integers(-300, 300))
def test_coupling_split_is_rotation_equivariant(seed, k):
    rng = np.random.default_rng(seed)
    h, r = np.ldexp(random_coupling(rng), k), random_rotation(rng)
    cd, turned = coupling_decompose(h), coupling_decompose(rotate(h, r))
    tol = 1e-13 * np.max(np.abs(h))
    for name in ("v2", "v3", "d1", "d3"):
        assert np.max(np.abs(getattr(turned, name) - rotate(getattr(cd, name), r))) <= tol, name


def test_fitted_round_trip_is_within_a_few_ulps():
    # the solver is the QR form of the pseudo-inverse: the largest relative
    # round-trip error over these tensors is about 5e-16 (2.8e-15 with the
    # SVD form of np.linalg.pinv)
    rng = np.random.default_rng(43)
    worst = 0.0
    for _ in range(300):
        h = random_coupling(rng)
        back = coupling_reconstruct(coupling_decompose(h))
        worst = max(worst, np.linalg.norm(back - h) / np.linalg.norm(h))
    assert worst <= 1e-15
