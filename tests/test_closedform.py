"""Explicit order-3/4 assembly formulas and their calibrated coefficients."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from deviatoric import (
    assemble_order3,
    assemble_order4,
    combine_deviator_triple,
    decompose,
    fit_structural_coefficients,
    lift_kernel4,
    structural_coefficients,
)


def test_lift_kernel4_entries():
    # K_ijkl = 3/2 (d_ij d_kl + d_ik d_jl) - d_il d_jk
    k = lift_kernel4()
    assert k[0, 0, 0, 0] == pytest.approx(2.0)
    assert k[0, 1, 0, 1] == pytest.approx(1.5)
    assert k[0, 0, 1, 1] == pytest.approx(1.5)
    assert k[0, 1, 1, 0] == pytest.approx(-1.0)
    assert k[0, 1, 2, 0] == pytest.approx(0.0)
    eye = np.eye(3)
    expected = (
        1.5 * (np.einsum("ij,kl->ijkl", eye, eye) + np.einsum("ik,jl->ijkl", eye, eye))
        - np.einsum("il,jk->ijkl", eye, eye)
    )
    assert_allclose(k, expected)


def test_lift_kernel4_applies_the_order1_lift():
    rng = np.random.default_rng(22)
    v = rng.standard_normal(3)
    lifted = np.einsum("ijks,s->ijk", lift_kernel4(), v)
    # lifting a vector must reproduce the triple map with mid = hi = 0 at n = 2
    assert_allclose(lifted, combine_deviator_triple(v, np.zeros((3, 3)), np.zeros((3, 3, 3))))


@pytest.mark.parametrize("order", (3, 4))
def test_shipped_coefficients_fit_cleanly(order):
    data = structural_coefficients(order)
    assert data["order"] == order
    for s in range(order + 1):
        block = data["blocks"][str(s)]
        assert block["fit_ok"]
        assert block["residual"] <= 1e-10


def test_shipped_coefficients_match_a_fresh_fit():
    for order in (3, 4):
        fresh = fit_structural_coefficients(order)
        shipped = structural_coefficients(order)
        for s_key, block in shipped["blocks"].items():
            fresh_terms = {t["term"]: t for t in fresh["blocks"][s_key]["terms"]}
            for term in block["terms"]:
                assert term["reading"] == fresh_terms[term["term"]]["reading"]
                assert_allclose(
                    term["coefficients"], fresh_terms[term["term"]]["coefficients"], atol=1e-9
                )


def test_fit_keeps_the_first_reading_that_fits():
    # every (w4, w5) reading fits; the listed order decides, not rounding
    readings = {
        t["term"]: t["reading"] for t in fit_structural_coefficients(4)["blocks"]["2"]["terms"]
    }
    assert readings["w4"] == readings["w5"] == "composition"


def test_order3_mapping_is_signed_diagonal():
    data = structural_coefficients(3)
    signs = {}
    for block in data["blocks"].values():
        for term in block["terms"]:
            assert term["engine_slot"] is not None
            signs[term["term"]] = round(term["scalar"])
    assert signs == {"alpha": 1, "v1": 1, "v2": -1, "v3": 1, "d1": 1, "d2": 1, "d3": 1}


def test_order4_mapping_is_signed_permutation():
    data = structural_coefficients(4)
    slots = {}
    for s, block in data["blocks"].items():
        for term in block["terms"]:
            assert term["engine_slot"] is not None, term["term"]
            assert abs(term["scalar"]) == pytest.approx(1.0)
            slots.setdefault(s, []).append(term["engine_slot"])
    assert all(sorted(v) == list(range(1, len(v) + 1)) for v in slots.values())


@pytest.mark.parametrize("order,assemble", [(3, assemble_order3), (4, assemble_order4)])
def test_assembly_reproduces_random_tensors(order, assemble):
    rng = np.random.default_rng(700 + order)
    for _ in range(10):
        t = rng.standard_normal((3,) * order)
        rebuilt = assemble(decompose(t))
        rel = np.linalg.norm((rebuilt - t).ravel()) / np.linalg.norm(t.ravel())
        assert rel <= 1e-12


def test_assembly_validates_part_layout():
    d = decompose(np.random.default_rng(24).standard_normal((3, 3, 3)))
    with pytest.raises(ValueError):
        assemble_order4(d)
    with pytest.raises(ValueError):
        assemble_order3(list(d.parts)[:-1])


def test_assembly_rejects_a_permuted_part_list():
    d = decompose(np.random.default_rng(25).standard_normal((3,) * 4))
    assert_allclose(assemble_order4(list(d.parts)), assemble_order4(d))
    with pytest.raises(ValueError):
        assemble_order4(list(reversed(d.parts)))
    with pytest.raises(ValueError):
        assemble_order4(d.parts[1:] + d.parts[:1])


def test_no_shipped_coefficients_beyond_order4():
    with pytest.raises(ValueError):
        structural_coefficients(5)
