"""Decomposition engine: counts, round-trips, invariances, and agreement
with the paper's per-input recursion."""

import copy
import dataclasses
import json
import pickle
import tracemalloc
import warnings
from collections import Counter
from functools import lru_cache

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from deviatoric import (
    Decomposition,
    IrreduciblePart,
    assemble_order3,
    assemble_order4,
    build_basis,
    combine_deviator_triple,
    count_parts,
    counts_row,
    decompose,
    from_coords,
    is_deviator,
    part_orders,
    random_rotation,
    reconstruct,
    rotate,
    split_deviator_triple,
    symmetrize,
    trinomial,
    verify,
)
from deviatoric import decomposition, serialization
from deviatoric.core import _orbit_basis, _orbit_map, frobenius_norm
from deviatoric.decomposition import (
    _certified_cross_correlation,
    _apply,
    _apply_transposed,
    _change_of_basis,
    _coefficient_bounds,
    _deviator_coordinates,
    _entries,
    _images,
    _forward,
    _from_record,
    _image_norm_bounds,
    _part_norms,
    _part_residuals,
    _Record,
    _plan,
    _record_of,
    _rows_of,
    _regroup,
    _span_defects,
    _stacked,
    _sum,
    _trace_bound,
    _trace_bounds,
)
from deviatoric.serialization import (
    decomposition_from_json,
    decomposition_to_json,
    load_decomposition,
)
from forms import json_with_images

# number of independent deviators of each order s for tensor order n <= 6
COUNTS_TABLE = {
    0: (1,),
    1: (0, 1),
    2: (1, 1, 1),
    3: (1, 3, 2, 1),
    4: (3, 6, 6, 3, 1),
    5: (6, 15, 15, 10, 4, 1),
    6: (15, 36, 40, 29, 15, 5, 1),
}

_EPSILON = np.zeros((3, 3, 3))
for i, j, k in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
    _EPSILON[i, j, k] = 1.0
    _EPSILON[k, j, i] = -1.0


# the one error of a part list in another layout than that of decompose
LAYOUT_ERROR = r"^parts are not in the \(s, J\) layout of decompose$"


def random_deviator(rng, s):
    return from_coords(rng.standard_normal(2 * s + 1), s)


# ---------------------------------------------------------------------------
# reference: the paper's recursion, run per input through the public triple
# maps.  Slicing along the first index writes t = sum_k e_k x T_k; the three
# slice deviators of each slot regroup into a vector, an order-2 tensor, or a
# block that ``split_deviator_triple`` resolves.

def reference_order2(t):
    alpha = np.trace(t) / 3.0
    spin = 0.5 * np.einsum("ijs,ij->s", _EPSILON, t)
    return [np.asarray(alpha), spin, 0.5 * (t + t.T) - alpha * np.eye(3)]


def reference_deviators(t):
    """Leaf deviators of t in traversal order, by recursion on the slices."""
    n = t.ndim
    if n <= 1:
        return [t]
    if n == 2:
        return reference_order2(t)
    subs = [reference_deviators(t[k]) for k in range(3)]
    out = []
    for p, s in enumerate(part_orders(n - 1)):
        g = np.stack([sub[p] for sub in subs])
        if s == 0:
            out.append(g)
        elif s == 1:
            out.extend(reference_order2(g))
        else:
            out.extend(split_deviator_triple(g))
    return out


def reference_forward(s, which, b):
    """Order-(s+1) tensor that deviator b contributes to its order-s parent
    slot from child slot `which` (orders s-1, s, s+1; order 1 alone when
    s = 0)."""
    if s == 0 or which == 2:
        return b
    if s == 1:
        return float(b) * np.eye(3) if which == 0 else np.einsum("ijs,s->ij", _EPSILON, b)
    triple = [np.zeros((3,) * (s - 1)), np.zeros((3,) * s), np.zeros((3,) * (s + 1))]
    triple[which] = b
    return combine_deviator_triple(*triple)


@lru_cache(maxsize=None)
def reference_images(n):
    """Per slot, the embedded order-n images of its orthonormal basis, got by
    pushing each basis deviator forward through the parent slot's images."""
    if n == 0:
        return (np.ones((1,)),)
    out = []
    for p, s in enumerate(part_orders(n - 1)):
        parent = reference_images(n - 1)[p].reshape(2 * s + 1, -1)
        children = (1,) if s == 0 else (s - 1, s, s + 1)
        for which, child in enumerate(children):
            images = []
            for b in build_basis(child):
                c = reference_forward(s, which, b).reshape(3, -1) @ build_basis(s).flat.T
                images.append((c @ parent).reshape((3,) * n))
            out.append(np.stack(images))
    return tuple(out)


@pytest.mark.parametrize("order", range(7))
def test_engine_matches_reference_recursion(order):
    labels = part_orders(order)
    images = reference_images(order)
    for seed in range(3):
        t = np.random.default_rng(700 + 10 * order + seed).standard_normal((3,) * order)
        parts = decompose(t).parts
        devs = reference_deviators(t)
        assert [(p.s, p.J) for p in parts] == [
            (s, labels[: i + 1].count(s)) for i, s in enumerate(labels)
        ]
        assert len(devs) == len(parts)
        for p, dev, stack in zip(parts, devs, images):
            embedded = (build_basis(p.s).flat @ dev.ravel()) @ stack.reshape(2 * p.s + 1, -1)
            embedded = embedded.reshape((3,) * order)
            assert np.linalg.norm((p.deviator - dev).ravel()) <= 1e-12 * np.linalg.norm(dev.ravel())
            assert np.linalg.norm((p.embedded - embedded).ravel()) <= 1e-12 * np.linalg.norm(
                embedded.ravel()
            )


@pytest.mark.parametrize("order", range(7))
def test_change_of_basis_rows_are_orthogonal(order):
    # E E^T = diag(lambda), with lambda constant on each slot (Schur's lemma)
    rows, norms = _change_of_basis(order), _plan(order).lam
    assert rows.shape == (3**order, 3**order)
    assert not rows.flags.writeable  # the plan's arrays: test_plan_arrays_are_read_only
    gram = rows @ rows.T
    assert_allclose(np.diag(gram), norms, rtol=1e-13)
    off = gram - np.diag(np.diag(gram))
    assert np.abs(off).max() <= 1e-13 * norms.max()
    start = 0
    for s in sorted(part_orders(order)):  # E takes its slots in order of s, then J
        block = norms[start : start + 2 * s + 1]
        assert block.max() - block.min() <= 1e-13 * block.max()
        start += 2 * s + 1
    assert start == 3**order


def test_trinomial_against_polynomial_oracle():
    # coefficients of (1 + x + x^2)^n read off with numpy polynomials; the
    # symmetric laurent row is the same list re-centered
    for n in range(9):
        poly = np.array([1])
        for _ in range(n):
            poly = np.polymul(poly, np.array([1, 1, 1]))
        for s in range(-n, n + 1):
            assert trinomial(n, s) == int(poly[n + s])
        assert trinomial(n, n + 1) == 0
        assert trinomial(n, -(n + 1)) == 0


def test_trinomial_rejects_negative_order():
    with pytest.raises(ValueError):
        trinomial(-1, 0)


def test_counts_row_rejects_negative_order():
    # as count_parts and part_orders do
    with pytest.raises(ValueError, match="n must be nonnegative, got -1"):
        counts_row(-1)


def test_counts_table():
    for n, row in COUNTS_TABLE.items():
        assert counts_row(n) == row
        for s, value in enumerate(row):
            assert count_parts(n, s) == value


def test_count_parts_range_checks():
    with pytest.raises(ValueError):
        count_parts(3, 4)
    with pytest.raises(ValueError):
        count_parts(3, -1)


def test_degrees_of_freedom_identity():
    for n in range(9):
        assert sum((1 + 2 * s) * j for s, j in enumerate(counts_row(n))) == 3**n


def test_part_orders_traversal():
    assert part_orders(0) == (0,)
    assert part_orders(1) == (1,)
    assert part_orders(2) == (0, 1, 2)
    assert part_orders(3) == (1, 0, 1, 2, 1, 2, 3)
    for n in range(8):
        labels = part_orders(n)
        assert len(labels) == sum(counts_row(n))
        for s in range(n + 1):
            assert labels.count(s) == count_parts(n, s)


def reference_row_of(n):
    """The image row of each part: the parts sorted stably by the order of
    their parent slot, so by parent order, then parent, then child."""
    if n == 0:
        return np.zeros(1, dtype=int)
    parents = part_orders(n - 1)
    parent_order = np.repeat(parents, [1 if s == 0 else 3 for s in parents])
    row_of = np.empty(len(parent_order), dtype=int)
    row_of[np.argsort(parent_order, kind="stable")] = np.arange(len(parent_order))
    return row_of


def test_layout_holds_the_counts_of_count_parts():
    # verify reports counts_ok for every decomposition it accepts, on this agreement
    for n in range(11):
        plan = _plan(n)
        assert plan.orders == part_orders(n)
        assert Counter(plan.orders) == {s: j for s, j in enumerate(counts_row(n)) if j}
        for s in set(plan.orders):
            labels = [j for o, j in zip(plan.orders, plan.labels) if o == s]
            assert labels == list(range(1, count_parts(n, s) + 1))
        np.testing.assert_array_equal(plan.row_of, reference_row_of(n))


@pytest.mark.parametrize("order", range(7))
def test_reconstruction_round_trip(order):
    rng = np.random.default_rng(100 + order)
    for _ in range(10):
        t = rng.standard_normal((3,) * order)
        d = decompose(t)
        rel = np.linalg.norm((reconstruct(d) - t).ravel()) / np.linalg.norm(t.ravel())
        assert rel <= 1e-12


@pytest.mark.parametrize("order", range(7))
def test_parts_are_deviators_with_correct_counts(order):
    rng = np.random.default_rng(200 + order)
    t = rng.standard_normal((3,) * order)
    d = decompose(t)
    assert d.counts() == {s: c for s, c in enumerate(counts_row(order)) if c}
    for p in d.parts:
        assert p.deviator.ndim == p.s
        assert p.embedded.shape == (3,) * order
        assert is_deviator(p.deviator)


@pytest.mark.parametrize("order", range(2, 6))
def test_embedded_parts_are_orthogonal(order):
    rng = np.random.default_rng(300 + order)
    t = rng.standard_normal((3,) * order)
    parts = decompose(t).parts
    flats = [p.embedded.ravel() for p in parts]
    for i in range(len(flats)):
        for j in range(i + 1, len(flats)):
            bound = 1e-12 * np.linalg.norm(flats[i]) * np.linalg.norm(flats[j])
            assert abs(flats[i] @ flats[j]) <= bound


def test_decompose_is_linear():
    rng = np.random.default_rng(16)
    a = rng.standard_normal((3, 3, 3))
    b = rng.standard_normal((3, 3, 3))
    da, db = decompose(a), decompose(b)
    dc = decompose(2.0 * a - 3.0 * b)
    for pa, pb, pc in zip(da.parts, db.parts, dc.parts):
        assert_allclose(pc.embedded, 2.0 * pa.embedded - 3.0 * pb.embedded, atol=1e-12)
        assert_allclose(pc.deviator, 2.0 * pa.deviator - 3.0 * pb.deviator, atol=1e-12)


@pytest.mark.parametrize("order", (2, 3, 4))
def test_rotation_equivariance(order):
    rng = np.random.default_rng(400 + order)
    t = rng.standard_normal((3,) * order)
    d = decompose(t)
    for _ in range(10):
        r = random_rotation(rng)
        d_rot = decompose(rotate(t, r))
        for p, q in zip(d.parts, d_rot.parts):
            assert (p.s, p.J) == (q.s, q.J)
            rel = np.linalg.norm((q.embedded - rotate(p.embedded, r)).ravel())
            rel /= max(np.linalg.norm(p.embedded.ravel()), 1e-30)
            assert rel <= 1e-11
            assert_allclose(q.deviator, rotate(p.deviator, r), atol=1e-11)


def test_decompose_order2_closed_form():
    t = np.zeros((3, 3))
    t[0, 1] = 1.0
    d = decompose(t)
    alpha, spin, dev = d.parts
    assert alpha.s == 0 and spin.s == 1 and dev.s == 2
    assert float(alpha.deviator) == pytest.approx(0.0)
    assert_allclose(spin.deviator, [0.0, 0.0, 0.5], atol=1e-15)
    assert_allclose(dev.deviator, [[0.0, 0.5, 0.0], [0.5, 0.0, 0.0], [0.0, 0.0, 0.0]], atol=1e-15)
    # the spin embedding restores the antisymmetric half
    assert_allclose(spin.embedded, [[0.0, 0.5, 0.0], [-0.5, 0.0, 0.0], [0.0, 0.0, 0.0]], atol=1e-15)


def test_decompose_order2_general():
    rng = np.random.default_rng(17)
    t = rng.standard_normal((3, 3))
    alpha, spin, dev = decompose(t).parts
    assert float(alpha.deviator) == pytest.approx(np.trace(t) / 3.0)
    assert_allclose(spin.deviator, 0.5 * np.einsum("ijs,ij->s", _EPSILON, t), atol=1e-14)
    assert_allclose(dev.deviator, 0.5 * (t + t.T) - (np.trace(t) / 3.0) * np.eye(3), atol=1e-14)


def test_pure_deviator_decomposes_to_itself():
    rng = np.random.default_rng(18)
    for s in range(2, 6):
        d = random_deviator(rng, s)
        parts = decompose(d).parts
        top = parts[-1]
        assert top.s == s
        assert_allclose(top.deviator, d, atol=1e-12)
        assert_allclose(top.embedded, d, atol=1e-12)
        for p in parts[:-1]:
            assert np.linalg.norm(p.embedded.ravel()) <= 1e-12 * np.linalg.norm(d.ravel())


@pytest.mark.parametrize("n", (2, 3, 4, 5))
def test_combine_split_round_trip(n):
    rng = np.random.default_rng(500 + n)
    for _ in range(5):
        lo = random_deviator(rng, n - 1)
        mid = random_deviator(rng, n)
        hi = random_deviator(rng, n + 1)
        g = combine_deviator_triple(lo, mid, hi)
        lo2, mid2, hi2 = split_deviator_triple(g)
        scale = max(np.linalg.norm(g.ravel()), 1.0)
        assert np.linalg.norm((lo2 - lo).ravel()) <= 1e-11 * scale
        assert np.linalg.norm((mid2 - mid).ravel()) <= 1e-11 * scale
        assert np.linalg.norm((hi2 - hi).ravel()) <= 1e-11 * scale


@pytest.mark.parametrize("n", (2, 3, 4, 5))
def test_combine_image_dimension(n):
    # the triple map is injective: its image has dimension 3(2n+1)
    rng = np.random.default_rng(600 + n)
    dims = (2 * (n - 1) + 1, 2 * n + 1, 2 * (n + 1) + 1)
    assert sum(dims) == 3 * (2 * n + 1)
    columns = []
    for slot, s in enumerate((n - 1, n, n + 1)):
        for k in range(2 * s + 1):
            c = np.zeros(2 * s + 1)
            c[k] = 1.0
            triple = [np.zeros((3,) * (n - 1)), np.zeros((3,) * n), np.zeros((3,) * (n + 1))]
            triple[slot] = from_coords(c, s)
            columns.append(combine_deviator_triple(*triple).ravel())
    rank = np.linalg.matrix_rank(np.stack(columns), tol=1e-10)
    assert rank == 3 * (2 * n + 1)


def test_combine_validates_inputs():
    rng = np.random.default_rng(19)
    with pytest.raises(ValueError):
        combine_deviator_triple(np.zeros(3), np.zeros((3, 3)), np.eye(3))  # hi not order 3
    with pytest.raises(ValueError):
        combine_deviator_triple(np.zeros(3), np.eye(3), np.zeros((3, 3, 3)))  # mid traceful
    # n = 1 would need an order-0 "lo"; the map starts at n = 2
    with pytest.raises(ValueError):
        combine_deviator_triple(np.asarray(1.0), rng.standard_normal(3), np.eye(3))


def test_split_rejects_tensors_outside_the_image():
    rng = np.random.default_rng(20)
    with pytest.raises(ValueError):
        split_deviator_triple(rng.standard_normal((3, 3, 3)))


def test_split_membership_is_relative_to_scale():
    rng = np.random.default_rng(22)
    with pytest.raises(ValueError):
        split_deviator_triple(1e-12 * rng.standard_normal((3, 3, 3)))
    g = combine_deviator_triple(*(random_deviator(rng, s) for s in (1, 2, 3)))
    lo, mid, hi = (random_deviator(rng, s) for s in (1, 2, 3))
    other = rng.standard_normal((3, 3, 3))
    for scale in (1e-300, 1e-200, 1e-12, 1e12, 1e200, 1e300):
        with pytest.raises(ValueError):
            split_deviator_triple(scale * other)
        split_deviator_triple(scale * g)
        with pytest.raises(ValueError):
            combine_deviator_triple(scale * lo, scale * rng.standard_normal((3, 3)), scale * hi)
        with pytest.raises(ValueError):
            combine_deviator_triple(scale * lo, scale * mid, scale * other)
        combine_deviator_triple(scale * lo, scale * mid, scale * hi)
    for part in split_deviator_triple(np.zeros((3, 3, 3))):
        assert not part.any()


def test_split_membership_at_the_float_limit():
    rng = np.random.default_rng(25)
    for n in (2, 3, 4):
        triple = [random_deviator(rng, s) for s in (n - 1, n, n + 1)]
        g = combine_deviator_triple(*triple)
        peak = np.abs(g).max()
        # accepted, and resolved exactly although some coordinates overflow
        for part, d in zip(split_deviator_triple(g / peak * 1.5e308), triple):
            assert_allclose(part / 1.5e308, d / peak, rtol=0, atol=1e-14)
        limit = [d / np.abs(d).max() * 1.5e308 for d in triple]
        other = rng.standard_normal((3,) * (n + 1))
        other = other / np.abs(other).max() * 1.5e308
        with pytest.raises(ValueError):
            split_deviator_triple(other)
        with pytest.raises(ValueError):
            combine_deviator_triple(limit[0], limit[1], other)


@pytest.mark.parametrize("order", [0, 3, 7])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_decompose_rejects_a_non_finite_entry(order, bad):
    t = np.random.default_rng(27 + order).standard_normal((3,) * order)
    for index in sorted({(0,) * order, (2,) * order}):
        t_bad = t.copy()
        t_bad[index] = bad
        with pytest.raises(ValueError, match="non-finite entry"):
            decompose(t_bad)


def test_split_and_combine_reject_nan():
    triple = [random_deviator(np.random.default_rng(26), s) for s in (1, 2, 3)]
    with pytest.raises(ValueError):
        split_deviator_triple(np.full((3, 3, 3), np.nan))
    for slot in range(3):
        bad = list(triple)
        bad[slot] = np.full_like(triple[slot], np.nan)
        with pytest.raises(ValueError):
            combine_deviator_triple(*bad)


def test_verify_report_passes_and_fails():
    rng = np.random.default_rng(21)
    t = rng.standard_normal((3, 3, 3))
    d = decompose(t)
    report = verify(d, t)
    assert report.counts_ok
    assert report.passes(1e-10)
    # corrupt one embedded part
    bad_parts = list(d.parts)
    p = bad_parts[2]
    bumped = p.embedded.copy()
    bumped[0, 0, 0] += 1e-3
    bad_parts[2] = IrreduciblePart(s=p.s, J=p.J, deviator=p.deviator, embedded=bumped)
    bad = Decomposition(order=3, parts=tuple(bad_parts))
    assert not verify(bad, t).passes(1e-10)


def reference_cross_correlation(d):
    """The pairwise loop over part images that the Gram product replaced."""
    flats = [p.embedded.reshape(-1) for p in d.parts]
    norms = [np.linalg.norm(f) for f in flats]
    worst = 0.0
    for i in range(len(flats)):
        if norms[i] == 0.0:
            continue
        for j in range(i + 1, len(flats)):
            if norms[j] == 0.0:
                continue
            worst = max(worst, abs(float(flats[i] @ flats[j])) / (norms[i] * norms[j]))
    return worst


def with_parts(d, changes):
    """Copy of ``d`` with the parts at the given indices replaced by
    (deviator, embedded) pairs."""
    parts = list(d.parts)
    for k, (deviator, embedded) in changes.items():
        parts[k] = IrreduciblePart(s=parts[k].s, J=parts[k].J, deviator=deviator, embedded=embedded)
    return Decomposition(order=d.order, parts=tuple(parts))


@pytest.mark.parametrize("order", range(8))
def test_cross_correlation_matches_pairwise_reference(order):
    t = np.random.default_rng(400 + order).standard_normal((3,) * order)
    d = decompose(t)
    report = verify(d, t)
    assert abs(report.max_cross_correlation - reference_cross_correlation(d)) <= 1e-13
    assert report.passes(1e-10)
    if len(d.parts) < 2:
        return
    # mix the first and the last image; the sum and the deviators stay as
    # they were, so only the cross-correlation of the stored images can fail
    first, last = d.parts[0], d.parts[-1]
    mixed = with_parts(
        d,
        {
            0: (first.deviator, first.embedded + 0.3 * last.embedded),
            len(d.parts) - 1: (last.deviator, 0.7 * last.embedded),
        },
    )
    report = verify(mixed, t)
    exact = reference_cross_correlation(mixed)
    assert report.reconstruction_relative <= 1e-12
    assert exact > 1e-3 and report.max_cross_correlation >= exact
    assert report.max_embedding_residual > 1e-3
    assert not report.passes(1e-10)
    # the exact value that the other tests compare with matches the loop too
    assert abs(exact_cross_correlation(image_rows(mixed)) - exact) <= 1e-13


@pytest.mark.parametrize("order", [3, 6])
def test_verify_skips_zero_parts(order):
    t = np.random.default_rng(410 + order).standard_normal((3,) * order)
    d = decompose(t)
    k = next(i for i, p in enumerate(d.parts) if p.s >= 2)
    p = d.parts[k]
    zeroed = with_parts(d, {k: (np.zeros_like(p.deviator), np.zeros_like(p.embedded))})
    report = verify(zeroed, reconstruct(zeroed))
    assert report.part_symmetry[k] == 0.0 and report.part_trace[k] == 0.0
    assert abs(report.max_cross_correlation - reference_cross_correlation(zeroed)) <= 1e-13
    assert report.passes(1e-10)


def test_verify_part_residuals_are_relative_to_each_part():
    t = 1e-12 * np.random.default_rng(42).standard_normal((3,) * 4)
    d = decompose(t)
    assert verify(d, t).passes(1e-10)
    k = next(i for i, p in enumerate(d.parts) if p.s == 2)
    skew = d.parts[k].deviator.copy()
    skew[0, 1] += 0.1 * np.linalg.norm(skew)
    report = verify(with_parts(d, {k: (skew, d.parts[k].embedded)}), t)
    assert report.max_part_residual > 1e-3
    assert not report.passes(1e-10)


def test_verify_transient_memory_is_bounded():
    t = np.random.default_rng(43).standard_normal((3,) * 7)
    d = decompose(t)
    verify(d, t)  # builds the cached constants of the certificate and of the trace bounds
    tracemalloc.start()
    try:
        verify(d, t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one stack of all 393 images would take 393 * 3^7 * 8 bytes = 6.9 MB
    assert peak < 4 * 2**20


def test_verify_reads_loaded_images_in_place():
    """A file that gives its images is read as ``decompose`` output: the
    images are checked against the deviators and dropped, so ``verify``
    reads the loaded record in place and holds no image."""
    t = np.random.default_rng(44).standard_normal((3,) * 7)
    d = decomposition_from_json(json_with_images(decompose(t)))
    assert d._record.tie == 0.0 and "parts" not in vars(d)
    verify(d, t)
    tracemalloc.start()
    try:
        verify(d, t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def replaced_embedded(d, k, embedded):
    return with_parts(d, {k: (d.parts[k].deviator, embedded)})


def image_rows(d):
    """The images of the parts of ``d`` as the rows of one array, in part order."""
    return np.stack([np.ravel(p.embedded) for p in d.parts])


def reference_tie(d):
    """The largest |f_i - e_i| / |f_i| of the images f_i of the parts of
    ``d`` to the images e_i that ``decompose`` output builds of the same
    deviators, part by part: 0 for two zero images, inf for a zero f_i."""
    orders, labels = _plan(d.order)[:2]
    record = _stacked(d.order, orders, labels, [p.deviator for p in d.parts])
    worst = 0.0
    for p, q in zip(d.parts, _from_record(d.order, record).parts):
        f, e = np.ravel(p.embedded), np.ravel(q.embedded)
        if f.any():
            worst = max(worst, np.linalg.norm(f - e) / np.linalg.norm(f))
        elif e.any():
            worst = np.inf
    return worst


def test_images_are_checked_where_they_come_in():
    """Hand-built parts are stacked into a record of their deviators: the
    images are measured against the deviators' embeddings and dropped, and
    the record keeps only the tie.  A copy of ``decompose`` output has tie
    0 and is the same record; an image that is not its deviator's embedding
    gives the tie of the per-part loop."""
    t = np.random.default_rng(45).standard_normal((3,) * 5)
    built = decompose(t)
    images = [p.embedded for p in built.parts]
    assert not images[0].base.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        images[0][...] += 1.0
    assert built._record._fields == ("stacks", "tie", "coordinates") and built._record.tie == 0.0
    copied = eager_copy(built)
    record = _record_of(copied)
    assert record.tie == 0.0
    for (s, index, stack), (s2, index2, stack2) in zip(
        record.stacks, built._record.stacks, strict=True
    ):
        assert s == s2 and np.array_equal(index, index2) and stack.tobytes() == stack2.tobytes()
    assert verify(copied, t) == verify(built, t)

    # each of these shares memory with the images of built, but image 0 is
    # not the embedding of its deviator
    other_row = replaced_embedded(built, 0, images[1])
    transposed = replaced_embedded(built, 0, images[0].transpose(1, 0, 2, 3, 4))
    shifted = replaced_embedded(built, 0, images[0].base.ravel()[1 : 1 + 3**5].reshape((3,) * 5))
    for edited in (other_row, transposed, shifted):
        tie = _record_of(edited).tie
        assert tie > 1e-3 and tie == pytest.approx(reference_tie(edited), rel=1e-12)
        assert verify(edited, t).max_embedding_residual == tie
    # moved, dropped and no parts are another layout: an input error
    for parts in ((built.parts[1], built.parts[0]) + built.parts[2:], built.parts[:-1], ()):
        with pytest.raises(ValueError, match=LAYOUT_ERROR):
            _record_of(Decomposition(order=built.order, parts=parts))
    listed = replaced_embedded(built, 3, images[3].tolist())
    assert verify(listed, t) == verify(built, t)
    # image 0 is a copy of image 1: the two given images are parallel
    assert exact_cross_correlation(image_rows(other_row)) == pytest.approx(1.0)
    report = verify(other_row, reconstruct(other_row))
    assert report.max_cross_correlation >= 1.0 - 1e-12 and report.max_embedding_residual > 1e-3


def assert_images_are_rows(d):
    """Part i's image is a view of row ``row_of[i]`` of one read-only
    (parts, 3^n) array, built from the recorded deviators when ``parts``
    was first read."""
    rows = d.parts[0].embedded.base
    assert not rows.flags.writeable
    np.testing.assert_array_equal(rows, _rows_of(d._record, d.order))
    assert rows.shape == (len(d.parts), 3**d.order)
    for r, p in zip(_plan(d.order).row_of, d.parts):
        row = rows[r]
        assert p.embedded.base is rows and p.embedded.shape == (3,) * d.order
        assert p.embedded.__array_interface__["data"] == row.__array_interface__["data"]


@pytest.mark.parametrize("order", [0, 1, 4, 7])
def test_decompose_records_its_image_rows(order):
    """The record of ``decompose`` output holds no image: its image rows
    are built from the record's deviators on the first read of ``parts``.
    A pickled copy and, up to order 4, a file that gives its images lay
    them out alike."""
    d = decompose(np.random.default_rng(60 + order).standard_normal((3,) * order))
    assert_images_are_rows(d)
    assert_images_are_rows(pickle.loads(pickle.dumps(d)))
    if order <= 4:
        assert_images_are_rows(decomposition_from_json(json_with_images(d)))


COPIES = {
    "pickle": lambda d: pickle.loads(pickle.dumps(d)),
    "deepcopy": copy.deepcopy,
    "copy": copy.copy,
    "replace": dataclasses.replace,
    "replace moved": lambda d: dataclasses.replace(d, parts=d.parts[1:] + d.parts[:1]),
}


@pytest.mark.parametrize("kind", COPIES)
def test_copies_record_no_rows(kind):
    """No copy holds an image.  Pickle, deepcopy and copy keep the record,
    so a copy is ``decompose`` output (a shallow copy shares its arrays);
    ``dataclasses.replace`` hand-builds its parts, which each read stacks
    anew, with tie 0.  The images are read-only, and an edit of a deviator
    reaches ``verify``."""
    t = np.random.default_rng(61).standard_normal((3,) * 5)
    d = decompose(t)
    c = COPIES[kind](d)
    if kind == "replace moved":  # another layout: an input error wherever it is read
        for read in (reconstruct, lambda c: verify(c, t), decomposition_to_json):
            with pytest.raises(ValueError, match=LAYOUT_ERROR):
                read(c)
        return
    assert (c._record is None) == (kind == "replace")
    record = _record_of(c)
    assert record.tie == 0.0
    for (_, _, stack), (_, _, own) in zip(record.stacks, d._record.stacks, strict=True):
        assert stack.tobytes() == own.tobytes()
        assert np.shares_memory(stack, own) == (kind == "copy")
    report = verify(c, t)
    assert report == verify(d, t) and report.passes(1e-10)
    with pytest.raises(ValueError, match="read-only"):
        c.parts[0].embedded[...] += 1.0
    c.parts[0].deviator[...] *= 2.0
    report = verify(c, t)
    assert report.reconstruction_relative > 1e-3 and not report.passes(1e-10)


def test_in_place_edit_of_a_part_reaches_the_rows():
    """The images of every record are read-only rows built from its
    deviators: ``decompose`` output, a file with or without images, and a
    pickled copy.  An edit of an image is refused; an edit of a deviator
    reaches the rows built from the record, which ``verify`` bounds."""
    t = np.random.default_rng(62).standard_normal((3,) * 5)
    forms = {
        "decompose": decompose,
        "file": lambda t: decomposition_from_json(decomposition_to_json(decompose(t))),
        "file with images": lambda t: decomposition_from_json(json_with_images(decompose(t))),
        "pickle": lambda t: pickle.loads(pickle.dumps(decompose(t))),
    }
    row = _plan(5).row_of[0]
    for name, form in forms.items():
        d = form(t)
        with pytest.raises(ValueError, match="read-only"):
            d.parts[0].embedded[...] += 0.3 * d.parts[-1].embedded
        assert verify(d, t).passes(1e-10), name
        before = d.parts[0].embedded.base
        d.parts[0].deviator[...] *= 2.0
        after = _rows_of(d._record, 5)
        np.testing.assert_array_equal(np.delete(after, row, axis=0), np.delete(before, row, axis=0))
        assert np.array_equal(after[row], 2.0 * before[row]), name
        assert not verify(d, t).passes(1e-10), name


def counting_part_constructions(monkeypatch) -> list:
    """Patch ``IrreduciblePart`` to count its constructions in a list."""
    built = []
    init = IrreduciblePart.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(IrreduciblePart, "__init__", counting)
    return built


@pytest.mark.parametrize("order", [4, 7])
def test_decompose_reconstruct_verify_builds_no_part(order, monkeypatch):
    t = np.random.default_rng(64 + order).standard_normal((3,) * order)
    text = decomposition_to_json(decompose(t))
    built = counting_part_constructions(monkeypatch)
    loaded = decomposition_from_json(text)
    d = decompose(t)
    assert verify(d, reconstruct(d)).passes(1e-10)
    assert verify(loaded, reconstruct(loaded)).passes(1e-10)
    assert d.counts() == loaded.counts() == {s: c for s, c in enumerate(counts_row(order)) if c}
    assert built == []
    assert len(d.parts) == len(built) == sum(counts_row(order))


ASSEMBLERS = [(3, assemble_order3), (4, assemble_order4)]


@pytest.mark.parametrize("order, assemble", ASSEMBLERS)
def test_assemble_builds_no_part(order, assemble, monkeypatch):
    t = np.random.default_rng(70 + order).standard_normal((3,) * order)
    d = decompose(t)
    built = counting_part_constructions(monkeypatch)
    assert_allclose(assemble(d), t, atol=1e-12)
    assert built == []


@pytest.mark.parametrize("order, assemble", ASSEMBLERS)
def test_assemble_reads_every_form_alike(order, assemble):
    rng = np.random.default_rng(73 + order)
    for _ in range(5):
        d = decompose(rng.standard_normal((3,) * order))
        loaded = decomposition_from_json(decomposition_to_json(d))
        with_images = decomposition_from_json(json_with_images(d))
        forms = (d, loaded, with_images, pickle.loads(pickle.dumps(d)), list(d.parts))
        got = [assemble(form).tobytes() for form in forms]
        assert got == got[:1] * len(forms)


@pytest.mark.parametrize("shape", [(3, 3), (3, 3, 3, 3), (9, 3)])
def test_reconstruct_reads_the_deviators_as_verify_does(shape):
    t = np.random.default_rng(75).standard_normal((3,) * 3)
    d = decompose(t)
    k = next(i for i, p in enumerate(d.parts) if p.s == 3)
    bad = with_parts(d, {k: (np.zeros(shape), d.parts[k].embedded)})
    with pytest.raises(ValueError) as from_verify:
        verify(bad, t)
    with pytest.raises(ValueError) as from_reconstruct:
        reconstruct(bad)
    assert str(from_reconstruct.value) == str(from_verify.value)


def test_only_the_readers_of_the_tie_measure_images(monkeypatch):
    """A hand-built decomposition's images are measured against its
    deviators (``_tie``) by ``verify``, the writer and pickling, which
    report or keep the tie, and by no reader of the deviators alone:
    ``reconstruct`` and ``assemble_order4`` give what they give for
    ``decompose`` output, bit for bit, without measuring."""
    t = np.random.default_rng(76).standard_normal((3,) * 4)
    d = decompose(t)
    hand = eager_copy(d)
    measured = []
    tie = decomposition._tie
    monkeypatch.setattr(decomposition, "_tie", lambda *args: measured.append(1) or tie(*args))
    assert reconstruct(hand).tobytes() == reconstruct(d).tobytes()
    assert assemble_order4(hand).tobytes() == assemble_order4(d).tobytes()
    assert measured == []
    assert verify(hand, t) == verify(d, t)
    assert decomposition_to_json(hand) == decomposition_to_json(d)
    assert verify(pickle.loads(pickle.dumps(hand)), t) == verify(d, t)
    assert len(measured) == 3


def eager_copy(d):
    """A hand-built decomposition of copies of ``d``'s parts, as a
    decomposition that builds its parts when it is made holds them."""
    parts = tuple(IrreduciblePart(p.s, p.J, p.deviator.copy(), p.embedded.copy()) for p in d.parts)
    return Decomposition(d.order, parts)


def test_parts_are_built_once_as_an_eager_build_gives():
    t = np.random.default_rng(65).standard_normal((3,) * 4)
    eager = eager_copy(decompose(t))
    d = decompose(t)
    parts = d.parts
    assert d.parts is parts and isinstance(parts, tuple)
    assert Decomposition(d.order, parts) == d == dataclasses.replace(d)
    assert dataclasses.replace(d).parts is parts
    # each of these reads a fresh decomposition first
    assert repr(decompose(t)) == repr(eager)
    assert pickle.dumps(decompose(t)) == pickle.dumps(eager)
    assert repr(copy.deepcopy(decompose(t))) == repr(eager)
    fresh = decompose(t)
    assert fresh == dataclasses.replace(fresh) and fresh.parts == dataclasses.replace(fresh).parts
    for copied in (pickle.loads(pickle.dumps(decompose(t))), copy.deepcopy(decompose(t))):
        assert copied._record is not None and repr(copied) == repr(eager)
        for p, q in zip(copied.parts, eager.parts):
            assert (p.s, p.J) == (q.s, q.J)
            assert np.array_equal(p.deviator, q.deviator) and np.array_equal(p.embedded, q.embedded)


def test_repr_prints_the_counts_and_builds_no_part(monkeypatch):
    # the parts' arrays of an order-7 decomposition print as 18.5 MB of text
    d = decompose(np.random.default_rng(67).standard_normal((3,) * 7))
    built = counting_part_constructions(monkeypatch)
    text = repr(d)
    assert built == [] and len(text) < 200
    assert text == f"Decomposition(order=7, counts={d.counts()})"
    assert list(d.counts()) == list(range(8))  # keyed by ascending s
    assert repr(Decomposition(7, d.parts)) == text


@pytest.mark.parametrize("load", [False, True])
def test_in_place_edit_of_a_deviator_reaches_verify(load):
    t = np.random.default_rng(66).standard_normal((3,) * 5)
    d = decompose(t)
    if load:  # a file that gives its images, which are checked and dropped
        d = decomposition_from_json(json_with_images(d))
    k = next(i for i, p in enumerate(d.parts) if p.s == 3)
    assert verify(d, t).part_symmetry[k] <= 1e-14
    d.parts[k].deviator[0, 1, 2] += np.linalg.norm(d.parts[k].deviator)
    assert d._record is not None  # verify still reads the record
    assert d._record.tie == 0.0  # the images were the embeddings of the deviators
    report = verify(d, t)
    assert report.part_symmetry[k] > 1e-3 and not report.passes(1e-10)
    assert max(np.delete(report.part_symmetry, k)) <= 1e-14


def reference_reconstruct(d):
    """The per-part loop that the row sum replaced, in the order of the rows."""
    total = np.zeros((3,) * d.order)
    for i in np.argsort(_plan(d.order).row_of):
        total += d.parts[i].embedded
    return total


@pytest.mark.parametrize("order", range(9))
def test_reconstruct_matches_per_part_loop(order):
    """The sum is E_{n-1}^T of the slice sums, applied level by level above
    the dense base (over two levels at order 8): the images' sum to
    rounding.  Every form of the same deviators sums alike, bit for bit: a
    hand-built copy, a pickled copy and, up to order 6, a file that gives
    its images."""
    d = decompose(np.random.default_rng(63 + order).standard_normal((3,) * order))
    loop = reference_reconstruct(d)
    assert frobenius_norm(reconstruct(d) - loop) <= 10 * np.finfo(float).eps * frobenius_norm(loop)
    forms = [eager_copy(d), pickle.loads(pickle.dumps(d))]
    if order <= 6:
        forms.append(decomposition_from_json(json_with_images(d)))
    for form in forms:
        assert reconstruct(form).tobytes() == reconstruct(d).tobytes()


def coordinates(t):
    """The coordinates c = E_n t / lambda of ``decompose``, in slot order."""
    return _apply(t.reshape(1, -1), t.ndim)[0] / _plan(t.ndim).lam


def dense_coordinates(t):
    """``coordinates`` with one level of ``_plan`` over one dense product
    with E_{n-1}."""
    plan = _plan(t.ndim)
    y = np.dot(t.reshape(3, -1), _change_of_basis(t.ndim - 1).T).T.ravel()
    z = np.empty_like(y)
    for g in plan.groups:
        shape = (g.parents, 3 * g.width)
        np.dot(y[g.coords].reshape(shape), g.to_children, out=z[g.coords].reshape(shape))
    return z[plan.position_of] / plan.lam


def dense_sum(c, n):
    """``_sum`` of the coordinates ``c`` with one level of ``_plan`` over
    one dense product with E_{n-1}."""
    plan = _plan(n)
    c = c[plan.row_at]
    y = np.empty(3**n)
    for g in plan.groups:
        shape = (g.parents, 3 * g.width)
        np.dot(c[g.coords].reshape(shape), g.to_children.T, out=y[g.coords].reshape(shape))
    return np.dot(y.reshape(-1, 3).T, _change_of_basis(n - 1)).reshape((3,) * n)


@pytest.mark.parametrize("order", range(1, 9))
def test_factored_levels_match_the_dense_change_of_basis(order):
    """Above the dense base, E_n and its transpose are applied level by
    level: the coordinates and the sum match one level over one dense
    product with E_{n-1} to 1e-13 relative, and at the first order above
    the dense base they are that product, bit for bit.  Up to the dense
    base they are one product with E_n itself."""
    t = np.random.default_rng(80 + order).standard_normal((3,) * order)
    c, want = coordinates(t), dense_coordinates(t)
    total = _sum(c, order)
    want_total = dense_sum(c, order)
    if order == decomposition._DENSE_BASE + 1:
        assert c.tobytes() == want.tobytes()
        assert total.tobytes() == want_total.tobytes()
    if order <= decomposition._DENSE_BASE:
        rows = _change_of_basis(order)
        assert c.tobytes() == (np.dot(t.reshape(1, -1), rows.T)[0] / _plan(order).lam).tobytes()
        assert total.tobytes() == np.dot(c.reshape(1, -1), rows).reshape(t.shape).tobytes()
    assert np.linalg.norm(c - want) <= 1e-13 * np.linalg.norm(want)
    assert frobenius_norm(total - want_total) <= 1e-13 * frobenius_norm(want_total)


def test_repeated_counts_row_holds_no_memory():
    # a tuple built by resizing is never taken back from CPython's per-size
    # free lists of freed tuples, so uncached calls would hold ~0.5 MB
    for n in range(2, 8):
        counts_row(n)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        for _ in range(1000):
            for n in range(2, 8):
                counts_row(n)
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert after - before < 16 * 2**10


def reference_part_residuals(d):
    """The per-part symmetry and trace loop that the batched residuals replaced."""
    sym, trace = [], []
    for p in d.parts:
        dev = p.deviator
        dn = np.linalg.norm(dev.ravel())
        if p.s >= 2 and dn > 0.0:
            sym.append(np.linalg.norm((dev - symmetrize(dev)).ravel()) / dn)
            trace.append(np.linalg.norm(np.trace(dev, axis1=0, axis2=1).ravel()) / dn)
        else:
            sym.append(0.0)
            trace.append(0.0)
    return sym, trace


@pytest.mark.parametrize("order", range(8))
def test_part_residuals_match_per_part_loop(order):
    rng = np.random.default_rng(420 + order)
    d = decompose(rng.standard_normal((3,) * order))
    # spoil every third deviator of order >= 2 and zero another
    changes = {}
    for k, p in enumerate(d.parts):
        if p.s >= 2 and k % 3 == 0:
            noise = rng.standard_normal(p.deviator.shape) * 10.0 ** rng.integers(-8, 0)
            changes[k] = (p.deviator + noise * np.linalg.norm(p.deviator), p.embedded)
        elif p.s >= 2 and k % 3 == 1:
            changes[k] = (np.zeros_like(p.deviator), p.embedded)
    spoiled = with_parts(d, changes)
    for case in (d, spoiled):
        report = verify(case, reconstruct(case))
        want_sym, want_trace = reference_part_residuals(case)
        assert np.max(np.abs(np.subtract(report.part_symmetry, want_sym)), initial=0.0) <= 1e-13
        assert np.max(np.abs(np.subtract(report.part_trace, want_trace)), initial=0.0) <= 1e-13
    if any(k % 3 == 0 for k in changes):
        assert not verify(spoiled, reconstruct(spoiled)).passes(1e-10)


def test_verify_rejects_a_deviator_of_the_wrong_order():
    d = decompose(np.random.default_rng(46).standard_normal((3,) * 4))
    k = next(i for i, p in enumerate(d.parts) if p.s == 2)
    bad = with_parts(d, {k: (np.zeros(9), d.parts[k].embedded)})
    with pytest.raises(ValueError, match="axes must all have length 3"):
        verify(bad, reconstruct(d))
    bad = with_parts(d, {k: (np.zeros((3, 3, 3)), d.parts[k].embedded)})
    with pytest.raises(ValueError, match="expected an order-2 tensor, got order 3"):
        verify(bad, reconstruct(d))


@pytest.mark.parametrize("order", [2, 4, 7])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_verify_rejects_a_deviator_that_is_not_finite(order, bad):
    """A deviator of any order s with a NaN or infinite entry, edited in
    place or built by hand, has symmetry and trace residual inf, and
    ``verify`` warns nothing."""
    t = np.random.default_rng(450 + order).standard_normal((3,) * order)
    for s in sorted({0, 1, 2, order}):
        d = decompose(t)
        k = next(i for i, p in enumerate(d.parts) if p.s == s)
        built = with_parts(d, {k: (np.full(d.parts[k].deviator.shape, bad), d.parts[k].embedded)})
        d.parts[k].deviator[...] = bad
        for case in (d, built):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                report = verify(case, t)
            assert report.part_symmetry[k] == report.part_trace[k] == np.inf, s
            others = np.delete(report.part_symmetry + report.part_trace, [k, k + len(d.parts)])
            assert max(others) <= 1e-14
            assert not report.passes(1e-10)


def mix_first_and_last(d):
    """Copy of ``d`` with the first image mixed with the last: the sum and
    the deviators stay as they were."""
    first, last = d.parts[0], d.parts[-1]
    return with_parts(
        d,
        {
            0: (first.deviator, first.embedded + 0.3 * last.embedded),
            len(d.parts) - 1: (last.deviator, 0.7 * last.embedded),
        },
    )


@pytest.mark.parametrize("exponent", [-300, -250, -200, -150, -100, 0, 100, 150, 200, 250, 300])
def test_verify_is_scale_invariant(exponent):
    t = np.random.default_rng(47).standard_normal((3,) * 4)
    unit_d = decompose(t)
    unit = verify(unit_d, t)
    unit_mixed = verify(mix_first_and_last(unit_d), t)
    scale = 10.0**exponent
    d = decompose(scale * t)
    report = verify(d, scale * t)
    assert report.passes(1e-10)
    assert report.reconstruction_residual <= 1e-13 * scale * np.linalg.norm(t.ravel())
    for got, want in ((report, unit), (verify(mix_first_and_last(d), scale * t), unit_mixed)):
        assert abs(got.reconstruction_relative - want.reconstruction_relative) <= 1e-14
        assert abs(got.max_cross_correlation - want.max_cross_correlation) <= 1e-13
        assert np.max(np.abs(np.subtract(got.part_symmetry, want.part_symmetry))) <= 1e-14
        assert np.max(np.abs(np.subtract(got.part_trace, want.part_trace))) <= 1e-14
    assert not verify(mix_first_and_last(d), scale * t).passes(1e-10)


@st.composite
def spoiled_deviators(draw):
    """The deviators of a random tensor of order 2..7, in the layout of
    ``decompose``, with noise of relative size 10^-12..1 added to some and
    others set to zero, and a power of two 2^k, k in [-900, 900]."""
    order = draw(st.integers(2, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spoil, zero = draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 0.5))
    d = decompose(rng.standard_normal((3,) * order))
    deviators = []
    for p in d.parts:
        x, u = p.deviator.copy(), rng.random()
        if u < zero:
            x[...] = 0.0
        elif u < zero + spoil:
            noise = rng.standard_normal(x.shape) * 10.0 ** rng.uniform(-12.0, 0.0)
            x += noise * np.linalg.norm(x)
        deviators.append(x)
    return d, deviators, draw(st.integers(-900, 900))


def from_deviators(d, deviators):
    """A record of these deviators in the layout of ``d``, as a file read
    without images holds it."""
    orders, labels = _plan(d.order)[:2]
    return _from_record(d.order, _stacked(d.order, orders, labels, deviators))


@settings(max_examples=40, deadline=None)
@given(spoiled_deviators())
def test_part_residuals_are_products_that_match_the_loop(case):
    d, deviators, k = case
    spoiled = from_deviators(d, deviators)
    report = verify(spoiled, reconstruct(spoiled))
    want_sym, want_trace = reference_part_residuals(spoiled)
    assert np.max(np.abs(np.subtract(report.part_symmetry, want_sym))) <= 1e-13
    assert np.max(np.abs(np.subtract(report.part_trace, want_trace))) <= 1e-13
    # the residuals are taken on exactly scaled rows: 2^k changes no bit
    scaled = [np.ldexp(x, k) for x in deviators]
    tiny = np.finfo(float).tiny
    if any(((x != 0.0) & (np.abs(x) < tiny)).any() for x in deviators + scaled):
        return
    moved = from_deviators(d, scaled)
    with np.errstate(over="ignore"):
        moved_report = verify(moved, reconstruct(moved))
    assert moved_report.part_symmetry == report.part_symmetry
    assert moved_report.part_trace == report.part_trace


def spoiled_copy(d, rng):
    """The deviators of ``d``, with noise of relative size 10^-12..1 added to
    every third and every fifth set to zero."""
    deviators = []
    for k, p in enumerate(d.parts):
        x = p.deviator.copy()
        if k % 5 == 1:
            x[...] = 0.0
        elif k % 3 == 0:
            x += rng.standard_normal(x.shape) * 10.0 ** rng.uniform(-12.0, 0.0) * np.linalg.norm(x)
        deviators.append(x)
    return deviators


@pytest.mark.parametrize("order", range(9))
def test_a_part_that_is_not_finite_leaves_the_others_as_they_are(order):
    """A NaN or +-inf in the first or the last entry of one part makes that
    part's symmetry and trace residuals inf and leaves every other part's
    bit for bit, without a warning: the one pass over all entries sums no
    orbit, trace or norm across two parts.  The parts tried are the first
    and the last of each deviator order, the neighbours of other orders in
    the pass."""
    t = np.random.default_rng(1300 + order).standard_normal((3,) * order)
    d = decompose(t)
    clean = [p.deviator.copy() for p in d.parts]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        want = verify(from_deviators(d, clean), t)
    for s, index, _, _ in _plan(order).deviators:
        for k in sorted({int(index[0]), int(index[-1])}):
            for bad in (np.nan, np.inf, -np.inf):
                for entry in (0, -1):
                    deviators = [x.copy() for x in clean]
                    deviators[k].reshape(-1)[entry] = bad
                    with warnings.catch_warnings():
                        warnings.simplefilter("error")
                        got = verify(from_deviators(d, deviators), t)
                    assert got.part_symmetry[k] == got.part_trace[k] == np.inf, (s, k, bad, entry)
                    others = [i for i in range(len(clean)) if i != k]
                    assert [got.part_symmetry[i] for i in others] == [want.part_symmetry[i] for i in others]
                    assert [got.part_trace[i] for i in others] == [want.part_trace[i] for i in others]


def gamma(m, u=2.0**-53):
    return m * u / (1 - m * u)


@pytest.mark.parametrize("order", range(9))
def test_part_norms_round_as_the_certificate_assumes(order):
    """``_part_norms`` of the coordinates c of ``decompose`` output and of
    spoiled deviators is within gamma_{w_i+1} |c_i| of |c_i| taken in long
    double (w_i = 2s+1), the rounding that ``_coefficient_bounds`` puts in
    low_i and high_i; the reference's own rounding, gamma_{w_i+1} at the
    unit roundoff of long double, is allowed for too.  A part times its own
    2^k has its norm times 2^k, bit for bit."""
    rng = np.random.default_rng(1400 + order)
    d = decompose(rng.standard_normal((3,) * order))
    plan = _plan(order)
    ours = np.finfo(np.longdouble).eps / 2
    for case in (d, from_deviators(d, spoiled_copy(d, rng))):
        c = _deviator_coordinates(plan, case._record.stacks, order)
        norms = _part_norms(c * c, order)
        want = np.empty(len(norms), dtype=np.longdouble)
        width, shift = np.empty((2, len(norms)))
        scaled = c.copy()
        for s, index, rows, _ in plan.deviators:
            block = c[rows].reshape(len(index), -1)
            want[plan.row_of[index]] = np.sqrt(np.sum(block.astype(np.longdouble) ** 2, axis=1))
            width[plan.row_of[index]] = 2 * s + 1
            k = rng.integers(-400, 400, len(index))
            shift[plan.row_of[index]] = k
            scaled[rows] = np.ldexp(block, k[:, None]).ravel()
        allowed = (gamma(width + 1) + gamma(width + 1, ours)) / (1 - gamma(width + 1, ours)) * want
        assert (np.abs(norms - want) <= allowed).all()
        assert (norms > 0.0).sum() == (want > 0.0).sum() > 0
        moved = _part_norms(scaled * scaled, order)
        assert moved.tobytes() == np.ldexp(norms, shift.astype(int)).tobytes()


@pytest.mark.parametrize("order", range(2, 9))
def test_verify_reads_no_dense_orbit_basis(order):
    """The part residuals take orbit sums over the index of ``_entries``,
    not products with the dense orbit bases M_s: with the plan built and
    the cache of ``core._orbit_basis`` cleared, ``verify`` leaves it empty."""
    t = np.random.default_rng(1500 + order).standard_normal((3,) * order)
    d = decompose(t)
    _plan(order)
    _orbit_basis.cache_clear()
    assert verify(d, t).passes(1e-10)
    assert _orbit_basis.cache_info().currsize == 0


def test_the_entry_index_is_small():
    """The cached index of the one-pass checks holds at most 0.3 MB at
    order 7 and 1.2 MB at order 8."""
    def held(n):
        return sum(a.nbytes for a in _entries(n))
    assert held(7) <= 0.3e6 and held(8) <= 1.2e6


# Known scale defects: the engine computes on the raw values, not under the
# scale policy of ``core``.  Each case is a strict xfail, so the change that
# mends it must drop the mark.
@pytest.mark.xfail(strict=True, raises=RuntimeWarning, reason="the engine overflows near 1e308")
@pytest.mark.parametrize("order", [3, 4, 7])
def test_decompose_does_not_overflow_at_the_float_limit(order):
    t = np.random.default_rng(3).standard_normal((3,) * order)
    u = t * (1e308 / np.max(np.abs(t)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        d = decompose(u)
    report = verify(d, u)
    assert report.passes(1e-10)


@pytest.mark.xfail(
    strict=True, raises=AssertionError, reason="vanishing parts hold subnormal noise"
)
@pytest.mark.parametrize("scale", [1e-300, 1e-310])
@pytest.mark.parametrize("order", [3, 4, 7])
def test_symmetric_tensors_pass_verify_at_tiny_scales(order, scale):
    u = scale * symmetrize(np.random.default_rng(3).standard_normal((3,) * order))
    report = verify(decompose(u), u)  # a failed assert shows the report, not all parts
    assert report.passes(1e-10)


# Random tensors at 1e-310 have subnormal entries.  The certificate counts
# the largest rounding of every subnormal image entry, which at orders 7 and
# 8 takes the bound over 1e-10 (1.14e-10 and 2.64e-10); up to order 6 it
# stays at or below 3.6e-11.
@pytest.mark.parametrize("order", [2, 3, 4, 5, 6] + [
    pytest.param(n, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError, reason="the subnormal rounding term exceeds 1e-10"
    )) for n in (7, 8)
])
def test_random_tensors_pass_verify_at_a_subnormal_scale(order):
    u = 1e-310 * np.random.default_rng(7 + order).standard_normal((3,) * order)
    report = verify(decompose(u), u)  # a failed assert shows the report, not all parts
    assert report.passes(1e-10)


def exact_cross_correlation(rows):
    """Largest |cos| between distinct nonzero rows, each first divided
    exactly by a power of two: in long double up to 3^6 columns, above that
    one float64 product of the unit rows."""
    rows = rows[np.max(np.abs(rows), axis=1) > 0.0]
    rows = np.ldexp(rows, -np.frexp(np.max(np.abs(rows), axis=1))[1][:, None])
    if rows.shape[1] <= 3**6:
        rows = rows.astype(np.longdouble)
    unit = rows / np.sqrt(np.einsum("ij,ij->i", rows, rows))[:, None]
    cos = np.abs(unit @ unit.T)
    np.fill_diagonal(cos, 0.0)
    return float(cos.max()) if len(rows) > 1 else 0.0


def certified(report):
    """What ``verify`` reports from ``_certified_cross_correlation``."""
    return report.max_cross_correlation, report.max_embedding_residual


# kappa_s, and so the tightness of the bound, rests on long double's wider significand
WIDE_LONG_DOUBLE = np.finfo(np.longdouble).eps < np.finfo(float).eps


def certificate(record, n):
    """``_certified_cross_correlation`` of the order-n ``record``, on the
    coordinates of its deviators that ``verify`` passes it."""
    return _certified_cross_correlation(record, n, _deviator_coordinates(_plan(n), record.stacks, n))


@pytest.mark.parametrize("order", range(9))
def test_certified_bound_is_above_the_exact_value(order):
    """The bound is at or above the exact value of the images that
    ``parts`` builds, for random and symmetric tensors at every scale, and
    within 1e-13 of it except for a symmetric tensor at 1e-300: ``verify``
    fails it, a known defect (its vanishing parts hold subnormal rounding
    noise, whose built images are far from orthogonal).  The order-8 bound
    is that tight only where long double is wider than float64: elsewhere
    kappa_7 is 6.1e-14 and the bound about 1.0e-13.  At 2^900 and
    2^-900 the squared coordinates leave ``_GRAM_RANGE``, and the bound is
    the one at scale 1, bit for bit."""
    t = np.random.default_rng(480 + order).standard_normal((3,) * order)
    for u in (t, symmetrize(t)) if order >= 2 else (t,):
        in_range = certificate(decompose(u)._record, order)[0]
        for scale in (1e-300, 1.0, 1e300, 2.0**900, 2.0**-900):
            d = decompose(scale * u)
            bound = certificate(d._record, order)[0]
            exact = exact_cross_correlation(image_rows(d))
            assert exact <= bound, scale
            if (u is t or scale != 1e-300) and (WIDE_LONG_DOUBLE or order < 8):
                assert bound <= exact + 1e-13, scale
            if np.frexp(scale)[0] == 0.5:
                assert bound == in_range, scale


@pytest.mark.parametrize("order", range(8))
def test_image_norm_bounds_bound_each_image(order):
    """The bound of each image norm from its coordinate norm alone holds for
    the image ``parts`` builds, row for row, up to the rounding of the
    image and of its norm (a few ulp), and is within 1e-12 of it."""
    d = decompose(np.random.default_rng(496 + order).standard_normal((3,) * order))
    bounds = _image_norm_bounds(d._record.stacks, order)
    norms = np.linalg.norm(_rows_of(d._record, order), axis=1)
    assert np.all(norms <= (1.0 + 1e-14) * bounds) and np.all(bounds <= (1.0 + 1e-12) * norms)


def random_and_symmetric(order):
    """A random order-n tensor and, from order 2, its symmetrization, most
    of whose parts are zero or rounding noise, 1e-19 to 1e-37 of the largest."""
    t = np.random.default_rng(495 + order).standard_normal((3,) * order)
    return (t, symmetrize(t)) if order >= 2 else (t,)


@pytest.mark.parametrize("order", range(9))
def test_one_largest_cosine_per_parent_keeps_the_bound(order):
    """The bound from one largest sibling cosine per parent order, kappa_s,
    in place of the data is at or above the exact value of the images of
    ``decompose`` output."""
    for u in random_and_symmetric(order):
        d = decompose(u)
        assert verify(d, u).max_cross_correlation >= exact_cross_correlation(image_rows(d))


@pytest.mark.parametrize("order", range(2, 9))
def test_decompose_output_bound_is_a_constant_of_the_order(order):
    """With kappa_s in place of the data, ``decompose`` output of a random
    tensor and of its symmetrization gets the same bound, bit for bit."""
    assert len({verify(decompose(u), u).max_cross_correlation for u in random_and_symmetric(order)}) == 1


def child_blocks(s):
    """The (w_i, 3w) rows F_i of ``_regroup(s)`` of each child i of an
    order-s slot, and the group of ``_plan(s + 1)`` whose parents have order s."""
    f = _regroup(s).reshape(3 * (2 * s + 1), -1)
    blocks = np.split(f, np.cumsum([2 * c + 1 for c in (s - 1, s, s + 1)])[:-1])
    group = next(g for g in _plan(s + 1).groups if g.width == 2 * s + 1)
    return blocks, group


def exact_cos(a, b):
    """|a . b| / (|a| |b|) of two double vectors, in 50-digit arithmetic."""
    a, b = (mpmath.matrix(x.tolist()) for x in (a, b))
    with mpmath.workdps(50):
        return float(abs(mpmath.fdot(a, b)) / (mpmath.norm(a) * mpmath.norm(b)))


@pytest.mark.parametrize("s", range(1, 6))
def test_sibling_constant_bounds_every_coefficient_cosine(s):
    """kappa_s is at or above the 50-digit |F_i F_j^T|_2 / (sigma_min(F_i)
    sigma_min(F_j)) of the double F_s, and at or above the exact cos of the
    coefficients a_i = fl(c_i F_i) that ``_images`` forms (the plan's
    ``to_images``), for the singular vectors of F_i F_j^T and for random
    c; low_i |c_i| <= |a_i| <= high_i |c_i| for all of them."""
    kappa, low, high = _coefficient_bounds(s)
    blocks, group = child_blocks(s)
    with mpmath.workdps(50):
        # squared singular values: the eigenvalues of X X^T (mpmath's SVD
        # need not converge on a matrix as close to zero as F_i F_j^T)
        def squared(x):
            x = mpmath.matrix(x.tolist())
            return mpmath.eigsy(x * x.T, eigvals_only=True)

        smallest = [min(squared(b)) for b in blocks]
        for i, j in [(0, 1), (0, 2), (1, 2)]:
            cross = mpmath.matrix(blocks[i].tolist()) * mpmath.matrix(blocks[j].T.tolist())
            largest = max(mpmath.eigsy(cross * cross.T, eigvals_only=True))
            assert float(mpmath.sqrt(largest / (smallest[i] * smallest[j]))) <= kappa
    widths = [len(b) for b in blocks]
    rng = np.random.default_rng(520 + s)
    cases = [rng.standard_normal(sum(widths)) * 2.0 ** rng.integers(-8, 9, sum(widths)) for _ in range(30)]
    for i, j in [(0, 1), (0, 2), (1, 2)]:
        u, _, vt = np.linalg.svd(blocks[i] @ blocks[j].T)
        for k in range(min(widths[i], widths[j])):
            c = np.zeros(sum(widths))
            c[sum(widths[:i]) : sum(widths[: i + 1])] = u[:, k]
            c[sum(widths[:j]) : sum(widths[: j + 1])] = vt[k]
            cases.append(c)
    for c in cases:
        a = np.dot(c, group.to_images).reshape(3, -1)
        for i, j in [(0, 1), (0, 2), (1, 2)]:
            if a[i].any() and a[j].any():
                assert exact_cos(a[i], a[j]) <= kappa
        norms = [np.linalg.norm(x) for x in np.split(c, np.cumsum(widths)[:-1])]
        assert np.all(low * norms <= np.linalg.norm(a, axis=1))
        assert np.all(np.linalg.norm(a, axis=1) <= high * norms)


@st.composite
def any_deviators(draw):
    """A record of order 1..6 whose parts hold random rows, some off the
    deviator space and some zero, each multiplied by its own 2^k, k in
    [-600, 600], or in [-1080, 600], where the images of the smallest
    parts are subnormal or zero."""
    order = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    off, zero = draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 0.3))
    lowest = draw(st.sampled_from([-600, -1080]))
    stacks = []
    for s, index, _, _ in _plan(order).deviators:
        deviators = np.stack([random_deviator(rng, s).ravel() for _ in index])
        rows = np.where(rng.random((len(index), 1)) < off, rng.standard_normal(deviators.shape), deviators)
        rows[rng.random(len(index)) < zero] = 0.0
        stacks.append((s, index, np.ldexp(rows, rng.integers(lowest, 601, len(index))[:, None])))
    return order, _Record(tuple(stacks), 0.0)


@settings(max_examples=60, deadline=None)
@given(any_deviators())
def test_certificate_bounds_the_images_of_any_deviators(case):
    """The bound takes no product over the data, so it holds for any
    deviators: the exact cos of the images that ``parts`` builds is at or
    below it for random rows, rows off the deviator space (whose images are
    those of their coordinates) and zero rows, at per-part scales."""
    order, record = case
    assert exact_cross_correlation(_rows_of(record, order)) <= certificate(record, order)[0]


@pytest.mark.parametrize("order", range(9))
def test_verify_reports_the_certificate_at_every_order(order):
    """For ``decompose`` output of random and symmetric tensors ``verify``
    reports the certificate's bound and tie at every order, and the tie is
    rounding alone."""
    for seed in range(3 if order < 8 else 1):
        t = np.random.default_rng(490 + 10 * order + seed).standard_normal((3,) * order)
        for u in (t, symmetrize(t)):
            d = decompose(u)
            report = verify(d, u)
            assert certified(report) == certificate(d._record, order)
            assert report.max_embedding_residual <= 1e-14
            assert report.passes(1e-10)


def test_zero_images_are_left_out_of_the_certificate():
    # the images of a symmetric tensor's non-symmetric parts are exactly zero
    t = symmetrize(np.random.default_rng(491).standard_normal((3,) * 7))
    d = decompose(t)
    assert np.count_nonzero(~image_rows(d).any(axis=1)) > 0
    report = verify(d, t)
    exact = exact_cross_correlation(image_rows(d))
    assert certified(report) == certificate(d._record, 7)
    assert exact <= report.max_cross_correlation <= exact + 1e-13
    assert report.passes(1e-10)


def test_in_place_mix_fails_the_embedding_tie():
    t = np.random.default_rng(492).standard_normal((3,) * 7)
    # hand-built parts hold arrays of their own, and each read stacks them
    d = eager_copy(decompose(t))
    d.parts[0].embedded[...] += 0.3 * d.parts[-1].embedded
    d.parts[-1].embedded[...] *= 0.7
    report = verify(d, t)
    assert report.max_embedding_residual == _record_of(d).tie > 1e-3
    assert report.max_cross_correlation >= exact_cross_correlation(image_rows(d)) > 1e-3
    assert report.reconstruction_relative <= 1e-12 and not report.passes(1e-10)


def untied(t):
    """Decompositions of ``t`` with an image that is not its deviator's
    embedding, each with the tensor its deviators sum to: the s = 0 and
    s = n images swapped, two s = 1 images of different J swapped, one
    deviator doubled (of order 2, or the one part at order 1) and the s = n
    image zeroed.  Each is hand-built, since the images of a record are
    read-only."""
    n = t.ndim
    cases = {}
    if n >= 2:
        d = eager_copy(decompose(t))
        low, high = (next(p for p in d.parts if p.s == s).embedded for s in (0, n))
        low[...], high[...] = high.copy(), low.copy()
        cases["s = 0 and s = n swapped"] = (d, t)
    if n >= 3:
        d = eager_copy(decompose(t))
        a, b = [p.embedded for p in d.parts if p.s == 1][:2]
        a[...], b[...] = b.copy(), a.copy()
        cases["J swapped"] = (d, t)
    d = eager_copy(decompose(t))
    next(p for p in d.parts if p.s == min(n, 2)).deviator[...] *= 2.0
    cases["deviator doubled"] = (d, reconstruct(d))
    d = eager_copy(decompose(t))
    next(p for p in d.parts if p.s == n).embedded[...] = 0.0
    cases["s = n zeroed"] = (d, t)
    return cases


@pytest.mark.parametrize("order", range(1, 9))
def test_certificate_ties_each_image_to_its_deviator(order):
    """Images that are orthogonal, but of which one is not the embedding of
    its stored deviator, fail ``verify`` through the tie at every order,
    with deviators that sum to the tensor; a pickled copy, a file written
    from it (which keeps the tie, or is refused for a tie of inf, as a
    value that is not finite) and, up to order 6, a file that gives the
    images report exactly what the original reports.  ``decompose`` output
    holds no image to untie: a deviator doubled in place moves its image,
    so the sum fails."""
    t = np.random.default_rng(497 + order).standard_normal((3,) * order)
    for name, (d, reference) in untied(t).items():
        assert exact_cross_correlation(image_rows(d)) <= 1e-10, name
        report = verify(d, reference)
        assert report.reconstruction_relative <= 1e-12, name
        assert report.max_embedding_residual > 1e-3 and not report.passes(1e-10), name
        copies = [pickle.loads(pickle.dumps(d))]
        if report.max_embedding_residual < np.inf:
            copies.append(decomposition_from_json(decomposition_to_json(d)))
        else:
            with pytest.raises(ValueError, match="cannot serialize non-finite value inf"):
                decomposition_to_json(d)
        if order <= 6:  # an order-7 file with images takes about 1 s to write and read
            copies.append(decomposition_from_json(json_with_images(d)))
        for other in copies:
            assert other._record.tie == report.max_embedding_residual, name
            assert verify(other, reference) == report, name
    d = decompose(t)
    next(p for p in d.parts if p.s == min(order, 2)).deviator[...] *= 2.0
    report = verify(d, t)
    assert report.reconstruction_relative > 1e-3 and not report.passes(1e-10)


@pytest.mark.parametrize("order", [4, 7])
def test_only_an_exactly_zero_image_is_a_zero_image(order):
    """An image whose squared norm underflows to 0 is not left out, so each
    case gives one verdict in any units: part 1 scaled with its deviator to
    1e-170 of its size is still tied to its deviator and passes, and a copy
    of image 0 at 1e-170 of its size is parallel to image 0 and fails.  In
    ``decompose`` output, scaling the deviator scales the image with it."""
    t = np.random.default_rng(495 + order).standard_normal((3,) * order)
    for scale in (1.0, 1e100, 1e-100):
        d = decompose(scale * t)
        d.parts[1].deviator[...] *= 1e-170
        report = verify(d, reconstruct(d))
        assert report.max_embedding_residual <= 1e-14 and report.passes(1e-10), scale
        d = eager_copy(decompose(scale * t))
        d.parts[1].deviator[...] *= 1e-170
        d.parts[1].embedded[...] *= 1e-170
        report = verify(d, reconstruct(d))
        assert report.max_embedding_residual <= 1e-14 and report.passes(1e-10), scale
        d.parts[1].embedded[...] = 1e-170 * d.parts[0].embedded
        assert exact_cross_correlation(image_rows(d)) == pytest.approx(1.0, abs=1e-12), scale
        assert not verify(d, reconstruct(d)).passes(1e-10), scale


@pytest.mark.parametrize("order", range(9))
def test_record_and_row_paths_agree(order):
    """``decompose`` output, the forms that give its images (a hand-built
    copy and, up to order 6, a file with images), a pickled copy and a file
    without images all hold tie 0 and report the same, field for field, at
    every scale: there is one certificate path.  A symmetric tensor at
    1e-300 is the known failure from order 3 (ROADMAP item 3): its bound
    stays at or above the exact value of the images ``parts`` builds."""
    base = np.random.default_rng(500 + order).standard_normal((3,) * order)
    for u in (base, symmetrize(base)):
        for scale in (1e-300, 1.0, 1e300):
            t = scale * u
            d = decompose(t)
            report = verify(d, t)
            forms = [
                eager_copy(d),
                pickle.loads(pickle.dumps(d)),
                decomposition_from_json(decomposition_to_json(d)),
            ]
            if order <= 6:
                forms.append(decomposition_from_json(json_with_images(d)))
            for other in forms:
                assert _record_of(other).tie == 0.0
                assert verify(other, t) == report
            known = u is not base and scale == 1e-300 and order >= 3
            assert exact_cross_correlation(image_rows(d)) <= report.max_cross_correlation
            assert report.passes(1e-10) != known


@pytest.mark.parametrize("kind", ["pickle", "deepcopy", "replace"])
def test_copies_report_what_their_original_reports(kind):
    """A copy reports what its original reports, field for field: pickle
    and deepcopy keep the record, and ``dataclasses.replace`` stacks the
    same deviators with tie 0.  A mix of two of its images, by hand, fails."""
    t = np.random.default_rng(493).standard_normal((3,) * 7)
    d = decompose(t)
    c = COPIES[kind](d)
    original = verify(d, t)
    report = verify(c, t)
    assert report == original and original.passes(1e-10)
    assert certified(report) == certificate(_record_of(c), 7)
    exact = exact_cross_correlation(image_rows(d))
    assert exact <= report.max_cross_correlation <= exact + 1e-13
    mixed = mix_first_and_last(c)
    assert not verify(mixed, reconstruct(mixed)).passes(1e-10)


def test_loaded_and_hand_built_parts_are_certified_as_decompose_output(tmp_path):
    """Parts built by hand in the layout of ``decompose``, and a file that
    gives their images, are stacked into the record of ``decompose``
    output with tie 0, so they are certified as it is."""
    t = np.random.default_rng(496).standard_normal((3,) * 7)
    d = decompose(t)
    original = verify(d, t)
    assert certified(original) == certificate(d._record, 7)
    built = Decomposition(7, tuple(d.parts))
    (tmp_path / "d.json").write_text(json_with_images(built))
    loaded = load_decomposition(tmp_path / "d.json")
    for other in (loaded, built):
        assert _record_of(other).tie == 0.0
        assert verify(other, t) == original


def other_layouts(d):
    """Copies of ``d`` (``dataclasses.replace``) whose parts are in another
    layout than that of ``decompose``, by name."""
    parts = d.parts
    k, k2 = [i for i, p in enumerate(parts) if p.s == 2][:2]
    relabelled = IrreduciblePart(2, len(parts), parts[k].deviator, parts[k].embedded)
    cases = {
        "moved": parts[1:] + parts[:1],
        "dropped": parts[:-1],
        "duplicated": parts[:k2] + (parts[k],) + parts[k2 + 1 :],
        "relabelled": parts[:k] + (relabelled,) + parts[k + 1 :],
        "no parts": (),
    }
    return {name: dataclasses.replace(d, parts=other) for name, other in cases.items()}


@pytest.mark.parametrize("order", [4, 7])
def test_other_layouts_are_an_input_error(order):
    """Parts in any other layout than that of ``decompose``, no parts
    included, raise one ``ValueError`` wherever they are read."""
    t = np.random.default_rng(494 + order).standard_normal((3,) * order)
    readers = [reconstruct, lambda d: verify(d, t), decomposition_to_json]
    if order == 4:
        readers.append(assemble_order4)
        for other in other_layouts(decompose(t[0])).values():  # order 3, as a list of parts
            with pytest.raises(ValueError, match=LAYOUT_ERROR):
                assemble_order3(list(other.parts))
    for other in other_layouts(decompose(t)).values():
        for read in readers:
            with pytest.raises(ValueError, match=LAYOUT_ERROR):
                read(other)


def test_the_count_check_refuses_a_claimed_order_before_its_plan(monkeypatch):
    """A file, or a hand-built decomposition, that claims order 12 but holds
    one order-2 part fails the layout check on its part count, before the
    plan of order 12 is asked for, by any reader."""
    asked = []
    plan = decomposition._plan

    def recording(n):
        asked.append(n)
        return plan(n)

    monkeypatch.setattr(decomposition, "_plan", recording)
    monkeypatch.setattr(serialization, "_plan", recording)
    deviator = np.zeros((3, 3))
    text = json.dumps({"order": 12, "parts": [
        {"s": 2, "J": 1, "deviator": {"order": 2, "components": deviator.ravel().tolist()}}
    ]})
    with pytest.raises(ValueError, match=r"'parts' is not in the \(s, J\) layout of decompose$"):
        decomposition_from_json(text)
    hand = Decomposition(12, (IrreduciblePart(2, 1, deviator, np.zeros((3,) * 12)),))
    readers = [_record_of, reconstruct, lambda d: verify(d, np.zeros((3,) * 12)), decomposition_to_json]
    for read in readers:
        with pytest.raises(ValueError, match=LAYOUT_ERROR):
            read(hand)
    assert asked == []


def whole_gram_defects(prev, widths):
    """lambda, delta and eta from the whole E E^T, block by block."""
    starts = np.cumsum([0] + widths)
    gram = prev @ prev.T

    def block(p, q):
        return gram[starts[p] : starts[p + 1], starts[q] : starts[q + 1]]

    lam = np.array([np.trace(block(p, p)) / w for p, w in enumerate(widths)])
    defect = np.array(
        [np.linalg.norm(block(p, p) - lam[p] * np.eye(w)) for p, w in enumerate(widths)]
    )
    sigma = lam - defect
    pairs = [(p, q) for p in range(len(widths)) for q in range(len(widths)) if p != q]
    eta = max(np.linalg.norm(block(p, q)) / np.sqrt(sigma[p] * sigma[q]) for p, q in pairs)
    return lam, defect / sigma, eta


@pytest.mark.parametrize("order", [3, 5, 7])
def test_span_defects_match_the_whole_gram(order, monkeypatch):
    """The products of the plan's group blocks find a coupling planted
    between two parents' rows of E_{n-1}: two parents of one group (from
    order 4, where a group first has two), parents of two groups, and the
    first and the last slot."""
    plan = _plan(order)
    true = _change_of_basis(order - 1)
    build = _change_of_basis
    # the slots of E_{n-1} in its row order, and the part index of each
    widths = [2 * s + 1 for s in sorted(part_orders(order - 1))]
    starts = np.cumsum([0] + widths)
    parents = np.argsort(slot_starts(order - 1))
    first_child = np.cumsum([0] + [1 if s == 0 else 3 for s in part_orders(order - 1)])
    for g in plan.groups:
        assert g.children == (1 if g.width == 1 else 3)
        assert g.coords == slice(3 * starts[g.slots.start], 3 * starts[g.slots.stop])
        assert g.parents == g.slots.stop - g.slots.start
        assert np.array_equal(g.blocks(true), true[starts[g.slots.start] : starts[g.slots.stop]].reshape(
            g.parents, g.width, -1))
        children = first_child[parents[g.slots]][:, None] + np.arange(g.children)
        rows = np.arange(g.images.start, g.images.stop).reshape(children.shape)
        assert np.array_equal(plan.row_of[children], rows)
    first, second = plan.groups[:2]
    pairs = [(first.slots.start, second.slots.stop - 1), (0, len(widths) - 1)]
    shared = [g for g in plan.groups if g.parents > 1]
    if shared:
        pairs.append((shared[0].slots.start, shared[0].slots.stop - 1))
    assert len(pairs) == (2 if order == 3 else 3)
    try:
        for p, q in pairs:
            prev = true.copy()
            prev[starts[p]] += 1e-6 * prev[starts[q]]
            # the group blocks are views of the planted copy of E_{n-1}
            monkeypatch.setattr(decomposition, "_change_of_basis",
                                lambda n: prev if n == order - 1 else build(n))
            lam, delta, eta = whole_gram_defects(prev, widths)
            _span_defects.cache_clear()
            got = _span_defects(order)
            assert got.eta == pytest.approx(eta, rel=1e-9)
            assert got.eta > 1e-7
            slack = (3 * np.array(widths) + 2) * np.finfo(float).eps
            assert_allclose(got.lam, lam, rtol=1e-14)
            assert_allclose(got.delta, delta + slack, rtol=1e-6, atol=1e-14)
    finally:
        _span_defects.cache_clear()


def slot_starts(n):
    """The first row of each part's slot in E_n, in part order: E_n takes
    its slots in order of s, and of J within each s."""
    orders = np.array(part_orders(n))
    widths = 2 * orders + 1
    by_slot = np.argsort(orders, kind="stable")
    starts = np.empty(len(orders), dtype=int)
    starts[by_slot] = np.cumsum(widths[by_slot]) - widths[by_slot]
    return starts


def reference_change_of_basis(n):
    """E built one basis deviator at a time through ``_forward``."""
    if n == 0:
        return np.ones((1, 1))
    prev = _change_of_basis(n - 1)
    rows = np.empty((3**n, 3**n))
    child_rows = iter(slot_starts(n).tolist())  # each slot's first row, in traversal order
    for s, p in zip(part_orders(n - 1), slot_starts(n - 1).tolist()):
        parent = prev[p : p + 2 * s + 1]
        to_parent = build_basis(s).flat.T
        for child in (1,) if s == 0 else (s - 1, s, s + 1):
            r = next(child_rows)
            for b in build_basis(child):
                rows[r] = ((_forward(s, child, b).reshape(3, -1) @ to_parent) @ parent).ravel()
                r += 1
    return rows


@pytest.mark.parametrize("order", range(8))
def test_change_of_basis_matches_per_deviator_forward_maps(order):
    np.testing.assert_array_equal(_change_of_basis(order), reference_change_of_basis(order))


def test_reconstruct_validates_order():
    d = decompose(np.zeros((3, 3)))
    bad = Decomposition(order=3, parts=d.parts)
    with pytest.raises(ValueError):
        reconstruct(bad)


# ---------------------------------------------------------------------------
# the factored change of basis: decompose and reconstruct apply E_n level by
# level over the dense base E_5 and build no E above it


def relative(got, want):
    return np.linalg.norm(np.ravel(got - want)) / np.linalg.norm(np.ravel(want))


@pytest.mark.parametrize("order", range(1, 8))
def test_factored_path_matches_materialized_change_of_basis(order):
    """lambda from the recursion is the squared row norms of E_n, the
    coordinates are E_n t / lambda in the row order of E_n, each order s
    taking one slice, and the two permutations of the plan are inverse."""
    plan = _plan(order)
    rows = _change_of_basis(order)
    # squared row norms of E_n, summed in extended precision
    wide = rows.astype(np.longdouble)
    norms = np.einsum("ij,ij->i", wide, wide).astype(float)
    assert np.max(np.abs(plan.lam - norms) / norms) <= 1e-14
    labels, starts = part_orders(order), slot_starts(order)
    assert plan.orders == labels
    assert plan.labels == tuple(labels[: i + 1].count(s) for i, s in enumerate(labels))
    for s, index, slots, _ in plan.deviators:
        assert np.array_equal(starts[index], np.arange(slots.start, slots.stop, 2 * s + 1))
    assert np.array_equal(plan.row_at[plan.position_of], np.arange(3**order))
    for seed in range(3):
        t = np.random.default_rng(900 + 10 * order + seed).standard_normal((3,) * order)
        c_ref = (rows @ t.ravel()) / norms
        c = coordinates(t)
        images = _images(c, order)
        parts = decompose(t).parts
        assert [(p.s, p.J) for p in parts] == list(zip(plan.orders, plan.labels))
        for i, p in enumerate(parts):
            start = starts[i]
            stop = start + 2 * p.s + 1
            c_p = c_ref[start:stop]
            assert relative(c[start:stop], c_p) <= 1e-13
            assert relative(p.deviator.ravel(), c_p @ build_basis(p.s).flat) <= 1e-13
            image = c_p @ rows[start:stop]
            assert relative(images[plan.row_of[i]], image) <= 1e-13
            assert relative(p.embedded.ravel(), image) <= 1e-13


@pytest.mark.parametrize("order", range(1, 8))
def test_stacked_image_products_match_the_per_parent_loop(order):
    """Each group's one stacked product gives the images that one product
    per parent gave, value for value."""
    plan = _plan(order)
    prev = _change_of_basis(order - 1)
    t = np.random.default_rng(910 + order).standard_normal((3,) * order)
    c = coordinates(t)
    images = _images(c, order)
    c = c[plan.row_at]  # in plan order
    for g in plan.groups:
        coeffs = np.dot(c[g.coords].reshape(g.parents, -1), g.to_images)
        got = images[g.images].reshape(g.parents, -1, 3 ** (order - 1))
        for a, block, rows in zip(coeffs.reshape(g.parents, -1, g.width), g.blocks(prev), got):
            assert np.array_equal(rows, np.dot(a, block))


def plan_arrays(plan):
    arrays = [index for _, index, _, _ in plan.deviators]
    arrays += [plan.row_of, plan.lam, plan.row_at, plan.position_of]
    for g in plan.groups:
        arrays += [g.to_children, g.to_images]
    return arrays


@pytest.mark.parametrize("order", range(8))
def test_plan_arrays_are_read_only(order):
    assert all(not a.flags.writeable for a in plan_arrays(_plan(order)))


@pytest.mark.parametrize("order", range(1, 9))
def test_group_blocks_are_views_of_the_change_of_basis(order):
    """Each group reads its parents' rows of the one cached E_{n-1}, as one
    (parents, 2s+1, 3^(n-1)) view, and the plan holds no row of E: none of
    its arrays has more than 3^n entries, or those of the widest group's
    (3w, 9w) ``to_images``."""
    plan = _plan(order)
    prev = _change_of_basis(order - 1)
    for g in plan.groups:
        blocks = g.blocks(prev)
        assert np.shares_memory(blocks, prev)
        assert blocks.shape == (g.slots.stop - g.slots.start, g.width, 3 ** (order - 1))
        rows = prev[g.coords.start // 3 : g.coords.stop // 3]
        assert np.array_equal(blocks.reshape(rows.shape), rows)
    arrays = plan_arrays(plan)
    assert not any(np.shares_memory(a, prev) for a in arrays)
    assert max(a.size for a in arrays) <= max(3**order, 27 * (2 * order - 1) ** 2)


def clear_decomposition_caches():
    for cache in (_change_of_basis, _plan, _regroup):
        cache.cache_clear()


def cold_round_trip(order, seed):
    """A random order-``order`` tensor, its ``decompose``, the
    ``reconstruct`` of that and the peak of the memory they traced, from
    cleared caches.  The deviator bases are built first: they are cached
    by ``harmonic`` for every caller."""
    t = np.random.default_rng(seed).standard_normal((3,) * order)
    build_basis(order)
    clear_decomposition_caches()
    tracemalloc.start()
    try:
        d = decompose(t)
        back = reconstruct(d)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return t, d, back, peak


def test_decompose_holds_only_the_lower_order_change_of_basis():
    t, d, back, peak = cold_round_trip(7, 48)
    # E_0 .. E_5 (0.6 MB); E_6 alone would take 3^12 * 8 bytes = 4.3 MB
    assert _change_of_basis.cache_info().currsize == 6
    assert _change_of_basis(5).nbytes == 9**5 * 8
    assert peak < 2 * 2**20  # no image is written
    assert frobenius_norm(back - t) <= 1e-14 * frobenius_norm(t)
    assert verify(d, t).passes(1e-12)


@pytest.mark.parametrize("order, megabytes", [(8, 4), (9, 12), (10, 32)])
def test_high_order_round_trip_holds_only_the_dense_base(order, megabytes):
    """Order 8, 9 and 10 ``decompose`` and ``reconstruct`` build no change
    of basis above E_5: E_7 would take 38 MB, E_8 344 MB and E_9 3.1 GB."""
    t, _, back, peak = cold_round_trip(order, 47 + order)
    assert _change_of_basis.cache_info().currsize == 6
    assert peak < megabytes * 2**20
    assert frobenius_norm(back - t) <= 1e-14 * frobenius_norm(t)


def test_warm_decompose_writes_no_image():
    """A warm order-7 ``decompose`` writes its 3^7 coordinates and its
    deviator stacks (0.17 MB), not the 393 images (6.9 MB)."""
    t = np.random.default_rng(49).standard_normal((3,) * 7)
    decompose(t)
    tracemalloc.start()
    try:
        d = decompose(t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert "parts" not in vars(d) and d._record.tie == 0.0
    assert peak < 2**20


def test_repeated_decompose_holds_no_memory():
    # CPython keeps freed tuples of fewer than 20 items on per-size free
    # lists of up to 2000; a parts tuple built by resizing is never taken
    # back from them, so it would hold ~0.7 MB after some thousand calls.
    # Neither loop reads the parts, so none is built.
    tensors = [np.random.default_rng(50 + n).standard_normal((3,) * n) for n in (2, 3, 4)]
    for run in (decompose, lambda t: verify(decompose(t), t)):
        for t in tensors:
            run(t)
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            for _ in range(200):
                for t in tensors:
                    run(t)
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # ~70 KiB with the resized tuple
        assert after - before < 16 * 2**10


def assert_parts_close(got, want, rtol, atol):
    """Each deviator and image of ``got`` is within rtol of its own size plus
    atol of ``want``, in the max norm.  Rounding error of a linear map scales
    with the input, not with the part, so atol is what bounds a part much
    smaller than the tensor."""
    assert [(p.s, p.J) for p in got.parts] == [(p.s, p.J) for p in want.parts]
    for p, q in zip(got.parts, want.parts):
        for a, b in ((p.deviator, q.deviator), (p.embedded, q.embedded)):
            assert np.max(np.abs(a - b), initial=0.0) <= rtol * np.max(np.abs(b)) + atol


def mapped(d, f):
    """``d`` with ``f`` applied to every deviator and image."""
    parts = tuple(IrreduciblePart(p.s, p.J, f(p.deviator), f(p.embedded)) for p in d.parts)
    return Decomposition(d.order, parts)


@st.composite
def tensors(draw):
    order = draw(st.integers(0, 7))
    seed = draw(st.integers(0, 2**32 - 1))
    return np.random.default_rng(seed).standard_normal((3,) * order)


@settings(max_examples=60, deadline=None)
@given(tensors(), st.integers(-300, 300))
def test_decompose_is_scale_covariant(t, exponent):
    scale = 10.0**exponent
    unscaled = mapped(decompose(scale * t), lambda x: x / scale)
    assert_parts_close(unscaled, decompose(t), 1e-13, 1e-14 * np.max(np.abs(t)))


@settings(max_examples=60, deadline=None)
@given(tensors(), st.integers(-300, 300))
def test_round_trip_at_every_scale(t, exponent):
    t = 10.0**exponent * t
    assert frobenius_norm(reconstruct(decompose(t)) - t) <= 1e-12 * frobenius_norm(t)


@settings(max_examples=60, deadline=None)
@given(tensors(), st.integers(0, 2**32 - 1))
def test_decompose_is_rotation_equivariant(t, seed):
    r = random_rotation(np.random.default_rng(seed))
    rotated = mapped(decompose(t), lambda x: rotate(x, r))
    assert_parts_close(decompose(rotate(t, r)), rotated, 1e-11, 1e-13 * np.max(np.abs(t)))


@settings(max_examples=40, deadline=None)
@given(tensors(), st.integers(-300, 300))
def test_verify_passes_at_every_scale(t, exponent):
    """Random, not symmetric, tensors: a symmetric one at 1e-300 is a known
    failure (subnormal noise in its vanishing parts)."""
    t = 10.0**exponent * t
    d = decompose(t)
    report = verify(d, t)
    assert report.passes(1e-10)
    exact = exact_cross_correlation(image_rows(d))
    assert verify(pickle.loads(pickle.dumps(d)), t) == report
    assert certified(report) == certificate(d._record, t.ndim)
    assert exact <= report.max_cross_correlation <= 1e-13


def test_verify_at_extreme_scale_warns_nothing():
    t = 1e300 * np.random.default_rng(49).standard_normal((3,) * 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert verify(decompose(t), t).passes(1e-10)


@st.composite
def parts_scaled_apart(draw):
    """``decompose`` output of a random tensor of order 1..7, and its record
    with each part's deviator multiplied by its own 2^k, k in [-600, 1000],
    so that every nonzero entry stays finite and the coordinates leave
    ``_GRAM_RANGE`` both ways, while no product that builds the images is
    subnormal: those of a deviator at 2^-600 of its size are above 2^-900."""
    order = draw(st.integers(1, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = decompose(rng.standard_normal((3,) * order))
    stacks = []
    for s, index, stack in d._record.stacks:
        magnitudes = np.abs(stack)
        top = np.frexp(magnitudes.max(axis=1))[1]
        bottom = np.frexp(np.min(magnitudes, axis=1, initial=np.inf, where=stack != 0.0))[1]
        low = np.maximum(-600, -1021 - bottom)  # x 2^k >= 2^-1022
        high = np.minimum(1000, 1024 - top)  # x 2^k < 2^1024
        stacks.append((s, index, np.ldexp(stack, rng.integers(low, high + 1)[:, None])))
    return d, _Record(tuple(stacks), 0.0)


@settings(max_examples=60, deadline=None)
@given(parts_scaled_apart())
def test_certificate_ignores_a_power_of_two_per_part(case):
    """cos_ij does not change when each part is scaled by its own power of
    two, and where the images that ``parts`` builds scale with their
    deviators, exactly, nor does the certificate: its bound and tie are bit
    for bit those of the unscaled record, whether or not the coordinates
    leave ``_GRAM_RANGE``.  The image-norm bounds of the canonical residual
    scale with each part's 2^k, bit for bit."""
    d, scaled = case
    k = np.empty(len(d.parts), dtype=int)  # the 2^k of each image row
    for (_, index, before), (_, _, after) in zip(d._record.stacks, scaled.stacks):
        top = [np.frexp(np.max(np.abs(x), axis=1))[1] for x in (after, before)]
        k[_plan(d.order).row_of[index]] = top[0] - top[1]
    with np.errstate(over="ignore", under="ignore"):
        expected = np.ldexp(_rows_of(d._record, d.order), k[:, None])
        bounds = np.ldexp(_image_norm_bounds(d._record.stacks, d.order), k)
    assert _rows_of(scaled, d.order).tobytes() == expected.tobytes()
    assert certificate(scaled, d.order) == certificate(d._record, d.order)
    assert _image_norm_bounds(scaled.stacks, d.order).tobytes() == bounds.tobytes()


# ---------------------------------------------------------------------------
# the coordinates that ``decompose`` records, and its part residuals


def batched_apply(x, m):
    """``_apply`` with every level a batched ``np.matmul``, the top level of
    one row included, as before one row took 2-D products."""
    if m <= decomposition._DENSE_BASE:
        return np.dot(x, _change_of_basis(m).T)
    plan, count = _plan(m), len(x)
    y = batched_apply(x.reshape(3 * count, -1), m - 1)
    y = y.reshape(count, 3, -1).transpose(0, 2, 1).reshape(count, -1)
    z = np.empty_like(y)
    for g in plan.groups:
        shape = (count, g.parents, 3 * g.width)
        np.matmul(y[:, g.coords].reshape(shape), g.to_children, out=z[:, g.coords].reshape(shape))
    return np.take(z, plan.position_of, axis=1)


def batched_apply_transposed(z, m):
    """``_apply_transposed`` with every level a batched ``np.matmul``."""
    if m <= decomposition._DENSE_BASE:
        return np.dot(z, _change_of_basis(m))
    plan, count = _plan(m), len(z)
    z = np.take(z, plan.row_at, axis=1)
    y = np.empty_like(z)
    for g in plan.groups:
        shape = (count, g.parents, 3 * g.width)
        np.matmul(z[:, g.coords].reshape(shape), g.to_children.T, out=y[:, g.coords].reshape(shape))
    y = y.reshape(count, -1, 3).transpose(0, 2, 1).reshape(3 * count, -1)
    return batched_apply_transposed(y, m - 1).reshape(count, -1)


@pytest.mark.parametrize("order", [6, 7, 8])
def test_one_row_takes_2d_products_with_the_bits_of_a_batch(order):
    """The top level of one tensor (N = 1) takes one 2-D ``np.dot`` per
    group: E_n t and E_n^T c are those of the batched products, bit for
    bit, and a stack of rows still takes the batched ones."""
    rng = np.random.default_rng(2100 + order)
    t = rng.standard_normal((1, 3**order))
    c = coordinates(t.reshape((3,) * order)).reshape(1, -1)
    assert _apply(t, order).tobytes() == batched_apply(t, order).tobytes()
    assert _apply_transposed(c, order).tobytes() == batched_apply_transposed(c, order).tobytes()
    rows = rng.standard_normal((2, 3**order))
    assert _apply(rows, order).tobytes() == batched_apply(rows, order).tobytes()


@pytest.mark.parametrize("order", range(10))
def test_decompose_deviators_are_exactly_symmetric(order):
    """``decompose`` builds each deviator from its orbit values and gathers
    them to every entry, so every entry equals the first of its orbit, bit
    for bit; the coordinates it records are those of its own deviators,
    bit for bit, as ``_deviator_coordinates`` takes them from a file."""
    t = np.random.default_rng(2200 + order).standard_normal((3,) * order)
    d = decompose(t)
    for s, _, stack in d._record.stacks:
        code = _orbit_map(s, tuple(range(s)))[0]
        assert stack.tobytes() == stack[:, code].tobytes(), s
    own = d._record.coordinates[0]
    assert not own.flags.writeable
    assert own.tobytes() == _deviator_coordinates(_plan(order), d._record.stacks, order).tobytes()


@pytest.mark.parametrize("order", range(9))
def test_decompose_output_reports_tau_without_measuring(order):
    """``decompose`` output reports, without a pass over its entries, what
    its deviators measure: symmetry exactly 0 and the trace bound tau_s,
    bit for bit, 0 for a zero part, for a random tensor and its
    symmetrization (whose lower parts are rounding noise or zero)."""
    t = np.random.default_rng(2300 + order).standard_normal((3,) * order)
    for u in (t, symmetrize(t)):
        d = decompose(u)
        measured = _part_residuals(d._record.stacks, order)
        assert not measured[0].any()
        report = verify(d, u)
        assert d._record.coordinates  # verify read the recorded coordinates
        assert report.part_symmetry == tuple(measured[0]) and report.part_trace == tuple(measured[1])
        live = [p.deviator.any() for p in d.parts]
        assert report.part_trace == tuple(_trace_bound(p.s) if x else 0.0 for p, x in zip(d.parts, live))


def test_verify_of_decompose_output_builds_no_entry_index():
    """From cleared caches, ``decompose``, ``reconstruct`` and ``verify`` at
    order 8 build no per-entry index: the part residuals of ``decompose``
    output are read from its coordinates, and the certificate's part norms
    from the plan.  Measuring given deviators, a file's, builds it."""
    t = np.random.default_rng(2400).standard_normal((3,) * 8)
    for cache in (_entries, _trace_bounds, _trace_bound):
        cache.cache_clear()
    d = decompose(t)
    assert verify(d, reconstruct(d)).passes(1e-10)
    assert _entries.cache_info().currsize == 0
    loaded = decomposition_from_json(decomposition_to_json(d))
    assert verify(loaded, reconstruct(loaded)) == verify(d, reconstruct(d))
    assert _entries.cache_info().currsize == 1


def test_a_part_whose_recorded_coordinates_underflow_is_measured():
    """A deviator of ``decompose`` output whose entries are a unit or two
    of the subnormal grid can have recorded coordinates c' that all round
    to 0, since no entry of B_5 is as large as 1/2.  ``verify`` then reads
    its stack and measures it, as it measures the loaded file, instead of
    reporting a zero part; such parts turn up among the tensors of one
    unit coordinate at order 5."""
    n, plan, hits = 5, _plan(5), 0
    for j in range(3**n):
        c = np.zeros(3**n)
        c[j] = 5e-324
        t = _sum(c, n).reshape((3,) * n)
        d = decompose(t)
        own = d._record.coordinates[0]
        zero = ~np.logical_or.reduceat(own != 0.0, plan.starts)
        nonzero = np.concatenate([stack.any(axis=1) for _, _, stack in d._record.stacks])
        hits += bool((zero & nonzero).any())
        report = verify(d, t)
        assert d._record.coordinates
        assert report == verify(decomposition_from_json(decomposition_to_json(d)), t), j
    assert hits


def test_reading_parts_drops_the_recorded_coordinates():
    """The first read of ``parts`` empties the recorded coordinates of the
    decomposition and of a shallow copy that shares its record, so an edit
    through either reaches both; a pickled copy records none and reports
    the same."""
    t = np.random.default_rng(2500).standard_normal((3,) * 5)
    d = decompose(t)
    assert pickle.loads(pickle.dumps(d))._record.coordinates is None
    shallow = copy.copy(d)
    assert shallow._record is d._record
    k = next(i for i, p in enumerate(shallow.parts) if p.s == 3)
    assert d._record.coordinates == []
    shallow.parts[k].deviator[0, 1, 2] += 1.0
    for x in (d, shallow):
        report = verify(x, t)
        assert report.part_symmetry[k] > 1e-3 and not report.passes(1e-10)


def exact_trace_residual(x):
    """|tr x| / |x| of the order-s deviator x (s >= 2), over its first two
    indices, in mpmath at 50 digits."""
    x = x.reshape(3, 3, -1)
    with mpmath.workdps(50):
        trace = sum(sum(mpmath.mpf(float(x[i, i, k])) for i in range(3)) ** 2 for k in range(x.shape[2]))
        norm = mpmath.fsum(mpmath.mpf(float(v)) ** 2 for v in x.ravel())
        return mpmath.sqrt(trace / norm) if norm else mpmath.mpf(0)


@pytest.mark.parametrize("order", range(2, 7))
def test_trace_bound_is_above_the_exact_trace_residual(order):
    """tau_s is at or above the exact trace residual of every deviator
    fl(c B_s) that ``decompose`` builds, for random tensors and their
    symmetrizations."""
    rng = np.random.default_rng(2600 + order)
    for _ in range(2):
        t = rng.standard_normal((3,) * order)
        for u in (t, symmetrize(t)):
            for s, _, stack in decompose(u)._record.stacks:
                if s >= 2:
                    worst = max(exact_trace_residual(x) for x in stack)
                    assert worst <= _trace_bound(s), (s, float(worst))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 8), st.integers(0, 2**32 - 1), st.integers(-900, 900), st.booleans())
def test_trace_bound_is_above_the_measured_trace_residual(order, seed, k, symmetric):
    """tau_s is at or above the trace residual that ``_part_residuals``
    measures (taken with a floor of 0) of every deviator that ``decompose``
    builds, for random tensors and their symmetrizations times 2^k."""
    t = np.random.default_rng(seed).standard_normal((3,) * order)
    u = np.ldexp(symmetrize(t) if symmetric else t, k)
    stacks = decompose(u)._record.stacks
    floor = decomposition._trace_bounds
    try:
        decomposition._trace_bounds = lambda n: np.zeros(len(floor(n)))
        measured = _part_residuals(stacks, order)[1]
    finally:
        decomposition._trace_bounds = floor
    bounds = [_trace_bound(s) for s in part_orders(order)]
    assert (measured <= bounds).all()


def test_trace_bound_is_small():
    """tau_s is at most 1e-14 up to s = 10 (1.7e-15 at s = 2, 6.1e-15 at
    s = 7 and 9.9e-15 at s = 10), where the measured trace residuals of
    ``decompose`` output are at most about 5e-16.  It takes the traces of
    B_s in long double; where long double is float64, their rounding adds
    up to 1e-15."""
    bounds = [_trace_bound(s) for s in range(11)]
    assert bounds[:2] == [0.0, 0.0] and all(b > 0.0 for b in bounds[2:])
    assert max(bounds[:8]) <= 1e-14
    if WIDE_LONG_DOUBLE:
        assert max(bounds) <= 1e-14
