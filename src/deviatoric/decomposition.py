"""Orthogonal irreducible decomposition of 3-D tensors.

An arbitrary order-n tensor splits uniquely into embedded deviators: a sum of
terms, one per (s, J) slot, where s is the deviator order (0 <= s <= n) and
J = 1..count_parts(n, s) labels the multiplicity.  Each part carries both the
deviator itself and its embedded order-n image; embedded images of different
parts are mutually Frobenius-orthogonal and sum back to the input.

The decomposition is linear, so for each order n it is one fixed change of
basis.  The 3^n x 3^n matrix E has one row per (slot, basis deviator): the
embedded image of that element of the slot's orthonormal deviator basis.
Images of different slots are orthogonal and each slot's block is a multiple
of an isometry (Schur's lemma), so E E^T = diag(lambda) and the coordinates
of t are c = E t / lambda.  A slot's deviator is c_p . B_s and its embedded
part is c_p . E_p.  The same kind of Cartesian-to-irreducible change of basis
is computed by e3nn's ``CartesianTensor`` / ``ReducedTensorProducts``
(Geiger & Smidt, arXiv:2207.09453).

``decompose`` applies E in factored form: one level of the paper's
recursion on the order, over the cached order-(n-1) matrix.  Slicing along
the first index writes t = sum_k e_k x T_k with order-(n-1) slices T_k; one
product with E_{n-1} gives the coordinates of all three slices, and the
three deviators that share a slot of the slices regroup into

* a vector (a new order-1 deviator) when they are scalars,
* an order-2 tensor t = alpha*delta + epsilon.v + D when they are vectors,
* a tensor that is totally symmetric and traceless in its trailing s indices
  when they are order-s deviators (s >= 2); ``combine_deviator_triple`` builds
  it from deviators of orders s-1, s, s+1 and ``split_deviator_triple``
  resolves it back.

For a parent slot of order s the regrouping is one fixed 3(2s+1)-square
matrix, and the images of the parent's children are one product of their
coefficients with the parent's rows of E_{n-1}.  So an order-n call reads
the 9^(n-1) doubles of E_{n-1} (4.3 MB at order 7), not the 9^n of E_n.
The matrices E_0 .. E_{n-1} are built once each and cached, each from the
one below by the same rule.

``combine_deviator_triple`` maps a triple (d_lo, d_mid, d_hi) of orders
(n-1, n, n+1) to the order-(n+1) tensor

    (2n-1)/(n-1) * sym(delta x d_lo) - sym(delta-shift x d_lo)
    + sym(epsilon . d_mid) + d_hi

with symmetrization over the n trailing indices; the first index stays free.
The two delta terms keep a fixed coefficient ratio so their sum is traceless
in the trailing indices, which is why they act as a single map of d_lo.

The rows of E for order n replay these forward maps on each basis deviator
of a child slot and push the result through the order-(n-1) rows of the
parent slot.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .core import (
    _project, _scaled_back, _scaled_rows, as_tensor, epsilon, frobenius_norm, symmetrize,
    symmetrize_stack,
)
from .harmonic import build_basis, coords, from_coords

__all__ = [
    "trinomial",
    "count_parts",
    "counts_row",
    "part_orders",
    "IrreduciblePart",
    "Decomposition",
    "VerifyReport",
    "decompose",
    "reconstruct",
    "verify",
    "combine_deviator_triple",
    "split_deviator_triple",
]

_EPS = epsilon()
_EYE = np.eye(3)

SPLIT_INPUT_TOL = 1e-9


# ---------------------------------------------------------------------------
# part counting

@lru_cache(maxsize=None)
def _trinomial_row(n: int) -> tuple[int, ...]:
    # coefficients of (1 + x + 1/x)**n, offsets -n..n
    row = (1,)
    for _ in range(n):
        new = [0] * (len(row) + 2)
        for i, v in enumerate(row):
            new[i] += v
            new[i + 1] += v
            new[i + 2] += v
        row = tuple(new)
    return row


def trinomial(n: int, s: int) -> int:
    """Coefficient of x**s in the expansion of (1 + x + 1/x)**n."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if abs(s) > n:
        return 0
    return _trinomial_row(n)[n + s]


def count_parts(n: int, s: int) -> int:
    """Number of order-s deviator slots in the decomposition of an order-n tensor."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if s < 0 or s > n:
        raise ValueError(f"s must lie in 0..{n}, got {s}")
    return trinomial(n, s) - trinomial(n, s + 1)


@lru_cache(maxsize=None)
def counts_row(n: int) -> tuple[int, ...]:
    """The multiplicities (count_parts(n, 0), ..., count_parts(n, n))."""
    return tuple(count_parts(n, s) for s in range(n + 1))


def _children(s: int) -> tuple[int, ...]:
    """Deviator orders of the slots that an order-s slot splits into one
    tensor order up."""
    return (1,) if s == 0 else (s - 1, s, s + 1)


@lru_cache(maxsize=None)
def part_orders(n: int) -> tuple[int, ...]:
    """Deviator orders of the parts of an order-n decomposition, in traversal order."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if n == 0:
        return (0,)
    return tuple(c for s in part_orders(n - 1) for c in _children(s))


# ---------------------------------------------------------------------------
# data model

@dataclass(frozen=True)
class IrreduciblePart:
    """One slot of a decomposition: deviator order s, multiplicity label J
    (1-based within s), the deviator itself, and its embedded order-n image."""

    s: int
    J: int
    deviator: np.ndarray
    embedded: np.ndarray


class _Record(NamedTuple):
    """The arrays of a decomposition's parts, in part order."""

    rows: np.ndarray  # (parts, 3^n): row i is the image of part i
    orders: tuple[int, ...]  # s of each part
    labels: tuple[int, ...]  # J of each part
    stacks: tuple  # per deviator order s: (s, (J_s,) part indices, (J_s, 3^s) deviators)


@dataclass(frozen=True)
class Decomposition:
    """The parts of an order-n tensor.

    The output of ``decompose`` and ``load_decomposition`` is made by
    ``_from_rows`` and records its parts as arrays: the images as the rows of
    one (parts, 3^n) array and the deviators as one stack per deviator
    order.  ``reconstruct`` and ``verify`` read those arrays, and ``parts``
    is built from them on first access, then stored; each ``deviator`` and
    ``embedded`` is a view of its row, so an in-place edit of a part is an
    edit of the record.  A hand-built decomposition, or any copy (pickle,
    ``copy``, ``deepcopy``, ``dataclasses.replace``), holds its parts and no
    record.
    """

    order: int
    parts: tuple[IrreduciblePart, ...]
    _record: _Record | None = field(default=None, init=False, repr=False, compare=False)

    def __getattr__(self, name):
        # only a decomposition made by ``_from_rows`` lacks ``parts``
        if name != "parts" or self._record is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        rows, orders, labels, stacks = self._record
        deviators: list = [None] * len(orders)
        for s, index, stack in stacks:
            for i, deviator in zip(index.tolist(), _views(stack, s)):
                deviators[i] = deviator
        # a list first: tuple() of an iterator of unknown length resizes its
        # result, and CPython keeps each freed tuple of under 20 items on a
        # per-size free list of up to 2000 that resizing never draws from
        parts = list(map(IrreduciblePart, orders, labels, deviators, _views(rows, self.order)))
        object.__setattr__(self, "parts", tuple(parts))
        return self.parts

    def __getstate__(self):
        # copies keep no record: pickle and deepcopy give each part an array of its own
        return {"order": self.order, "parts": self.parts}

    def counts(self) -> dict[int, int]:
        orders = [p.s for p in self.parts] if self._record is None else self._record.orders
        return dict(Counter(orders))


@dataclass(frozen=True)
class VerifyReport:
    """Residuals of a decomposition against its source tensor.

    Residuals are relative: the reconstruction to the source tensor's norm,
    each part's symmetry and trace to that part's deviator norm, and each
    cross-correlation to the two images' norms.  A zero denominator gives
    the absolute residual for the reconstruction and residual 0 for a zero
    part, which is trivially symmetric, traceless and orthogonal.
    """

    order: int
    reconstruction_residual: float
    reconstruction_relative: float
    part_symmetry: tuple[float, ...]
    part_trace: tuple[float, ...]
    max_part_residual: float
    max_cross_correlation: float
    counts_expected: dict[int, int]
    counts_actual: dict[int, int]
    counts_ok: bool

    def passes(self, tol: float = 1e-10) -> bool:
        return bool(
            self.reconstruction_relative <= tol
            and self.max_part_residual <= tol
            and self.max_cross_correlation <= tol
            and self.counts_ok
        )


# ---------------------------------------------------------------------------
# forward maps (order n deviator slots -> order n+1 tensor), n >= 2

def _lift(lo: np.ndarray, n: int) -> np.ndarray:
    """Both delta terms of the combine map applied to an order-(n-1) deviator."""
    trailing = tuple(range(1, n + 1))
    a = np.tensordot(_EYE, lo, axes=0)                     # delta_{k i1} lo_{i2..in}
    b = np.moveaxis(np.tensordot(_EYE, lo, axes=0), -1, 0)  # delta_{i1 i2} lo_{i3..in k}
    coeff = (2.0 * n - 1.0) / (n - 1.0)
    return coeff * symmetrize(a, trailing) - symmetrize(b, trailing)


def _spin(mid: np.ndarray, n: int) -> np.ndarray:
    """Epsilon term of the combine map applied to an order-n deviator."""
    trailing = tuple(range(1, n + 1))
    e = np.tensordot(_EPS, mid, axes=([1], [n - 1]))        # eps_{k s i1} mid_{i2..in s}
    return symmetrize(e, trailing)


def combine_deviator_triple(lo, mid, hi) -> np.ndarray:
    """Map deviators of orders (n-1, n, n+1) into one order-(n+1) tensor.

    The result is totally symmetric and traceless in its trailing n indices;
    the first index is free.  Requires n >= 2 and deviators that pass ``coords``.
    """
    lo, mid, hi = as_tensor(lo), as_tensor(mid), as_tensor(hi)
    n = mid.ndim
    if n < 2:
        raise ValueError(f"combine needs a middle deviator of order >= 2, got {n}")
    if lo.ndim != n - 1 or hi.ndim != n + 1:
        raise ValueError(
            f"order mismatch: expected ({n - 1}, {n}, {n + 1}), "
            f"got ({lo.ndim}, {mid.ndim}, {hi.ndim})"
        )
    for d in (lo, mid, hi):
        coords(d)
    return _lift(lo, n) + _spin(mid, n) + hi


@lru_cache(maxsize=None)
def _split_solver(n: int) -> np.ndarray:
    """Pseudo-inverse of the combine map in deviator coordinates.  The
    map's column for a basis deviator of slot n-1, n or n+1 is that
    deviator's row of ``_regroup(n)``."""
    pinv = np.linalg.pinv(_regroup(n).reshape(-1, 3 * (2 * n + 1)).T)
    pinv.flags.writeable = False
    return pinv


def split_deviator_triple(g) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Resolve an order-(n+1) tensor that is symmetric and traceless in its
    trailing n indices into deviators of orders (n-1, n, n+1).

    Inverts ``combine_deviator_triple``.  The input must lie in the
    admissible space within ``SPLIT_INPUT_TOL`` relative to its norm.  The
    deviators are resolved on ``_scaled_rows`` of the input and scaled back,
    exact up to the float limit even where their coordinates overflow.
    """
    g = as_tensor(g)
    n = g.ndim - 1
    if n < 2:
        raise ValueError(f"split needs an input of order >= 3, got {g.ndim}")
    mid_flat = build_basis(n).flat
    scaled, exponent = _scaled_rows(g.reshape(1, -1))
    slice_coords, residual = _project(scaled.reshape(3, -1), mid_flat.T, mid_flat)
    if not residual <= SPLIT_INPUT_TOL:
        raise ValueError(
            "input is not symmetric and traceless in its trailing "
            f"indices (relative residual {residual:.3e})"
        )
    x = _split_solver(n) @ slice_coords.ravel()
    return _scaled_back(
        exponent[0],
        from_coords(x[: 2 * n - 1], n - 1),
        from_coords(x[2 * n - 1 : 4 * n], n),
        from_coords(x[4 * n :], n + 1),
    )


# ---------------------------------------------------------------------------
# the change of basis

def _forward(s: int, child: int, b: np.ndarray) -> np.ndarray:
    """Order-(s+1) tensor that a deviator ``b`` in an order-``child`` slot
    contributes to its order-s parent slot (first index free, trailing s
    indices in the parent's deviator space)."""
    if child == s + 1:
        return b
    if s == 1:
        return float(b) * _EYE if child == 0 else np.einsum("ijs,s->ij", _EPS, b)
    return _lift(b, s) if child == s - 1 else _spin(b, s)


@lru_cache(maxsize=None)
def _regroup(s: int) -> np.ndarray:
    """Read-only (3(2s+1), 3, 2s+1) array: ``_forward`` of each basis
    deviator of each child of an order-s slot, in ``_children(s)`` order,
    with its trailing s indices in the parent's deviator coordinates."""
    to_parent = build_basis(s).flat.T
    f = np.stack([_forward(s, c, b).reshape(3, -1) @ to_parent
                  for c in _children(s) for b in build_basis(c)])
    f.flags.writeable = False
    return f


@lru_cache(maxsize=None)
def _change_of_basis(n: int) -> np.ndarray:
    """The order-n change of basis E.

    Row r of the read-only (3^n, 3^n) matrix is the flattened embedded image
    of one orthonormal basis deviator of one slot; slots follow
    ``part_orders(n)`` and take 2s+1 consecutive rows each.  ``decompose``
    of order n reads the order-(n-1) matrix through ``_plan(n)``.
    """
    if n == 0:
        rows = np.ones((1, 1))
    else:
        prev = _change_of_basis(n - 1)
        rows = np.empty((3**n, 3**n))
        p = 0
        for s in part_orders(n - 1):
            f = _regroup(s)  # a parent's rows start at p, its children's at 3p
            block = rows[3 * p : 3 * p + len(f)].reshape(len(f), 3, -1)
            np.matmul(f, prev[p : p + 2 * s + 1], out=block)
            p += 2 * s + 1
    rows.flags.writeable = False
    return rows


class _Group(NamedTuple):
    """The order-(n-1) slots of one deviator order s, as parents of their
    order-n children.

    A parent whose rows of E_{n-1} start at row p has its children's 3(2s+1)
    rows of E_n start at row 3p.  Position 3(p+j)+k of y, the three products
    E_{n-1} t[k] interleaved, holds (E_{n-1} t[k])_{p+j}.  So one index
    array gathers a parent's slice coordinates from y and places its
    children's coordinates in c.  A parent's children are consecutive
    parts, so their image slices are consecutive rows 3i+k of the slice view.
    """

    rows: np.ndarray  # (P_s, 3 width) positions in y and in c
    to_children: np.ndarray  # (3 width, 3 width): slice coordinates -> E_n t
    norms: np.ndarray  # (P_s, 3 width) lambda of the children's rows
    to_images: np.ndarray  # (3 width, children * 3 width): c -> image coefficients
    width: int  # 2s+1
    parents: np.ndarray  # (P_s,) indices into part_orders(n-1)
    parts: np.ndarray  # (P_s, children) indices into part_orders(n)
    pairs: tuple  # np.triu_indices(children, 1): the sibling pairs i < j
    blocks: tuple  # per parent: its rows of E_{n-1}


class _Plan(NamedTuple):
    """What ``decompose`` needs for order n, built once per order."""

    orders: tuple[int, ...]  # s of each part, in traversal order
    labels: tuple[int, ...]  # J of each part
    prev: np.ndarray | None  # E_{n-1}; None for n = 0
    groups: tuple[_Group, ...]  # one per parent order s; none for n = 0
    deviators: tuple  # per order s: (s, (J_s,) part indices, (J_s, 2s+1) positions in c, B_s.flat)


def _read_only(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.flags.writeable = False


@lru_cache(maxsize=None)
def _plan(n: int) -> _Plan:
    """The order-n change of basis in factored form, over the cached
    order-(n-1) matrix; E_n itself is never built.

    Row r of E_n, for a child of parent slot p, is sum_j F[r, k, j] times row
    j of E_{n-1, p} in slice k (F = ``_regroup``), so
    (E_n t)_r = sum_{k,j} F[r, k, j] (E_{n-1} t[k])_{p,j} and the image of
    coordinates c is (sum_r c_r F[r, k, :]) E_{n-1, p} in slice k.  The rows
    of E_{n-1, p} are orthogonal (Schur's lemma), so lambda_r =
    sum_{k,j} F[r, k, j]^2 lam_{p,j}, lam the squared row norms of E_{n-1}.
    """
    orders = part_orders(n)
    starts = np.cumsum([0] + [2 * s + 1 for s in orders])
    labels = np.empty(len(orders), dtype=int)
    deviators = []
    for s in sorted(set(orders)):
        index = np.flatnonzero(np.equal(orders, s))
        labels[index] = np.arange(1, len(index) + 1)
        rows = starts[index][:, None] + np.arange(2 * s + 1)
        _read_only(index, rows)
        deviators.append((s, index, rows, build_basis(s).flat))
    plan = _Plan(orders, tuple(labels.tolist()), None, (), tuple(deviators))
    if n == 0:
        return plan

    prev = _change_of_basis(n - 1)
    lam = np.einsum("ij,ij->i", prev, prev)
    parents = part_orders(n - 1)
    prev_starts = np.cumsum([0] + [2 * s + 1 for s in parents])
    first_child = np.cumsum([0] + [len(_children(s)) for s in parents])
    groups = []
    for s in sorted(set(parents)):
        width, children = 2 * s + 1, _children(s)
        index = np.flatnonzero(np.equal(parents, s))
        firsts = prev_starts[index]
        f = _regroup(s)  # (3 width, 3, width)
        parent_rows = firsts[:, None] + np.arange(width)
        rows = 3 * firsts[:, None] + np.arange(3 * width)
        norms = lam[parent_rows] @ (f * f).sum(axis=1).T
        to_children = f.transpose(2, 1, 0).reshape(3 * width, 3 * width)
        # row r of c_g, a coordinate of child i, puts F[r] in column block i
        child = np.repeat(np.arange(len(children)), [2 * c + 1 for c in children])
        to_images = np.zeros((3 * width, len(children), 3 * width))
        to_images[np.arange(3 * width), child] = f.reshape(3 * width, -1)
        to_images = to_images.reshape(3 * width, -1)
        parts = first_child[index][:, None] + np.arange(len(children))
        blocks = tuple(prev[p : p + width] for p in firsts.tolist())
        pairs = np.triu_indices(len(children), 1)
        _read_only(rows, to_children, norms, to_images, index, parts, *pairs)
        groups.append(
            _Group(rows, to_children, norms, to_images, width, index, parts, pairs, blocks)
        )
    return plan._replace(prev=prev, groups=tuple(groups))


def _coordinates_and_images(plan: _Plan, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The coordinates c = E_n t / lambda of an order-n ``t`` and the
    (parts, 3^n) array of its embedded images, image i in row i, from the
    order-n ``plan``."""
    n = t.ndim
    if n == 0:
        images = np.array([[float(t)]])
        return images[0], images
    # y[3p + k] = (E_{n-1} t[k])_p, one product over the order-(n-1) matrix;
    # each group then overwrites its positions with the coordinates
    c = np.dot(plan.prev, t.reshape(3, -1).T).ravel()
    images = np.empty((len(plan.orders), 3**n))
    slices = images.reshape(-1, 3 ** (n - 1))  # row 3i + k: slice k of image i
    for g in plan.groups:
        c_g = np.dot(c[g.rows], g.to_children)
        c_g /= g.norms
        c[g.rows] = c_g
        coeffs = np.dot(c_g, g.to_images).reshape(len(g.blocks), -1, g.width)
        for a, block, first in zip(coeffs, g.blocks, (3 * g.parts[:, 0]).tolist()):
            np.dot(a, block, out=slices[first : first + len(a)])
    return c, images


def _views(rows: np.ndarray, order: int) -> list[np.ndarray]:
    """Each row of a 2-D array as a view of shape (3,) * order."""
    if order == 0:
        return [r.reshape(()) for r in rows]
    return list(rows.reshape((-1,) + (3,) * order))


def _from_rows(order: int, record: _Record) -> Decomposition:
    """The order-``order`` decomposition whose parts are the arrays of
    ``record``; the only maker of a decomposition with a record.
    ``decompose`` passes its plan's arrays, and ``decomposition_from_json``
    ``_stacked`` of the parts it read.  No ``parts`` is built until they are
    read."""
    d = object.__new__(Decomposition)
    object.__setattr__(d, "order", order)
    object.__setattr__(d, "_record", record)
    return d


def _stacked(order: int, orders, labels, deviators, images) -> _Record:
    """The record of parts with these orders s, labels J, deviators and
    order-``order`` embedded images, given in part order.

    This is the only code that stacks loose tensors into a record: the
    images into the rows of one new (parts, 3^order) array, and the
    deviators of each order s into one new (J_s, 3^s) array.  Each array
    owns its buffer, so the parts built from the record are views with that
    array as ``base``.  Raises the error of ``as_tensor`` for the first
    image, then the first deviator of each order, of another shape than its
    order's.
    """
    orders = tuple(orders)
    rows = _stack(images, order)
    orders_array = np.array(orders, dtype=int)
    stacks = []
    for s in sorted(set(orders)):
        index = np.flatnonzero(orders_array == s)
        stacks.append((s, index, _stack([deviators[i] for i in index], s)))
    return _Record(rows, orders, tuple(labels), tuple(stacks))


def decompose(t) -> Decomposition:
    """Orthogonal irreducible decomposition of an arbitrary 3-D tensor.

    Returns one part per (s, J) slot in deterministic traversal order; the
    embedded images sum to ``t`` and are mutually orthogonal.  The images are
    the rows of one (parts, 3^n) array and the deviators of each order one
    stack, which the decomposition records (see ``Decomposition``), so
    ``reconstruct`` and ``verify`` read them all without a copy.
    """
    t = as_tensor(t)
    plan = _plan(t.ndim)
    c, images = _coordinates_and_images(plan, t)
    # a list first, as in ``Decomposition.__getattr__``
    stacks = tuple([(s, index, np.dot(c[rows], basis)) for s, index, rows, basis in plan.deviators])
    return _from_rows(t.ndim, _Record(images, plan.orders, plan.labels, stacks))


def reconstruct(d: Decomposition) -> np.ndarray:
    """Sum of the embedded parts; inverse of ``decompose``.

    It sums the image rows of ``_record_of(d)``: the record of ``decompose``
    and ``load_decomposition`` output, in place, or the parts of any other
    decomposition, stacked once.  So a hand-built part whose deviator or
    image has another shape than its order's raises the same ``ValueError``
    as in ``verify``.
    """
    return _record_of(d).rows.sum(axis=0).reshape((3,) * d.order)


def _record_of(d: Decomposition) -> _Record:
    """The arrays of ``d``: its record, or for a hand-built decomposition or
    any copy (which holds no record), ``_stacked`` of its parts.  This is
    the only way library code reads a decomposition's arrays, so what is
    read is always what the parts store."""
    if d._record is not None:
        return d._record
    parts = d.parts
    return _stacked(d.order, [p.s for p in parts], [p.J for p in parts],
                    [p.deviator for p in parts], [p.embedded for p in parts])


def _stack(tensors, order: int) -> np.ndarray:
    """New (k, 3^order) array whose row i is the i-th of the k given
    tensors, converted as ``as_tensor`` converts it; raises the error of
    ``as_tensor`` for the first one of another shape."""
    shape = (3,) * order
    if not all([np.shape(x) == shape for x in tensors]):  # before 3^order doubles are taken
        for x in tensors:
            as_tensor(x, order=order)
        raise ValueError(f"expected {len(tensors)} order-{order} tensors")
    stack = np.empty((len(tensors), 3**order))
    if tensors:
        np.stack(tensors, out=stack.reshape((len(tensors),) + shape), casting="unsafe")
    return stack


# ---------------------------------------------------------------------------
# orthogonality of the images

# A Gram product of rows whose squared norms lie outside this range could
# overflow, or lose precision to subnormal products.
_GRAM_RANGE = (2.0**-600, 2.0**600)

# ``verify`` certifies orthogonality by slot membership from this order up,
# and reports the certified bound when it is at most ``_CERTIFIED_MAX``.
# Below this order the Gram product measured faster.  Warm, on one BLAS
# thread of a shared 2-core Xeon host, certificate (one fused pass per
# parent) against Gram: 0.36-0.52 against 0.09-0.12 ms at order 5,
# 0.79-1.15 against 0.55-0.74 ms at order 6, 4.1-4.2 against 9.5-9.9 ms at
# order 7 and 34-35 against 172-187 ms at order 8.
_CERTIFY_FROM_ORDER = 7
_CERTIFIED_MAX = 1e-13
# doubles of E_{n-1} E_{n-1}^T that ``_span_defects`` takes at a time
_DEFECT_CHUNK = 1 << 17


class _SpanDefects(NamedTuple):
    """How far the parents' rows of E_{n-1} are from orthogonal, per parent
    and over all parents, with the rounding allowances of
    ``_certified_cross_correlation``."""

    lam: np.ndarray  # (parents,) lambda_p
    delta: np.ndarray  # (parents,) delta_p
    eta: float
    slack: np.ndarray  # (parts,) rounding allowance of each rho


@lru_cache(maxsize=None)
def _span_defects(n: int) -> _SpanDefects:
    """The defects of the order-(n-1) change of basis, n >= 1.

    For the w rows B_p of parent slot p, lambda_p is their mean squared norm
    and D_p = B_p B_p^T - lambda_p I, so every squared singular value of B_p
    is at least sigma_p = lambda_p - |D_p|_F.  Then delta_p = |D_p|_F /
    sigma_p, and eta is the largest |B_p B_q^T|_F / sqrt(sigma_p sigma_q)
    over p != q.  Both come from the upper triangle of E_{n-1} E_{n-1}^T,
    taken in row chunks of whole parents, so no 3^(n-1) x 3^(n-1) product
    is held.

    The certificate's own products round: the 3w-term coefficient Gram by
    at most (3w + 2) eps of the norms, which is added to delta_p, and the
    w-term product g by at most w^1.5 eps of |f_i|, the slack added to
    rho_i (eps = 2^-52, twice the unit roundoff, covers the factors
    (1 + delta_p)).
    """
    prev = _change_of_basis(n - 1)
    starts = np.cumsum([0] + [2 * s + 1 for s in part_orders(n - 1)])
    count = len(starts) - 1
    lam = np.empty(count)
    defect = np.empty(count)
    squares = np.zeros((count, count))  # |B_p B_q^T|_F^2 for p < q
    step = max(1, _DEFECT_CHUNK // len(prev))
    q0 = 0
    while q0 < count:
        q1 = max(q0 + 1, int(np.searchsorted(starts, starts[q0] + step, side="right")) - 1)
        local = starts[q0 : q1 + 1] - starts[q0]
        gram = prev[starts[q0] : starts[q1]] @ prev[starts[q0] :].T
        for q, a, b in zip(range(q0, q1), local[:-1], local[1:]):
            lam[q] = np.trace(gram[a:b, a:b]) / (b - a)
            defect[q] = np.linalg.norm(gram[a:b, a:b] - lam[q] * np.eye(b - a))
        gram *= gram
        gram = np.add.reduceat(gram, local[:-1], axis=0)
        squares[q0:q1, q0:] = np.add.reduceat(gram, starts[q0:-1] - starts[q0], axis=1)
        q0 = q1
    sigma = lam - defect
    np.fill_diagonal(squares, 0.0)
    eta = float(np.sqrt(np.max(squares / np.outer(sigma, sigma))))
    eps = np.finfo(float).eps
    delta = defect / sigma + (3 * np.diff(starts) + 2) * eps
    slack = np.empty(len(part_orders(n)))
    for g in _plan(n).groups:
        slack[g.parts] = g.width**1.5 * eps
    _read_only(lam, delta, slack)
    return _SpanDefects(lam, delta, eta, slack)


def _pair_bound(inspan, rho_i, rho_j):
    """cos_ij <= inspan_ij + rho_i + rho_j + 3 rho_i rho_j; see
    ``_certified_cross_correlation``."""
    return inspan + rho_i + rho_j + 3.0 * rho_i * rho_j


def _certified_cross_correlation(rows: np.ndarray, n: int) -> float:
    """An upper bound on ``_max_cross_correlation(rows)`` for the image rows
    of an order-n decomposition in ``_plan(n)`` layout, in O(9^n) flops;
    inf when a row is not finite.  As in the Gram, a zero row pairs with no
    other.

    Each image f_i should lie, slice by slice, in the span of the rows B_p of
    its parent slot in E_{n-1}.  With A = S B_p^T for the slices S of the
    parent's children, g = (A / lambda_p) B_p lies in that span whatever the
    defect of B_p, h = S - g, and rho_i = |h_i| / |f_i|.  Writing
    f_i = g_i + h_i gives cos_ij <= inspan_ij + rho_i + rho_j + 3 rho_i rho_j,
    where inspan_ij bounds |<g_i, g_j>| / (|f_i| |f_j|):

    * for siblings, the coefficient Gram |sum_k a_i[k] . a_j[k]| / lambda_p,
      over the norms, plus delta_p (1 + rho_i)(1 + rho_j);
    * across parents, eta (1 + rho_i)(1 + rho_j), which with the rest of the
      bound is largest for the two largest rho.

    lambda_p, delta_p, eta and the rounding slack of rho are
    ``_span_defects(n)``.  The bound holds for any rows, so an edited or
    reordered image only makes it large.  The rows are taken as
    ``_gram_rows`` gives them; apart from its copy, the work space is one
    parent's slices.
    """
    rows, squares = _gram_rows(rows)
    if not squares.max(initial=0.0) < np.inf:
        return np.inf
    live = squares > 0.0
    if np.count_nonzero(live) < 2:
        return 0.0
    plan, defects = _plan(n), _span_defects(n)
    slices = rows.reshape(-1, 3 ** (n - 1))  # row 3i + k: slice k of image i
    residuals = np.empty((len(slices), 1, 1))  # |slice k of h_i|^2 at 3i + k
    coefficients = []
    for g in plan.groups:
        span = 3 * g.parts.shape[1]  # slices of one parent's children
        a = np.empty((len(g.blocks), span, g.width))
        h = np.empty((span, slices.shape[1]))
        # one pass per parent, while its slices are in cache
        for a_p, lam, block, first in zip(
            a, defects.lam[g.parents].tolist(), g.blocks, (3 * g.parts[:, 0]).tolist()
        ):
            s = slices[first : first + span]
            np.dot(s, block.T, out=a_p)
            np.dot(a_p / lam, block, out=h)
            np.subtract(s, h, out=h)
            np.matmul(h[:, None, :], h[:, :, None], out=residuals[first : first + span])
        coefficients.append(a.reshape(len(g.blocks), g.parts.shape[1], -1))
    rho = np.zeros(len(rows))
    np.divide(residuals.reshape(-1, 3).sum(axis=1), squares, out=rho, where=live)
    rho = np.sqrt(rho) + defects.slack
    norms = np.full(len(rows), np.inf)  # a zero row pairs with nothing
    np.sqrt(squares, out=norms, where=live)
    second, first = np.partition(rho, -2)[-2:]
    worst = _pair_bound(defects.eta * (1.0 + first) * (1.0 + second), first, second)
    for a, g in zip(coefficients, plan.groups):
        if g.parts.shape[1] < 2:
            continue
        lam, delta = defects.lam[g.parents], defects.delta[g.parents]
        r, f = rho[g.parts], norms[g.parts]
        inspan = np.abs(np.matmul(a, a.transpose(0, 2, 1)))
        inspan /= lam[:, None, None] * f[:, :, None] * f[:, None, :]
        inspan += delta[:, None, None] * (1.0 + r[:, :, None]) * (1.0 + r[:, None, :])
        i, j = g.pairs
        worst = max(worst, _pair_bound(inspan[:, i, j], r[:, i], r[:, j]).max())
    return float(worst)


def _gram_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``rows`` and their squared norms, or the same of ``_scaled_rows(rows)``
    when a row that is not all zero has a squared norm outside ``_GRAM_RANGE``
    or of 0; so only an exactly zero row, in any units, pairs with no other."""
    with np.errstate(over="ignore"):  # rescaled below
        squares = np.einsum("ij,ij->i", rows, rows)
    low, high = _GRAM_RANGE
    in_range = low <= squares.min(initial=low, where=squares > 0.0)
    in_range &= squares.max(initial=0.0) <= high
    if not in_range or any(rows[i].any() for i in np.flatnonzero(squares == 0.0)):
        rows = _scaled_rows(rows)[0]
        squares = np.einsum("ij,ij->i", rows, rows)
    return rows, squares


def _max_cross_correlation(rows: np.ndarray) -> float:
    """Largest |<f_i, f_j>| / (|f_i| |f_j|) over pairs i != j of nonzero
    rows f of ``_gram_rows``, from one Gram product F F^T whose diagonal
    gives the squared norms: O(parts^2 * 3^n) flops and a (parts, parts)
    matrix.  ``verify`` takes it below ``_CERTIFY_FROM_ORDER``, for parts in
    another layout than ``_plan(n)``'s, and where the certified bound
    exceeds ``_CERTIFIED_MAX``."""
    rows = _gram_rows(rows)[0]
    with np.errstate(over="ignore", invalid="ignore"):  # a NaN or inf entry
        gram = rows @ rows.T  # numpy runs this as a symmetric rank-k update
    norms = np.sqrt(gram.diagonal())
    nonzero = norms > 0.0
    if np.count_nonzero(nonzero) < 2:
        return 0.0
    if not nonzero.all():
        gram = gram[np.ix_(nonzero, nonzero)]
        norms = norms[nonzero]
    np.abs(gram, out=gram)
    gram /= norms[:, None]
    gram /= norms[None, :]
    np.fill_diagonal(gram, 0.0)
    return float(gram.max())


def _part_residuals(stacks, count: int) -> tuple[list[float], list[float]]:
    """Symmetry and trace residual of each of ``count`` parts' deviators,
    given as ``_Record.stacks``, relative to the deviator's norm; 0 for
    orders below 2 and for a zero deviator.

    Each order's stack is checked at once, on ``_scaled_rows`` of the
    stack, so no norm overflows or underflows at any scale.
    """
    sym_res = np.zeros(count)
    trace_res = np.zeros(count)
    for s, index, flat in stacks:
        if s < 2:
            continue
        flat = _scaled_rows(flat)[0]
        devs = flat.reshape((len(index),) + (3,) * s)
        norms = np.linalg.norm(flat, axis=1)
        sym = np.linalg.norm(flat - symmetrize_stack(devs).reshape(flat.shape), axis=1)
        trace = np.linalg.norm(np.trace(devs, axis1=1, axis2=2).reshape(len(index), -1), axis=1)
        nonzero = norms > 0.0
        sym_res[index] = np.divide(sym, norms, out=np.zeros_like(sym), where=nonzero)
        trace_res[index] = np.divide(trace, norms, out=np.zeros_like(trace), where=nonzero)
    return sym_res.tolist(), trace_res.tolist()


def _has_plan_layout(orders: tuple, labels: tuple, order: int) -> bool:
    """Whether parts of these orders s and labels J have the layout of
    ``decompose``, ``_plan(order).orders`` and ``.labels``."""
    if len(orders) != len(part_orders(order)):  # no E_{n-1} is built for a wrong count
        return False
    plan = _plan(order)
    return orders == plan.orders and labels == plan.labels


def verify(d: Decomposition, t) -> VerifyReport:
    """Residual report of a decomposition against the tensor it came from.

    Every check reads the arrays that the output of ``decompose`` and
    ``load_decomposition`` records (``_record_of``), never ``parts``, so it
    builds no part; any other decomposition is first stacked, once, into
    such arrays.  The reconstruction and cross-correlation checks read every
    stored image and the symmetry and trace checks every stored deviator, so
    an edited part fails them.

    ``max_cross_correlation`` is, from order ``_CERTIFY_FROM_ORDER`` up and
    for parts in the layout of ``decompose`` (``_has_plan_layout``), the
    certified upper bound of ``_certified_cross_correlation`` (O(9^n)
    flops) when that bound is at most ``_CERTIFIED_MAX``; it is then within
    1e-13 above the exact value.  Otherwise it is the Gram product of
    ``_max_cross_correlation`` (O(parts^2 * 3^n) flops and a (parts, parts)
    matrix).  Every residual is computed on exactly rescaled values, so it
    does not depend on the scale of ``t``.
    """
    t = as_tensor(t, order=d.order)
    record = _record_of(d)
    rows = record.rows
    t_norm = frobenius_norm(t)
    res = frobenius_norm(rows.sum(axis=0).reshape(t.shape) - t)
    rel = res / t_norm if t_norm > 0.0 else res

    sym_res, trace_res = _part_residuals(record.stacks, len(record.orders))
    max_cross = np.inf
    if d.order >= _CERTIFY_FROM_ORDER and _has_plan_layout(record.orders, record.labels, d.order):
        max_cross = _certified_cross_correlation(rows, d.order)
    if not max_cross <= _CERTIFIED_MAX:
        max_cross = _max_cross_correlation(rows)

    expected = {s: count_parts(d.order, s) for s in range(d.order + 1)}
    actual = dict(Counter(record.orders))
    counts_ok = actual == {s: j for s, j in expected.items() if j}
    part_residuals = [0.0] + sym_res + trace_res
    return VerifyReport(
        order=d.order,
        reconstruction_residual=res,
        reconstruction_relative=rel,
        part_symmetry=tuple(sym_res),
        part_trace=tuple(trace_res),
        max_part_residual=max(part_residuals),
        max_cross_correlation=max_cross,
        counts_expected=expected,
        counts_actual=actual,
        counts_ok=counts_ok,
    )
