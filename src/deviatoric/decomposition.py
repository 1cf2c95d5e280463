"""Orthogonal irreducible decomposition of 3-D tensors.

An arbitrary order-n tensor splits uniquely into embedded deviators: a sum of
terms, one per (s, J) slot, where s is the deviator order (0 <= s <= n) and
J = 1..count_parts(n, s) labels the multiplicity.  The deviators are what a
decomposition holds; each part's embedded order-n image is built from its
deviator on first read.  Embedded images of different parts are mutually
Frobenius-orthogonal and sum back to the input.

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
The matrices E_0 .. E_{n-1} are built once each and cached: the rows of
E_m are the group products of ``_plan(m)`` applied to unit coordinates.

The arrays are laid out by group, so that the engine works on all the
parents of one order s at once:

* E_m takes its slots in order of s, and of J within each s.  So the rows
  of all the order-s slots of E_{n-1} are one contiguous block, which the
  group of order-s parents reads as a (parents, 2s+1, 3^(n-1)) view.
* The coordinates of an order-n decomposition, and its image rows when
  they are built, are in plan order: grouped by parent order s, then by
  parent (in order of J), then by child.  So each group builds its
  children's images with one stacked product into a contiguous block of
  rows.  ``_layout(n).row_of`` gives the row of each part; ``parts`` and
  every public order stay in traversal order.

``combine_deviator_triple`` maps a triple (d_lo, d_mid, d_hi) of orders
(n-1, n, n+1) to the order-(n+1) tensor

    (2n-1)/(n-1) * sym(delta x d_lo) - sym(delta-shift x d_lo)
    + sym(epsilon . d_mid) + d_hi

with symmetrization over the n trailing indices; the first index stays free.
The two delta terms keep a fixed coefficient ratio so their sum is traceless
in the trailing indices, which is why they act as a single map of d_lo.
``_regroup`` holds these maps for each basis deviator of a child slot.
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
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
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
    """The arrays of the parts of an order-n decomposition, whose s, J and
    image row are those of ``_layout(n)``: the image of part i is row
    ``_layout(n).row_of[i]`` of ``rows``.  The output of ``decompose`` holds
    no rows, and nor does a file read without images: the images are the
    embeddings of the deviators, built by ``_rows_of`` when read.
    """

    rows: np.ndarray | None  # (parts, 3^n) images; None for the deviators alone
    stacks: tuple  # per deviator order s: (s, (J_s,) part indices, (J_s, 3^s) deviators)


@dataclass(frozen=True)
class Decomposition:
    """The parts of an order-n tensor.

    The output of ``decompose`` and ``load_decomposition`` is made by
    ``_from_rows`` and records its parts as arrays (``_Record``): the
    deviators as one stack per deviator order and, for a file that gives
    its images, the images as the rows of one (parts, 3^n) array, in plan
    order.  ``reconstruct`` and ``verify`` read those arrays, and ``parts``
    is built from them on first access, then stored; each ``deviator`` is a
    view of its stack, so an in-place edit of a deviator is an edit of the
    record.  The output of ``decompose``, and a file read without images,
    hold only their deviators: ``parts`` builds the images once, from the
    deviators, as read-only rows.  The images of a file that gives them are
    views of its rows, so an in-place edit reaches them.
    A hand-built decomposition, or any copy (pickle, ``copy``, ``deepcopy``,
    ``dataclasses.replace``), holds its parts and no record.  Its parts are
    one per (s, J) slot, in the layout of ``decompose``: any other part
    list is an input error (``_stacked``).
    """

    order: int
    parts: tuple[IrreduciblePart, ...]
    _record: _Record | None = field(default=None, init=False, repr=False, compare=False)

    def __getattr__(self, name):
        # only a decomposition made by ``_from_rows`` lacks ``parts``
        if name != "parts" or self._record is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        orders, labels, row_of = _layout(self.order)
        deviators: list = [None] * len(orders)
        for s, index, stack in self._record.stacks:
            for i, deviator in zip(index.tolist(), _views(stack, s)):
                deviators[i] = deviator
        images = _views(_rows_of(self._record, self.order), self.order)
        images = [images[r] for r in row_of.tolist()]
        # a list first: tuple() of an iterator of unknown length resizes its
        # result, and CPython keeps each freed tuple of under 20 items on a
        # per-size free list of up to 2000 that resizing never draws from
        parts = list(map(IrreduciblePart, orders, labels, deviators, images))
        object.__setattr__(self, "parts", tuple(parts))
        return self.parts

    def __getstate__(self):
        # copies keep no record: pickle and deepcopy give each part an array of its own
        return {"order": self.order, "parts": self.parts}

    def __repr__(self) -> str:
        # the parts' arrays would print in full (numpy summarises no axis of
        # length 3), and reading them would build the images
        return f"{type(self).__name__}(order={self.order}, counts={self.counts()})"

    def counts(self) -> dict[int, int]:
        orders = [p.s for p in self.parts] if self._record is None else _layout(self.order).orders
        return dict(Counter(orders))


@dataclass(frozen=True)
class VerifyReport:
    """Residuals of a decomposition against its source tensor.

    Residuals are relative: the reconstruction to the source tensor's norm,
    each part's symmetry and trace to that part's deviator norm, and each
    cross-correlation to the two images' norms.  A zero denominator gives
    the absolute residual for the reconstruction and residual 0 for a zero
    part, which is trivially symmetric, traceless and orthogonal.  A
    deviator with an entry that is not finite has symmetry and trace
    residual inf.  ``max_cross_correlation`` is a certified upper bound on
    the largest cross-correlation and ``max_embedding_residual`` the largest
    tie rho_i = |f_i - e_i| / |f_i| of an image f_i to the embedding e_i of
    its own deviator (``_certified_cross_correlation``); both are inf only
    for an entry that is not finite or a zero image whose deviator is not
    zero.  ``counts_ok`` holds for every decomposition that ``verify``
    accepts; it stays for the report.
    """

    order: int
    reconstruction_residual: float
    reconstruction_relative: float
    part_symmetry: tuple[float, ...]
    part_trace: tuple[float, ...]
    max_part_residual: float
    max_cross_correlation: float
    max_embedding_residual: float
    counts_expected: dict[int, int]
    counts_actual: dict[int, int]
    counts_ok: bool

    def passes(self, tol: float = 1e-10) -> bool:
        return bool(
            self.reconstruction_relative <= tol
            and self.max_part_residual <= tol
            and self.max_cross_correlation <= tol
            and self.max_embedding_residual <= tol
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


class _Layout(NamedTuple):
    """Where the parts of an order-n decomposition go; no array of E is
    needed to know it."""

    orders: tuple[int, ...]  # s of each part, in traversal order
    labels: tuple[int, ...]  # J of each part
    row_of: np.ndarray  # (parts,) the image row of each part, in plan order


@lru_cache(maxsize=None)
def _layout(n: int) -> _Layout:
    """The order-n layout.  The image rows are in plan order: by parent
    order, then parent, then child."""
    orders = np.array(part_orders(n))
    labels = np.empty(len(orders), dtype=int)
    for s in set(orders.tolist()):
        index = np.flatnonzero(orders == s)
        labels[index] = np.arange(1, len(index) + 1)
    by_row = np.zeros(1, dtype=int)
    if n:
        parents = part_orders(n - 1)
        parent_order = np.repeat(parents, [len(_children(s)) for s in parents])
        by_row = np.argsort(parent_order, kind="stable")
    row_of = np.empty(len(orders), dtype=int)
    row_of[by_row] = np.arange(len(orders))
    _read_only(row_of)
    return _Layout(part_orders(n), tuple(labels.tolist()), row_of)


@lru_cache(maxsize=None)
def _change_of_basis(n: int) -> np.ndarray:
    """The order-n change of basis E, built from ``_plan(n)``.

    Row r of the read-only (3^n, 3^n) matrix is the flattened embedded image
    of one orthonormal basis deviator of one slot.  Each slot takes 2s+1
    consecutive rows, in the (s, J) order of ``_plan(n).deviators``, so the
    slots of one order are one block.  The rows are the plan's group products
    F_s E_{n-1, p} applied to unit coordinates, written from plan order into
    slot order.
    """
    if n == 0:
        rows = np.ones((1, 1))
    else:
        plan = _plan(n)
        # the row of E_n of each position in c: the inverse of the slots' positions
        row_at = np.argsort(np.concatenate([p.ravel() for _, _, p, _ in plan.deviators]))
        rows = np.empty((3**n, 3**n))
        for g in plan.groups:
            # (parents, 3 width, 3, 3^(n-1)): F_s times each parent's rows
            products = np.matmul(_regroup(g.width // 2), g.blocks[:, None])
            rows[row_at[g.coords]] = products.reshape(-1, 3**n)
    rows.flags.writeable = False
    return rows


class _Group(NamedTuple):
    """The order-(n-1) slots of one deviator order s, as parents of their
    order-n children.

    The parents are a contiguous block of the slots of E_{n-1}, so their
    rows are one (parents, 2s+1, 3^(n-1)) view ``blocks``, and their
    slice coordinates one block of y, the three products E_{n-1} t[k]
    interleaved: position 3(r+j)+k of y holds (E_{n-1} t[k])_{r+j}.  The
    children's coordinates take the same positions in c, and their images
    one block of the image rows: by parent, then by child, each image three
    consecutive slices.
    """

    slots: slice  # the parents among the slots of E_{n-1}
    coords: slice  # positions of the parents' slice coordinates in y, and of the children's in c
    images: slice  # the children's image rows
    to_children: np.ndarray  # (3 width, 3 width): slice coordinates -> E_n t
    norms: np.ndarray  # (parents, 3 width) lambda of the children's rows
    to_images: np.ndarray  # (3 width, children * 3 width): c -> image coefficients
    width: int  # 2s+1
    children: int  # children per parent
    pairs: tuple  # np.triu_indices(children, 1): the sibling pairs i < j
    blocks: np.ndarray  # (parents, width, 3^(n-1)) view of E_{n-1}

    def coefficients(self, c: np.ndarray) -> np.ndarray:
        """The (parents, 3 children, width) image coefficients of the
        children's coordinates in ``c``: slice k of the image of child i of
        parent p is row 3i + k times ``blocks[p]``."""
        c_g = c[self.coords].reshape(self.norms.shape)
        return np.dot(c_g, self.to_images).reshape(len(self.blocks), -1, self.width)


class _Plan(NamedTuple):
    """What ``decompose`` needs for order n, built once per order: the
    layout and the arrays."""

    orders: tuple[int, ...]  # s of each part, in traversal order
    labels: tuple[int, ...]  # J of each part
    row_of: np.ndarray  # (parts,) the image row of each part
    prev: np.ndarray | None  # E_{n-1}; None for n = 0
    groups: tuple[_Group, ...]  # one per parent order s; none for n = 0
    deviators: tuple  # per order s: (s, (J_s,) part indices, (J_s, 2s+1) positions in c, B_s.flat)


def _read_only(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.flags.writeable = False


@lru_cache(maxsize=None)
def _plan(n: int) -> _Plan:
    """The order-n change of basis in factored form, over the cached
    order-(n-1) matrix.  ``decompose`` never builds E_n: ``_change_of_basis(n)``
    builds it from these groups only when an order-(n+1) call needs it.

    Row r of E_n, for a child of parent slot p, is sum_j F[r, k, j] times row
    j of E_{n-1, p} in slice k (F = ``_regroup``), so
    (E_n t)_r = sum_{k,j} F[r, k, j] (E_{n-1} t[k])_{p,j} and the image of
    coordinates c is (sum_r c_r F[r, k, :]) E_{n-1, p} in slice k.  The rows
    of E_{n-1, p} are orthogonal (Schur's lemma), so lambda_r =
    sum_{k,j} F[r, k, j]^2 lam_{p,j}, lam the squared row norms of E_{n-1}.
    """
    layout = _layout(n)
    orders = np.array(layout.orders)
    # c holds each image row's 2s+1 coordinates, in plan order
    by_row = np.argsort(layout.row_of)
    widths = 2 * orders[by_row] + 1
    starts = np.empty(len(orders), dtype=int)
    starts[by_row] = np.cumsum(widths) - widths
    deviators = []
    for s in sorted(set(layout.orders)):
        index = np.flatnonzero(orders == s)
        positions = starts[index][:, None] + np.arange(2 * s + 1)
        _read_only(index, positions)
        deviators.append((s, index, positions, build_basis(s).flat))
    plan = _Plan(*layout, None, (), tuple(deviators))
    if n == 0:
        return plan

    prev = _change_of_basis(n - 1)
    lam = np.einsum("ij,ij->i", prev, prev)
    groups = []
    slot = row = image = 0
    for s, count in enumerate(counts_row(n - 1)):
        if not count:
            continue
        width, children = 2 * s + 1, _children(s)
        rows = slice(row, row + count * width)
        f = _regroup(s)  # (3 width, 3, width)
        norms = lam[rows].reshape(count, width) @ (f * f).sum(axis=1).T
        to_children = f.transpose(2, 1, 0).reshape(3 * width, 3 * width)
        # row r of c_g, a coordinate of child i, puts F[r] in column block i
        child = np.repeat(np.arange(len(children)), [2 * c + 1 for c in children])
        to_images = np.zeros((3 * width, len(children), 3 * width))
        to_images[np.arange(3 * width), child] = f.reshape(3 * width, -1)
        to_images = to_images.reshape(3 * width, -1)
        blocks = prev[rows].reshape(count, width, -1)
        pairs = np.triu_indices(len(children), 1)
        _read_only(to_children, norms, to_images, *pairs)
        groups.append(_Group(
            slice(slot, slot + count), slice(3 * rows.start, 3 * rows.stop),
            slice(image, image + count * len(children)), to_children, norms, to_images,
            width, len(children), pairs, blocks,
        ))
        slot, row, image = slot + count, rows.stop, image + count * len(children)
    return plan._replace(prev=prev, groups=tuple(groups))


def _coordinates(plan: _Plan, t: np.ndarray) -> np.ndarray:
    """The coordinates c = E_n t / lambda of an order-n ``t``, in plan
    order, from the order-n ``plan``: one product over E_{n-1}, then two
    small products per group."""
    if t.ndim == 0:
        return np.array([float(t)])
    # y[3r + k] = (E_{n-1} t[k])_r, one product over the order-(n-1) matrix;
    # each group then overwrites its block with the coordinates.  The slices
    # times E_{n-1}^T give the same bits as E_{n-1} times the slices as
    # columns, and took 0.45 against 0.69 ms at order 7 and 4.7 against
    # 8.0 ms at order 8, warm on one BLAS thread
    c = np.dot(t.reshape(3, -1), plan.prev.T).T.ravel()
    for g in plan.groups:
        c_g = c[g.coords].reshape(g.norms.shape)
        np.divide(np.dot(c_g, g.to_children), g.norms, out=c_g)
    return c


def _images(plan: _Plan, c: np.ndarray) -> np.ndarray:
    """The new (parts, 3^n) array of the embedded images of the coordinates
    ``c`` of the order-n ``plan``, in plan order: one stacked product per
    group."""
    if plan.prev is None:
        return c.reshape(1, 1).copy()
    images = np.empty((len(plan.orders), len(c)))
    for g in plan.groups:
        out = images[g.images].reshape(len(g.blocks), -1, len(plan.prev))
        np.matmul(g.coefficients(c), g.blocks, out=out)
    return images


def _rows_of(record: _Record, n: int) -> np.ndarray:
    """The image rows of the order-n ``record``: its own, or for the output
    of ``decompose`` the embeddings of its deviators, built by the product
    of ``_images`` and read-only, so no edit can part them from the
    deviators they were built from."""
    if record.rows is not None:
        return record.rows
    plan = _plan(n)
    rows = _images(plan, _deviator_coordinates(plan, record.stacks, n))
    rows.flags.writeable = False
    return rows


def _views(rows: np.ndarray, order: int) -> list[np.ndarray]:
    """Each row of a 2-D array as a view of shape (3,) * order."""
    if order == 0:
        return [r.reshape(()) for r in rows]
    return list(rows.reshape((-1,) + (3,) * order))


def _from_rows(order: int, record: _Record) -> Decomposition:
    """The order-``order`` decomposition whose parts are the arrays of
    ``record``; the only maker of a decomposition with a record.
    ``decompose`` passes its deviators and no rows, and
    ``decomposition_from_json`` ``_stacked`` of the parts it read, with the
    images only of a file that gives them.  No ``parts`` is built until
    they are read."""
    d = object.__new__(Decomposition)
    object.__setattr__(d, "order", order)
    object.__setattr__(d, "_record", record)
    return d


def _stacked(order: int, orders, labels, deviators, images=None) -> _Record:
    """The record of parts with these orders s, labels J, deviators and
    order-``order`` embedded images, given in part order.

    The only code that stacks loose parts into a record, so the one check
    of a part list: parts in any other (s, J) layout than that of
    ``decompose``, no parts included, raise one ``ValueError``.  The images
    go into the rows of one new (parts, 3^order) array, in plan order, and
    the deviators of each order s into one new (J_s, 3^s) array, which the
    parts built from the record view.  Raises the error of ``as_tensor`` for
    the first image in row order, then the first deviator of each order, of
    another shape than its order's.  With no images, the record is the one
    ``decompose`` makes.
    """
    # that layout has one part of s = order and none above it, so no layout
    # or count is built for a larger order than any part's
    if (max(orders, default=-1) != order or len(orders) != sum(counts_row(order))
            or (tuple(orders), tuple(labels)) != _layout(order)[:2]):
        raise ValueError("parts are not in the (s, J) layout of decompose")
    rows = None
    if images is not None:
        rows = _stack([images[i] for i in np.argsort(_layout(order).row_of).tolist()], order)
    orders_array = np.array(orders, dtype=int)
    stacks = []
    for s in sorted(set(orders)):
        index = np.flatnonzero(orders_array == s)
        stacks.append((s, index, _stack([deviators[i] for i in index], s)))
    return _Record(rows, tuple(stacks))


def decompose(t) -> Decomposition:
    """Orthogonal irreducible decomposition of an arbitrary 3-D tensor.

    Returns one part per (s, J) slot in deterministic traversal order; the
    embedded images sum to ``t`` and are mutually orthogonal.  The
    decomposition records only the deviators, one stack per order (see
    ``Decomposition``): ``reconstruct`` and ``verify`` read them in place,
    and the images, 98% of the doubles of the parts, are built only when
    ``parts`` is read.  Raises ``ValueError`` for a NaN or +-inf entry.
    """
    t = as_tensor(t)
    if not np.isfinite(t).all():
        raise ValueError("tensor has a non-finite entry")
    plan = _plan(t.ndim)
    c = _coordinates(plan, t)
    # a list first, as in ``Decomposition.__getattr__``
    stacks = tuple([(s, index, np.dot(c[rows], basis)) for s, index, rows, basis in plan.deviators])
    return _from_rows(t.ndim, _Record(None, stacks))


def reconstruct(d: Decomposition) -> np.ndarray:
    """Sum of the embedded parts; inverse of ``decompose``.

    It reads ``_record_of(d)``: the record of ``decompose`` and
    ``load_decomposition`` output, in place, or the parts of any other
    decomposition, stacked once (``_sum``).  So parts in another layout, or
    of another shape than their order's, raise the same ``ValueError`` as
    in ``verify``.
    """
    return _sum(_record_of(d), d.order)


def _sum(record: _Record, n: int) -> np.ndarray:
    """The sum of the images of the order-n ``record``: its rows, summed,
    or for the output of ``decompose`` one product with E_{n-1}.

    Slice k of the images of a parent's children is the sum of their slice-k
    image coefficients times the parent's rows of E_{n-1}.  Each coordinate
    r of the children adds c_r F[r, k, :] to that sum, so the sums of a
    group are its coordinates (``_deviator_coordinates``) times the
    transpose of ``_Group.to_children``, laid out as the slice coordinates
    y, and the tensor is Y E_{n-1}, slice by slice.  An in-place edit of a
    deviator reaches it through the coordinates.
    """
    if record.rows is not None:
        return record.rows.sum(axis=0).reshape((3,) * n)
    plan = _plan(n)
    c = _deviator_coordinates(plan, record.stacks, n)
    if n == 0:
        return c.reshape(())
    y = np.empty(3**n)
    for g in plan.groups:
        shape = g.norms.shape
        np.dot(c[g.coords].reshape(shape), g.to_children.T, out=y[g.coords].reshape(shape))
    return np.dot(y.reshape(-1, 3).T, plan.prev).reshape((3,) * n)


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

# Products of image rows whose squared norms lie outside this range, or of
# coordinates whose squares do, could overflow, or lose precision to
# subnormal products.
_GRAM_RANGE = (2.0**-600, 2.0**600)

# doubles of image slices that the certificate takes at a time, in whole
# parents.  Warm, on one BLAS thread of a shared 2-core Xeon host (4 MiB L2),
# the certificate took 2.2-2.6 ms at order 7 (9 parents a chunk) and 20-27 ms
# at order 8 (3 parents), against 2.4-2.7 and 22-26 ms at half and 2.3-2.5
# and 23-26 ms at twice this size.
_CERTIFY_CHUNK = 1 << 16


class _SpanDefects(NamedTuple):
    """How far the parents' rows of E_{n-1} are from orthogonal, per parent
    and over all parents, with the rounding allowances of
    ``_certified_cross_correlation``."""

    lam: np.ndarray  # (parents,) lambda_p, in the slot order of E_{n-1}
    sigma: np.ndarray  # (parents,) sigma_p, in the same order
    delta: np.ndarray  # (parents,) delta_p, in the same order
    eta: float
    slack: np.ndarray  # (parts,) rounding allowance of each rho, in plan order


@lru_cache(maxsize=None)
def _span_defects(n: int) -> _SpanDefects:
    """The defects of the order-(n-1) change of basis, n >= 1.

    For the w rows B_p of parent slot p, lambda_p is their mean squared norm
    and D_p = B_p B_p^T - lambda_p I, so every squared singular value of B_p
    is at least sigma_p = lambda_p - |D_p|_F.  Then delta_p = |D_p|_F /
    sigma_p, and eta is the largest |B_p B_q^T|_F / sqrt(sigma_p sigma_q)
    over p != q.  Both come from one product per pair g <= h of the plan's
    groups, the slot-order blocks of E_{n-1} (``_Group.blocks``), so no
    3^(n-1) x 3^(n-1) product is held.

    The certificate's own products round: the 3w-term coefficient Gram by
    at most (3w + 2) eps of the norms, which is added to delta_p, and the
    w-term product e = a B_p by at most w^1.5 eps of |f_i|, the slack added
    to rho_i (eps = 2^-52, twice the unit roundoff, covers the factors
    (1 + delta_p)).
    """
    groups = _plan(n).groups
    count = groups[-1].slots.stop
    lam, sigma, delta = np.empty((3, count))
    squares = np.zeros((count, count))  # |B_p B_q^T|_F^2, for p and q in groups g <= h
    slack = np.empty(sum(counts_row(n)))
    eps = np.finfo(float).eps
    for i, g in enumerate(groups):
        slack[g.images] = g.width**1.5 * eps
        rows = g.blocks.reshape(-1, g.blocks.shape[-1])
        for h in groups[i:]:
            gram = rows @ h.blocks.reshape(-1, h.blocks.shape[-1]).T
            gram = gram.reshape(len(g.blocks), g.width, len(h.blocks), h.width)
            if h is g:  # B_p B_p^T of each parent
                own = gram[np.arange(len(g.blocks)), :, np.arange(len(g.blocks))]
                lam[g.slots] = np.trace(own, axis1=1, axis2=2) / g.width
                defect = own - lam[g.slots, None, None] * np.eye(g.width)
                defect = np.linalg.norm(defect, axis=(1, 2))
                sigma[g.slots] = lam[g.slots] - defect
                delta[g.slots] = defect / sigma[g.slots] + (3 * g.width + 2) * eps
            gram *= gram
            squares[g.slots, h.slots] = gram.sum(axis=(1, 3))
    np.fill_diagonal(squares, 0.0)
    eta = float(np.sqrt(np.max(squares / np.outer(sigma, sigma))))
    _read_only(lam, sigma, delta, slack)
    return _SpanDefects(lam, sigma, delta, eta, slack)


def _pair_bound(inspan, rho_i, rho_j):
    """cos_ij <= inspan_ij + rho_i + rho_j + 3 rho_i rho_j; see
    ``_certified_cross_correlation``."""
    return inspan + rho_i + rho_j + 3.0 * rho_i * rho_j


def _certified_cross_correlation(record: _Record, n: int) -> tuple[float, float]:
    """An upper bound on the largest cos_ij = |<f_i, f_j>| / (|f_i| |f_j|)
    over pairs i != j of nonzero image rows f of the parts of an order-n
    decomposition in ``_layout(n)``, and the largest rho_i below.  Both are
    inf when an image or a deviator is not finite, or an image is zero but
    its deviator is not (read from the deviator, so an embedding that
    underflows counts).  A zero image with a zero deviator has rho 0 and
    pairs with no other.

    Each image f_i should be the embedding of its own stored deviator: with
    a_i the image coefficients of the deviator (``_deviator_coordinates``,
    then ``_Group.coefficients``, as ``_images`` forms them),
    e_i = a_i B_p slice by slice, B_p the rows of the parent slot in E_{n-1}.
    e_i lies in the span of B_p whatever a_i and the defect of B_p,
    h_i = f_i - e_i, and rho_i = |h_i| / |f_i|.  Writing f_i = e_i + h_i
    gives cos_ij <= inspan_ij + rho_i + rho_j + 3 rho_i rho_j, where
    inspan_ij bounds |<e_i, e_j>| / (|f_i| |f_j|).  As |e_i|^2 >= sigma_p
    |a_i|^2 and |e_i| <= (1 + rho_i) |f_i|:

    * for siblings, <e_i, e_j> = lambda_p a_i . a_j + a_i D_p a_j^T, so
      inspan_ij is the coefficient Gram lambda_p |a_i . a_j| over the norms,
      plus delta_p (1 + rho_i)(1 + rho_j);
    * across parents, |<e_i, e_j>| <= |B_p B_q^T|_F |a_i| |a_j|, so inspan_ij
      is eta (1 + rho_i)(1 + rho_j), which with the rest of the bound is
      largest for the two largest rho.

    lambda_p, sigma_p, delta_p, eta and the rounding slack of rho are
    ``_span_defects(n)``.  The bound holds for any rows and deviators, so an
    edited, swapped or rescaled image or deviator only makes it large.

    Two paths give the norms and rho:

    * A record with rows (a file read with images, a copy, a hand-built
      decomposition) is read in one O(9^n) pass over the rows
      (``_span_residuals``), which measures |f_i| and |h_i|.  When the
      squared norms are ``_out_of_range``, the pass is taken again on
      ``_scaled_rows`` of the rows, with each image's coefficients divided
      exactly by the same power of two as its row.
    * The output of ``decompose``, and a file read without images, hold no
      rows: the images are the product f_i = fl(a_i B_p) of ``_rows_of``,
      so h_i is that product's rounding, rho_i is 0 before the slack, and
      |f_i| >= sqrt(sigma_p) |a_i| (1 - slack) stands in for the norm.  No
      image is read or built: the bound costs O(P w^2).  This holds while
      every nonzero coordinate c has c^2 in ``_GRAM_RANGE``, so that no
      product underflows or overflows; otherwise the images are built and
      take the first path.
    """
    rows = record.rows
    plan = _plan(n)
    # out of range: taken again, rescaled; not finite: inf, below
    with np.errstate(over="ignore", invalid="ignore"):
        c = _deviator_coordinates(plan, record.stacks, n)
        low, high = _GRAM_RANGE
        c2 = c * c  # a nonzero c whose square underflows is out of range too
        from_coefficients = rows is None and bool(
            c2.max(initial=0.0) <= high and low <= c2.min(initial=low, where=c != 0.0)
        )
        if from_coefficients:
            coefficients = [g.coefficients(c) for g in plan.groups]
            squares = _coefficient_squares(plan, coefficients, c)
            residuals = np.zeros_like(squares)
        else:
            if rows is None:
                rows = _rows_of(record, n)
            squares, residuals, coefficients = _span_residuals(rows, c, n)
            if _out_of_range(rows, squares):
                rows, exponents = _scaled_rows(rows)
                c = _deviator_coordinates(plan, record.stacks, n, exponents)
                squares, residuals, coefficients = _span_residuals(rows, c, n)
        live = squares > 0.0
        rho = np.zeros(len(squares))
        np.divide(residuals, squares, out=rho, where=live)
        np.sqrt(rho, out=rho)
    if not live.all():
        for _, index, stack in record.stacks:
            image = plan.row_of[index]
            rho[image[~live[image] & stack.any(axis=1)]] = np.inf
    tie = float(rho.max())
    if not (tie < np.inf and np.isfinite(squares).all()):  # eta = 0 would make the bound NaN
        return np.inf, np.inf
    if np.count_nonzero(live) < 2:
        return 0.0, tie
    defects = _span_defects(n)
    rho += defects.slack
    norms = np.full(len(squares), np.inf)  # a zero image pairs with nothing
    np.sqrt(squares, out=norms, where=live)
    lam = defects.lam
    if from_coefficients:  # |f_i| >= sqrt(sigma_p) |a_i| (1 - slack)
        norms *= 1.0 - defects.slack
        lam = lam / defects.sigma
    second, first = np.partition(rho, -2)[-2:]
    worst = _pair_bound(defects.eta * (1.0 + first) * (1.0 + second), first, second)
    for a, g in zip(coefficients, plan.groups):
        if g.children < 2:
            continue
        delta = defects.delta[g.slots]
        r, f = rho[g.images].reshape(-1, g.children), norms[g.images].reshape(-1, g.children)
        a = a.reshape(len(a), g.children, -1)
        inspan = np.abs(np.matmul(a, a.transpose(0, 2, 1)))
        inspan *= lam[g.slots, None, None] / (f[:, :, None] * f[:, None, :])
        inspan += delta[:, None, None] * (1.0 + r[:, :, None]) * (1.0 + r[:, None, :])
        i, j = g.pairs
        worst = max(worst, _pair_bound(inspan[:, i, j], r[:, i], r[:, j]).max())
    return float(worst), tie


def _coefficient_squares(plan: _Plan, coefficients: list, c: np.ndarray) -> np.ndarray:
    """|a_i|^2 of each image's coefficients, in plan order; at order 0 the
    image is its one coordinate."""
    if plan.prev is None:
        return c * c
    squares = np.empty(len(plan.orders))
    for a, g in zip(coefficients, plan.groups):
        a = a.reshape(len(a), g.children, -1)
        squares[g.images] = np.einsum("pix,pix->pi", a, a).ravel()
    return squares


def _deviator_coordinates(
    plan: _Plan, stacks, n: int, exponents: np.ndarray | None = None
) -> np.ndarray:
    """The 3^n coordinates c of the deviators ``stacks`` of a record in the
    layout of the order-n ``plan``, in plan order: each deviator times
    B_s^T, the c of ``decompose`` to rounding.  Given the e of each image
    row of ``_scaled_rows``, each deviator is taken on its own
    ``_scaled_rows`` and its coordinates are then divided by 2^e of its
    part's row, exactly (unless they leave the float range)."""
    c = np.empty(3**n)
    for (_, index, stack), (_, _, positions, basis) in zip(stacks, plan.deviators):
        if exponents is None:
            c[positions] = np.dot(stack, basis.T)
        else:
            stack, shift = _scaled_rows(stack)
            shift -= exponents[plan.row_of[index]]
            c[positions] = np.ldexp(np.dot(stack, basis.T), shift[:, None])
    return c


def _span_residuals(rows: np.ndarray, c: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, list]:
    """The squared norms |f_i|^2 and |h_i|^2 of the image rows f, in plan
    order, and per group the coefficients a of ``_certified_cross_correlation``,
    those of the deviator coordinates ``c`` (``_Group.coefficients``).

    The slices of one group's parents are one block of the rows.  They are
    taken about ``_CERTIFY_CHUNK`` doubles at a time, in whole parents, so
    each chunk is read once from memory for its norms and its one product
    e = a B_p; the work space is one chunk's slices.  At order 0, E_0 = 1
    makes e the one coordinate.
    """
    if n == 0:
        return rows[:, 0] ** 2, (rows[:, 0] - c) ** 2, []
    size = 3 ** (n - 1)
    # |slice k of f_i|^2 and of h_i|^2 at 3i + k
    squares, residuals = np.empty((2, 3 * len(rows), 1, 1))
    work = np.empty(max(_CERTIFY_CHUNK, 9 * size))  # h of a chunk: at most 9 slices a parent
    coefficients = []
    for g in _plan(n).groups:
        a = g.coefficients(c)
        coefficients.append(a)
        count = len(g.blocks)
        slices = rows[g.images].reshape(count, 3 * g.children, size)
        at = slice(3 * g.images.start, 3 * g.images.stop)
        f2, h2 = (x[at].reshape(slices.shape[:2] + (1, 1)) for x in (squares, residuals))
        step = max(1, _CERTIFY_CHUNK // slices[0].size)
        for p in range(0, count, step):
            chunk = slice(p, p + step)
            s = slices[chunk]
            h = work[: s.size].reshape(s.shape)
            np.matmul(s[:, :, None, :], s[:, :, :, None], out=f2[chunk])
            np.matmul(a[chunk], g.blocks[chunk], out=h)
            np.subtract(s, h, out=h)
            np.matmul(h[:, :, None, :], h[:, :, :, None], out=h2[chunk])
    return squares.reshape(-1, 3).sum(axis=1), residuals.reshape(-1, 3).sum(axis=1), coefficients


def _out_of_range(rows: np.ndarray, squares: np.ndarray) -> bool:
    """Whether a row that is not all zero has a squared norm, given in
    ``squares``, outside ``_GRAM_RANGE`` or of 0 (or one that is not a
    number); the certificate then takes its pass again on rescaled rows."""
    low, high = _GRAM_RANGE
    in_range = low <= squares.min(initial=low, where=squares > 0.0)
    in_range &= squares.max(initial=0.0) <= high
    return not in_range or any(rows[i].any() for i in np.flatnonzero(squares == 0.0))


def _part_residuals(stacks, count: int) -> tuple[list[float], list[float]]:
    """Symmetry and trace residual of each of ``count`` parts' deviators,
    given as ``_Record.stacks``, relative to the deviator's norm; inf for a
    deviator of any order with an entry that is not finite, and otherwise 0
    for orders below 2 and for a zero deviator.

    Each order's stack is checked at once, on ``_scaled_rows`` of the
    stack, so no norm overflows or underflows at any scale.
    """
    sym_res = np.zeros(count)
    trace_res = np.zeros(count)
    for s, index, flat in stacks:
        if not np.isfinite(flat).all():
            finite = np.isfinite(flat).all(axis=1)
            sym_res[index[~finite]] = trace_res[index[~finite]] = np.inf
            index, flat = index[finite], flat[finite]
        if s < 2 or not len(index):
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


def verify(d: Decomposition, t) -> VerifyReport:
    """Residual report of a decomposition against the tensor it came from.

    Every check reads the arrays that the output of ``decompose`` and
    ``load_decomposition`` records (``_record_of``), never ``parts``, so it
    builds no part; any other decomposition is first stacked, once, into
    such arrays, which raises ``ValueError`` for parts in any other layout
    than that of ``decompose`` (``_stacked``).  The symmetry and trace
    checks read every stored deviator.
    The reconstruction and orthogonality checks read every stored image, or
    for ``decompose`` output and a file read without images, which store
    none, the coordinates of the deviators, from which the images are built
    (``_sum``, ``_certified_cross_correlation``).  So an edited part fails
    them.

    One orthogonality check, at every order: ``max_cross_correlation`` and
    ``max_embedding_residual`` are the certified bound (within 1e-13 above
    the exact value for ``decompose`` output) and the tie of each image to
    its own deviator, of ``_certified_cross_correlation``.  Every residual
    is computed on exactly rescaled values, so it does not depend on the
    scale of ``t``.
    """
    t = as_tensor(t, order=d.order)
    record = _record_of(d)
    t_norm = frobenius_norm(t)
    with np.errstate(over="ignore", invalid="ignore"):  # a deviator that is not finite: below
        res = frobenius_norm(_sum(record, d.order) - t)
    rel = res / t_norm if t_norm > 0.0 else res

    sym_res, trace_res = _part_residuals(record.stacks, len(_layout(d.order).orders))
    max_cross, tie = _certified_cross_correlation(record, d.order)

    part_residuals = [0.0] + sym_res + trace_res
    return VerifyReport(
        order=d.order,
        reconstruction_residual=res,
        reconstruction_relative=rel,
        part_symmetry=tuple(sym_res),
        part_trace=tuple(trace_res),
        max_part_residual=max(part_residuals),
        max_cross_correlation=max_cross,
        max_embedding_residual=tie,
        counts_expected={s: count_parts(d.order, s) for s in range(d.order + 1)},
        counts_actual=d.counts(),
        counts_ok=True,  # ``_stacked`` refuses every other layout
    )
