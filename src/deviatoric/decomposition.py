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

``decompose`` applies E in factored form: the paper's recursion on the
order.  Slicing along the first index writes t = sum_k e_k x T_k with
order-(n-1) slices T_k; E_{n-1} applied to the three slices gives their
coordinates, and the three deviators that share a slot of the slices
regroup into

* a vector (a new order-1 deviator) when they are scalars,
* an order-2 tensor t = alpha*delta + epsilon.v + D when they are vectors,
* a tensor that is totally symmetric and traceless in its trailing s indices
  when they are order-s deviators (s >= 2); ``combine_deviator_triple`` builds
  it from deviators of orders s-1, s, s+1 and ``split_deviator_triple``
  resolves it back.

For a parent slot of order s the regrouping is one fixed 3(2s+1)-square
matrix, and the images of the parent's children are one product of their
coefficients with the parent's rows of E_{n-1}.  E_n is applied one level
of the recursion at a time, down to the dense base E_5 (0.47 MB,
``_DENSE_BASE``): each level passes the slices of all its rows one order
down in one call.  ``decompose`` is c = ``_apply``(t) / lambda and
``reconstruct`` is ``_apply_transposed``(c), so they hold only E_0 .. E_5
(0.53 MB) at any order.  The images and the certificate build E_{n-1} on
first use: the rows of E_m are the group products of ``_plan(m)`` applied
to unit coordinates.

The arrays are laid out in two orders:

* Slot order, the row order of E_m: by s, then J.  The coordinates c are
  in this order, so each order s takes one slice of c, and the rows of
  the order-s parents of E_{n-1} are one (parents, 2s+1, 3^(n-1)) view.
* Plan order: by parent order s, then parent, then child.  One level of
  ``_plan(n)`` works in it, on all the parents of one s at once, and the
  image rows are in it, each group's one contiguous block.
  ``_plan(n).row_of`` gives the image row of each part, and
  ``_Plan.row_at`` and ``position_of`` permute between the two orders;
  ``parts`` and every public order stay in traversal order.

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
    _orbit_basis, _project, _project_rows, _scaled_back, _scaled_rows, as_tensor, epsilon,
    frobenius_norm, symmetrize,
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
    """The deviators of the parts of an order-n decomposition, whose s, J and
    image row are those of ``_plan(n)``.  No record holds an image: the
    images are the embeddings of the deviators, built by ``_rows_of`` when
    read.  Images given with the parts (hand-built parts,
    ``dataclasses.replace``, a file with ``embedded``) are checked by
    ``_stacked`` against those embeddings and dropped; ``tie`` keeps how far
    they were (``_tie``), 0 for ``decompose`` output and a file without
    images.
    """

    stacks: tuple  # per deviator order s: (s, (J_s,) part indices, (J_s, 3^s) deviators)
    tie: float  # tau, the largest rho_i of the images given, or 0


@dataclass(frozen=True)
class Decomposition:
    """The parts of an order-n tensor.

    The output of ``decompose`` and ``load_decomposition`` (made by
    ``_from_record``), and any pickled or copied decomposition, records its
    parts as arrays (``_Record``): the deviators as one stack per deviator
    order, and the tie of any images it was given.  ``reconstruct`` and
    ``verify`` read those arrays, and ``parts`` is built from them on first
    access, then stored; each ``deviator`` is a view of its stack, so an
    in-place edit of a deviator is an edit of the record.  The images are
    built once, from the deviators, as read-only rows.
    A hand-built decomposition, or one made by ``dataclasses.replace``,
    holds its parts and no record; each read stacks them anew
    (``_record_of``).  Its parts are one per (s, J) slot, in the layout of
    ``decompose``: any other part list is an input error (``_stacked``).
    """

    order: int
    parts: tuple[IrreduciblePart, ...]
    _record: _Record | None = field(default=None, init=False, repr=False, compare=False)

    def __getattr__(self, name):
        # only a decomposition made by ``_from_record`` lacks ``parts``
        if name != "parts" or self._record is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        orders, labels, row_of = _plan(self.order)[:3]
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
        # pickle, copy and deepcopy keep the record, so a copy is ``decompose`` output
        return {"order": self.order, "_record": _record_of(self)}

    def __repr__(self) -> str:
        # the parts' arrays would print in full (numpy summarises no axis of
        # length 3), and reading them would build the images
        return f"{type(self).__name__}(order={self.order}, counts={self.counts()})"

    def counts(self) -> dict[int, int]:
        """The number of parts of each deviator order s, keyed by ascending s."""
        if self._record is None:
            return dict(sorted(Counter(p.s for p in self.parts).items()))
        return {s: count for s, count in enumerate(counts_row(self.order)) if count}


@dataclass(frozen=True)
class VerifyReport:
    """Residuals of a decomposition against its source tensor.

    Residuals are relative: the reconstruction to the source tensor's norm,
    each part's symmetry and trace to that part's deviator norm, and each
    cross-correlation to the two images' norms.  A part's symmetry residual
    is the distance |x - x M_s M_s^T| of its deviator x to the totally
    symmetric tensors (M_s the orthonormal orbit basis of ``core._orbit_basis``,
    so x M_s M_s^T is ``symmetrize(x)``), and its trace residual the norm
    of the trace of x over its first two indices.  A zero denominator gives
    the absolute residual for the reconstruction and residual 0 for a zero
    part, which is trivially symmetric, traceless and orthogonal.  A
    deviator with an entry that is not finite has symmetry and trace
    residual inf.  ``max_cross_correlation`` is a certified upper bound on
    the largest cross-correlation (``_certified_cross_correlation``) and
    ``max_embedding_residual`` the record's tie tau: the largest
    rho_i = |f_i - e_i| / |f_i| of an image f_i given with the parts to the
    embedding e_i of its own deviator, measured where the images came in
    (``_tie``), and 0 when no image was given.  Both are inf for an entry
    that is not finite, a zero image given for a nonzero deviator, or a
    nonzero deviator whose coordinates are all zero, and the bound is inf
    for an image that may be all rounding.  ``counts_ok`` holds
    for every decomposition that ``verify`` accepts; it stays for the
    report.
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
        plan, prev = _plan(n), _change_of_basis(n - 1)
        rows = np.empty((3**n, 3**n))
        for g in plan.groups:
            # (parents, 3 width, 3, 3^(n-1)): F_s times each parent's rows
            products = np.matmul(_regroup(g.width // 2), g.blocks(prev)[:, None])
            rows[plan.row_at[g.coords]] = products.reshape(-1, 3**n)
    rows.flags.writeable = False
    return rows


class _Group(NamedTuple):
    """The order-(n-1) slots of one deviator order s, as parents of their
    order-n children.

    The parents are a contiguous block of the slots of E_{n-1}, so their
    rows are one (parents, 2s+1, 3^(n-1)) view (``blocks``), and their
    slice coordinates one block of y, the three products E_{n-1} t[k]
    interleaved: position 3(r+j)+k of y holds (E_{n-1} t[k])_{r+j}.  The
    children's coordinates take the same positions in plan order, and their
    images one block of the image rows: by parent, then by child, each image
    three consecutive slices.
    """

    slots: slice  # the parents among the slots of E_{n-1}
    coords: slice  # positions of the parents' slice coordinates in y, and of the children's in plan order
    images: slice  # the children's image rows
    to_children: np.ndarray  # (3 width, 3 width): slice coordinates -> E_n t
    to_images: np.ndarray  # (3 width, children * 3 width): c -> image coefficients
    width: int  # 2s+1
    parents: int
    children: int  # children per parent
    pairs: tuple  # np.triu_indices(children, 1): the sibling pairs i < j

    def blocks(self, prev: np.ndarray) -> np.ndarray:
        """The parents' rows of E_{n-1} ``prev``, a (parents, width, 3^(n-1)) view."""
        return prev[self.coords.start // 3 : self.coords.stop // 3].reshape(self.parents, self.width, -1)

    def coefficients(self, c: np.ndarray) -> np.ndarray:
        """The (parents, 3 children, width) image coefficients of the
        children's coordinates in ``c``, in plan order: slice k of the image
        of child i of parent p is row 3i + k times ``blocks[p]``."""
        c_g = c[self.coords].reshape(self.parents, -1)
        return np.dot(c_g, self.to_images).reshape(self.parents, -1, self.width)


class _Plan(NamedTuple):
    """The order-n layout and change of basis, built once per order: where
    each part goes, lambda and one level of E_n in factored form.  The one
    description of the layout: files and hand-built parts are checked
    against it (``_stacked``)."""

    orders: tuple[int, ...]  # s of each part, in traversal order
    labels: tuple[int, ...]  # J of each part
    row_of: np.ndarray  # (parts,) the image row of each part, in plan order
    lam: np.ndarray  # (3^n,) lambda, the squared norm of each row of E_n
    groups: tuple[_Group, ...]  # one per parent order s; none for n = 0
    deviators: tuple  # per order s: (s, (J_s,) part indices, its rows of E_n as a slice, B_s.flat)
    row_at: np.ndarray  # (3^n,) the row of E_n of each position in plan order
    position_of: np.ndarray  # (3^n,) the position in plan order of each row of E_n


def _read_only(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.flags.writeable = False


@lru_cache(maxsize=None)
def _plan(n: int) -> _Plan:
    """The order-n change of basis in factored form, one level over the
    order-(n-1) one; it holds no row of E.  Above ``_DENSE_BASE``
    ``_apply`` and ``_apply_transposed`` apply E_n by these groups, and
    ``_change_of_basis(n)`` builds E_n from them and E_{n-1}.

    Row r of E_n, for a child of parent slot p, is sum_j F[r, k, j] times row
    j of E_{n-1, p} in slice k (F = ``_regroup``), so
    (E_n t)_r = sum_{k,j} F[r, k, j] (E_{n-1} t[k])_{p,j} and the image of
    coordinates c is (sum_r c_r F[r, k, :]) E_{n-1, p} in slice k.  The rows
    of E_{n-1, p} are orthogonal (Schur's lemma), so lambda_r =
    sum_{k,j} F[r, k, j]^2 lam_{p,j}, lam the lambda of ``_plan(n - 1)``.

    The parts are in traversal order (``part_orders``), J counts the parts
    of each s, and the image rows are in plan order: by parent order, then
    parent, then child.
    """
    orders = np.array(part_orders(n))
    by_row = np.zeros(1, dtype=int)  # the part of each image row
    if n:
        parents = part_orders(n - 1)
        by_row = np.argsort(np.repeat(parents, [len(_children(s)) for s in parents]), kind="stable")
    row_of = np.empty(len(orders), dtype=int)
    row_of[by_row] = np.arange(len(orders))
    # each image row's 2s+1 coordinates, in plan order
    widths = 2 * orders[by_row] + 1
    starts = np.empty(len(orders), dtype=int)
    starts[by_row] = np.cumsum(widths) - widths
    labels = np.empty(len(orders), dtype=int)
    deviators, positions = [], []
    row = 0
    for s in sorted(set(orders.tolist())):
        index = np.flatnonzero(orders == s)
        labels[index] = np.arange(1, len(index) + 1)
        positions.append((starts[index][:, None] + np.arange(2 * s + 1)).ravel())
        rows = slice(row, row + positions[-1].size)
        _read_only(index)
        deviators.append((s, index, rows, build_basis(s).flat))
        row = rows.stop
    position_of = np.concatenate(positions)
    row_at = np.argsort(position_of)
    lam = np.ones(3**n)
    groups = []
    slot = row = image = 0
    for s, count in enumerate(counts_row(n - 1) if n else ()):
        if not count:
            continue
        width, children = 2 * s + 1, _children(s)
        rows = slice(row, row + count * width)
        f = _regroup(s)  # (3 width, 3, width)
        coords = slice(3 * rows.start, 3 * rows.stop)
        lam[coords] = (_plan(n - 1).lam[rows].reshape(count, width) @ (f * f).sum(axis=1).T).ravel()
        to_children = f.transpose(2, 1, 0).reshape(3 * width, 3 * width)
        # row r of c_g, a coordinate of child i, puts F[r] in column block i
        child = np.repeat(np.arange(len(children)), [2 * c + 1 for c in children])
        to_images = np.zeros((3 * width, len(children), 3 * width))
        to_images[np.arange(3 * width), child] = f.reshape(3 * width, -1)
        to_images = to_images.reshape(3 * width, -1)
        pairs = np.triu_indices(len(children), 1)
        _read_only(to_children, to_images, *pairs)
        groups.append(_Group(
            slice(slot, slot + count), coords, slice(image, image + count * len(children)),
            to_children, to_images, width, count, len(children), pairs,
        ))
        slot, row, image = slot + count, rows.stop, image + count * len(children)
    lam = lam[position_of]  # from plan order to slot order
    _read_only(row_of, lam, row_at, position_of)
    return _Plan(part_orders(n), tuple(labels.tolist()), row_of, lam, tuple(groups),
                 tuple(deviators), row_at, position_of)


# The largest order whose E_m is applied as one dense product.  E_5, 0.47 MB,
# stays in a 4 MiB L2 and E_6, 4.3 MB, does not: E_6 times the three slices
# of an order-7 tensor took 0.43-0.50 ms dense and 0.09-0.13 ms as one level
# over E_5 (0.08-0.10 ms over E_4, with one more level of numpy calls),
# warm on one BLAS thread of a 2-core Xeon.
_DENSE_BASE = 5


def _apply(x: np.ndarray, m: int) -> np.ndarray:
    """E_m x of each row x of the (N, 3^m) array, as an (N, 3^m) array in
    the slot order of E_m.

    Up to ``_DENSE_BASE`` one product with the cached E_m.  Above it, one
    level of ``_plan(m)``: the 3N slices of the rows go one order down in
    one call, their coordinates are interleaved into the y of
    ``_Group`` (position 3r + k, slice k), each group takes one batched
    product with ``to_children``, and the products, in plan order, are
    taken in slot order (``_Plan.position_of``)."""
    if m <= _DENSE_BASE:
        return np.dot(x, _change_of_basis(m).T)
    plan, count = _plan(m), len(x)
    y = _apply(x.reshape(3 * count, -1), m - 1)
    y = y.reshape(count, 3, -1).transpose(0, 2, 1).reshape(count, -1)
    z = np.empty_like(y)
    for g in plan.groups:
        shape = (count, g.parents, 3 * g.width)
        np.matmul(y[:, g.coords].reshape(shape), g.to_children, out=z[:, g.coords].reshape(shape))
    return np.take(z, plan.position_of, axis=1)


def _apply_transposed(z: np.ndarray, m: int) -> np.ndarray:
    """E_m^T z of each row z of the (N, 3^m) array, in the slot order of
    E_m, as an (N, 3^m) array: ``_apply`` backwards, level by level down
    to ``_DENSE_BASE``, each group's product with the transpose of
    ``to_children``."""
    if m <= _DENSE_BASE:
        return np.dot(z, _change_of_basis(m))
    plan, count = _plan(m), len(z)
    z = np.take(z, plan.row_at, axis=1)  # in plan order
    y = np.empty_like(z)
    for g in plan.groups:
        shape = (count, g.parents, 3 * g.width)
        np.matmul(z[:, g.coords].reshape(shape), g.to_children.T, out=y[:, g.coords].reshape(shape))
    y = y.reshape(count, -1, 3).transpose(0, 2, 1).reshape(3 * count, -1)
    return _apply_transposed(y, m - 1).reshape(count, -1)


def _images(c: np.ndarray, n: int) -> np.ndarray:
    """The new (parts, 3^n) array of the embedded images of the order-n
    coordinates ``c``, in plan order: one stacked product per group with
    its parents' rows of E_{n-1}, which this builds if it is not cached."""
    if n == 0:
        return c.reshape(1, 1).copy()
    plan, prev = _plan(n), _change_of_basis(n - 1)
    c = c[plan.row_at]
    images = np.empty((len(plan.orders), len(c)))
    for g in plan.groups:
        out = images[g.images].reshape(g.parents, -1, len(prev))
        np.matmul(g.coefficients(c), g.blocks(prev), out=out)
    return images


def _rows_of(record: _Record, n: int) -> np.ndarray:
    """The image rows of the order-n ``record``, in plan order: the
    embeddings of its deviators, built by the product of ``_images`` and
    read-only, so no edit can part them from the deviators they were built
    from.  Where a squared coordinate leaves ``_GRAM_RANGE``, each image is
    built from its own ``_scaled_stacks`` deviator and then multiplied back
    by its power of two, so that only that last step can round to the
    subnormal grid, once per entry."""
    plan = _plan(n)
    c = _deviator_coordinates(plan, record.stacks, n)
    if _in_gram_range(c):
        rows = _images(c, n)
    else:
        stacks, shift = _scaled_stacks(record.stacks, n)
        rows = _images(_deviator_coordinates(plan, stacks, n), n)
        with np.errstate(over="ignore", under="ignore"):
            np.ldexp(rows, shift[:, None], out=rows)
    rows.flags.writeable = False
    return rows


def _scaled_stacks(stacks, n: int) -> tuple[list, np.ndarray]:
    """The deviators ``stacks`` of an order-n record, each divided exactly
    by its own power of two 2^k (``_scaled_rows``), and the k of each image
    row, in plan order."""
    row_of = _plan(n).row_of
    shift = np.empty(len(row_of), dtype=np.intc)  # the exponent type of frexp, which ldexp takes fastest
    scaled = []
    for s, index, stack in stacks:
        rows, shift[row_of[index]] = _scaled_rows(stack)
        scaled.append((s, index, rows))
    return scaled, shift


def _views(rows: np.ndarray, order: int) -> list[np.ndarray]:
    """Each row of a 2-D array as a view of shape (3,) * order."""
    if order == 0:
        return [r.reshape(()) for r in rows]
    return list(rows.reshape((-1,) + (3,) * order))


def _from_record(order: int, record: _Record) -> Decomposition:
    """The order-``order`` decomposition whose parts are the arrays of
    ``record``; the only maker of a decomposition with a record, besides
    unpickling and copying (``Decomposition.__getstate__``).  ``decompose``
    passes its deviators, and ``decomposition_from_json`` ``_stacked`` of
    the parts it read.  No ``parts`` is built until they are read."""
    d = object.__new__(Decomposition)
    object.__setattr__(d, "order", order)
    object.__setattr__(d, "_record", record)
    return d


def _stacked(order: int, orders, labels, deviators, images=None) -> _Record:
    """The record of parts with these orders s, labels J, deviators and
    order-``order`` embedded images, given in part order.

    The only code that stacks loose parts into a record, so the one check
    of a part list: parts in any other (s, J) layout than that of
    ``decompose`` (``_plan(order)``), no parts included, raise one
    ``ValueError``.  The deviators of each order s go into one new
    (J_s, 3^s) array, in the part order of the plan's ``deviators``, which
    the parts built from the record view.  The only way in for images: they are
    stacked in plan order, measured against the embeddings of the deviators
    (``_tie``) and dropped, so the record keeps only their tie.  Raises the
    error of ``as_tensor`` for the first deviator of each order, then the
    first image in row order, of another shape than its order's.  With no
    images, the record is the one ``decompose`` makes.
    """
    # that layout has one part of s = order and none above it, and as many
    # parts as ``counts_row``: checked first, so no plan is built for a
    # larger order than any part's, nor for a part list of another length
    if (max(orders, default=-1) != order or len(orders) != sum(counts_row(order))
            or (tuple(orders), tuple(labels)) != _plan(order)[:2]):
        raise ValueError("parts are not in the (s, J) layout of decompose")
    plan = _plan(order)
    record = _Record(tuple([(s, index, _stack([deviators[i] for i in index.tolist()], s))
                            for s, index, _, _ in plan.deviators]), 0.0)
    if images is None:
        return record
    rows = _stack([images[i] for i in np.argsort(plan.row_of).tolist()], order)
    return record._replace(tie=_tie(record, rows, order))


def _tie(record: _Record, rows: np.ndarray, n: int) -> float:
    """tau = max_i rho_i, rho_i = |f_i - e_i| / |f_i|, of the (parts, 3^n)
    image rows f, in plan order, against the embeddings e of the deviators
    of the order-n ``record`` (``_rows_of``).  Taken on ``_scaled_rows`` of
    f, with f - e divided by the same powers of two, so it does not depend
    on the scale; ``rows`` is overwritten.  A zero image has rho 0 if its
    deviator is zero and inf if not (read from the deviator, so an
    embedding that underflows counts); an entry of f or e that is not
    finite gives inf."""
    with np.errstate(over="ignore", invalid="ignore"):
        scaled, shift = _scaled_rows(rows)
        squares = np.einsum("ij,ij->i", scaled, scaled)
        h = np.subtract(rows, _rows_of(record, n), out=rows)
        np.ldexp(h, -shift[:, None], out=h)
        residuals = np.einsum("ij,ij->i", h, h)
        rho = np.zeros(len(rows))
        np.divide(residuals, squares, out=rho, where=squares > 0.0)
        np.sqrt(rho, out=rho)
        rho[~np.isfinite(squares + residuals)] = np.inf
    for _, index, stack in record.stacks:
        image = _plan(n).row_of[index]
        rho[image[(squares[image] == 0.0) & stack.any(axis=1)]] = np.inf
    return float(rho.max())


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
    c = _apply(t.reshape(1, -1), t.ndim)[0] / plan.lam
    # a list first, as in ``Decomposition.__getattr__``
    stacks = tuple([(s, index, np.dot(c[rows].reshape(len(index), -1), basis))
                    for s, index, rows, basis in plan.deviators])
    return _from_record(t.ndim, _Record(stacks, 0.0))


def reconstruct(d: Decomposition) -> np.ndarray:
    """Sum of the embedded parts; inverse of ``decompose``.

    It reads the deviators of ``_record_of(d, images=False)``: those of
    ``decompose`` and ``load_decomposition`` output, in place, or of any
    other decomposition, stacked once (``_sum``); no image is read.  So
    parts in another layout, or deviators of another shape than their
    order's, raise the same ``ValueError`` as in ``verify``.
    """
    return _sum(_record_of(d, images=False).stacks, d.order)


def _sum(stacks, n: int, c: np.ndarray | None = None) -> np.ndarray:
    """The sum of the images of the deviators ``stacks`` of an order-n
    record: E_n^T c (``_apply_transposed``: one dense product up to
    ``_DENSE_BASE``, level by level above it), as each image is c_p E_p.
    c are the deviators' coordinates (``_deviator_coordinates``), taken
    here unless given: ``verify`` takes them once for this sum and its
    certificate.  An in-place edit of a deviator reaches the sum through
    them.
    """
    if c is None:
        c = _deviator_coordinates(_plan(n), stacks, n)
    return _apply_transposed(c.reshape(1, -1), n).reshape((3,) * n)


def _record_of(d: Decomposition, images: bool = True) -> _Record:
    """The arrays of ``d``: its record, or for a hand-built decomposition
    (which holds no record), ``_stacked`` of its parts, with their images
    unless ``images`` is false.  The readers of the deviators alone
    (``reconstruct``, ``assemble_order3/4``, the command line's canonical
    residual) pass false, so a hand-built decomposition's images are
    neither read nor measured there; its tie is then 0.  This is the only
    way library code reads a decomposition's arrays, so what is read is
    always what the parts store."""
    if d._record is not None:
        return d._record
    parts = d.parts
    return _stacked(d.order, [p.s for p in parts], [p.J for p in parts],
                    [p.deviator for p in parts], [p.embedded for p in parts] if images else None)


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

# Products of coordinates whose squares lie outside this range could
# overflow, or lose precision to subnormal products.
_GRAM_RANGE = (2.0**-600, 2.0**600)


def _in_gram_range(c: np.ndarray) -> bool:
    """Whether every nonzero coordinate c has c^2 in ``_GRAM_RANGE``; a
    nonzero c whose square underflows is out of range, and so is one that
    is not finite."""
    low, high = _GRAM_RANGE
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        c2 = c * c
        return bool(c2.max(initial=0.0) <= high and low <= c2.min(initial=low, where=c != 0.0))


class _SpanDefects(NamedTuple):
    """How far the parents' rows of E_{n-1} are from orthogonal, per parent
    and over all parents, with the rounding allowances of
    ``_certified_cross_correlation``, the sibling pairs and the constants of
    their bounds."""

    lam: np.ndarray  # (parents,) lambda_p, in the slot order of E_{n-1}
    sigma: np.ndarray  # (parents,) sigma_p, in the same order
    delta: np.ndarray  # (parents,) delta_p, in the same order
    eta: float
    slack: np.ndarray  # (parts,) rounding allowance of each rho, in plan order
    siblings: np.ndarray  # (2, pairs) images i < j of each sibling pair, by group, parent, then pair
    parent: np.ndarray  # (pairs,) the parent slot of each pair
    scale: np.ndarray  # (pairs,) lambda_p / sigma_p of the pair's parent
    floor: np.ndarray  # (pairs,) the bound of the pair at cos 0
    underflow: np.ndarray  # (parts,) sqrt(3^n / sigma_p) of each image, in plan order


@lru_cache(maxsize=None)
def _span_defects(n: int) -> _SpanDefects:
    """The defects of the order-(n-1) change of basis, n >= 1.

    For the w rows B_p of parent slot p, lambda_p is their mean squared norm
    and D_p = B_p B_p^T - lambda_p I, so every squared singular value of B_p
    is at least sigma_p = lambda_p - |D_p|_F.  Then delta_p = |D_p|_F /
    sigma_p, and eta is the largest |B_p B_q^T|_F / sqrt(sigma_p sigma_q)
    over p != q.  Both come from one product per pair g <= h of the plan's
    groups, the slot-order blocks of E_{n-1} (``_Group.blocks``), so no
    3^(n-1) x 3^(n-1) product is held; E_{n-1} itself is built if it is
    not cached.

    The certificate's own products round: the 3w-term coefficient Gram by
    at most (3w + 2) eps of the norms, which is added to delta_p, and the
    w-term product e = a B_p by at most w^1.5 eps of |f_i|, the slack added
    to rho_i (eps = 2^-52, twice the unit roundoff, covers the factors
    (1 + delta_p)).  Every rho of the built images is its slack, so the
    bound of a sibling pair of parent p is its scale lambda_p /
    sigma_p times |a_i . a_j| / (|a_i| |a_j| (1 - slack)^2), plus its floor
    delta_p (1 + slack)^2 + 2 slack + 3 slack^2 (``_pair_bound``).

    An image built from a scaled deviator and multiplied back by 2^k
    (``_rows_of``) rounds each entry that is subnormal by at most 2^-1075,
    which no relative slack covers: at most sqrt(3^n) 2^-1075 over its 3^n
    entries, that is ``underflow`` 2^-1075 / (2^k |a_i|) of its norm, since
    the exact product's is at least sqrt(sigma_p) |a_i|.
    """
    groups, prev = _plan(n).groups, _change_of_basis(n - 1)
    count = groups[-1].slots.stop
    lam, sigma, delta = np.empty((3, count))
    squares = np.zeros((count, count))  # |B_p B_q^T|_F^2, for p and q in groups g <= h
    slack, underflow = np.empty((2, sum(counts_row(n))))
    eps = np.finfo(float).eps
    for i, g in enumerate(groups):
        slack[g.images] = g.width**1.5 * eps
        rows = g.blocks(prev).reshape(-1, len(prev))
        for h in groups[i:]:
            gram = rows @ h.blocks(prev).reshape(-1, len(prev)).T
            gram = gram.reshape(g.parents, g.width, h.parents, h.width)
            if h is g:  # B_p B_p^T of each parent
                own = gram[np.arange(g.parents), :, np.arange(g.parents)]
                lam[g.slots] = np.trace(own, axis1=1, axis2=2) / g.width
                defect = own - lam[g.slots, None, None] * np.eye(g.width)
                defect = np.linalg.norm(defect, axis=(1, 2))
                sigma[g.slots] = lam[g.slots] - defect
                delta[g.slots] = defect / sigma[g.slots] + (3 * g.width + 2) * eps
                underflow[g.images] = np.repeat(np.sqrt(3.0**n / sigma[g.slots]), g.children)
            gram *= gram
            squares[g.slots, h.slots] = gram.sum(axis=(1, 3))
    np.fill_diagonal(squares, 0.0)
    eta = float(np.sqrt(np.max(squares / np.outer(sigma, sigma))))
    siblings, parent = [], []  # a group of one child per parent has no pair
    for g in groups:
        first = g.images.start + g.children * np.arange(g.parents)[:, None]
        siblings.append(np.stack([(first + g.pairs[0]).ravel(), (first + g.pairs[1]).ravel()]))
        parent.append(np.repeat(np.arange(g.slots.start, g.slots.stop), len(g.pairs[0])))
    siblings, parent = np.concatenate(siblings, axis=1), np.concatenate(parent)
    rho = slack[siblings[0]]
    floor = _pair_bound(delta[parent] * (1.0 + rho) ** 2, rho, rho)
    scale = lam[parent] / sigma[parent]
    _read_only(lam, sigma, delta, slack, siblings, parent, scale, floor, underflow)
    return _SpanDefects(lam, sigma, delta, eta, slack, siblings, parent, scale, floor, underflow)


def _pair_bound(inspan, rho_i, rho_j):
    """cos_ij <= inspan_ij + rho_i + rho_j + 3 rho_i rho_j; see
    ``_certified_cross_correlation``."""
    return inspan + rho_i + rho_j + 3.0 * rho_i * rho_j


def _certified_cross_correlation(
    record: _Record, n: int, c: np.ndarray | None = None
) -> tuple[float, float]:
    """An upper bound on the largest cos_ij = |<f_i, f_j>| / (|f_i| |f_j|)
    over pairs i != j of nonzero images f of the parts of an order-n
    decomposition in the layout of ``_plan(n)``, and the record's tie tau.
    Both are inf when a deviator is not finite, or is nonzero with
    coordinates that are all zero, or when the tie is inf (``_tie``), and
    the bound is inf for an image that may be all rounding (below).  A zero
    deviator's image pairs with no other.

    The images are the embeddings e_i = fl(a_i B_p) of ``_rows_of``, slice
    by slice: a_i the image coefficients of the deviator
    (``_deviator_coordinates``, then ``_Group.coefficients``), B_p the rows
    of the parent slot in E_{n-1}.  The exact product lies in the span of
    B_p whatever a_i and the defect of B_p, and e_i is within rho_i, the
    slack of ``_span_defects(n)``, of it.  Writing e_i = its exact product
    plus that rounding gives cos_ij <= inspan_ij + rho_i + rho_j +
    3 rho_i rho_j (``_pair_bound``), where inspan_ij bounds the exact
    products' |<., .>| over |e_i| |e_j|.  As their squared norms are at
    least sigma_p |a_i|^2 and |e_i| >= sqrt(sigma_p) |a_i| (1 - rho_i):

    * for siblings, the product is lambda_p a_i . a_j + a_i D_p a_j^T, so
      inspan_ij is the coefficient Gram lambda_p |a_i . a_j| over the norms,
      plus delta_p (1 + rho_i)(1 + rho_j);
    * across parents, |<., .>| <= |B_p B_q^T|_F |a_i| |a_j|, so inspan_ij
      is eta (1 + rho_i)(1 + rho_j), which with the rest of the bound is
      largest for the two largest rho.

    lambda_p, sigma_p, delta_p, eta and the slack are ``_span_defects(n)``.
    No image is read or built: the bound costs O(P w^2).  As each rho is
    its group's slack, a sibling pair's bound is lambda_p |a_i . a_j| /
    (|e_i| |e_j|) plus a constant of its parent, so each group takes one
    batched Gram of its children's coefficients (``_coefficient_grams``),
    and the bounds of all pairs are one expression over the normalised
    sibling entries (``_SpanDefects.scale`` and ``floor``).  c are the
    deviators' coordinates (``_deviator_coordinates``), the ones
    ``_rows_of`` builds the images from, taken here unless given, as
    ``verify`` gives those it sums.

    When some nonzero c has c^2 outside ``_GRAM_RANGE``, so that a product
    could underflow or overflow, the coordinates are taken, as ``_rows_of``
    then builds the images, from each deviator divided exactly by its own
    2^k_i (``_scaled_stacks``), which leaves every cos as it is.  Each image
    is that product times 2^k_i, which rounds each entry that is subnormal
    by at most 2^-1075, so rho_i adds ``_SpanDefects.underflow`` 2^-1075 /
    (2^k_i |a_i|), which is below the last bit of the slack unless 2^k_i is
    below about 2^-960.  So the bound holds for the images that ``parts``
    builds at every scale, and an image that may be all rounding
    (rho_i >= 1) gives a bound of inf.

    Images given with the parts were measured where they came in: each
    f_i = e_i + h_i with |h_i| <= tau |f_i| (``_tie``).  So |e_i| <=
    (1 + tau) |f_i|, and the bound B of the e_i becomes B (1 + tau)^2 +
    2 tau + 3 tau^2 for the f_i, as in ``_pair_bound``; for tau = 0 it is
    B, bit for bit.  The bound holds for any deviators and images, so an
    edited, swapped or rescaled one only makes it large.
    """
    plan = _plan(n)
    # out of range: taken on the scaled deviators; not finite: inf, below
    with np.errstate(over="ignore", invalid="ignore"):
        if c is None:
            c = _deviator_coordinates(plan, record.stacks, n)
        rescale = not _in_gram_range(c)
        if rescale:
            stacks, shift = _scaled_stacks(record.stacks, n)
            c = _deviator_coordinates(plan, stacks, n)
        dots, squares = _coefficient_grams(plan, c)
    live = squares > 0.0
    tie = record.tie
    if not live.all():  # a nonzero deviator whose coordinates are all zero: inf
        for _, index, stack in record.stacks:
            if (~live[plan.row_of[index]] & stack.any(axis=1)).any():
                tie = np.inf
    if not (tie < np.inf and np.isfinite(squares).all()):  # eta = 0 would make the bound NaN
        return np.inf, np.inf
    bound = 0.0
    if np.count_nonzero(live) >= 2:
        defects = _span_defects(n)
        rho, floor = defects.slack, defects.floor
        i, j = defects.siblings
        if rescale:
            with np.errstate(over="ignore", under="ignore"):
                gap = np.zeros(len(squares))
                np.divide(defects.underflow, np.sqrt(squares), out=gap, where=live)
                rho = rho + np.ldexp(gap, -1075 - shift)
            factor = (1.0 + rho[i]) * (1.0 + rho[j])
            floor = _pair_bound(defects.delta[defects.parent] * factor, rho[i], rho[j])
        second, first = np.partition(rho, -2)[-2:]
        if not first < 1.0:  # an image that may be all rounding
            return np.inf, tie
        norms = np.full(len(squares), np.inf)  # a zero image pairs with nothing
        np.sqrt(squares, out=norms, where=live)
        norms *= 1.0 - rho  # |e_i| >= sqrt(sigma_p) |a_i| (1 - rho_i); sigma_p is in scale
        worst = _pair_bound(defects.eta * (1.0 + first) * (1.0 + second), first, second)
        cos = np.abs(dots) / (norms[i] * norms[j])
        bound = max(worst, float(np.max(defects.scale * cos + floor)))
    return float(_pair_bound(bound * (1.0 + tie) ** 2, tie, tie)), tie


def _coefficient_grams(plan: _Plan, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Entries of the Gram a_i . a_j of the image coefficients of each
    parent's children (``_Group.coefficients`` of the coordinates ``c``):
    those of every sibling pair i < j, in the order of
    ``_SpanDefects.siblings``, and the diagonal |a_i|^2, in plan order.  At
    order 0 the one image is its one coordinate."""
    if not plan.groups:
        return np.empty(0), c * c
    c = c[plan.row_at]
    dots = []
    squares = np.empty(len(plan.orders))
    for g in plan.groups:
        a = g.coefficients(c).reshape(g.parents, g.children, -1)
        gram = np.matmul(a, a.transpose(0, 2, 1))
        dots.append(gram[:, g.pairs[0], g.pairs[1]].ravel())
        squares[g.images] = gram.diagonal(0, 1, 2).ravel()
    return np.concatenate(dots), squares


def _image_norm_bounds(stacks, n: int) -> np.ndarray:
    """Upper bounds on the norms of the embeddings of the deviators
    ``stacks`` of an order-n record, in plan order, from their coefficients
    alone: B_p B_p^T = lambda_p I + D_p has largest eigenvalue at most
    lambda_p + |D_p|_F = 2 lambda_p - sigma_p (``_span_defects``), so
    |a_i B_p| <= sqrt(2 lambda_p - sigma_p) |a_i|.  Each deviator is taken
    on its own ``_scaled_rows`` and its bound scaled back, so no product
    underflows; no image is built.  At order 0 the image is the deviator."""
    plan = _plan(n)
    scaled, shift = _scaled_stacks(stacks, n)
    c = _deviator_coordinates(plan, scaled, n)
    if n == 0:
        return _scaled_back(shift, np.abs(c))[0]
    defects = _span_defects(n)
    stretch = np.sqrt(2.0 * defects.lam - defects.sigma)
    c = c[plan.row_at]
    norms = np.empty(len(plan.orders))
    for g in plan.groups:
        a = g.coefficients(c).reshape(g.parents, g.children, -1)
        norms[g.images] = (np.linalg.norm(a, axis=2) * stretch[g.slots, None]).ravel()
    return _scaled_back(shift, norms)[0]


def _deviator_coordinates(plan: _Plan, stacks, n: int) -> np.ndarray:
    """The 3^n coordinates c of the deviators ``stacks`` of a record in the
    layout of the order-n ``plan``, in slot order: each deviator times
    B_s^T, the c of ``decompose`` to rounding."""
    c = np.empty(3**n)
    for (_, _, stack), (_, _, rows, basis) in zip(stacks, plan.deviators):
        c[rows] = np.dot(stack, basis.T).ravel()
    return c


def _part_residuals(stacks, count: int) -> np.ndarray:
    """The (2, ``count``) symmetry and trace residuals of the parts'
    deviators, given as ``_Record.stacks``, relative to each deviator's
    norm; inf for a deviator of any order with an entry that is not finite,
    and otherwise 0 for orders below 2 and for a zero deviator.

    Each order's stack is read once, as ``_scaled_rows``, so no norm
    overflows or underflows at any scale.  The symmetry residual of a row x
    is |x - x M_s M_s^T| / |x|, two products per order
    (``core._project_rows`` onto ``_orbit_basis(s)``); the trace residual is
    the norm of the sum of the three diagonal (i, i) slices of the same
    scaled row, over |x|.  The ratios, roots and the inf rule are then taken
    once for all parts.
    """
    squares = np.zeros((3, count))  # |x|^2, then the squared residuals, on the scaled rows
    norms, residuals = squares[0], squares[1:]
    for s, index, flat in stacks:
        if s < 2:  # symmetric and traceless: only the finite check
            norms[index] = np.where(np.isfinite(flat).all(axis=1), 0.0, np.inf)
            continue
        basis = _orbit_basis(s)
        scaled, norms[index], residuals[0, index] = _project_rows(flat, basis, basis.T)
        # einsum warns of no invalid value: a row that is not finite is inf, below
        diagonal = np.einsum("kiij->kj", scaled.reshape(len(flat), 3, 3, -1))
        residuals[1, index] = np.einsum("ij,ij->i", diagonal, diagonal)
    with np.errstate(invalid="ignore"):
        np.divide(residuals, norms, out=residuals, where=norms > 0.0)
    np.sqrt(residuals, out=residuals)
    residuals[:, ~np.isfinite(norms)] = np.inf
    return residuals


def verify(d: Decomposition, t) -> VerifyReport:
    """Residual report of a decomposition against the tensor it came from.

    Every check reads the arrays that the output of ``decompose`` and
    ``load_decomposition`` records (``_record_of``), never ``parts``, so it
    builds no part; any other decomposition is first stacked, once, into
    such arrays, which raises ``ValueError`` for parts in any other layout
    than that of ``decompose`` (``_stacked``).  Each order's deviator
    stack is read once for the coordinates c' = stack B_s^T, which the
    reconstruction and the certificate share, and once, as
    ``_scaled_rows``, for the symmetry and trace residuals, each a product
    over that read (``_part_residuals``).
    The reconstruction and orthogonality checks read the coordinates c',
    from which the images are built (``_sum``,
    ``_certified_cross_correlation``).  So an edited deviator fails them.

    One orthogonality check, at every order: ``max_cross_correlation`` and
    ``max_embedding_residual`` are the certified bound (at or above the
    exact value for the images ``parts`` builds, and within 1e-13 of it for
    ``decompose`` output unless parts are subnormal) and the tie tau of any
    images given with the parts, of ``_certified_cross_correlation``.  Every residual
    is computed on exactly rescaled values, so it does not depend on the
    scale of ``t``.
    """
    t = as_tensor(t, order=d.order)
    record = _record_of(d)
    t_norm = frobenius_norm(t)
    plan = _plan(d.order)
    with np.errstate(over="ignore", invalid="ignore"):  # a deviator that is not finite: below
        c = _deviator_coordinates(plan, record.stacks, d.order)
        res = frobenius_norm(_sum(record.stacks, d.order, c) - t)
    rel = res / t_norm if t_norm > 0.0 else res

    residuals = _part_residuals(record.stacks, len(plan.orders))
    max_cross, tie = _certified_cross_correlation(record, d.order, c)

    sym_res, trace_res = residuals.tolist()
    return VerifyReport(
        order=d.order,
        reconstruction_residual=res,
        reconstruction_relative=rel,
        part_symmetry=tuple(sym_res),
        part_trace=tuple(trace_res),
        max_part_residual=float(residuals.max(initial=0.0)),
        max_cross_correlation=max_cross,
        max_embedding_residual=tie,
        counts_expected=dict(enumerate(counts_row(d.order))),
        counts_actual=d.counts(),
        counts_ok=True,  # ``_stacked`` refuses every other layout
    )
