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
matrix F_s, and the images of the parent's children are one product of
their image coefficients a = c_g F_s with the parent's rows of E_{n-1}
(``_images``).  The rows of F_s are orthogonal too, so the orthogonality
certificate and the image-norm bounds read only constants of F_s
(``_coefficient_bounds``) and each part's coordinate norm.  E_n is applied
one level of the recursion at a time, down to the dense base E_5 (0.47 MB,
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
    _orbit_map, _project, _scaled_back, _scaled_rows, as_tensor, epsilon, frobenius_norm,
    symmetrize,
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
    is the distance |x - symmetrize(x)| of its deviator x to the totally
    symmetric tensors (``symmetrize(x)`` is the mean of each entry's orbit
    under permutations of the indices), and its trace residual the norm of
    the trace of x over its first two indices.  A zero denominator gives
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

    def blocks(self, prev: np.ndarray) -> np.ndarray:
        """The parents' rows of E_{n-1} ``prev``, a (parents, width, 3^(n-1)) view."""
        return prev[self.coords.start // 3 : self.coords.stop // 3].reshape(self.parents, self.width, -1)


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
        _read_only(to_children, to_images)
        groups.append(_Group(
            slice(slot, slot + count), coords, slice(image, image + count * len(children)),
            to_children, to_images, width, count, len(children),
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
    coordinates ``c`` (in slot order), in plan order: per group, the image
    coefficients a = c_g F_s, a (parents, children, 3 width) array whose
    entries kw .. kw + w - 1 of row i of parent p, times the parent's rows
    of E_{n-1} (``_Group.blocks``), are slice k of the image of child i;
    then one stacked product with those rows.  E_{n-1} is built if it is
    not cached."""
    if n == 0:
        return c.reshape(1, 1).copy()
    plan, prev = _plan(n), _change_of_basis(n - 1)
    c = c[plan.row_at]
    images = np.empty((len(plan.orders), len(c)))
    for g in plan.groups:
        a = np.dot(c[g.coords].reshape(g.parents, -1), g.to_images)
        out = images[g.images].reshape(g.parents, -1, len(prev))
        np.matmul(a.reshape(g.parents, -1, g.width), g.blocks(prev), out=out)
    return images


def _rows_of(record: _Record, n: int) -> np.ndarray:
    """The image rows of the order-n ``record``, in plan order: the
    embeddings of its deviators, built by the product of ``_images`` and
    read-only, so no edit can part them from the deviators they were built
    from.  Where a squared coordinate leaves ``_GRAM_RANGE``, each image is
    built from the coordinates of its own deviator divided exactly by a
    power of two (``_scaled_coordinates``) and then multiplied back by it,
    so that only that last step can round to the subnormal grid, once per
    entry."""
    plan = _plan(n)
    c = _deviator_coordinates(plan, record.stacks, n)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        in_range = _in_gram_range(c, c * c)
    if in_range:
        rows = _images(c, n)
    else:
        c, shift = _scaled_coordinates(plan, record.stacks, n)
        rows = _images(c, n)
        with np.errstate(over="ignore", under="ignore"):
            np.ldexp(rows, shift[:, None], out=rows)
    rows.flags.writeable = False
    return rows


def _scaled_coordinates(plan: _Plan, stacks, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``_deviator_coordinates`` of the deviators ``stacks`` of a record in
    the layout of the order-n ``plan``, each deviator divided exactly by
    its own power of two 2^k (``_scaled_rows``), and the k of each image
    row, in plan order."""
    shift = np.empty(len(plan.row_of), dtype=np.intc)  # the exponent type of frexp, which ldexp takes fastest
    scaled = []
    for s, index, stack in stacks:
        rows, shift[plan.row_of[index]] = _scaled_rows(stack)
        scaled.append((s, index, rows))
    return _deviator_coordinates(plan, scaled, n), shift


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
    stacks = _record_of(d, images=False).stacks
    return _sum(_deviator_coordinates(_plan(d.order), stacks, d.order), d.order)


def _sum(c: np.ndarray, n: int) -> np.ndarray:
    """The sum of the images of the order-n deviators whose coordinates are
    ``c`` (``_deviator_coordinates``): E_n^T c (``_apply_transposed``: one
    dense product up to ``_DENSE_BASE``, level by level above it), as each
    image is c_p E_p.  ``verify`` takes c once for this sum and its
    certificate, so an in-place edit of a deviator reaches both.
    """
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


def _in_gram_range(c: np.ndarray, squares: np.ndarray) -> bool:
    """Whether every nonzero coordinate c has c^2 in ``_GRAM_RANGE``, given
    ``squares`` = c * c; a nonzero c whose square underflows is out of
    range, and so is one that is not finite."""
    low, high = _GRAM_RANGE
    return bool(squares.max(initial=0.0) <= high and low <= squares.min(initial=low, where=c != 0.0))


def _coefficient_bounds(s: int) -> tuple[float, np.ndarray, np.ndarray]:
    """Constants of the image coefficients a_i = fl(c_i F_i) that ``_images``
    forms for the children i of an order-s slot, F_i the child's (w_i, 3w)
    rows of ``_regroup(s)`` and c_i its coordinates: kappa_s >= |a_i . a_j|
    / (|a_i| |a_j|) for every pair of siblings and every c, and, per child,
    low_i |c_i| <= |a_i| <= high_i |c_i|, with |c_i| as ``_part_norms``
    rounds it.  An order-0 slot has one child, and no pair.

    By Schur's lemma F_i F_i^T is a multiple of I and F_i F_j^T is 0, up to
    rounding.  Both are taken in long double, and their own rounding is at
    most gamma_3w || |F_i| |F_j|^T ||_F at its unit roundoff (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., 3.5; gamma_m =
    m u / (1 - m u)).  With lambda_i the mean of the diagonal and d_i the
    norm of the rest, sigma_i^2 = lambda_i - d_i bounds the squared singular
    values of F_i below and lambda_i + d_i above, as ``_span_defects``
    bounds those of a parent's rows, and nu_ij = |F_i F_j^T|_F / (sigma_i
    sigma_j) bounds the cos of the exact c_i F_i and c_j F_j.  Each entry of
    a_i is a dot product of 3w terms of which only w_i are not exact zeros,
    and adding a zero does not round, so |a_i - c_i F_i| <= gamma_{w_i}
    || |F_i| ||_2 |c_i| <= mu_i |c_i F_i|, with mu_i = gamma_{w_i}
    sqrt(|| |F_i| |F_i|^T ||_inf) / sigma_i.  So kappa_s is the largest
    (nu_ij + mu_i + mu_j + mu_i mu_j) / ((1 - mu_i)(1 - mu_j)), and the
    rounded |c_i|, w_i squares summed and a square root, is within
    gamma_{w_i + 1} of the exact one.  Each is rounded outward to a double.
    """
    def gamma(m, u=2.0**-53):  # u the unit roundoff of float64, or of long double
        return m * u / (1 - m * u)

    f = _regroup(s).astype(np.longdouble).reshape(3 * (2 * s + 1), -1)
    widths = np.array([2 * c + 1 for c in _children(s)])
    edges, child = np.cumsum(widths) - widths, np.repeat(np.arange(len(widths)), widths)

    def blocks(x):  # the Frobenius norm of each block (i, j) of x
        return np.sqrt(np.add.reduceat(np.add.reduceat(x * x, edges, axis=0), edges, axis=1))

    # F F^T, and |F| |F|^T, which bounds its rounding (np.dot: long-double @ takes 3x as long)
    gram, magnitude = np.dot(f, f.T), np.dot(np.abs(f), np.abs(f).T)
    lam = np.add.reduceat(np.diagonal(gram), edges) / widths
    norms = blocks(gram - np.diag(lam[child])) + gamma(len(f), np.finfo(f.dtype).eps / 2) * blocks(magnitude)
    sigma, top = np.sqrt(lam - np.diagonal(norms)), np.sqrt(lam + np.diagonal(norms))
    own = np.add.reduceat(magnitude, edges, axis=1)[np.arange(len(f)), child]  # row sums of |F_i| |F_i|^T
    mu = gamma(widths) * np.sqrt(np.maximum.reduceat(own, edges)) / sigma
    cos = (norms / np.outer(sigma, sigma) + mu + mu[:, None] + np.outer(mu, mu)) / np.outer(1 - mu, 1 - mu)
    np.fill_diagonal(cos, 0.0)
    low, high = sigma * (1 - mu) * (1 - gamma(widths + 1)), top * (1 + mu) * (1 + gamma(widths + 1))
    return (float(np.nextafter(float(cos.max()), np.inf)), np.nextafter(low.astype(float), 0.0),
            np.nextafter(high.astype(float), np.inf))


class _SpanDefects(NamedTuple):
    """How far the parents' rows of E_{n-1} are from orthogonal, per parent
    and over all parents, with the rounding allowances and the sibling
    constants of ``_certified_cross_correlation``, and per image the
    factors that turn its deviator's coordinate norm |c_i| into bounds:
    ``underflow`` for the rounding of a rescaled image and ``stretch`` for
    its norm (``_image_norm_bounds``)."""

    lam: np.ndarray  # (parents,) lambda_p, in the slot order of E_{n-1}
    delta: np.ndarray  # (parents,) delta_p, in the same order
    eta: float
    slack: np.ndarray  # (parts,) rounding allowance of each rho, in plan order
    sibling_cos: float  # the largest lambda_p / sigma_p kappa_s of a parent with two or more children
    sibling_delta: float  # the largest delta_p of such a parent
    underflow: np.ndarray  # (parts,) sqrt(3^n / sigma_p) / low_i of each image, in plan order
    stretch: np.ndarray  # (parts,) sqrt(2 lambda_p - sigma_p) high_i of each image, in plan order


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
    not cached.  delta_p carries (3w + 2) eps as an allowance for the
    rounding of the measured B_p B_p^T, which, as for eta, is not bounded.

    The w-term product e = a B_p that builds each image slice rounds by at
    most w^1.5 eps of |e_i|, the ``slack`` of rho_i (eps = 2^-52, twice the
    unit roundoff, covers the factors (1 + delta_p)).  ``sibling_cos`` and
    ``sibling_delta`` are the largest lambda_p / sigma_p kappa_s and
    delta_p over the parents with siblings (``_coefficient_bounds``), the
    constants of the one sibling term of ``_certified_cross_correlation``.

    An image built from a scaled deviator and multiplied back by 2^k
    (``_rows_of``) rounds each entry that is subnormal by at most 2^-1075,
    which no relative slack covers: at most sqrt(3^n) 2^-1075 over its 3^n
    entries, that is ``underflow`` 2^-1075 / (2^k |c_i|) of its norm, since
    the exact product's is at least sqrt(sigma_p) |a_i| >= sqrt(sigma_p)
    low_i |c_i|.

    The largest eigenvalue of B_p B_p^T = lambda_p I + D_p is at most
    lambda_p + |D_p|_F = 2 lambda_p - sigma_p, so |a_i B_p| <= ``stretch``
    |c_i| with stretch = sqrt(2 lambda_p - sigma_p) high_i, stored per image.
    """
    groups, prev = _plan(n).groups, _change_of_basis(n - 1)
    count = groups[-1].slots.stop
    lam, sigma, delta = np.empty((3, count))
    squares = np.zeros((count, count))  # |B_p B_q^T|_F^2, for p and q in groups g <= h
    slack, underflow, stretch = np.empty((3, sum(counts_row(n))))
    eps = np.finfo(float).eps
    sibling_cos = sibling_delta = 0.0
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
                kappa, low, high = _coefficient_bounds(g.width // 2)
                underflow[g.images] = (np.sqrt(3.0**n / sigma[g.slots])[:, None] / low).ravel()
                stretch[g.images] = (np.sqrt(2.0 * lam[g.slots] - sigma[g.slots])[:, None] * high).ravel()
                if g.children > 1:
                    sibling_cos = max(sibling_cos, float(np.max(lam[g.slots] / sigma[g.slots])) * kappa)
                    sibling_delta = max(sibling_delta, float(np.max(delta[g.slots])))
            gram *= gram
            squares[g.slots, h.slots] = gram.sum(axis=(1, 3))
    np.fill_diagonal(squares, 0.0)
    eta = float(np.sqrt(np.max(squares / np.outer(sigma, sigma))))
    _read_only(lam, delta, slack, underflow, stretch)
    return _SpanDefects(lam, delta, eta, slack, sibling_cos, sibling_delta, underflow, stretch)


def _pair_bound(inspan, rho_i, rho_j):
    """cos_ij <= inspan_ij + rho_i + rho_j + 3 rho_i rho_j; see
    ``_certified_cross_correlation``."""
    return inspan + rho_i + rho_j + 3.0 * rho_i * rho_j


def _certified_cross_correlation(record: _Record, n: int, c: np.ndarray) -> tuple[float, float]:
    """An upper bound on the largest cos_ij = |<f_i, f_j>| / (|f_i| |f_j|)
    over pairs i != j of nonzero images f of the parts of an order-n
    decomposition in the layout of ``_plan(n)``, and the record's tie tau.
    Both are inf when a deviator is not finite, or is nonzero with
    coordinates that are all zero, or when the tie is inf (``_tie``), and
    the bound is inf for an image that may be all rounding (below).  A zero
    deviator's image pairs with no other.

    The images are the embeddings e_i = fl(a_i B_p) of ``_rows_of``, slice
    by slice: a_i = fl(c_i F_i) the image coefficients of the deviator's
    coordinates c_i (``_images``), B_p the rows of the parent slot in
    E_{n-1}.  The exact product lies in the span of B_p whatever a_i and
    the defect of B_p, and e_i is within rho_i, the slack of
    ``_span_defects(n)``, of it.  Writing e_i = its exact product plus that
    rounding gives cos_ij <= inspan_ij + rho_i + rho_j + 3 rho_i rho_j
    (``_pair_bound``), where inspan_ij bounds the exact products' |<., .>|
    over |e_i| |e_j|.  As their squared norms are at least sigma_p |a_i|^2
    and |e_i| >= sqrt(sigma_p) |a_i| (1 - rho_i):

    * for siblings, the product is lambda_p a_i . a_j + a_i D_p a_j^T, and
      |a_i . a_j| <= kappa_s |a_i| |a_j| for every c (``_coefficient_bounds``),
      so inspan_ij is at most lambda_p / sigma_p kappa_s / ((1 - rho_i)
      (1 - rho_j)) plus delta_p (1 + rho_i)(1 + rho_j);
    * across parents, |<., .>| <= |B_p B_q^T|_F |a_i| |a_j|, so inspan_ij
      is eta (1 + rho_i)(1 + rho_j).

    Each bound grows with rho_i and rho_j, so with the two largest rho and
    the largest sibling constants (``_SpanDefects.sibling_cos`` and
    ``sibling_delta``) one expression bounds every pair.  lambda_p,
    sigma_p, delta_p, eta and the slack are measured by
    ``_span_defects(n)``.  No image or coefficient is formed: the data
    enter only through the norms |c_i| (``_part_norms``), which find the
    zero images and the underflow term.  c are the deviators'
    coordinates (``_deviator_coordinates``), the ones ``_rows_of`` builds
    the images from; ``verify`` passes those it sums.

    When some nonzero c has c^2 outside ``_GRAM_RANGE``, so that a product
    could underflow or overflow, the coordinates are taken, as ``_rows_of``
    then builds the images, from each deviator divided exactly by its own
    2^k_i (``_scaled_coordinates``), which leaves every cos as it is.  Each
    image is that product times 2^k_i, which rounds each entry that is
    subnormal by at most 2^-1075, so rho_i adds ``_SpanDefects.underflow``
    2^-1075 / (2^k_i |c_i|), which is below the last bit of the slack unless
    2^k_i is below about 2^-960.  So the bound holds for the images that
    ``parts`` builds at every scale, and an image that may be all rounding
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
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        squares = c * c
        rescale = not _in_gram_range(c, squares)
        if rescale:
            c, shift = _scaled_coordinates(plan, record.stacks, n)
            squares = np.multiply(c, c, out=squares)
        norms = _part_norms(squares, n)
    live = norms > 0.0
    tie = record.tie
    if not live.all():  # a nonzero deviator whose coordinates are all zero: inf
        for _, index, stack in record.stacks:
            if (~live[plan.row_of[index]] & stack.any(axis=1)).any():
                tie = np.inf
    if not (tie < np.inf and np.isfinite(norms).all()):  # eta = 0 would make the bound NaN
        return np.inf, np.inf
    bound = 0.0
    if np.count_nonzero(live) >= 2:
        defects = _span_defects(n)
        rho = defects.slack
        if rescale:
            with np.errstate(over="ignore", under="ignore"):
                gap = np.zeros(len(norms))
                np.divide(defects.underflow, norms, out=gap, where=live)
                rho = rho + np.ldexp(gap, -1075 - shift)
        second, first = np.partition(rho, -2)[-2:]
        if not first < 1.0:  # an image that may be all rounding
            return np.inf, tie
        grow, shrink = (1.0 + first) * (1.0 + second), (1.0 - first) * (1.0 - second)
        inspan = max(defects.eta * grow, defects.sibling_cos / shrink + defects.sibling_delta * grow)
        bound = _pair_bound(inspan, first, second)
    return float(_pair_bound(bound * (1.0 + tie) ** 2, tie, tie)), tie


class _Entries(NamedTuple):
    """Where the parts of an order-n record lie when its deviator stacks, in
    the order of ``_plan(n).deviators`` (by s, then J: "record order"), are
    read as one flat array of entries, and its coordinates c as one flat
    array in slot order, which is record order too; built once per order
    (``_entries``) for the checks that take every part in one pass
    (``_part_residuals``, ``_part_norms``).  The parts of order 0 and 1,
    which have no trace, come first."""

    starts: np.ndarray  # (parts,) the first entry of each part
    sizes: np.ndarray  # (parts,) its 3^s entries
    orbits: np.ndarray  # (entries,) the orbit of each entry under permutations of its part's indices
    weights: np.ndarray  # (orbits,) 1 / the size of each orbit
    diagonal: np.ndarray  # (3, traces) the entries x[i, i, ...] of the parts of order >= 2, row i
    traces: np.ndarray  # (parts of order >= 2,) the first trace entry of each of them
    part: np.ndarray  # (parts,) each part's index in traversal order
    coordinates: np.ndarray  # (parts,) the first of each part's 2s+1 coordinates in c
    by_row: np.ndarray  # (parts,) the part of each image row, in plan order


@lru_cache(maxsize=None)
def _entries(n: int) -> _Entries:
    """The ``_Entries`` of an order-n record, from ``core._orbit_map`` and
    ``_plan(n).deviators``, one vectorised step per deviator order s.
    Orbits are numbered over all parts, part after part, so no orbit sum
    mixes two parts.  Entry (i, i, k) of an order-s part lies i (3^(s-1) +
    3^(s-2)) + k after its first, for k < 3^(s-2) (none below order 2)."""
    plan = _plan(n)
    orbits, weights, diagonal = [], [], []
    entry = orbit = 0
    for s, index, _, _ in plan.deviators:
        count, size = len(index), 3**s
        code, weight = _orbit_map(s, tuple(range(s)))
        canonical = np.flatnonzero(code == np.arange(size))
        parts = np.arange(count)[:, None]
        orbits.append((orbit + parts * len(canonical) + np.searchsorted(canonical, code)).ravel())
        weights.append(np.tile(weight[canonical], count))
        first = (entry + parts * size + np.arange(size // 9)).ravel()
        diagonal.append(first + 4 * (size // 9) * np.arange(3)[:, None])
        entry, orbit = entry + count * size, orbit + count * len(canonical)
    orders = np.array([s for s, index, _, _ in plan.deviators for _ in index])
    sizes, widths, traced = 3**orders, 2 * orders + 1, 3 ** (orders[orders >= 2] - 2)
    part = np.concatenate([index for _, index, _, _ in plan.deviators])
    entries = _Entries(
        np.cumsum(sizes) - sizes, sizes, np.concatenate(orbits), np.concatenate(weights),
        np.concatenate(diagonal, axis=1), np.cumsum(traced) - traced, part,
        np.cumsum(widths) - widths, np.argsort(plan.row_of[part]),
    )
    _read_only(*entries)
    return entries


def _part_norms(squares: np.ndarray, n: int) -> np.ndarray:
    """The norm |c_i| of each part's coordinates, in plan order, from the
    squares c * c of the order-n coordinates c (in slot order): one sum over
    each part's 2s+1 contiguous squares, its square root, and one
    permutation (``_entries``).  So |c_i| is within gamma_{2s+2} |c_i| of
    its exact value, as ``_coefficient_bounds`` assumes, and a part times
    2^k has its norm times 2^k, bit for bit, where no square underflows or
    overflows; at order 0 the one coordinate's magnitude."""
    entries = _entries(n)
    norms = np.sqrt(np.add.reduceat(squares, entries.coordinates))
    return np.take(norms, entries.by_row)


def _image_norm_bounds(stacks, n: int) -> np.ndarray:
    """Upper bounds on the norms of the embeddings of the deviators
    ``stacks`` of an order-n record, in plan order, from their coordinate
    norms alone: |e_i| <= ``_SpanDefects.stretch`` |c_i| (``_part_norms``).
    The coordinates are taken with each deviator divided exactly by its own
    2^k (``_scaled_coordinates``) and each bound is multiplied back by it,
    so no product underflows; no image is built.  At order 0 the image is
    the deviator: stretch 1."""
    c, shift = _scaled_coordinates(_plan(n), stacks, n)
    stretch = _span_defects(n).stretch if n else 1.0
    return _scaled_back(shift, _part_norms(c * c, n) * stretch)[0]


def _deviator_coordinates(plan: _Plan, stacks, n: int) -> np.ndarray:
    """The 3^n coordinates c of the deviators ``stacks`` of a record in the
    layout of the order-n ``plan``, in slot order: each deviator times
    B_s^T, the c of ``decompose`` to rounding."""
    c = np.empty(3**n)
    for (_, _, stack), (_, _, rows, basis) in zip(stacks, plan.deviators):
        c[rows] = np.dot(stack, basis.T).ravel()
    return c


def _part_residuals(stacks, n: int) -> np.ndarray:
    """The (2, parts) symmetry and trace residuals of the deviators of an
    order-n record, given as ``_Record.stacks``, relative to each deviator's
    norm, in traversal order; inf for a deviator of any order with an entry
    that is not finite, and otherwise 0 for orders below 2 and for a zero
    deviator.

    One pass over all the parts' entries, read as one flat array x with the
    index of ``_entries(n)``, and no product: each part is divided exactly
    by its own power of two (one maximum per part, as ``_scaled_rows``
    takes it), so no norm overflows or underflows at any scale.  The
    symmetry residual of a part is |x - orbit-mean(x)| / |x|, the mean of
    each entry's orbit being ``symmetrize(x)``: one sum per orbit over all
    parts and one gather back.  The trace residual is the norm of the sum
    of the three gathers x[i, i, ...], over |x|.  Each squared norm is one
    sum per part, and the ratios, roots and the inf rule are taken once for
    all parts.  No orbit or trace entry is shared by two parts, so a part
    that is not finite leaves every other part's residuals as they are.
    """
    entries = _entries(n)
    x = np.concatenate([stack for _, _, stack in stacks], axis=None)
    work = np.abs(x)
    squares = np.empty((3, len(entries.part)))  # |x|^2, then the squared residuals, on the scaled parts
    norms, residuals = squares[0], squares[1:]
    with np.errstate(over="ignore", invalid="ignore"):  # a part that is not finite is inf, below
        shift = np.frexp(np.maximum.reduceat(work, entries.starts))[1]
        np.ldexp(x, np.repeat(np.negative(shift, out=shift), entries.sizes), out=x)
        np.add.reduceat(np.multiply(x, x, out=work), entries.starts, out=norms)
        means = np.bincount(entries.orbits, weights=x, minlength=len(entries.weights))
        means *= entries.weights
        np.subtract(x, np.take(means, entries.orbits, out=work), out=work)
        np.add.reduceat(np.multiply(work, work, out=work), entries.starts, out=residuals[0])
        trace = np.take(x, entries.diagonal).sum(axis=0)
        plain = len(entries.part) - len(entries.traces)  # no trace below order 2
        residuals[1, :plain] = 0.0
        np.add.reduceat(np.multiply(trace, trace, out=trace), entries.traces, out=residuals[1, plain:])
        np.divide(residuals, norms, out=residuals, where=norms > 0.0)
    np.sqrt(residuals, out=residuals)
    residuals[:, ~np.isfinite(norms)] = np.inf
    ordered = np.empty_like(residuals)
    ordered[:, entries.part] = residuals
    return ordered


def verify(d: Decomposition, t) -> VerifyReport:
    """Residual report of a decomposition against the tensor it came from.

    Every check reads the arrays that the output of ``decompose`` and
    ``load_decomposition`` records (``_record_of``), never ``parts``, so it
    builds no part; any other decomposition is first stacked, once, into
    such arrays, which raises ``ValueError`` for parts in any other layout
    than that of ``decompose`` (``_stacked``).  Each order's deviator
    stack is read once for the coordinates c' = stack B_s^T, which the
    reconstruction and the certificate share, and all stacks are read once
    more, as one flat array, for the symmetry and trace residuals of every
    part in one pass of orbit sums and gathers, with no product
    (``_part_residuals``).
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
        res = frobenius_norm(_sum(c, d.order) - t)
    rel = res / t_norm if t_norm > 0.0 else res

    residuals = _part_residuals(record.stacks, d.order)
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
