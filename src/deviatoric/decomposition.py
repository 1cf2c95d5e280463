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
    "decompose_order2",
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


@dataclass(frozen=True)
class Decomposition:
    order: int
    parts: tuple[IrreduciblePart, ...]
    # the (parts, 3^n) array whose row i is parts[i].embedded; set only by
    # ``_from_rows``, so a hand-built or ``replace``d decomposition has none
    _rows: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __getstate__(self):
        # copies keep no rows: pickle and deepcopy give each part an array of its own
        return {"order": self.order, "parts": self.parts}

    def counts(self) -> dict[int, int]:
        actual: dict[int, int] = {}
        for p in self.parts:
            actual[p.s] = actual.get(p.s, 0) + 1
        return actual


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
    children's coordinates in c.
    """

    rows: np.ndarray  # (P_s, 3(2s+1)) positions in y and in c
    to_children: np.ndarray  # (3(2s+1), 3(2s+1)): slice coordinates -> E_n t
    norms: np.ndarray  # (P_s, 3(2s+1)) lambda of the children's rows
    to_images: np.ndarray  # (3(2s+1), children * 3(2s+1)): c -> image coefficients
    blocks: tuple  # per parent: its rows of E_{n-1}, its children's rows of the slice view


class _Plan(NamedTuple):
    """What ``decompose`` needs for order n, built once per order."""

    orders: tuple[int, ...]  # s of each part, in traversal order
    labels: tuple[int, ...]  # J of each part
    prev: np.ndarray | None  # E_{n-1}; None for n = 0
    groups: tuple[_Group, ...]  # one per parent order s; none for n = 0
    deviators: tuple  # per deviator order s: (s, (J_s, 2s+1) positions in c, B_s.flat)
    by_order: tuple[int, ...]  # each part's position among the deviators grouped by s


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
    seen: dict[int, int] = {}
    labels = []
    for s in orders:
        seen[s] = seen.get(s, 0) + 1
        labels.append(seen[s])
    starts = np.cumsum([0] + [2 * s + 1 for s in orders])
    deviators = []
    grouped: list[int] = []
    for s in sorted(seen):
        index = [i for i, o in enumerate(orders) if o == s]
        rows = starts[index][:, None] + np.arange(2 * s + 1)
        _read_only(rows)
        deviators.append((s, rows, build_basis(s).flat))
        grouped += index
    by_order = [0] * len(orders)
    for k, i in enumerate(grouped):
        by_order[i] = k
    if n == 0:
        return _Plan(orders, tuple(labels), None, (), tuple(deviators), tuple(by_order))

    prev = _change_of_basis(n - 1)
    lam = np.einsum("ij,ij->i", prev, prev)
    parents = part_orders(n - 1)
    prev_starts = np.cumsum([0] + [2 * s + 1 for s in parents])
    first_child = np.cumsum([0] + [len(_children(s)) for s in parents])
    groups = []
    for s in sorted(set(parents)):
        width = 2 * s + 1
        index = [q for q, o in enumerate(parents) if o == s]
        firsts = prev_starts[index]
        f = _regroup(s)  # (3 width, 3, width)
        parent_rows = firsts[:, None] + np.arange(width)
        rows = 3 * firsts[:, None] + np.arange(3 * width)
        norms = lam[parent_rows] @ (f * f).sum(axis=1).T
        to_children = f.transpose(2, 1, 0).reshape(3 * width, 3 * width)
        # row r of c_g, a coordinate of child i, puts F[r] in column block i
        child = np.repeat(np.arange(len(_children(s))), [2 * c + 1 for c in _children(s)])
        to_images = np.zeros((3 * width, len(_children(s)), 3 * width))
        to_images[np.arange(3 * width), child] = f.reshape(3 * width, -1)
        to_images = to_images.reshape(3 * width, -1)
        blocks = tuple(
            (prev[p : p + width], 3 * first_child[q], 3 * first_child[q + 1])
            for q, p in zip(index, firsts.tolist())
        )
        _read_only(rows, to_children, norms, to_images)
        groups.append(_Group(rows, to_children, norms, to_images, blocks))
    return _Plan(orders, tuple(labels), prev, tuple(groups), tuple(deviators), tuple(by_order))


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
        coeffs = np.dot(c_g, g.to_images).reshape(len(g.blocks), -1, g.blocks[0][0].shape[0])
        for a, (block, start, stop) in zip(coeffs, g.blocks):
            np.dot(a, block, out=slices[start:stop])
    return c, images


def _views(rows: np.ndarray, order: int) -> list[np.ndarray]:
    """Each row of a 2-D array as a view of shape (3,) * order."""
    if order == 0:
        return [r.reshape(()) for r in rows]
    return list(rows.reshape((-1,) + (3,) * order))


def _from_rows(order: int, orders, labels, deviators, rows: np.ndarray) -> Decomposition:
    """Decomposition whose part i has order ``orders[i]``, label
    ``labels[i]``, deviator ``deviators[i]`` and, as its embedded image, a
    view of row i of the (parts, 3^order) array ``rows``, which it records
    for ``reconstruct`` and ``verify``."""
    # a list first: tuple() of an iterator of unknown length resizes its
    # result, and CPython keeps each freed tuple of under 20 items on a
    # per-size free list of up to 2000 that resizing never draws from
    parts = list(map(IrreduciblePart, orders, labels, deviators, _views(rows, order)))
    d = Decomposition(order=order, parts=tuple(parts))
    object.__setattr__(d, "_rows", rows)
    return d


def decompose(t) -> Decomposition:
    """Orthogonal irreducible decomposition of an arbitrary 3-D tensor.

    Returns one part per (s, J) slot in deterministic traversal order; the
    embedded images sum to ``t`` and are mutually orthogonal.  The images are
    the rows of one (parts, 3^n) array that the decomposition records, and
    each ``embedded`` is a view of its row, so ``reconstruct`` and ``verify``
    read them all without a copy.
    """
    t = as_tensor(t)
    plan = _plan(t.ndim)
    c, images = _coordinates_and_images(plan, t)
    grouped: list[np.ndarray] = []
    for s, rows, basis in plan.deviators:
        grouped += _views(np.dot(c[rows], basis), s)
    deviators = [grouped[k] for k in plan.by_order]
    return _from_rows(t.ndim, plan.orders, plan.labels, deviators, images)


def decompose_order2(t) -> Decomposition:
    """Decompose an order-2 tensor into trace, spin vector, and deviator.

    The closed form is t = alpha*delta + epsilon.v + D with
    alpha = tr(t)/3, v_s = eps_ijs t_ij / 2, D = sym(t) - alpha*delta.
    """
    return decompose(as_tensor(t, order=2))


def reconstruct(d: Decomposition) -> np.ndarray:
    """Sum of the embedded parts; inverse of ``decompose``."""
    return _image_rows(d).sum(axis=0).reshape((3,) * d.order)


def _image_rows(d: Decomposition) -> np.ndarray:
    """The embedded images of ``d`` as the rows of one (parts, 3^n) array.

    The output of ``decompose`` and ``load_decomposition`` records that
    array, and it is returned as is; an in-place edit of a part's image is
    an edit of its row.  Any other decomposition, such as a hand-built one,
    a ``dataclasses.replace``d one or any copy, is stacked into a new array,
    so the images that are checked are always the ones stored in the parts.
    """
    if d._rows is not None:
        return d._rows
    return _stack([p.embedded for p in d.parts], d.order).reshape(len(d.parts), 3**d.order)


def _stack(tensors: list, order: int) -> np.ndarray:
    """New (k,) + (3,)*order array of the given tensors; raises the error of
    ``as_tensor`` for the first one of another shape."""
    shape = (len(tensors),) + (3,) * order
    try:
        stack = np.array(tensors, dtype=float)
    except ValueError:  # ragged
        stack = None
    if stack is not None and (stack.shape == shape or not tensors):
        return stack.reshape(shape)
    for x in tensors:
        as_tensor(x, order=order)
    raise ValueError(f"expected {len(tensors)} order-{order} tensors")


# A Gram product of rows whose largest squared norm lies outside this range
# could overflow, or lose precision to subnormal products.
_GRAM_RANGE = (2.0**-600, 2.0**600)


def _max_cross_correlation(rows: np.ndarray) -> float:
    """Largest |<f_i, f_j>| / (|f_i| |f_j|) over pairs i != j of nonzero
    rows f, from one Gram product F F^T; its diagonal gives the squared row
    norms.

    At extreme scales (see ``_GRAM_RANGE``) the product is taken over
    ``_scaled_rows`` of F, which leaves every ratio as it is: the one case
    in which the images of ``decompose`` output are copied.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # rescaled below
        gram = rows @ rows.T  # numpy runs this as a symmetric rank-k update
    squares = gram.diagonal()
    if len(squares) and not _GRAM_RANGE[0] <= squares.max() <= _GRAM_RANGE[1]:
        rows = _scaled_rows(rows)[0]
        gram = rows @ rows.T
        squares = gram.diagonal()
    norms = np.sqrt(squares)
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


def _part_residuals(parts) -> tuple[list[float], list[float]]:
    """Symmetry and trace residual of each part's deviator relative to the
    deviator's norm, 0 for orders below 2 and for a zero deviator.

    Deviators of one order are stacked and checked together, on
    ``_scaled_rows`` of the stack, so no norm overflows or underflows at any
    scale.
    """
    groups: dict[int, list[int]] = {}
    for i, p in enumerate(parts):
        groups.setdefault(p.s, []).append(i)
    sym_res = np.zeros(len(parts))
    trace_res = np.zeros(len(parts))
    for s, index in groups.items():
        devs = _stack([parts[i].deviator for i in index], s)
        if s < 2:
            continue  # checked for shape only
        flat = _scaled_rows(devs.reshape(len(index), -1))[0]
        devs = flat.reshape(devs.shape)
        norms = np.linalg.norm(flat, axis=1)
        sym = np.linalg.norm(flat - symmetrize_stack(devs).reshape(flat.shape), axis=1)
        trace = np.linalg.norm(np.trace(devs, axis1=1, axis2=2).reshape(len(index), -1), axis=1)
        nonzero = norms > 0.0
        sym_res[index] = np.divide(sym, norms, out=np.zeros_like(sym), where=nonzero)
        trace_res[index] = np.divide(trace, norms, out=np.zeros_like(trace), where=nonzero)
    return sym_res.tolist(), trace_res.tolist()


def verify(d: Decomposition, t) -> VerifyReport:
    """Residual report of a decomposition against the tensor it came from.

    The reconstruction and cross-correlation checks read every stored
    embedded image, so an edited image fails them.  The Gram product costs
    O(parts^2 * 3^n) flops in BLAS and a (parts, parts) matrix.  Both checks
    read the image rows that ``decompose`` and ``load_decomposition`` output
    records; any other decomposition is first copied, once, into one
    (parts, 3^n) stack.  Every residual is computed on exactly rescaled
    values, so it does not depend on the scale of ``t``.
    """
    t = as_tensor(t, order=d.order)
    rows = _image_rows(d)
    t_norm = frobenius_norm(t)
    res = frobenius_norm(rows.sum(axis=0).reshape(t.shape) - t)
    rel = res / t_norm if t_norm > 0.0 else res

    sym_res, trace_res = _part_residuals(d.parts)
    max_cross = _max_cross_correlation(rows)

    expected = {s: count_parts(d.order, s) for s in range(d.order + 1)}
    actual = d.counts()
    counts_ok = all(actual.get(s, 0) == j for s, j in expected.items()) and all(
        s in expected for s in actual
    )
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
