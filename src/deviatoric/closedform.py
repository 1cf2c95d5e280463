"""Explicit assembly formulas for order-3 and order-4 decompositions.

The decomposition engine expresses a tensor as a sum of embedded deviators
through a cached change of basis, built once per order by replaying the
recursion's forward maps.  For orders 3 and 4 the embedding maps
also have short explicit forms built from delta, epsilon, and the lift
kernel below.  This module encodes those term structures and calibrates
their scalar factors against the engine.

Calibration is a tiny least-squares fit per deviator order s: stack a few
random engine decompositions and solve for the mixing matrix M that makes

    sum_tau  P_tau( sum_J M[tau, J] * D_J )  =  sum_J  embedded_J

where P_tau are the structural term patterns and D_J the engine deviators of
that order.  The fitted matrices ship in ``data/structural_coefficients.json``
and are loaded by ``assemble_order3`` / ``assemble_order4``.  A clean outcome
is a signed permutation (each term is a single engine slot up to sign); terms
whose printed expression is ill-formed (repeated contraction letters,
symmetrization hats on contracted indices) carry several candidate readings,
and the fit records which reading worked.  Terms that admit no consistent
fit are reported in the fit result rather than silently patched.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import Callable

import numpy as np

from .core import delta, epsilon, symmetrize
from .decomposition import Decomposition, _lift, _record_of, _views, decompose

__all__ = [
    "lift_kernel4",
    "assemble_order3",
    "assemble_order4",
    "fit_structural_coefficients",
    "structural_coefficients",
]

_EPS = epsilon()
_EYE = delta()

_GOLDEN_RESOURCE = "structural_coefficients.json"
FIT_TOL = 1e-10


def lift_kernel4() -> np.ndarray:
    """Order-4 lift kernel in closed form:
    (3/2)(delta_ij delta_kl + delta_ik delta_jl) - delta_il delta_jk."""
    return (
        1.5 * (np.einsum("ij,kl->ijkl", _EYE, _EYE) + np.einsum("ik,jl->ijkl", _EYE, _EYE))
        - np.einsum("il,jk->ijkl", _EYE, _EYE)
    )


# ---------------------------------------------------------------------------
# structural term patterns

@dataclass(frozen=True)
class _Term:
    """One structural term: deviator order, named candidate readings, and a
    note when the printed expression needed repair."""

    name: str
    s: int
    readings: tuple[tuple[str, Callable[[np.ndarray], np.ndarray]], ...]
    note: str = ""


def _terms_order3() -> tuple[_Term, ...]:
    l4 = lift_kernel4()
    return (
        _Term("alpha", 0, (("printed", lambda a: float(a) * np.einsum("jki->ijk", _EPS)),)),
        _Term("v1", 1, (("printed", lambda v: np.einsum("jk,i->ijk", _EYE, v)),)),
        _Term("v2", 1, (("printed", lambda v: np.einsum("jkt,tis,s->ijk", _EPS, _EPS, v)),)),
        _Term("v3", 1, (("printed", lambda v: np.einsum("ijks,s->ijk", l4, v)),)),
        _Term("d1", 2, (("printed", lambda d: np.einsum("jks,si->ijk", _EPS, d)),)),
        _Term(
            "d2",
            2,
            (("printed", lambda d: symmetrize(np.einsum("isj,ks->ijk", _EPS, d), (1, 2))),),
        ),
        _Term("d3", 3, (("printed", lambda d: np.asarray(d)),)),
    )


def _terms_order4() -> tuple[_Term, ...]:
    l4 = lift_kernel4()

    def w4_composition(d: np.ndarray) -> np.ndarray:
        return 0.5 * (
            np.einsum("kls,ius,ju->ijkl", _EPS, _EPS, d)
            + np.einsum("kls,iuj,su->ijkl", _EPS, _EPS, d)
        )

    def w5_composition(d: np.ndarray) -> np.ndarray:
        raw = 0.5 * (
            np.einsum("jsk,ius,lu->ijkl", _EPS, _EPS, d)
            + np.einsum("jsk,iul,su->ijkl", _EPS, _EPS, d)
        )
        return symmetrize(raw, (2, 3))

    return (
        _Term("a1", 0, (("printed", lambda a: float(a) * np.einsum("ij,kl->ijkl", _EYE, _EYE)),)),
        _Term("a2", 0, (("printed", lambda a: float(a) * np.einsum("klt,tji->ijkl", _EPS, _EPS)),)),
        _Term("a3", 0, (("printed", lambda a: float(a) * np.transpose(l4, (3, 0, 1, 2))),)),
        _Term("v1", 1, (("printed", lambda v: np.einsum("klj,i->ijkl", _EPS, v)),)),
        _Term("v2", 1, (("printed", lambda v: np.einsum("kl,jis,s->ijkl", _EYE, _EPS, v)),)),
        _Term(
            "v3",
            1,
            (("fresh-dummy", lambda v: np.einsum("klt,tjs,siu,u->ijkl", _EPS, _EPS, _EPS, v)),),
            note="printed expression reuses a contraction letter; read with a fresh dummy",
        ),
        _Term("v4", 1, (("printed", lambda v: np.einsum("jkls,sit,t->ijkl", l4, _EPS, v)),)),
        _Term("v5", 1, (("printed", lambda v: np.einsum("kls,isjt,t->ijkl", _EPS, l4, v)),)),
        _Term(
            "v6",
            1,
            (
                (
                    "printed",
                    lambda v: symmetrize(np.einsum("jsk,islt,t->ijkl", _EPS, l4, v), (2, 3)),
                ),
            ),
        ),
        _Term("w1", 2, (("printed", lambda d: np.einsum("kl,ji->ijkl", _EYE, d)),)),
        _Term("w2", 2, (("printed", lambda d: np.einsum("klt,tjs,si->ijkl", _EPS, _EPS, d)),)),
        _Term("w3", 2, (("printed", lambda d: np.einsum("jkls,si->ijkl", l4, d)),)),
        _Term(
            "w4",
            2,
            (
                ("composition", w4_composition),
                ("literal", lambda d: np.einsum("kls,its,jt->ijkl", _EPS, _EPS, d)),
            ),
            note="printed hats sit on a contracted index; candidates are the two-step "
            "composed map and the hat-stripped literal reading",
        ),
        _Term(
            "w5",
            2,
            (
                ("composition", w5_composition),
                (
                    "literal",
                    lambda d: symmetrize(np.einsum("jsk,its,lt->ijkl", _EPS, _EPS, d), (2, 3)),
                ),
            ),
            note="printed hats sit on a contracted index; candidates as for w4",
        ),
        _Term("w6", 2, (("printed", lambda d: _lift(d, 3)),)),
        _Term("x1", 3, (("printed", lambda d: np.einsum("kls,isj->ijkl", _EPS, d)),)),
        _Term(
            "x2",
            3,
            (("printed", lambda d: symmetrize(np.einsum("jsk,isl->ijkl", _EPS, d), (2, 3))),),
        ),
        _Term(
            "x3",
            3,
            (("printed", lambda d: symmetrize(np.einsum("isj,kls->ijkl", _EPS, d), (1, 2, 3))),),
        ),
        _Term("top", 4, (("printed", lambda d: np.asarray(d)),)),
    )


def _terms(order: int) -> tuple[_Term, ...]:
    if order == 3:
        return _terms_order3()
    if order == 4:
        return _terms_order4()
    raise ValueError(f"structural terms are available for orders 3 and 4, not {order}")


# ---------------------------------------------------------------------------
# calibration against the engine

def fit_structural_coefficients(order: int, *, seed: int = 0, samples: int = 8) -> dict:
    """Fit the per-order mixing matrices of the structural terms.

    Returns a JSON-serializable dict with, per deviator order s: the chosen
    reading of every term, the fitted matrix (terms x engine slots), the fit
    residual, and a per-term classification (single engine slot with a
    scalar, or a genuine mixture).  Of the readings, the first combination
    within ``FIT_TOL`` is kept, the smallest residual only when none fits.
    """
    terms = _terms(order)
    rng = np.random.default_rng(seed)
    decs = [decompose(rng.standard_normal((3,) * order)) for _ in range(samples)]

    blocks: dict[str, dict] = {}
    for s in range(order + 1):
        block_terms = [t for t in terms if t.s == s]
        slot_parts = [[p for p in d.parts if p.s == s] for d in decs]
        n_slots = len(slot_parts[0])
        if len(block_terms) != n_slots:
            raise RuntimeError(
                f"order {order}, s={s}: {len(block_terms)} terms vs {n_slots} engine slots"
            )
        target = np.concatenate(
            [np.sum([p.embedded for p in ps], axis=0).ravel() for ps in slot_parts]
        )
        target_norm = max(np.linalg.norm(target), 1e-300)

        best: dict | None = None
        for combo in itertools.product(*[t.readings for t in block_terms]):
            columns = []
            for reading in combo:
                _, builder = reading
                for j in range(n_slots):
                    columns.append(
                        np.concatenate(
                            [builder(ps[j].deviator).ravel() for ps in slot_parts]
                        )
                    )
            a = np.stack(columns, axis=1)
            w, *_ = np.linalg.lstsq(a, target, rcond=None)
            residual = float(np.linalg.norm(a @ w - target) / target_norm)
            if best is None or residual < best["residual"]:
                best = {
                    "residual": residual,
                    "matrix": w.reshape(n_slots, n_slots),
                    "readings": {t.name: r[0] for t, r in zip(block_terms, combo)},
                }
            if residual <= FIT_TOL:
                break  # rounding does not choose among readings that all fit
        assert best is not None

        entries = []
        matrix = best["matrix"]
        for row, term in zip(matrix, block_terms):
            big = np.abs(row) > 1e-8 * max(np.max(np.abs(matrix)), 1e-300)
            idx = np.nonzero(big)[0]
            entry: dict = {
                "term": term.name,
                "reading": best["readings"][term.name],
                "coefficients": [float(x) for x in row],
            }
            if len(idx) == 1:
                entry["engine_slot"] = int(idx[0]) + 1  # J is 1-based
                entry["scalar"] = float(row[idx[0]])
            else:
                entry["engine_slot"] = None
                entry["scalar"] = None
            if term.note:
                entry["note"] = term.note
            entries.append(entry)
        blocks[str(s)] = {
            "residual": best["residual"],
            "fit_ok": best["residual"] <= FIT_TOL,
            "terms": entries,
        }
    return {"order": order, "seed": seed, "samples": samples, "blocks": blocks}


@lru_cache(maxsize=None)
def structural_coefficients(order: int) -> dict:
    """Load the shipped calibration for ``assemble_order3``/``assemble_order4``."""
    text = resources.files(__package__).joinpath("data", _GOLDEN_RESOURCE).read_text()
    data = json.loads(text)
    key = str(order)
    if key not in data["orders"]:
        raise ValueError(f"no shipped structural coefficients for order {order}")
    return data["orders"][key]


def _assemble(order: int, parts) -> np.ndarray:
    """The closed form of ``order`` applied to the deviators of a
    decomposition, or of a sequence of parts, as ``_record_of(d, images=False)``
    reads them."""
    if not isinstance(parts, Decomposition):
        parts = Decomposition(order, tuple(parts))
    elif parts.order != order:
        raise ValueError(f"expected an order-{order} decomposition, got {parts.order}")

    calibration = structural_coefficients(order)
    term_specs = {t.name: t for t in _terms(order)}
    out = np.zeros((3,) * order)
    for s, _, stack in _record_of(parts, images=False).stacks:
        devs = _views(stack, s)
        for entry in calibration["blocks"][str(s)]["terms"]:
            term = term_specs[entry["term"]]
            builder = dict(term.readings)[entry["reading"]]
            mixed = (coeff * d for coeff, d in zip(entry["coefficients"], devs) if coeff != 0.0)
            out = out + builder(sum(mixed, np.zeros((3,) * s)))
    return out


def assemble_order3(parts) -> np.ndarray:
    """Rebuild an order-3 tensor from its decomposition through the explicit
    seven-term closed form, using the shipped calibrated coefficients."""
    return _assemble(3, parts)


def assemble_order4(parts) -> np.ndarray:
    """Rebuild an order-4 tensor from its decomposition through the explicit
    nineteen-term closed form, using the shipped calibrated coefficients."""
    return _assemble(4, parts)
