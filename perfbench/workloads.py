"""The three seeded workloads: inputs, one op, and the op's correctness gate.

Every workload is a closed loop with one client: the next op starts when the
previous one and its gate have finished.  Inputs come from one generator
seeded by ``--seed``, so a seed fixes the sequence of inputs.  The gate runs
outside the op, at the tolerances of ``tests/test_acceptance.py``.

In untraced runs each op is followed by the workload's gauge: a fixed task of
the benchmark's own, of the same kind of work as the op, that calls nothing in
``deviatoric``.  The host's speed drifts by up to 1.6x over seconds to
minutes; an op's time over the gauge times around it cancels most of that
drift, while a change to the program moves the op times alone.  The gauge's
inputs are made after the timed set-up; the 40 MB array of the high-order
gauge is part of that workload's ``peak_rss_mb``.

Importing this module imports numpy and ``deviatoric``; ``run.py`` does so
inside the timed set-up.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from tracing import NullTracer

from deviatoric import closedform, decomposition, harmonic, physics, rotations, serialization

ROUND_TRIP_TOL = 1e-10
STIFFNESS_TOL = 1e-12
CLI_TIMEOUT_S = 120
GAUGE_SEED = 20230504

# Public functions the ops call, by module; each call is one span when traced.
CALLS = {
    "rotations": (rotations.rotate,),
    "decomposition": (decomposition.decompose, decomposition.reconstruct, decomposition.verify),
    "physics": (
        physics.voigt_to_tensor,
        physics.stiffness_decompose,
        physics.stiffness_reconstruct,
        physics.tensor_to_voigt,
        physics.coupling_decompose,
        physics.coupling_reconstruct,
    ),
    "closedform": (closedform.assemble_order4,),
    "serialization": (serialization.load_tensor, serialization.load_decomposition),
}
CLI_STEPS = ("random", "decompose", "reconstruct", "verify", "stiffness")


def make_api(tracer) -> SimpleNamespace:
    """The functions an op calls, each wrapped by ``tracer``."""
    api = {
        fn.__name__: tracer.wrap(f"{module}.{fn.__name__}", fn)
        for module, fns in CALLS.items()
        for fn in fns
    }
    api["cli"] = {step: tracer.wrap(f"cli.{step}", run_cli) for step in CLI_STEPS}
    return SimpleNamespace(**api)


def make_cold_api(tracer) -> SimpleNamespace:
    """The set-up calls that build caches or start processes."""
    return SimpleNamespace(
        build_basis=tracer.wrap("harmonic.build_basis.cold", harmonic.build_basis),
        decompose=tracer.wrap("decomposition.decompose.cold", decomposition.decompose),
        python_start=tracer.wrap("cli.python_start", run_python),
        python_import=tracer.wrap("cli.import", run_python),
    )


@dataclass
class Verdict:
    """What the gate found: problems (empty when the op is correct), bytes
    that fingerprint the outputs, and per-op counts."""

    problems: list[str]
    fingerprint: bytes
    counts: dict[str, float] = field(default_factory=dict)


def relative_error(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.linalg.norm((got - want).ravel()) / np.linalg.norm(want.ravel()))


def _within(problems: list[str], what: str, got, want, tol: float) -> None:
    err = relative_error(got, want)
    if not err <= tol:
        problems.append(f"{what}: relative error {err:.3e} > {tol:g}")


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 2] = -q[:, 2]
    return q


def random_voigt(rng: np.random.Generator) -> np.ndarray:
    """A symmetric positive definite 6x6 stiffness matrix."""
    a = rng.standard_normal((6, 6))
    return a @ a.T + 6.0 * np.eye(6)


def decomposition_counts(d) -> dict[str, float]:
    return {
        "decomposition.parts": len(d.parts),
        "decomposition.embedded_bytes": len(d.parts) * 3**d.order * 8,
    }


def _check_decomposition(problems: list[str], d, t: np.ndarray) -> None:
    expected = sum(decomposition.counts_row(t.ndim))
    if d.order != t.ndim or len(d.parts) != expected:
        problems.append(f"order {d.order} with {len(d.parts)} parts, expected {t.ndim} and {expected}")


class Workload:
    """A workload that holds no resources; ``root`` is the checkout."""

    def __init__(self, root: Path) -> None:
        pass

    def close(self) -> None:
        pass

    # The percentile op_tail reports.  It is fixed per workload, not chosen
    # from a run's op count: a rung that changed with the host's speed made
    # the tail jump between runs.  Each is the highest with at least 10 ops
    # beyond it in a 30 s run, except on cli-files, whose 15 to 25 ops leave
    # 4 to 6 beyond p75 (their maximum moved by 15% between runs).
    TAIL = 75.0

    def prepare_gauge(self) -> None:
        """Make the gauge's fixed inputs; not part of the timed set-up."""

    def gauge(self) -> None:
        """The fixed task timed after each op (see the module docstring)."""
        raise NotImplementedError


class Grains(Workload):
    """Many small material tensors with warm caches.

    An op is one of three kinds, in the fixed proportions of ``BLOCK``
    (shuffled by the seed within each block): a stiffness matrix through
    Voigt conversion, rotation, decomposition and back; a coupling tensor
    through the fitted decomposition and back; or a general tensor of order
    2, 3 or 4 through ``decompose`` and ``reconstruct`` (order 4 also through
    ``assemble_order4``).

    Stiffness ops are the largest group, and as many ops are faster than
    them (coupling, orders 2 and 3) as slower (order 4).  So the median op
    sits in the middle of the stiffness latencies, not on the edge between
    two kinds, where run-to-run drift in the machine's speed would move it
    most.
    """

    name = "grains"
    order = 4
    BLOCK = ("stiffness",) * 6 + ("coupling",) * 2 + (2, 3) + (4,) * 4
    GAUGE_ROUNDS = 20
    TAIL = 99.0

    def setup(self, cold, rng: np.random.Generator) -> list:
        for s in range(self.order + 1):
            cold.build_basis(s)
        for n in (2, 3, 4):
            cold.decompose(rng.standard_normal((3,) * n))
        return [self.make(kind, rng) for kind in dict.fromkeys(self.BLOCK)]

    def prepare_gauge(self) -> None:
        fixed = np.random.default_rng(GAUGE_SEED)
        self.gauge_input = fixed.standard_normal((3,) * 4), random_rotation(fixed)

    def gauge(self) -> None:
        """Small numpy calls on an order-4 tensor, about as long as an op."""
        a, q = self.gauge_input
        for _ in range(self.GAUGE_ROUNDS):
            x = np.einsum("ijkl,ia,jb->abkl", a, q, q)
            y = 0.5 * (x + x.transpose(1, 0, 2, 3))
            np.trace(y, axis1=0, axis2=1)
            float(np.linalg.norm(y.ravel()))

    def make(self, kind, rng: np.random.Generator):
        if kind == "stiffness":
            return kind, random_voigt(rng), random_rotation(rng)
        if kind == "coupling":
            h = rng.standard_normal((3, 3, 3))
            return kind, h + h.swapaxes(0, 1)
        return "general", rng.standard_normal((3,) * kind)

    def inputs(self, rng: np.random.Generator):
        while True:
            for index in rng.permutation(len(self.BLOCK)):
                yield self.make(self.BLOCK[index], rng)

    def op(self, api, inp):
        kind = inp[0]
        if kind == "stiffness":
            _, voigt, rotation = inp
            c = api.rotate(api.voigt_to_tensor(voigt), rotation)
            back = api.stiffness_reconstruct(api.stiffness_decompose(c))
            return c, back, api.tensor_to_voigt(back)
        if kind == "coupling":
            return api.coupling_reconstruct(api.coupling_decompose(inp[1]))
        t = inp[1]
        d = api.decompose(t)
        back = api.reconstruct(d)
        return d, back, api.assemble_order4(d) if t.ndim == 4 else None

    def check(self, api, inp, out) -> Verdict:
        problems: list[str] = []
        kind = inp[0]
        if kind == "stiffness":
            c, back, voigt = out
            _within(problems, "stiffness round trip", back, c, STIFFNESS_TOL)
            _within(problems, "Voigt relabelling", physics.voigt_to_tensor(voigt), back, STIFFNESS_TOL)
            return Verdict(problems, voigt.tobytes())
        if kind == "coupling":
            _within(problems, "coupling round trip", out, inp[1], ROUND_TRIP_TOL)
            return Verdict(problems, out.tobytes())
        t = inp[1]
        d, back, assembled = out
        _check_decomposition(problems, d, t)
        _within(problems, "reconstruction", back, t, ROUND_TRIP_TOL)
        fingerprint = back.tobytes()
        if assembled is not None:
            _within(problems, "assemble_order4", assembled, t, ROUND_TRIP_TOL)
            fingerprint += assembled.tobytes()
        return Verdict(problems, fingerprint, decomposition_counts(d))


class HighOrder(Workload):
    """Order-7 tensors through ``decompose``, ``reconstruct`` and ``verify``
    with warm caches; the cold build of the order-7 caches is set-up."""

    name = "high-order"
    order = 7
    GAUGE_BYTES = 40 << 20

    def setup(self, cold, rng: np.random.Generator) -> list:
        for s in range(self.order + 1):
            cold.build_basis(s)
        cold.decompose(rng.standard_normal((3,) * self.order))
        return [rng.standard_normal((3,) * self.order)]

    def prepare_gauge(self) -> None:
        rows = self.GAUGE_BYTES // (3**self.order * 8)
        self.gauge_input = np.random.default_rng(GAUGE_SEED).random((rows, 3**self.order))

    def gauge(self) -> None:
        """A Python loop of vector dot products that streams, twice, an array
        the size of the order-7 image cache, as ``decompose`` reads that
        cache and ``verify``'s pairwise loop streams the embedded images.
        It makes no BLAS call that could hand work to a second thread."""
        flats = self.gauge_input
        top = 0.0
        for f in flats[:2]:
            for g in flats:
                top = max(top, abs(float(f @ g)))

    def inputs(self, rng: np.random.Generator):
        while True:
            yield rng.standard_normal((3,) * self.order)

    def op(self, api, t):
        d = api.decompose(t)
        return d, api.reconstruct(d), api.verify(d, t)

    def check(self, api, t, out) -> Verdict:
        d, back, report = out
        problems: list[str] = []
        _check_decomposition(problems, d, t)
        _within(problems, "reconstruction", back, t, ROUND_TRIP_TOL)
        if not report.passes(ROUND_TRIP_TOL):
            problems.append(
                f"verify fails at {ROUND_TRIP_TOL:g}: reconstruction "
                f"{report.reconstruction_relative:.3e}, parts {report.max_part_residual:.3e}, "
                f"cross {report.max_cross_correlation:.3e}, counts_ok {report.counts_ok}"
            )
        deviators = np.concatenate([np.ravel(p.deviator) for p in d.parts])
        fingerprint = back.tobytes() + deviators.tobytes()
        return Verdict(problems, fingerprint, decomposition_counts(d))


def cli_env(root: Path) -> dict[str, str]:
    """Environment for ``python -m deviatoric.cli`` with the checkout's
    ``src`` first on ``PYTHONPATH``."""
    env = dict(os.environ)
    paths = [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_cli(argv: list[str], cwd: Path, env: dict[str, str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "deviatoric.cli", *argv],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=CLI_TIMEOUT_S,
    )


def run_python(code: str, cwd: Path, env: dict[str, str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", code],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=CLI_TIMEOUT_S,
        check=True,
    )


class CliFiles(Workload):
    """Order-6 file pipelines through ``python -m deviatoric.cli``, one
    process at a time, in a private directory inside the checkout."""

    name = "cli-files"
    order = 6
    STARTS = 3

    def __init__(self, root: Path) -> None:
        self.env = cli_env(root)
        self.dir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=root))

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    def setup(self, cold, rng: np.random.Generator) -> list:
        for _ in range(self.STARTS):
            cold.python_start("pass", self.dir, self.env)
        for _ in range(self.STARTS):
            cold.python_import("import deviatoric", self.dir, self.env)
        return [next(self.inputs(rng))]

    # A process that starts Python, imports numpy and json, and writes and
    # reads back a JSON file of an order-6 tensor, as each CLI step does.
    GAUGE_CODE = (
        "import json, numpy as np\n"
        f"t = np.random.default_rng({GAUGE_SEED}).standard_normal(3**6)\n"
        "open('gauge.json', 'w').write(json.dumps({'components': t.tolist()}))\n"
        "np.asarray(json.load(open('gauge.json'))['components'])\n"
    )

    def gauge(self) -> None:
        run_python(self.GAUGE_CODE, self.dir, self.env)

    def inputs(self, rng: np.random.Generator):
        while True:
            yield int(rng.integers(2**31)), random_voigt(rng)

    def steps(self, seed: int) -> list[tuple[str, list[str]]]:
        n = str(self.order)
        return [
            ("random", ["random", "--order", n, "--seed", str(seed), "--output", "t.json"]),
            ("decompose", ["decompose", "--input", "t.json", "--output", "d.json"]),
            ("reconstruct", ["reconstruct", "--input", "d.json", "--output", "b.json"]),
            ("verify", ["verify", "--input", "d.json", "--against", "t.json", "--format", "json"]),
            ("stiffness", ["stiffness", "--input", "voigt.txt", "--output", "s.json"]),
        ]

    def write_voigt(self, voigt: np.ndarray) -> None:
        text = "\n".join(" ".join(repr(float(x)) for x in row) for row in voigt)
        (self.dir / "voigt.txt").write_text(text + "\n")

    def op(self, api, inp):
        seed, voigt = inp
        self.write_voigt(voigt)
        return {step: api.cli[step](argv, self.dir, self.env) for step, argv in self.steps(seed)}

    def check(self, api, inp, out) -> Verdict:
        seed, voigt = inp
        problems = [
            f"{step}: exit code {proc.returncode}: {(proc.stderr or proc.stdout).strip()[-300:]}"
            for step, proc in out.items()
            if proc.returncode != 0
        ]
        if problems:
            return Verdict(problems, b"")
        report = json.loads(out["verify"].stdout)
        if report.get("passes") is not True:
            problems.append(f"verify reports passes = {report.get('passes')!r}")
        t = api.load_tensor(self.dir / "t.json")
        expected = np.random.default_rng(seed).standard_normal((3,) * self.order)
        if not np.array_equal(t, expected):
            problems.append("random: t.json differs from the seeded tensor")
        _within(problems, "b.json against t.json", api.load_tensor(self.dir / "b.json"), t, ROUND_TRIP_TOL)
        d = api.load_decomposition(self.dir / "d.json")
        _check_decomposition(problems, d, t)
        parts = json.loads((self.dir / "s.json").read_text())
        sd = physics.StiffnessDeviators(
            lam=parts["lam"],
            mu=parts["mu"],
            **{k: np.reshape(parts[k]["components"], (3,) * parts[k]["order"]) for k in ("d1", "d2", "d4")},
        )
        _within(
            problems,
            "stiffness round trip",
            physics.stiffness_reconstruct(sd),
            physics.voigt_to_tensor(voigt),
            STIFFNESS_TOL,
        )
        files = {name: (self.dir / name).read_bytes() for name in ("t.json", "d.json", "b.json", "s.json")}
        counts = decomposition_counts(d)
        counts["serialization.decomposition_bytes"] = len(files["d.json"])
        counts["serialization.tensor_bytes"] = len(files["t.json"]) + len(files["b.json"])
        fingerprint = hashlib.sha256(b"".join(files.values()) + out["verify"].stdout.encode()).digest()
        return Verdict(problems, fingerprint, counts)


RAW = make_api(NullTracer())
WORKLOADS = {cls.name: cls for cls in (Grains, HighOrder, CliFiles)}
