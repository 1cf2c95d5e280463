"""Benchmark of the ``deviatoric`` package on three seeded workloads.

Run from the root of a checkout (the package is taken from ``src/``)::

    python3 perfbench/run.py --workload grains --seed 1 --seconds 30 --trace 0

Workloads (``workloads.py``): ``grains`` (many small material tensors),
``high-order`` (order-7 decompose, reconstruct and verify) and ``cli-files``
(order-6 JSON pipelines through ``python -m deviatoric.cli``).

Each run sets up (imports, builds caches, runs one untimed warm-up op), then
runs ops in a closed loop for ``--seconds`` and checks every op's outputs.
It prints the environment and each metric by name with its unit, and as its
last line one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  Op times are printed in
milliseconds, and the bounded metrics give them in ``ref``: each op's time
over the median time of the workload's gauge (a fixed task timed after each
op, see ``workloads.py``) in the ``GAUGE_WINDOW`` inputs around it.  The
shared host's speed drifts by up to 1.6x within and between runs; op times
in ``ref`` drift by a few percent, while a change to the program moves the
op times alone.  ``--trace 1`` runs every
input twice, untraced and with a span around every call into a public
``deviatoric`` function, and reports per-layer metrics of the traced ops,
the tracing overhead against the untraced ones, and the layer table
``LAYERS`` below.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

from tracing import NullTracer, Tracer, clock, layer_stats, span_cost_s

# BLAS runs one thread, here and in every process started from here (set
# before numpy is imported).  On a host of two shared cores, a BLAS call that
# hands work to a second thread waits on the other core's load, which made
# op times bimodal from one run to the next.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

SETUP_SAMPLES = 3
SETUP_PROBE_TIMEOUT_S = 120
GAUGE_WINDOW = 11
FAILURES_SHOWN = 3
SPAN_DIR = ".perfbench-out"

# Every span the traced run reports, with the end-to-end metric it should
# move and the workload where the effect is largest.  Spans marked "setup"
# are measured while setting up; their share is of the set-up time.  The
# others are measured in the timed phase; their share is of its wall time.
LAYERS = (
    ("harmonic.build_basis.cold", "setup", "setup_s on high-order; op_p50_ref on cli-files"),
    ("decomposition.decompose.cold", "setup", "setup_s on high-order; op_p50_ref on cli-files; about 0 on grains"),
    ("decomposition.decompose", "timed", "ops_per_ref on grains (large share) and high-order"),
    ("decomposition.reconstruct", "timed", "ops_per_ref on grains and high-order"),
    ("decomposition.verify", "timed", "ops_per_ref on high-order (most of the op); absent from grains"),
    ("rotations.rotate", "timed", "ops_per_ref on grains only"),
    ("physics.voigt_to_tensor", "timed", "ops_per_ref on grains only"),
    ("physics.stiffness_decompose", "timed", "ops_per_ref on grains only"),
    ("physics.stiffness_reconstruct", "timed", "ops_per_ref on grains only"),
    ("physics.tensor_to_voigt", "timed", "ops_per_ref on grains only"),
    ("physics.coupling_decompose", "timed", "ops_per_ref on grains only"),
    ("physics.coupling_reconstruct", "timed", "ops_per_ref on grains only"),
    ("closedform.assemble_order4", "timed", "ops_per_ref on grains only"),
    ("serialization.load_tensor", "timed", "the benchmark's own output checks on cli-files"),
    ("serialization.load_decomposition", "timed", "the benchmark's own output checks on cli-files"),
    ("cli.python_start", "setup", "op_p50_ref on cli-files (interpreter start, no import)"),
    ("cli.import", "setup", "op_p50_ref on cli-files (interpreter start plus import deviatoric)"),
    ("cli.random", "timed", "op_p50_ref on cli-files"),
    ("cli.decompose", "timed", "op_p50_ref on cli-files"),
    ("cli.reconstruct", "timed", "op_p50_ref on cli-files"),
    ("cli.verify", "timed", "op_p50_ref on cli-files"),
    ("cli.stiffness", "timed", "op_p50_ref on cli-files"),
    ("bench.glue", "timed", "nothing: the op's own time outside every spanned call"),
    ("bench.check", "timed", "nothing: the correctness gate outside the op"),
)
# Per-op means of counts the gate takes from the outputs (computed, not measured).
COUNTS = (
    ("decomposition.parts", "count", "peak_rss_mb on high-order"),
    ("decomposition.embedded_bytes", "B", "peak_rss_mb on high-order (parts * 3^n * 8)"),
    ("serialization.decomposition_bytes", "B", "op_p50_ref on cli-files (d.json size)"),
    ("serialization.tensor_bytes", "B", "op_p50_ref on cli-files (t.json plus b.json size)"),
)
# The core layer has no span of its own: the factorial symmetrize cost sits
# inside decomposition.decompose.cold and harmonic.build_basis.cold.


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("grains", "high-order", "cli-files"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe",
        action="store_true",
        help="only set up, then print the set-up time (used for the repeated set-up samples)",
    )
    return parser.parse_args(argv)


class Tally:
    """Ops attempted and failed, latencies of the ops that passed the gate
    with the index of their input, a digest of their outputs, and summed
    per-op counts."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.latencies: list[float] = []
        self.indices: list[int] = []
        self.digest = hashlib.sha256()
        self.counts: dict[str, float] = {}
        self.failures: list[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < FAILURES_SHOWN:
            self.failures.append(message)

    def add(self, attempted: int, failed: int, failures: list[str]) -> None:
        """Count ops run elsewhere: by another tally or a set-up probe."""
        self.attempted += attempted
        self.failed += failed
        self.failures += failures[: FAILURES_SHOWN - len(self.failures)]


def run_op(workload, api, tracer, inp, tally: Tally, index: int = -1) -> None:
    """One op, timed, then its gate; any error counts the op as failed."""
    tally.attempted += 1
    try:
        start = clock()
        with tracer.span("bench.op"):
            out = workload.op(api, inp)
        latency = clock() - start
        with tracer.span("bench.check"):
            verdict = workload.check(api, inp, out)
    except Exception:
        tally.fail(traceback.format_exc())
        return
    if verdict.problems:
        tally.fail("; ".join(verdict.problems))
        return
    tally.latencies.append(latency)
    tally.indices.append(index)
    tally.digest.update(verdict.fingerprint)
    for key, value in verdict.counts.items():
        tally.counts[key] = tally.counts.get(key, 0) + value


class Run:
    """One way of calling the program: its functions, tracer and tally."""

    def __init__(self, api, tracer) -> None:
        self.api = api
        self.tracer = tracer
        self.tally = Tally()


def run_phase(workload, runs: list[Run], rng, *, seconds: float | None = None, ops: int | None = None,
              gauge: bool = False) -> list[float]:
    """Closed loop over inputs from ``rng``, for ``seconds`` or ``ops`` inputs.

    Each input goes through every run in ``runs``; the order alternates from
    one input to the next, so that drift in the machine's speed falls on
    both runs alike.  With ``gauge``, the workload's gauge runs after each
    input; returns the gauge's times, one per input.
    """
    inputs = workload.inputs(rng)
    gauges: list[float] = []
    if gauge:
        workload.prepare_gauge()
    start = clock()
    index = 0
    while index < ops if ops is not None else clock() - start < seconds:
        inp = next(inputs)
        for run in runs if index % 2 == 0 else runs[::-1]:
            run.tracer.op = index
            run_op(workload, run.api, run.tracer, inp, run.tally, index)
        if gauge:
            begin = clock()
            workload.gauge()
            gauges.append(clock() - begin)
        index += 1
    return gauges


def set_up(name: str, root: Path, seed: int, tracer):
    """Import, cache warm-up and the warm-up ops, timed as one set-up.

    Returns the workloads module, the workload, the set-up seconds, the
    warm-up tally and the growth of peak RSS over the set-up in MB.
    """
    rss_before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    start = clock()
    workloads = importlib.import_module("workloads")
    workload = workloads.WORKLOADS[name](root)
    try:
        warmups = workload.setup(workloads.make_cold_api(tracer), workloads.np.random.default_rng([seed, 1]))
        tally = Tally()
        for inp in warmups:
            run_op(workload, workloads.RAW, NullTracer(), inp, tally)
    except BaseException:
        workload.close()
        raise
    setup_s = clock() - start
    rss_growth_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rss_before) / 1024
    return workloads, workload, setup_s, tally, rss_growth_mb


def probe_setup(args: argparse.Namespace) -> dict:
    """Set-up time measured in a fresh interpreter, with the count of its
    warm-up ops and of those that failed."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-probe"],
        capture_output=True,
        text=True,
        timeout=SETUP_PROBE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def tail(latencies: list[float], rung: float) -> float:
    """The ``rung`` percentile of ``latencies`` by nearest rank."""
    return sorted(latencies)[math.ceil(rung / 100.0 * len(latencies)) - 1]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def local_gauges(gauges: list[float]) -> list[float]:
    """For each input, the median gauge time of the ``GAUGE_WINDOW`` inputs
    around it: the host's speed at the time of that op."""
    half = GAUGE_WINDOW // 2
    return [statistics.median(gauges[max(0, i - half):i + half + 1]) for i in range(len(gauges))]


def end_to_end(args, workload, setups: list[float], phase: Tally, gauges: list[float], peak_rss_mb: float,
               total: Tally) -> dict:
    """Metrics a user sees, from the timed phase; ``total`` adds the warm-up ops.

    Op times are reported in seconds and, as the bounded metrics, in ``ref``:
    each op's time over the median time of the gauge runs around it, which
    cancels the host's drift in speed within and between runs.
    """
    completed = len(phase.latencies)
    busy_s = sum(phase.latencies)
    p50_s = statistics.median(phase.latencies)
    rung = workload.TAIL
    tail_s = tail(phase.latencies, rung)
    beyond = completed - math.ceil(rung / 100.0 * completed)
    local = local_gauges(gauges)
    ratios = [latency / local[index] for latency, index in zip(phase.latencies, phase.indices)]
    tail_ref = tail(ratios, rung)
    setup_s = statistics.median(setups)
    print(f"setup_s      {setup_s:.4f} s    median of {len(setups)} set-ups, each in a fresh "
          f"interpreter: {', '.join(f'{x:.4f}' for x in setups)}")
    print(f"ops_per_s    {completed / busy_s:.4f} 1/s  {completed} ops passed in {busy_s:.3f} s of op time")
    print(f"op_p50_ms    {p50_s * 1e3:.4f} ms   of {completed} ops")
    print(f"op_tail_ms   {tail_s * 1e3:.4f} ms   p{rung:g} of {completed} ops, {beyond} beyond it")
    print(f"gauge_ms     {statistics.median(gauges) * 1e3:.4f} ms   median of {len(gauges)} gauge runs; "
          f"1 ref is the median of the {GAUGE_WINDOW} around an op")
    print(f"ops_per_ref  {completed / sum(ratios):.6f} 1/ref")
    print(f"op_p50_ref   {statistics.median(ratios):.6f} ref")
    print(f"op_tail_ref  {tail_ref:.6f} ref  p{rung:g}")
    print(f"peak_rss_mb  {peak_rss_mb:.2f} MB   "
          + ("largest child process" if args.workload == "cli-files" else "benchmark process"))
    print(f"failed_frac  {total.failed / total.attempted:.6g}      {total.failed} of {total.attempted} ops")
    return {
        "setup_s": metric(setup_s, "s"),
        "ops_per_ref": metric(completed / sum(ratios), "1/ref"),
        "op_p50_ref": metric(statistics.median(ratios), "ref"),
        "op_tail_ref": metric(tail_ref, "ref"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }


def per_layer(setup_spans, setup_s: float, spans, plain: Tally, traced: Tally, rss_growth_mb: float) -> dict:
    """Per-layer metrics of the traced ops, and the tracing overhead measured
    against the untraced runs of the same inputs."""
    timed_s = sum(end - start for _, start, end, parent, _ in spans if parent < 0)
    stats = {"setup": layer_stats(setup_spans, setup_s), "timed": layer_stats(spans, timed_s)}
    glue = stats["timed"]["bench.glue"] = stats["timed"].pop("bench.op")
    op_s = sum(end - start for name, start, end, _, _ in spans if name == "bench.op")
    metrics = {}
    print(f"{'layer':34} {'calls':>7} {'busy_s':>10} {'p50_us':>12} {'share':>8}  should move")
    for name, phase, moves in LAYERS:
        row = stats[phase].get(name) or {"calls": 0, "busy_s": 0.0, "p50_us": 0.0, "share": 0.0}
        print(f"{name:34} {row['calls']:7d} {row['busy_s']:10.4f} {row['p50_us']:12.2f} "
              f"{row['share']:8.4f}  {moves}")
        for key, unit in (("calls", "count"), ("busy_s", "s"), ("p50_us", "us"), ("share", "ratio")):
            metrics[f"{name}.{key}"] = metric(row[key], unit)
    completed = len(traced.latencies)
    for name, unit, moves in COUNTS:
        value = traced.counts.get(name, 0) / completed
        print(f"{name:34} {value:.6g} {unit} per op (computed)  {moves}")
        metrics[name] = metric(value, unit)
    overhead = statistics.median(traced.latencies) / statistics.median(plain.latencies) - 1.0
    span_cost = span_cost_s()
    accounted = 1.0 - glue["busy_s"] / op_s
    print(f"setup_rss_mb {rss_growth_mb:.2f} MB (peak RSS growth over set-up)")
    print(f"tracing overhead {overhead * 100:.3f}% on op_p50_ms: {completed} traced ops against "
          f"{len(plain.latencies)} untraced ops on the same inputs; {span_cost * 1e6:.3f} us per span (calibrated)")
    print(f"spanned calls cover {accounted * 100:.3f}% of the traced ops' wall time; bench.glue is the rest")
    metrics["setup_rss_mb"] = metric(rss_growth_mb, "MB")
    metrics["trace.overhead_pct"] = metric(overhead * 100.0, "%")
    metrics["trace.span_cost_us"] = metric(span_cost * 1e6, "us")
    metrics["trace.accounted_share"] = metric(accounted, "ratio")
    return metrics


def write_spans(root: Path, args, setup_spans, spans) -> Path:
    out = root / SPAN_DIR
    out.mkdir(exist_ok=True)
    path = out / f"spans-{args.workload}-seed{args.seed}.jsonl"
    with open(path, "w") as fh:
        for phase, recorded in (("setup", setup_spans), ("timed", spans)):
            for name, start, end, parent, op in recorded:
                fh.write(json.dumps({"phase": phase, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
    return path


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "deviatoric" / "__init__.py").is_file():
        print(f"error: no src/deviatoric under {root}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    setup_tracer = Tracer() if args.trace else NullTracer()
    workloads, workload, setup_s, total, rss_growth_mb = set_up(args.workload, root, args.seed, setup_tracer)
    if args.setup_probe:
        workload.close()
        print(json.dumps({"setup_s": setup_s, "attempted": total.attempted, "failed": total.failed,
                          "failures": total.failures}))
        return 0

    runs = [Run(workloads.RAW, NullTracer())]
    if args.trace:
        tracer = Tracer()
        runs.append(Run(workloads.make_api(tracer), tracer))
    try:
        gauges = run_phase(workload, runs, workloads.np.random.default_rng(args.seed), seconds=args.seconds,
                           gauge=not args.trace)
    finally:
        workload.close()
    for run in runs:
        total.add(run.tally.attempted, run.tally.failed, run.tally.failures)
    consistent = len({run.tally.digest.digest() for run in runs}) == 1
    if not consistent:
        print("error: traced and untraced ops on the same inputs gave different outputs", file=sys.stderr)
    who = resource.RUSAGE_CHILDREN if args.workload == "cli-files" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024

    environment = importlib.import_module("environment")
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("env " + json.dumps(environment.describe(root, workload.order)))
    if not all(run.tally.latencies for run in runs):
        for message in total.failures:
            print(f"failed op: {message}", file=sys.stderr)
        print("error: no op passed its gate", file=sys.stderr)
        return 1
    if args.trace:
        metrics = per_layer(setup_tracer.spans, setup_s, tracer.spans, runs[0].tally, runs[1].tally, rss_growth_mb)
        print(f"spans written to {write_spans(root, args, setup_tracer.spans, tracer.spans)}")
    else:
        setups = [setup_s]
        for _ in range(SETUP_SAMPLES - 1):
            probe = probe_setup(args)
            setups.append(probe["setup_s"])
            total.add(probe["attempted"], probe["failed"], probe["failures"])
        metrics = end_to_end(args, workload, setups, runs[0].tally, gauges, peak_rss_mb, total)
    print(f"output digest {runs[0].tally.digest.hexdigest()}")
    for message in total.failures:
        print(f"failed op: {message}", file=sys.stderr)
    print(json.dumps({
        "correct": total.failed == 0 and consistent,
        "attempted": total.attempted,
        "failed": total.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
