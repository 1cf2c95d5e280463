"""Self-test of the benchmark.  Run from the root of a checkout::

    python3 perfbench/selftest.py

Checks that:

* a corrupted ``d.json`` makes the ``cli-files`` op fail at its ``verify``
  step, and the failure is counted, not raised;
* traced and untraced runs of one seed give the same op count and the same
  outputs, on every workload;
* ``run.py`` prints exactly the metrics that ``BENCHMARK.json`` names;
* ``run.py`` exits with an error, printing no result, where there is no
  ``src/deviatoric`` to measure.

Prints one line per check and exits with 1 if any failed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import NullTracer, Tracer  # noqa: E402

SEED = 7
OPS = {"grains": 24, "high-order": 2, "cli-files": 2}

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def corrupt(path: Path) -> None:
    """Shift one embedded component of one part of a decomposition file."""
    d = json.loads(path.read_text())
    d["parts"][5]["embedded"]["components"][0] += 1e-3
    path.write_text(json.dumps(d))


class CorruptedCli(workloads.CliFiles):
    """The cli-files op with ``d.json`` corrupted after it is written."""

    def op(self, api, inp):
        seed, voigt = inp
        self.write_voigt(voigt)
        out = {}
        for step, argv in self.steps(seed):
            out[step] = api.cli[step](argv, self.dir, self.env)
            if step == "decompose":
                corrupt(self.dir / "d.json")
        return out


def phase(workload, api, tracer, ops: int) -> run.Tally:
    one = run.Run(api, tracer)
    run.run_phase(workload, [one], workloads.np.random.default_rng(SEED), ops=ops)
    return one.tally


def check_corrupted_decomposition() -> None:
    workload = CorruptedCli(ROOT)
    try:
        tally = phase(workload, workloads.RAW, NullTracer(), ops=1)
    finally:
        workload.close()
    check(tally.attempted == 1 and tally.failed == 1, "corrupted d.json: the op counts as failed")
    check(any("verify" in message for message in tally.failures), "corrupted d.json: the verify step reports it")


def check_traced_matches_untraced(name: str) -> None:
    workload = workloads.WORKLOADS[name](ROOT)
    try:
        workload.setup(workloads.make_cold_api(NullTracer()), workloads.np.random.default_rng(SEED))
        plain = phase(workload, workloads.RAW, NullTracer(), OPS[name])
        tracer = Tracer()
        traced = phase(workload, workloads.make_api(tracer), tracer, OPS[name])
    finally:
        workload.close()
    check(plain.failed == 0 and traced.failed == 0, f"{name}: no op failed")
    check(
        plain.attempted == traced.attempted == OPS[name]
        and len(plain.latencies) == len(traced.latencies),
        f"{name}: traced and untraced runs give the same op count",
    )
    check(plain.digest.digest() == traced.digest.digest(), f"{name}: traced and untraced outputs are equal")
    ops_traced = {op for _, _, _, parent, op in tracer.spans if parent < 0}
    check(ops_traced == set(range(OPS[name])), f"{name}: every traced op has spans")


def check_metric_names() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "grains", "--seed", str(SEED),
             "--seconds", "1", "--trace", str(trace)],
            capture_output=True, text=True, timeout=170,
        )
        result = json.loads(proc.stdout.splitlines()[-1]) if proc.returncode == 0 else {}
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {name: m["unit"] for name, m in result.get("metrics", {}).items()}
        check(got == want, f"--trace {trace} prints exactly the {key} metrics of BENCHMARK.json")
        check(result.get("correct") is True, f"--trace {trace} run is correct")


def check_refuses_without_program() -> None:
    bare = Path(tempfile.mkdtemp(prefix=".perfbench-selftest-", dir=ROOT))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "grains", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and not proc.stdout.strip(), "without src/deviatoric: exits non-zero, prints no result")


def main() -> int:
    check_corrupted_decomposition()
    for name in workloads.WORKLOADS:
        check_traced_matches_untraced(name)
    check_metric_names()
    check_refuses_without_program()
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
