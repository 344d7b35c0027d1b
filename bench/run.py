"""The cigrid benchmark: run one workload for a fixed time and print metrics.

    python3 bench/run.py --workload decompose --seed 1 --seconds 18 --trace 0

Run from a source checkout; the library is imported from `src/`.  Closed
loop, one client, one thread: a round is the workload's fixed list of CLI
calls (see `workloads.py`) at one seed derived from `--seed` and the round
index, and the next round starts when the previous one ends.  Every call goes
through `cigrid.cli.main(argv)` in this process and every output is checked.

With `--trace 0` the last stdout line holds the end-to-end metrics:

- setup_s: median over fresh interpreters, half started before the rounds
  and half after, of importing `cigrid` and building the cached fixtures,
  in seconds at the reference machine speed: each interpreter's time is
  divided by a calibration it times right after, then multiplied by
  `calibration.REFERENCE_S`;
- round_norm_p50: median over rounds of each CLI call's wall time divided by
  the mean of the calibration timings (`calibration.py`) just before and after
  it, summed over the round's calls;
- peak_rss_mb: peak resident memory of this process after the rounds and the
  re-run of the first round.

The plain wall-clock figures (median and slowest round in seconds, checked
rounds per second) go to stderr: on a shared machine their run-to-run spread
is wider than any bound a gate could use, see README.md.

With `--trace 1` each round runs untraced and then traced at the same seed,
the two outputs must be byte-identical, and the last line holds the
per-layer metrics of `tracing.py`.  Spans go to `bench/.work/`.

`attempted` counts rounds run, `failed` those with a non-zero exit, a report
that is not `pass`, an output check that did not match, or (traced run) a
traced output differing from the untraced one; fail_frac is their ratio.
Progress and the oracle verdicts go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import oracle
import workloads
from calibration import REFERENCE_S, calibrate
from tracing import Tracer, metric_names

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "bench" / ".work"
SETUP_SAMPLES = 5  # per batch; one batch before the rounds, one after
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import cigrid.cli
from cigrid.verify import three_lines_fixture
three_lines_fixture()
t1 = time.perf_counter()
sys.path.insert(0, sys.argv[2])
from calibration import calibrate
print(t1 - t0, calibrate())
"""


def parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure_setup() -> list[tuple[float, float]]:
    """(import-plus-fixture seconds, calibration seconds timed right after in
    the same interpreter) for fresh interpreters, with a warm bytecode cache
    as after an install: a first, unmeasured start fills it."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(Path(__file__).parent)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        wall, calibration = (float(x) for x in proc.stdout.split())
        samples.append((wall, calibration))
    return samples[1:]


@dataclass
class Round:
    wall: float  # seconds inside the CLI calls
    norm: float  # each call's seconds over the mean calibration around it, summed
    calib_s: float  # seconds spent calibrating
    outputs: list[dict[str, bytes]]
    reasons: list[str]  # why checks failed; empty when all passed


class Runner:
    """Runs rounds of one workload and checks their outputs."""

    def __init__(self, cli, name: str, seed: int):
        self.cli = cli
        self.calls = workloads.WORKLOADS[name]
        self.seed = seed
        self.reference = workloads.load_reference()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self, index: int, tag: str, calibrated: bool = False) -> Round:
        """One round.  Calibrated rounds time the calibration before every
        call and after the last, since this machine's speed shifts within a
        round."""
        seed = workloads.round_seed(self.seed, index)
        dirs = [WORK / tag / str(j) for j in range(len(self.calls))]
        shutil.rmtree(WORK / tag, ignore_errors=True)
        codes, times = [], []
        calibrations = [calibrate()] if calibrated else []
        for call, out in zip(self.calls, dirs):
            t0 = perf_counter()
            codes.append(self._invoke(workloads.call_argv(call, seed, out)))
            times.append(perf_counter() - t0)
            if calibrated:
                calibrations.append(calibrate())
        norm = sum(t * 2 / (a + b) for t, a, b in zip(times, calibrations, calibrations[1:]))
        outputs = [workloads.read_outputs(d) for d in dirs]
        reasons = [
            f"{' '.join(call.argv)} --seed {seed}: {reason}"
            for call, code, out in zip(self.calls, codes, outputs)
            if (reason := workloads.check_call(call, code, out, self.reference))
        ]
        return Round(sum(times), norm, sum(calibrations), outputs, reasons)

    def _invoke(self, argv: list[str]) -> int:
        try:
            return self.cli.main(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crashing call is a failed round, not a crashed benchmark
            print(f"bench: {' '.join(argv)} raised {exc!r}", file=sys.stderr)
            return -1

    def record(self, reasons: list[str]) -> bool:
        """Count one attempted round; True when it passed."""
        self.attempted += 1
        if reasons:
            self.failed += 1
            self.problems.extend(reasons)
        return not reasons


def run_untraced(runner: Runner, seconds: float) -> dict[str, tuple[float, str]]:
    walls, norms = [], []
    calib_s = 0.0
    passed = 0
    first = None  # only the first round's outputs are kept, so memory does not grow
    start = perf_counter()
    deadline = start + seconds
    while True:
        r = runner.run(len(walls), "round", calibrated=True)
        walls.append(r.wall)
        norms.append(r.norm)
        calib_s += r.calib_s
        passed += runner.record(r.reasons)
        if first is None:
            first = r.outputs
        if perf_counter() >= deadline:
            break
    phase = perf_counter() - start - calib_s
    # the first round again, outside timing: same seed, same bytes
    again = runner.run(0, "rerun")
    if again.outputs != first:
        again.reasons.append("re-run of the first round gave different output bytes")
    runner.record(again.reasons)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(
        f"bench: {len(walls)} rounds, round_s_p50 {statistics.median(walls):.4f}, "
        f"round_s max {max(walls):.4f}, rounds_per_s {passed / phase:.4f}, "
        f"fail_frac {runner.failed}/{runner.attempted}",
        file=sys.stderr,
    )
    return {
        "round_norm_p50": (statistics.median(norms), "calib"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def run_traced(runner: Runner, seconds: float, workload: str) -> dict[str, tuple[float, str]]:
    tracer = Tracer()
    plain, traced = [], []
    deadline = perf_counter() + seconds
    while True:
        index = len(plain)
        r = runner.run(index, "round")
        plain.append(r.wall)
        runner.record(r.reasons)
        tracer.round = index
        tracer.install()
        try:
            t = runner.run(index, "traced")
        finally:
            tracer.uninstall()
        tracer.round_walls[index] = t.wall
        traced.append(t.wall)
        if t.outputs != r.outputs:
            t.reasons.append(f"round {index}: traced outputs differ from untraced ones")
        runner.record(t.reasons)
        if perf_counter() >= deadline:
            break
    tracer.write(WORK / f"trace-{workload}.tsv")
    overhead = statistics.median(traced) / statistics.median(plain)
    print(
        f"bench: {len(plain)} round pairs, trace overhead {overhead:.3f}, "
        f"fail_frac {runner.failed}/{runner.attempted}",
        file=sys.stderr,
    )
    units = dict(metric_names())
    return {name: (value, units[name]) for name, value in tracer.metrics(overhead).items()}


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "cigrid" / "cli.py").is_file():
        print(f"bench: no cigrid sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)  # the calls name their input files relative to the checkout
    WORK.mkdir(parents=True, exist_ok=True)
    metrics: dict[str, tuple[float, str]] = {}
    setup = [] if args.trace else measure_setup()
    sys.path.insert(0, str(SRC))
    from cigrid import cli
    from cigrid.verify import three_lines_fixture

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"bench: imported cigrid from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    three_lines_fixture()

    runner = Runner(cli, args.workload, args.seed)
    if args.trace:
        metrics.update(run_traced(runner, args.seconds, args.workload))
    else:
        measured = run_untraced(runner, args.seconds)
        setup += measure_setup()
        metrics["setup_s"] = (statistics.median(w / c for w, c in setup) * REFERENCE_S, "s")
        print(f"bench: setup wall-clock median {statistics.median(w for w, _ in setup):.4f} s", file=sys.stderr)
        metrics.update(measured)

    verdicts = oracle.run(args.seed, WORK)
    print("bench: oracle " + " ".join(f"{k}={v}" for k, v in verdicts.items()), file=sys.stderr)
    for problem in runner.problems[:10]:
        print(f"bench: FAILED {problem}", file=sys.stderr)
    result = {
        "correct": runner.failed == 0 and "fail" not in verdicts.values(),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
