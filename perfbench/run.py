"""Host-time benchmark of the fleet and network simulations.

Run from the repository root::

    python3 perfbench/run.py --workload fleet --seed 1 --seconds 30 --trace 0

Workloads (see ``perfbench/workloads.py``): ``fleet`` (strict OCS and
static fleet runs) and ``network``.  A run measures a fixed number of
whole rounds of ops, ``--seconds`` over the workload's nominal round
time (at least one), so every run of a seed does the same work and a
faster program finishes sooner instead of doing more.  It checks every
op's output, and prints a report followed by one JSON line with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs each
op twice on the same inputs, plain and then with span wrappers around
the program's layer entry points, and reports per-layer metrics; the
traced op's digest must equal the plain one's, and the time between
the two is the tracing overhead.  All times are host time; simulated
statistics are outputs to check, not speeds.

Op and set-up times are the benchmark process's CPU time
(``time.process_time``).  The program is single-threaded and CPU-bound
and does no I/O inside an op, so on an idle host this is its wall
time; unlike wall time it leaves out the time a shared host gives to
other processes or virtual machines.

The CPU itself still runs faster or slower from minute to minute on a
shared host (a fixed loop took 14.3 ms in one run and 20.9 ms in the
next on the 2-vCPU host the benchmark was defined on), and the program
with it.  So every reported time is in *reference-host* seconds: the
measured CPU time times ``CALIBRATION_NOMINAL_S`` over the median time
of a fixed pure-Python loop timed before every op (and in every set-up
interpreter) of the same run.  The loop does not touch the program, so
a change to the program moves the reported times as it moves the
measured ones.  The unscaled values and the calibration are printed
and recorded beside them.

Set-up time is measured in fresh interpreters (cold import plus the
one-time preparation), several times per run, and reported as the
median.  Per-op records, digests and provenance go to
``perfbench/results/``.  Run under plain ``python3``, not ``-O``, so the
program's ``__debug__`` checks stay in the measured code.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = Path(__file__).resolve().parent / "results"
sys.path[:0] = [str(SRC), str(ROOT)]

from perfbench import tracing, workloads  # noqa: E402

#: Fresh interpreters per run whose median set-up time is reported.
SETUP_RUNS = 3
#: The clock of every op and set-up time (see the module docstring).
CLOCK = tracing.CLOCK
#: Median time of calibration_loop on the 2-vCPU x86_64 host the
#: benchmark was defined on; reported times are scaled to it.
CALIBRATION_NOMINAL_S = 0.0145
#: Calibration loops each set-up interpreter times before it imports.
SETUP_CALIBRATIONS = 5
#: The tail percentile is the highest one with this many ops beyond it.
TAIL_BEYOND = 10


def calibration_loop() -> int:
    """Fixed pure-Python work whose time tracks the host's CPU speed."""
    total = 0
    for i in range(200_000):
        total += i * i % 7
    return total


def calibrate() -> float:
    """CPU seconds of one calibration loop."""
    began = CLOCK()
    calibration_loop()
    return CLOCK() - began


def attempt(prepared, api, op, tracer=None, op_id=0) -> workloads.Outcome:
    """Run one op (timed), then check it and digest its statistics.

    A collection first, untimed, so no op pays for the garbage of the
    one before it, as a fresh process would not.
    """
    gc.collect()
    began = CLOCK()
    try:
        if tracer is None:
            result = prepared.execute(api, op)
            seconds = CLOCK() - began
        else:
            with tracer.installed(), tracer.op(op_id):
                began = CLOCK()
                result = prepared.execute(api, op)
                seconds = CLOCK() - began
    except Exception as exc:  # a failed op is counted, the run goes on
        return workloads.Outcome(op, CLOCK() - began, "",
                                 [f"raised {exc!r}"])
    try:
        return prepared.judge(api, op, result, seconds)
    except Exception as exc:  # a check that cannot run fails the op
        return workloads.Outcome(op, seconds, "", [f"check raised {exc!r}"])


class Measurement:
    """Everything one run observed."""

    def __init__(self) -> None:
        self.outcomes: list[workloads.Outcome] = []
        self.traced: list[workloads.Outcome] = []
        self.totals = tracing.LayerTotals()
        #: Traced totals per op group (see workloads.group).
        self.groups: dict[str, tracing.LayerTotals] = {}
        self.sample_spans: list[list] = []
        #: One calibration time per plain op, taken just before it.
        self.calibrations: list[float] = []

    @property
    def failed(self) -> int:
        return sum(not outcome.ok for outcome in self.outcomes)

    @property
    def scale(self) -> float:
        """Measured CPU seconds -> reference-host seconds."""
        return CALIBRATION_NOMINAL_S / statistics.median(self.calibrations)


def round_count(workload, seconds: float, trace: bool) -> int:
    """Rounds that fill `seconds` at the nominal round time; a traced
    run runs each op twice, so it measures half as many."""
    nominal = workload.round_seconds * (2 if trace else 1)
    return max(1, round(seconds / nominal))


def measure(prepared, api, rounds: int, trace: bool) -> Measurement:
    """Run `rounds` whole rounds of ops (fewer if the plan ends)."""
    run = Measurement()
    tracer = tracing.Tracer() if trace else None
    for ops in itertools.islice(prepared.rounds, rounds):
        for op in ops:
            run.calibrations.append(calibrate())
            outcome = attempt(prepared, api, op)
            if tracer is not None:
                traced = attempt(prepared, api, op, tracer,
                                 len(run.outcomes))
                if traced.digest != outcome.digest:
                    outcome.errors.append(
                        f"traced digest {traced.digest[:12]} != untraced "
                        f"{outcome.digest[:12]}")
                outcome.errors.extend(f"traced: {e}" for e in traced.errors)
                run.traced.append(traced)
                totals = tracer.aggregate()
                run.totals.merge(totals)
                run.groups.setdefault(workloads.group(op),
                                      tracing.LayerTotals()).merge(totals)
                if not run.sample_spans:
                    run.sample_spans = [list(s) for s in tracer.spans]
                tracer.clear()
            run.outcomes.append(outcome)
    return run


def setup_probe(name: str) -> None:
    """Child side of the set-up measurement: calibrate, import, then
    prepare."""
    calibration = statistics.median(calibrate()
                                    for _ in range(SETUP_CALIBRATIONS))
    began = CLOCK()
    workload = workloads.WORKLOADS[name]
    workload.load()
    imported = CLOCK()
    workload.prepare(0)
    prepared = CLOCK()
    print(json.dumps({"import_s": imported - began,
                      "inputs_s": prepared - imported,
                      "calibration_s": calibration}))


def measure_setup(name: str, runs: int) -> dict[str, float]:
    """Median set-up time over `runs` fresh interpreters, each scaled to
    the reference host by its own calibration."""
    samples = []
    for _ in range(runs):
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--setup-probe", name],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
            check=True)
        probe = json.loads(child.stdout.strip().splitlines()[-1])
        measured = probe["import_s"] + probe["inputs_s"]
        scale = CALIBRATION_NOMINAL_S / probe["calibration_s"]
        samples.append({"import_s": probe["import_s"] * scale,
                        "inputs_s": probe["inputs_s"] * scale,
                        "setup_s": measured * scale,
                        "unscaled_setup_s": measured})
    return {key: statistics.median(s[key] for s in samples)
            for key in samples[0]}


def tail(durations: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with TAIL_BEYOND ops
    beyond it, by nearest rank; the maximum when there are too few."""
    ordered = sorted(durations)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def source_digest() -> str:
    """sha256 over the program's sources, to tell commits apart."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    """HEAD of the checkout, or None when it is not a git repository.

    The ceiling keeps git from walking up into an enclosing repository.
    """
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(name: str, seed: int, seconds: float, trace: bool) -> dict:
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "optimize": sys.flags.optimize,
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "git_commit": git_commit(),
            "source_sha256": source_digest(),
            "workload": name, "seed": seed, "seconds": seconds,
            "trace": int(trace)}


def end_to_end(run: Measurement, setup: dict) -> tuple[dict, dict]:
    measured = [o.seconds for o in run.outcomes]
    durations = [seconds * run.scale for seconds in measured]
    tail_value, tail_pct = tail(durations)
    ok = len(run.outcomes) - run.failed
    metrics = {
        "ops_per_s": (len(durations) / sum(durations), "1/s"),
        "op_p50_ms": (statistics.median(durations) * 1e3, "ms"),
        "op_tail_ms": (tail_value * 1e3, "ms"),
        "setup_s": (setup["setup_s"], "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
        "ok_op_ratio": (ok / len(run.outcomes), "ratio"),
    }
    notes = {"op_tail_percentile": tail_pct, "ops": len(durations),
             "failed_op_ratio": run.failed / len(run.outcomes),
             "unscaled": {"ops_per_s": len(measured) / sum(measured),
                          "op_p50_ms": statistics.median(measured) * 1e3,
                          "op_tail_ms": tail(measured)[0] * 1e3,
                          "setup_s": setup["unscaled_setup_s"]}}
    return metrics, notes


def per_layer(run: Measurement, setup: dict) -> tuple[dict, dict]:
    ops = len(run.traced)
    metrics = {name: (value * run.scale if unit == "s/op" else value, unit)
               for name, (value, unit)
               in tracing.layer_metrics(run.totals, ops).items()}
    plain = sum(o.seconds for o in run.outcomes)
    traced = sum(o.seconds for o in run.traced)
    op_time = run.totals.busy_s[tracing.OP_SPAN]
    mismatches = tracing.check_predictions(run.groups)
    metrics.update({
        "setup.import_s": (setup["import_s"], "s"),
        "setup.inputs_s": (setup["inputs_s"], "s"),
        "trace.overhead_ratio": (traced / plain - 1.0, "ratio"),
        "trace.unattributed_share":
            (run.totals.self_s[tracing.OP_SPAN] / op_time, "ratio"),
        "trace.prediction_mismatches": (len(mismatches), "count"),
    })
    notes = {"ops": ops, "prediction_mismatches": mismatches,
             "waiting": "none: the program is single-threaded with no "
                        "queues, so no layer has waiting time to report"}
    return metrics, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="WORKLOAD",
                        choices=sorted(workloads.WORKLOADS),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        setup_probe(args.setup_probe)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if sys.flags.optimize:
        print("perfbench: run under plain python3, not -O", file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    print(json.dumps(result))
    return 0


def run_workload(name: str, seed: int, seconds: float, trace: bool, *,
                 setup_runs: int = SETUP_RUNS,
                 results_dir: Path = RESULTS) -> dict:
    """Run one workload, write its record, return the result line."""
    meta = provenance(name, seed, seconds, trace)
    workload = workloads.WORKLOADS[name]
    setup = measure_setup(name, setup_runs)
    api = workload.load()
    prepared = workload.prepare(seed)
    warmup = attempt(prepared, api, workload.warmup_op)
    run = measure(prepared, api, round_count(workload, seconds, trace), trace)
    if trace:
        metrics, notes = per_layer(run, setup)
    else:
        metrics, notes = end_to_end(run, setup)
    notes["times"] = (f"process CPU time scaled to the reference host by "
                      f"{run.scale:.4f} (calibration loop median "
                      f"{statistics.median(run.calibrations) * 1e3:.3f} ms, "
                      f"reference {CALIBRATION_NOMINAL_S * 1e3:.3f} ms)")

    print(f"perfbench {name} seed={seed} trace={int(trace)}: "
          f"{len(run.outcomes)} ops in whole rounds, closed loop, one "
          f"client")
    print("provenance: " + json.dumps(meta, sort_keys=True))
    for outcome in [warmup] + run.outcomes:
        if not outcome.ok:
            print(f"FAILED {outcome.op.label()}: {'; '.join(outcome.errors)}")
    for key, (value, unit) in metrics.items():
        print(f"  {key:48s} {value:.6g} {unit}")
    for key, value in notes.items():
        print(f"  {key}: {value}")

    values = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    results_dir.mkdir(exist_ok=True)
    record = {
        "provenance": meta, "notes": notes, "metrics": values,
        "warmup": _op_record(warmup),
        "ops": [_op_record(o) for o in run.outcomes],
        "traced_ops": [_op_record(o) for o in run.traced],
        "calibrations": run.calibrations,
        # The first traced op's spans, as a sample of the raw trace.
        "sample_spans": {"fields": ["name", "start", "end", "parent", "op"],
                         "spans": run.sample_spans},
    }
    path = results_dir / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    return {"correct": run.failed == 0 and warmup.ok,
            "attempted": len(run.outcomes), "failed": run.failed,
            "metrics": values}


def _op_record(outcome: workloads.Outcome) -> dict:
    return {"op": outcome.op.label(), "seconds": outcome.seconds,
            "digest": outcome.digest, "errors": outcome.errors}


if __name__ == "__main__":
    sys.exit(main())
