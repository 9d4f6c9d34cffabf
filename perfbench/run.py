#!/usr/bin/env python3
"""rtosim benchmark: time one workload, check its outputs, print metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --pin      # re-pin expected.json at seed 1

One process drives a closed loop: each iteration of the workload starts when
the previous one ends.  An untimed warm-up iteration comes first; its output
digests are the reference every later iteration must match.

--trace 0 reports the end-to-end metrics: simulated packets delivered and
trace rows produced per second of the median iteration, the median set-up
time of fresh processes (setup_s) and the peak RSS of a fresh process that
runs one iteration.  Times are host seconds rescaled to a reference machine
speed (calibrate.py); the median iteration time itself (wall_s), cells per
second and the unscaled host medians are printed as unbounded extras.

--trace 1 spends half of --seconds untraced and half with tracer.Tracer
installed, and reports the per-layer metrics of the traced iterations plus
trace_overhead, their median time over the untraced median.

After timing, every cell is replayed once through the library (the census)
to count what it did and to cross-check the outputs.  An operation (a run or
a sweep cell) fails when it raises or its output differs from the expected;
each mismatch is printed to stderr by name.  The last line of stdout is one
JSON object: correct, attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import gc
import json
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"
PIN_SEED = 1
#: fresh processes timed for setup_s, after one untimed warm-up process
SETUP_RUNS = 7

END_TO_END = {"packets_per_s": "packets/s", "rows_per_s": "rows/s",
              "setup_s": "s", "peak_rss_mb": "MiB"}

PER_LAYER = {
    "metrics.rows": "count", "metrics.record_s": "s",
    "metrics.summarize_s": "s", "metrics.summarize_rows_per_s": "rows/s",
    "metrics.write_trace_s": "s", "metrics.trace_bytes": "bytes",
    "metrics.read_trace_s": "s",
    "sim.events": "count", "sim.run_self_s": "s", "sim.events_per_s": "events/s",
    "sim.scheduled.packet_arrival": "count",
    "sim.scheduled.transmission_complete": "count",
    "sim.scheduled.timer_expiry": "count",
    "sim.scheduled.ack_arrival": "count",
    "sim.peak_pending": "count", "sim.stale_timer_share": "ratio",
    "transport.on_ack_calls": "count", "transport.on_ack_s": "s",
    "transport.send_copy_calls": "count", "transport.send_copy_s": "s",
    "transport.copies_per_delivered": "ratio", "transport.timeouts": "count",
    "estimators.layer1_update_calls": "count", "estimators.layer1_update_s": "s",
    "estimators.extract_sample_calls": "count",
    "estimators.extract_sample_s": "s",
    "timeout.first_timeout_calls": "count", "timeout.first_timeout_s": "s",
    "timeout.backoff_interval_calls": "count", "timeout.backoff_interval_s": "s",
    "timeout.disconnect_decision_calls": "count",
    "timeout.disconnect_decision_s": "s",
    "config.build_calls": "count", "config.build_s": "s",
    "scenarios.prepare_calls": "count", "scenarios.prepare_s": "s",
    "cli.calls": "count", "cli.self_s": "s",
    "trace_overhead": "ratio",
}

if __name__ == "__main__" and not (SRC / "rtosim" / "__init__.py").is_file():
    sys.exit(f"error: no rtosim sources under {SRC}")
sys.path.insert(0, str(SRC))
from calibrate import SpeedProbe  # noqa: E402
from tracer import MissingBoundary, Tracer  # noqa: E402
from workloads import WORKLOADS, census, cross_check, sha256  # noqa: E402

#: traced per-layer count -> census count it must equal
_TRACED_COUNTS = (("sim.events", "sim.events"), ("metrics.rows", "metrics.rows"),
                  ("transport.send_copy_calls", "copies"),
                  ("transport.timeouts", "timeouts"))


@dataclass
class Iteration:
    label: str
    host_seconds: float
    seconds: float  # at the reference machine speed
    digests: dict[str, dict[str, str]]  # group -> output kind -> sha256
    errors: dict[str, str]
    trace_bytes: int = 0
    layers: dict[str, float] = field(default_factory=dict)


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, float]
    samples: dict[str, int]
    info: dict[str, tuple[float, str]]  # unbounded extras for the report
    counts: dict[str, float]
    digests: dict[str, dict[str, str]]
    iterations: list[Iteration]
    mismatches: list[str]


def run_iteration(label, groups, work, tracer=None):
    """One pass over the workload's groups; only the calls are timed."""
    gc.collect()
    if tracer is not None:
        tracer.reset()
    raw, errors = {}, {}
    with SpeedProbe() as probe:
        for group in groups:
            try:
                raw[group.name] = group.call(work)
            except (Exception, SystemExit) as exc:
                errors[group.name] = f"{type(exc).__name__}: {exc}"
    host, seconds = probe.seconds, probe.reference_seconds
    outputs = {name: {kind: value.read_bytes() if isinstance(value, Path)
                      else value for kind, value in out.items()}
               for name, out in raw.items()}
    it = Iteration(label, host, seconds,
                   {name: {kind: sha256(data) for kind, data in out.items()}
                    for name, out in outputs.items()},
                   errors,
                   sum(len(out.get("trace", b"")) for out in outputs.values()))
    if tracer is not None:
        speed = seconds / host
        it.layers = {key: value * speed if PER_LAYER[key] == "s"
                     else value / speed if PER_LAYER[key].endswith("/s")
                     else value
                     for key, value in tracer.layer_metrics().items()}
    return it, outputs


def timed_loop(prefix, seconds, groups, work, tracer=None) -> list[Iteration]:
    iterations = []
    start = time.perf_counter()
    while not iterations or time.perf_counter() - start < seconds:
        it, _ = run_iteration(f"{prefix} {len(iterations) + 1}", groups, work,
                              tracer)
        iterations.append(it)
    return iterations


def fresh_process(cell: dict[str, str], workload=None, seed: int = 0,
                  work: Path | None = None) -> list[float]:
    """[reference, host] seconds of set-up in a fresh process, then, given a
    workload, that process's peak RSS in MiB after one iteration of it."""
    argv = [sys.executable, str(HERE / "fresh_process.py"), str(SRC),
            json.dumps(cell)]
    if workload is not None:
        argv += [workload.name, json.dumps(workload.params), str(seed),
                 str(work)]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=170,
                          check=True, cwd=ROOT)
    return [float(value) for value in done.stdout.split()]


def measure(workload, seed: int, seconds: float, trace: bool,
            pinned: dict | None = None, setup_runs: int = SETUP_RUNS) -> Result:
    groups = workload.groups(seed)
    ops = sum(len(group.cells) for group in groups)
    metrics: dict[str, float] = {}
    samples: dict[str, int] = {}
    info: dict[str, tuple[float, str]] = {}

    with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as tmp:
        work = Path(tmp)
        if not trace and setup_runs:
            # the first process also compiles the sources: its set-up time
            # is not a sample, its peak RSS is
            cell = groups[0].cells[0]
            metrics["peak_rss_mb"] = fresh_process(cell, workload, seed,
                                                   work)[2]
            setup = [fresh_process(cell) for _ in range(setup_runs)]
            metrics["setup_s"] = statistics.median(s for s, _ in setup)
            samples["setup_s"] = len(setup)
            info["host setup_s"] = (statistics.median(h for _, h in setup),
                                    "s")
        warm, outputs = run_iteration("warm-up", groups, work)
        plain = timed_loop("timed", seconds / 2 if trace else seconds,
                           groups, work)
        traced = []
        if trace:
            with Tracer() as tracer:
                traced = timed_loop("traced", seconds / 2, groups, work, tracer)
            tracer.require(workload.unused)

    cells = {group.name: [census(cell) for cell in group.cells]
             for group in groups}
    counts = {key: sum(c.counts[key] for cs in cells.values() for c in cs)
              for key in ("sim.events", "metrics.rows", "copies", "timeouts",
                          "delivered")}
    counts["max_e"] = max(c.counts["max_e"] for cs in cells.values()
                          for c in cs)

    mismatches: list[str] = []
    bad: set[str] = set()  # groups whose reference output is itself wrong

    def mismatch(text: str, group: str | None = None) -> None:
        mismatches.append(f"{workload.name} seed={seed}: {text}")
        bad.update([group] if group else (g.name for g in groups))

    for group in groups:
        for c in cells[group.name]:
            for problem in c.problems:
                mismatch(f"{group.name}: {problem}", group.name)
        if group.name in outputs:
            for problem in cross_check(outputs[group.name], cells[group.name]):
                mismatch(f"{group.name}: {problem}", group.name)
    if pinned is not None:
        for group in groups:
            want = pinned["digests"].get(group.name, {})
            have = warm.digests.get(group.name, {})
            for kind in sorted(set(want) | set(have)) or ["outputs"]:
                if have.get(kind) != want.get(kind):
                    mismatch(f"{group.name}.{kind} sha256 {have.get(kind)} "
                             f"differs from the pinned {want.get(kind)}",
                             group.name)
        for key, value in pinned["counts"].items():
            if counts.get(key) != value:
                mismatch(f"count {key}={counts.get(key)} differs from the "
                         f"pinned {value}")

    failed = 0
    for it in [warm, *plain, *traced]:
        wrong = set(bad)
        for group in groups:
            if group.name in it.errors:
                mismatches.append(f"{workload.name} seed={seed} {it.label}: "
                                  f"{group.name} raised {it.errors[group.name]}")
                wrong.add(group.name)
            elif it.digests.get(group.name) != warm.digests.get(group.name):
                mismatches.append(f"{workload.name} seed={seed} {it.label}: "
                                  f"{group.name} outputs differ from the "
                                  f"warm-up's")
                wrong.add(group.name)
        for layer_key, census_key in _TRACED_COUNTS if it.layers else ():
            if it.layers[layer_key] != counts[census_key]:
                mismatches.append(f"{workload.name} seed={seed} {it.label}: "
                                  f"traced {layer_key}={it.layers[layer_key]} "
                                  f"but the census counts "
                                  f"{counts[census_key]}")
                wrong.update(group.name for group in groups)
        failed += sum(len(group.cells) for group in groups
                      if group.name in wrong)

    iterations = [warm, *plain, *traced]
    wall = statistics.median(it.seconds for it in plain)
    info["wall_s"] = (wall, "s")
    info["cells_per_s"] = (ops / wall, "cells/s")
    info["host wall_s"] = (statistics.median(it.host_seconds for it in plain),
                           "s")
    if trace:
        for key in PER_LAYER:
            values = [it.layers.get(key) for it in traced]
            if key in traced[0].layers:
                metrics[key] = (values[0] if len(set(values)) == 1
                                else statistics.median(values))
        metrics["metrics.trace_bytes"] = traced[-1].trace_bytes
        metrics["trace_overhead"] = statistics.median(
            it.seconds for it in traced) / wall
        samples.update({key: len(traced) for key in PER_LAYER
                        if key.endswith("_s")})
        samples["trace_overhead"] = len(traced)
    else:
        metrics.update(packets_per_s=counts["delivered"] / wall,
                       rows_per_s=counts["metrics.rows"] / wall)
        samples.update(packets_per_s=len(plain), rows_per_s=len(plain))
    return Result(not mismatches and failed == 0, len(iterations) * ops,
                  failed, metrics, samples, info, counts, warm.digests,
                  iterations, mismatches)


def report(name: str, seed: int, trace: bool, result: Result) -> None:
    units = PER_LAYER if trace else END_TO_END
    print(f"workload {name}  seed {seed}  trace {int(trace)}")
    for key, unit in units.items():
        count = result.samples.get(key)
        note = f"median of {count}" if count else ""
        print(f"  {key:36s} {result.metrics[key]!r:>24} {unit:10s} {note}")
    for key, (value, unit) in result.info.items():
        print(f"  {key:36s} {value!r:>24} {unit:10s} median, unbounded")
    share = result.failed / result.attempted
    print(f"  {'failed_share':36s} {share!r:>24} {'ratio':10s} "
          f"{result.failed} of {result.attempted} operations")
    print("  counts " + " ".join(f"{key}={value!r}"
                                 for key, value in result.counts.items()))
    for group, kinds in result.digests.items():
        for kind, digest in kinds.items():
            print(f"  sha256 {group}.{kind} {digest}")
    for text in result.mismatches:
        print(f"mismatch: {text}", file=sys.stderr)
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {key: {"value": result.metrics[key], "unit": unit}
                    for key, unit in units.items()},
    }))


def load_pinned(name: str, seed: int) -> dict | None:
    expected = json.loads(EXPECTED.read_text())
    return expected["workloads"].get(name) if expected["seed"] == seed else None


def pin() -> None:
    pinned = {"seed": PIN_SEED, "workloads": {}}
    for name, workload in WORKLOADS.items():
        result = measure(workload, PIN_SEED, 0, False, setup_runs=0)
        if not result.correct:
            raise SystemExit("cannot pin: " + "; ".join(result.mismatches))
        pinned["workloads"][name] = {"digests": result.digests,
                                     "counts": result.counts}
    EXPECTED.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=PIN_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="rewrite expected.json from the current program")
    args = parser.parse_args(argv)
    if args.pin:
        pin()
        return 0
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    try:
        result = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                         bool(args.trace),
                         load_pinned(args.workload, args.seed))
    except MissingBoundary as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report(args.workload, args.seed, bool(args.trace), result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
