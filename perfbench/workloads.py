"""The benchmark's workloads: rtosim inputs built from a workload seed.

A workload is a list of groups.  A group is one call into rtosim's public
entry points (one `rtosim run`, one `rtosim sweep`, or one library run) and
covers one or more operations, its cells.  Each cell is the flat rtosim
config of one simulation run, so the census can replay it through the
library to count what the run did and to cross-check the group's outputs.

rtosim only ever sees the generated configs, never the workload seed.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Union

from rtosim import cli, config, metrics, scenarios

Output = Union[bytes, Path]

#: rtosim seeds per loss sweep in one sweep_grid iteration
SWEEP_SEEDS = 10
LOSS_VALUES = ("0.05", "0.1", "0.15", "0.2", "0.25", "0.3", "0.35")
INGRESS_RATES = ("19200", "28800", "38400", "57600", "76800", "115200",
                 "230400", "1000000")


@dataclass(frozen=True)
class Group:
    name: str
    cells: tuple[dict[str, str], ...]
    #: runs the group's rtosim call in a work directory; returns its outputs
    #: by kind ("summary", "trace" or "csv"), as bytes or as a written file
    call: Callable[[Path], dict[str, Output]]


@dataclass(frozen=True)
class Workload:
    name: str
    #: its size arguments: FACTORIES[name](**params) makes it again
    params: dict[str, int]
    groups: Callable[[int], list[Group]]
    #: traced boundaries this workload never reaches (see tracer.BOUNDARIES)
    unused: frozenset[str] = frozenset()


def _cli(argv: list[str]) -> bytes:
    """Call `rtosim` in-process; returns what it printed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(argv, standalone_mode=False)
    return out.getvalue().encode("ascii")


def _cli_args(cell: dict[str, str]) -> list[str]:
    args = [cell["scenario"], f"--seed={cell['seed']}"]
    for key, value in cell.items():
        if key not in ("scenario", "seed"):
            args += ["--set", f"{key}={value}"]
    return args


def _summary_text(report) -> bytes:
    out = io.StringIO()
    metrics.write_summary(report, out)
    return out.getvalue().encode("ascii")


def long_transfer(packets: int = 20000) -> Workload:
    """Window 1, loss p=0.1, no stop guard, through `rtosim run --trace
    --summary`, then the trace is read back."""
    def groups(seed: int) -> list[Group]:
        cell = {"scenario": "loss_sweep", "seed": str(seed), "loss.p": "0.1",
                "packets": str(packets), "stop_estimate_above": "none"}

        def call(work: Path) -> dict[str, Output]:
            trace, summary = work / "trace.csv", work / "summary.txt"
            _cli(["run", *_cli_args(cell), "--trace", str(trace),
                  "--summary", str(summary)])
            metrics.read_trace(str(trace))
            return {"summary": summary, "trace": trace}
        return [Group("run", (cell,), call)]
    return Workload("long_transfer", {"packets": packets}, groups)


def wide_window(packets: int = 20000) -> Workload:
    """Window 32 with a timer per packet, through the library, no trace."""
    def groups(seed: int) -> list[Group]:
        cell = {"scenario": "loss_sweep", "seed": str(seed), "loss.p": "0.05",
                "packets": str(packets), "window": "32",
                "timer_mode": "per_packet", "algorithm.layer2": "ignore",
                "algorithm.layer4": "exp", "stop_estimate_above": "none"}

        def call(work: Path) -> dict[str, Output]:
            result = scenarios.run_scenario(config.build_scenario(dict(cell)))
            return {"summary": _summary_text(result.summary)}
        return [Group("run", (cell,), call)]
    return Workload("wide_window", {"packets": packets}, groups,
                    frozenset({"cli.main", "metrics.write_trace",
                               "metrics.read_trace"}))


def _sweep_group(name: str, base: dict[str, str], axis_key: str,
                 values: tuple[str, ...]) -> Group:
    cells = tuple({**base, axis_key: value} for value in values)
    argv = ["sweep", *_cli_args(base), "--set", f"axis.param={axis_key}",
            "--set", "axis.values=" + ",".join(values)]
    return Group(name, cells, lambda work: {"csv": _cli(argv)})


def sweep_grid(seeds: int = SWEEP_SEEDS, chain_packets: int = 2000) -> Workload:
    """`rtosim sweep`, in-process and serially: the loss grid over several
    rtosim seeds, then the chain over its ingress rates with the stop guard
    kept on."""
    def groups(seed: int) -> list[Group]:
        out = []
        for run_seed in range(seed * seeds, seed * seeds + seeds):
            out.append(_sweep_group(
                f"loss_sweep.seed{run_seed}",
                {"scenario": "loss_sweep", "seed": str(run_seed)},
                "loss.p", LOSS_VALUES))
        out.append(_sweep_group(
            "tsao_lee_fast",
            {"scenario": "tsao_lee_fast", "seed": str(seed),
             "packets": str(chain_packets), "stop_estimate_above": "100"},
            "topology.ingress_rate", INGRESS_RATES))
        return out
    return Workload("sweep_grid", {"seeds": seeds,
                                   "chain_packets": chain_packets}, groups,
                    frozenset({"metrics.write_trace", "metrics.read_trace"}))


FACTORIES = {"long_transfer": long_transfer, "wide_window": wide_window,
             "sweep_grid": sweep_grid}
WORKLOADS = {name: make() for name, make in FACTORIES.items()}


# -- census: replay each cell through the library, count and cross-check --

@dataclass
class CellCensus:
    summary: bytes
    trace_sha: str
    counts: dict[str, float]
    problems: list[str]


def census(cell: dict[str, str]) -> CellCensus:
    scenario = config.build_scenario(dict(cell))
    result = scenarios.run_scenario(scenario)
    trace = io.StringIO()
    metrics.write_trace(result.rows, trace)
    text = trace.getvalue()
    problems = []
    replay = metrics.summarize(metrics.read_trace(io.StringIO(text)),
                               scenario.true_rtt)
    if replay != result.summary:
        problems.append("summarize(read_trace(trace)) differs from the "
                        "run's summary")
    connection = result.connection
    if (not connection.stopped_early
            and result.summary.packets_delivered != scenario.packet_count):
        problems.append(f"packets_delivered={result.summary.packets_delivered}"
                        f" on a complete run of {scenario.packet_count}")
    counts = {"sim.events": connection.engine.events_processed,
              "metrics.rows": len(result.rows),
              "copies": connection.total_copies_sent,
              "timeouts": connection.timeout_event_count,
              "delivered": result.summary.packets_delivered,
              "max_e": result.summary.max_e}
    return CellCensus(_summary_text(result.summary), sha256(text.encode("ascii")),
                      counts, problems)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


#: sweep CSV column -> summary key it must agree with
_CSV_COLUMNS = (("verdict", "verdict"), ("final_e", "final_e"),
                ("throughput", "throughput"),
                ("duplicates", "duplicates_received"))


def cross_check(outputs: dict[str, bytes], cells: list[CellCensus]) -> list[str]:
    """Mismatches between one group's outputs and its cells' census."""
    problems = []
    if "summary" in outputs and outputs["summary"] != cells[0].summary:
        problems.append("summary differs from the library run's summary")
    if "trace" in outputs and sha256(outputs["trace"]) != cells[0].trace_sha:
        problems.append("trace differs from the library run's rows")
    if "csv" in outputs:
        lines = outputs["csv"].decode("ascii").splitlines() or [""]
        header = lines[0].split(",")
        if len(lines) - 1 != len(cells):
            problems.append(f"csv has {len(lines) - 1} rows for "
                            f"{len(cells)} cells")
        for index, (line, cell) in enumerate(zip(lines[1:], cells)):
            row = dict(zip(header, line.split(",")))
            summary = dict(item.split("=", 1) for item in
                           cell.summary.decode("ascii").splitlines())
            for column, key in _CSV_COLUMNS:
                if row.get(column) != summary.get(key):
                    problems.append(f"csv row {index + 1} {column}="
                                    f"{row.get(column)} but the library run "
                                    f"gives {summary.get(key)}")
    return problems
