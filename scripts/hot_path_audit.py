#!/usr/bin/env python3
"""Which instructions of the per-event functions the interpreter leaves
generic.

    python3 scripts/hot_path_audit.py '{"scenario": "loss_sweep", "packets": "200"}'

CELL_JSON is one cell, a flat config (see `rtosim.config`) as a JSON
object.  The script runs the cell twice in this process, so that the
specializing interpreter (PEP 659, Python 3.11 and later) has quickened the
functions that run per event, and writes the second run's rows to a trace
in memory and reads them back, so that the trace codec's per-row loops run
too.  Then it prints, for each of these functions, every instruction that
`dis.get_instructions(fn, adaptive=True)` still shows in its generic form:
a load, call, store or operator that ran, whose family can specialize, and
that did not.  Each line gives the source line, the opcode and its
argument.  An instruction that never ran (a cold branch) is left out, and
a function that ran too rarely to be quickened is listed as such.

Last it lists, by type, the objects that the second run leaves tracked by
the cyclic collector: the counts of `gc.get_objects()` after a
`gc.collect()`, taken before the run and again after it while its result
and the rows read back are alive.  An object built per row or per event
that the collector cannot untrack (a tuple subclass, say) shows up here
with a count in the tens of thousands, and every older-generation
collection walks it.

Then, for each trace column of the second run's rows, it prints how many
distinct objects the column holds and how many distinct values, and the
distinct objects of all columns together.  A column whose objects far
outnumber its values builds an equal value afresh per row, where one
object could serve every row that holds it.

Last, it prints the peak of the memory that `metrics.summarize` allocates
while it reduces the second run's rows, as `tracemalloc` traces it: what
a run holds beside its rows when it is summarized.

It only reports: it exits 0 whatever it finds.
"""
from __future__ import annotations

import argparse
import dis
import gc
import inspect
import io
import json
import opcode
import sys
import tracemalloc
from collections import Counter
from pathlib import Path
from typing import get_args

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from rtosim import estimators, metrics, sim, timeout, transport  # noqa: E402
from rtosim.config import ConfigError, build_scenario  # noqa: E402
from rtosim.scenarios import run_scenario  # noqa: E402

#: the classes whose methods run per event; __init__ runs once per object
#: and is left out
CLASSES = (sim.Engine, transport.Receiver, transport.FixedDelayPath,
           transport.ChainPath, transport.Connection, metrics.TraceRecorder)
#: the layer boundaries the sender calls per use, the other functions it
#: calls per event, the per-row summary and the trace codec
FUNCTIONS = (estimators.extract_sample, estimators.layer1_update,
             estimators.increase_estimate, timeout.first_timeout,
             timeout.backoff_interval, timeout.disconnect_decision,
             timeout.new_retry_state, metrics.summarize,
             metrics._write_trace_file, metrics._read_trace_file)
#: (layer's policy union, method): the method that each policy of the
#: layer runs when its boundary is reached
POLICY_METHODS = ((estimators.Layer1Policy, "update"),
                  (estimators.Layer2Policy, "origin"),
                  (timeout.Layer3Policy, "first_interval"),
                  (timeout.Layer4Policy, "next_interval"),
                  (timeout.Layer5Policy, "give_up"))


def per_event_functions() -> list[tuple[str, object]]:
    """(qualified name, function) of every per-event function."""
    found = [(f"{cls.__name__}.{name}", value)
             for cls in CLASSES for name, value in vars(cls).items()
             if inspect.isfunction(value) and name != "__init__"]
    # a method that policies inherit, such as IgnoreAndIncrease.origin, once
    policies = dict.fromkeys(getattr(cls, name) for union, name in
                             POLICY_METHODS for cls in get_args(union))
    return found + [(fn.__qualname__, fn) for fn in (*FUNCTIONS, *policies)]


def _cache_entries(name: str) -> int:
    # a list indexed by opcode up to 3.12, a dict keyed by name from 3.13
    entries = opcode._inline_cache_entries
    if isinstance(entries, dict):
        return entries.get(name, 0)
    return entries[opcode.opmap[name]]


#: the instruction families that specialize through an inline cache, and so
#: can be left generic; the others only form superinstructions
FAMILIES = frozenset(name for name in getattr(opcode, "_specializations", {})
                     if _cache_entries(name) > 0)


def _with_counters(fn) -> list[tuple[dis.Instruction, int | None]]:
    """Each instruction of fn's adaptive code with the counter of its
    inline cache, None where it has none."""
    if sys.version_info >= (3, 13):
        return [(ins, next((int.from_bytes(data, sys.byteorder)
                            for name, _, data in ins.cache_info or ()
                            if name == "counter"), None))
                for ins in dis.get_instructions(fn, adaptive=True)]
    found: list[list] = []
    for ins in dis.get_instructions(fn, adaptive=True, show_caches=True):
        if ins.opname != "CACHE":
            found.append([ins, None])
        elif ins.argrepr.startswith("counter: ") and found[-1][1] is None:
            found[-1][1] = int(ins.argrepr.removeprefix("counter: "))
    return [(ins, counter) for ins, counter in found]


def _cold(flag):
    if flag:
        return flag.never_loaded
    return None


def _never_run_counter() -> int | None:
    """The counter that a quickened instruction keeps until it first runs:
    read from a cold branch of a warmed function, so no value of one
    interpreter's is written here."""
    for _ in range(64):
        _cold(0)
    return next(counter for ins, counter in _with_counters(_cold)
                if ins.argval == "never_loaded")


def generic_instructions(fn, never_run: int | None
                         ) -> list[dis.Instruction] | None:
    """The instructions of fn that ran and are still in a generic form, or
    None when fn was not quickened (all its adaptive names are the plain
    ones).  An instruction that never ran, such as a cold branch or, on
    3.11, the CALL after a specialized PRECALL, still holds `never_run`."""
    adaptive = _with_counters(fn)
    plain = list(dis.get_instructions(fn))
    if all(a.opname == p.opname for (a, _), p in zip(adaptive, plain)):
        return None
    # 3.11 marks a family instruction that did not specialize *_ADAPTIVE;
    # 3.12 and later leave the family's own name
    return [ins for ins, counter in adaptive
            if ins.opname.removesuffix("_ADAPTIVE") in FAMILIES
            and counter != never_run]


def tracked_types() -> Counter:
    """The objects the cyclic collector tracks after a full collection,
    counted by the module-qualified name of their type."""
    gc.collect()
    return Counter(f"{type(obj).__module__}.{type(obj).__qualname__}"
                   for obj in gc.get_objects())


def row_sharing(rows) -> tuple[int, list[tuple[str, int, int]]]:
    """The distinct objects that rows hold, and (column, distinct
    objects, distinct values) of each trace column, in the header's order.
    The rows must be alive: objects are told apart by id."""
    return (len({id(value) for row in rows for value in row}),
            [(column, len({id(row[i]) for row in rows}),
              len({row[i] for row in rows}))
             for i, column in enumerate(metrics.TRACE_HEADER.split(","))])


def summarize_peak(rows, true_rtt: float) -> int:
    """The peak, in bytes, of what `metrics.summarize(rows, true_rtt)`
    allocates, as `tracemalloc` traces it."""
    tracemalloc.start()
    try:
        metrics.summarize(rows, true_rtt)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("cell", metavar="CELL_JSON",
                        help="a flat config as a JSON object")
    args = parser.parse_args(argv)
    try:
        scenario = build_scenario(dict(json.loads(args.cell)))
    except (ValueError, TypeError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    run_scenario(scenario)
    before = tracked_types()
    result = run_scenario(scenario)  # held, so its objects are counted
    trace = io.StringIO()
    metrics.write_trace(result.rows, trace)
    trace.seek(0)
    read = metrics.read_trace(trace)  # held too
    left = tracked_types() - before
    objects, sharing = row_sharing(result.rows)
    rows = result.rows
    del result, trace, read
    print(f"# Python {sys.version.split()[0]}")
    never_run = _never_run_counter()
    for name, fn in per_event_functions():
        generic = generic_instructions(fn, never_run)
        if generic is None:
            print(f"{name}: not quickened")
            continue
        print(f"{name}: {len(generic)} generic")
        for ins in generic:
            print(f"  line {ins.positions.lineno:4}  {ins.opname:24} "
                  f"{ins.argrepr}")
    print(f"# tracked by the collector after the run: "
          f"{sum(left.values())} objects")
    for name, count in sorted(left.items(), key=lambda item: (-item[1],
                                                              item[0])):
        print(f"  {count:8}  {name}")
    print("# trace columns of the run's rows: distinct objects, "
          "distinct values")
    for column, column_objects, values in sharing:
        print(f"  {column:16} {column_objects:8} {values:8}")
    print(f"# all columns: {objects} distinct objects in {len(rows)} rows")
    # after the listing, so that this third call of summarize specializes
    # nothing that the listing shows
    peak = summarize_peak(rows, scenario.true_rtt)
    print(f"# summarize: {peak / 1024:.1f} KiB peak traced allocation "
          f"over {len(rows)} rows")
    return 0


if __name__ == "__main__":
    sys.exit(main())
