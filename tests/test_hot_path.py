"""The per-event path: how many Python calls it makes, and that each
boundary is reached once per use.

Deterministic, with no timing.  Over `connection.start()` + `engine.run()`
of three cells, `sys.setprofile` counts the calls whose code lives in the
rtosim package, per delivered packet; a helper added to the per-ack path
shows up here as a bound exceeded.  The same runs count the calls of the
boundaries that perfbench/tracer.py wraps, replaced where the benchmark
replaces them (the layer functions as `rtosim.transport` globals, the rest
as class attributes), and compare each with what the run itself reports.
A layer reached twice per use, or through a name the benchmark does not
see, fails here.

Four guards keep the per-event path on the operations the interpreter
specializes, as the `rtosim.transport` docstring sets out: no per-event
function loads an attribute from an Enum class, the queued events of one
kind share one handler object, acks and the sender's send records are
exact tuples, and so are estimates, and trace rows both recorded and read
back, which the cyclic collector then untracks.  The last tests run
scripts/hot_path_audit.py, which reports what is still generic and what
the run left tracked; the functions that build or read the four tuple
layouts, and the one that starts a timer, must list nothing generic, and
no function may list more generic instructions than its committed
baseline (tests/hot_path_baseline.json, for 3.11, 3.12 and 3.13).  A last
ratchet bounds the distinct objects that two cells' rows hold, per column
as the audit counts them: the timers armed for one tick count share one
interval float, an unmoved estimate keeps its one mean, and each ack
carries an arrival's packet-id int.  And `summarize` allocates less than a
per-packet bound beside the rows of a loss-free run, as the audit's
`tracemalloc` peak reads it.
"""
import builtins
import dis
import gc
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
import typing
from collections import Counter
from enum import Enum
from pathlib import Path
from types import ModuleType

import pytest

import rtosim
from properties import _queued_events
from rtosim import estimators, metrics, sim, transport
from rtosim.config import build_scenario
from rtosim.scenarios import prepare_scenario, run_scenario
from rtosim.sim import TICKS_PER_SECOND

AUDIT = Path(__file__).resolve().parents[1] / "scripts" / "hot_path_audit.py"
_spec = importlib.util.spec_from_file_location("hot_path_audit", AUDIT)
hot_path_audit = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(hot_path_audit)

PACKAGE = str(Path(rtosim.__file__).parent) + os.sep

#: cell -> (flat config, most rtosim calls per delivered packet)
CELLS = {
    # a loss_sweep cell of the sweep_grid benchmark: window 1, one timer
    "window_1": ({"scenario": "loss_sweep", "seed": "10", "loss.p": "0.1",
                  "packets": "800"}, 22),
    # the wide_window benchmark config, cut to 2,000 packets
    "window_32": ({"scenario": "loss_sweep", "seed": "1", "loss.p": "0.05",
                   "packets": "2000", "window": "32",
                   "timer_mode": "per_packet", "algorithm.layer2": "ignore",
                   "algorithm.layer4": "exp",
                   "stop_estimate_above": "none"}, 29),
    # a sweep_grid chain cell: window 4, one timer, 83 drops at node 1
    "chain": ({"scenario": "tsao_lee_fast", "topology.ingress_rate": "57600",
               "packets": "500", "stop_estimate_above": "none"}, 28),
}

LAYERS = ("layer1_update", "extract_sample", "first_timeout",
          "backoff_interval", "disconnect_decision")
METHODS = ((metrics.TraceRecorder, "record"),
           (metrics.TraceRecorder, "record_drop"),
           (transport.FixedDelayPath, "send_copy"),
           (transport.ChainPath, "send_copy"),
           (transport.Connection, "on_ack"))


def _counting(counts: Counter, name: str, fn):
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)
    return wrapper


@pytest.fixture(scope="module", params=sorted(CELLS))
def run(request):
    """One profiled run of a cell with every boundary counted."""
    cell, bound = CELLS[request.param]
    counts: Counter = Counter()
    schedule = sim.Engine.schedule

    def counting_schedule(engine, time, kind, payload, handler):
        counts["schedule"] += 1
        counts[kind.value] += 1
        schedule(engine, time, kind, payload, handler)

    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(PACKAGE):
            calls += 1

    with pytest.MonkeyPatch.context() as patch:
        for name in LAYERS:
            patch.setattr(transport, name,
                          _counting(counts, name, getattr(transport, name)))
        for owner, name in METHODS:
            patch.setattr(owner, name,
                          _counting(counts, name, getattr(owner, name)))
        patch.setattr(sim.Engine, "schedule", counting_schedule)
        connection = prepare_scenario(build_scenario(dict(cell)))
        sys.setprofile(profile)
        try:
            connection.start()
            connection.engine.run()
        finally:
            sys.setprofile(None)
    return connection, counts, calls, bound


def test_calls_per_delivered_packet_stay_under_the_bound(run):
    connection, _, calls, bound = run
    delivered = connection.packets_acked
    assert delivered == connection.scenario.packet_count
    assert calls / delivered <= bound


def test_each_boundary_is_called_once_per_use(run):
    connection, counts, _, _ = run
    engine = connection.engine
    rows = connection.recorder.rows
    events = Counter(event for _, event, *_ in rows)
    assert counts["record"] + counts["record_drop"] == len(rows)
    assert counts["record_drop"] == events[metrics.DROP]
    assert counts["send_copy"] == connection.total_copies_sent
    assert counts["disconnect_decision"] == connection.timeout_event_count
    assert counts["backoff_interval"] == (events[metrics.TIMEOUT]
                                         - events[metrics.DISCONNECT])
    # copy echo is off, so each newly acked packet yields one extraction
    assert counts["extract_sample"] == connection.packets_acked
    # no increase scheme: every estimate update is a layer-1 update
    assert counts["layer1_update"] == events[metrics.ESTIMATE_UPDATE]
    # an expiry is scheduled for each timer started and each back-off
    assert counts["first_timeout"] == (counts["timer_expiry"]
                                       - counts["backoff_interval"])
    assert counts["on_ack"] == counts["ack_arrival"]
    # the run drains its queue, so every scheduled event was processed
    assert engine.pending() == 0
    assert counts["schedule"] == engine.events_processed


def _enum_member_loads(fn) -> list[str]:
    """Each attribute load from an Enum class in fn, as `Class.name`: a
    global, or an attribute of a global module, that is an Enum subclass,
    followed by an attribute load."""
    found = []
    held = None  # what the last instruction loaded, where statically known
    for ins in dis.get_instructions(fn):
        if ins.opname == "LOAD_GLOBAL":
            held = fn.__globals__.get(ins.argval,
                                      getattr(builtins, ins.argval, None))
        elif ins.opname in ("LOAD_ATTR", "LOAD_METHOD") and held is not None:
            if isinstance(held, type) and issubclass(held, Enum):
                found.append(f"{held.__name__}.{ins.argval}")
            held = (getattr(held, ins.argval, None)
                    if isinstance(held, ModuleType) else None)
        else:
            held = None
    return found


def test_per_event_functions_load_no_enum_member():
    loads = {name: _enum_member_loads(fn)
             for name, fn in hot_path_audit.per_event_functions()}
    assert {name: found for name, found in loads.items() if found} == {}
    # the scan sees a member load where there is one
    assert _enum_member_loads(
        lambda: sim.EventKind.ACK_ARRIVAL) == ["EventKind.ACK_ARRIVAL"]


def test_queued_events_of_one_kind_share_one_handler():
    config, _ = CELLS["window_32"]
    connection = prepare_scenario(build_scenario(dict(config)))
    connection.start()
    events = list(_queued_events(connection.engine))
    timers = [handler for handler, _ in events
              if handler == connection._on_timer]
    # the receiver answers each copy's final arrival itself
    arrivals = [handler for handler, _ in events
                if handler == connection.path.receiver.on_arrival]
    assert len(timers) == connection.window_size
    assert len(timers) + len(arrivals) == len(events)
    assert arrivals
    assert all(handler is timers[0] for handler in timers)
    assert all(handler is arrivals[0] for handler in arrivals)


def test_acks_are_exact_tuples():
    # the receiver's arrival handler queues the ack it builds, an exact
    # tuple, to the sender's on_ack
    config, _ = CELLS["window_1"]
    connection = prepare_scenario(build_scenario(dict(config)))
    receiver = connection.path.receiver
    receiver.on_arrival((1, 1, 1), 0)
    [(handler, ack)] = _queued_events(connection.engine)
    assert handler == connection.on_ack
    assert type(ack) is tuple and ack == (1, 1, 1)


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_send_records_are_exact_tuples(cell):
    # the sender keeps each packet's (packet_id, copy_send_times) as the
    # exact tuple it builds, with no constructor frame per packet; the
    # records are checked every half second of simulated time
    config, _ = CELLS[cell]
    connection = prepare_scenario(build_scenario(dict(config)))
    connection.start()
    records, deadline = [], 0
    while connection.outstanding:
        records += connection.outstanding.values()
        deadline += TICKS_PER_SECOND // 2
        connection.engine.run(deadline)
    assert connection.packets_acked == connection.packet_count
    assert {type(record) for record in records} == {tuple}
    assert {len(record) for record in records} == {2}
    assert any(len(copy_send_times) > 1 for _, copy_send_times in records)


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_estimates_are_exact_tuples(cell):
    # every estimate the sender holds is the exact (mean, variance) tuple
    # that the layer-1 updates return, an estimators.Estimate
    config, _ = CELLS[cell]
    kinds: Counter = Counter()
    update = transport.layer1_update

    def typed_update(*args):
        est = update(*args)
        kinds[type(est)] += 1
        return est

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(transport, "layer1_update", typed_update)
        result = run_scenario(build_scenario(dict(config)))
    assert type(result.connection.estimate) is tuple
    assert len(result.connection.estimate) == 2
    assert set(kinds) == {tuple} and kinds[tuple] > 0


def test_every_update_and_increase_returns_an_exact_tuple():
    start = (2.0, 0.5)
    policies = typing.get_args(estimators.Layer1Policy)
    schemes = [cls for cls in typing.get_args(estimators.Layer2Policy)
               if issubclass(cls, estimators.IgnoreAndIncrease)]
    assert len(policies) == len(schemes) == 4
    for sample in (1.0, 3.0):
        for policy in policies:
            est = estimators.layer1_update(start, sample, policy())
            assert type(est) is tuple and len(est) == 2, policy
    for scheme in schemes:
        est, running = estimators.increase_estimate(start, scheme())
        assert type(est) is tuple and len(est) == 2, scheme
        est, _ = estimators.increase_estimate(est, scheme(), running)
        assert type(est) is tuple and len(est) == 2, scheme


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_rows_are_exact_tuples_the_collector_untracks(cell):
    # the collector untracks an exact tuple of untracked values, never a
    # tuple subclass such as a NamedTuple, so a row of another type stays
    # on every older-generation collection's walk
    config, _ = CELLS[cell]
    result = run_scenario(build_scenario(dict(config)))
    trace = io.StringIO()
    metrics.write_trace(result.rows, trace)
    trace.seek(0)
    read = metrics.read_trace(trace)
    gc.collect()
    for rows in (result.rows, read):
        assert rows
        assert all(type(row) is tuple for row in rows)
        assert not any(gc.is_tracked(row) for row in rows)


def test_hot_path_audit_reports_each_per_event_function(capsys):
    config, _ = CELLS["window_1"]
    cell = {**config, "packets": "200"}
    assert hot_path_audit.main([json.dumps(cell)]) == 0
    out = capsys.readouterr().out
    for name, _ in hot_path_audit.per_event_functions():
        assert f"\n{name}: " in out
    assert "Connection.on_ack: " in out and " generic" in out
    # the second run's rows go through the trace codec, whose per-row
    # loops run often enough to be quickened
    for name in ("_write_trace_file", "_read_trace_file"):
        assert f"\n{name}: " in out
        assert f"\n{name}: not quickened" not in out
    # the run's tracked objects by type; the run keeps a TraceRecorder alive
    tracked = out.split("\n# tracked by the collector after the run: ")[1]
    assert "  rtosim.metrics.TraceRecorder\n" in tracked
    # each trace column's distinct objects and values, then all columns'
    sharing = tracked.split("\n# trace columns of the run's rows: ")[1]
    lines = sharing.splitlines()[1:]
    columns = metrics.TRACE_HEADER.split(",")
    assert [line.split()[0] for line in lines[:-2]] == columns
    assert all(len(line.split()) == 3 for line in lines[:-2])
    assert re.fullmatch(r"# all columns: \d+ distinct objects in \d+ rows",
                        lines[-2])
    # then what summarize allocates over the same rows
    assert re.fullmatch(r"# summarize: \d+\.\d KiB peak traced allocation "
                        r"over \d+ rows", lines[-1])
    assert lines[-1].split()[-2] == lines[-2].split()[-2]


def _row_sharing(cell: str) -> tuple[int, dict[str, tuple[int, int]]]:
    """The distinct objects in a run of the cell's rows, and per column
    its distinct objects and distinct values."""
    config, _ = CELLS[cell]
    rows = run_scenario(build_scenario(dict(config))).rows
    objects, columns = hot_path_audit.row_sharing(rows)
    return objects, {column: (column_objects, values)
                     for column, column_objects, values in columns}


def test_rows_share_the_armed_interval_and_an_unmoved_estimate():
    # A ratchet on the objects the rows hold: the timers armed for one
    # tick count share one interval float, an update by a sample equal
    # to the mean keeps the estimate's own float, and every ack carries
    # the packet-id int of an arrival, also where a gap fills.  A change
    # that shares more lowers the bounds; the window_32 rows hold 4
    # interval values.
    objects, columns = _row_sharing("window_32")
    assert objects <= 2309
    assert columns["packet_id"] == (2000, 2000)
    assert columns["timeout_interval"][0] <= 83
    assert columns["estimate_e"] == (1, 1)
    _, columns = _row_sharing("chain")
    assert columns["timeout_interval"] == (252, 252)


def test_summarize_holds_little_beside_the_rows():
    # summarize keeps one copy-count slot per packet and nothing per ack
    # that is not ambiguous, so on a loss-free run, with no ambiguous ack
    # and no drop, the list of counts, about 9 bytes a packet, is most of
    # what it allocates
    packets = 20000
    config = {**CELLS["window_32"][0], "loss.p": "0",
              "packets": str(packets)}
    scenario = build_scenario(config)
    result = run_scenario(scenario)
    assert result.summary.packets_delivered == packets
    assert result.summary.ambiguous_acks == []
    peak = hot_path_audit.summarize_peak(result.rows, scenario.true_rtt)
    assert peak < 16 * packets


#: cell -> its audit listing, each made once per test process
_AUDITS: dict[str, dict[str, list[str]]] = {}


def _audit(cell: str) -> dict[str, list[str]]:
    """scripts/hot_path_audit.py's listing of a cell, per function: its
    header line, then one line per generic instruction.  It runs in a
    fresh process: the tests before this one call the same functions with
    other policies and types, and what an instruction specialized to
    depends on every call the process has made."""
    if cell not in _AUDITS:
        config, _ = CELLS[cell]
        audit = subprocess.run(
            [sys.executable, str(AUDIT), json.dumps(config)],
            capture_output=True, text=True, check=True)
        listed: dict[str, list[str]] = {}
        for line in audit.stdout.splitlines():
            if line.startswith("# tracked"):
                break
            if line.startswith("  "):
                listed[name].append(line)
            elif not line.startswith("#"):
                name = line.split(": ")[0]
                listed[name] = [line]
        _AUDITS[cell] = listed
    return _AUDITS[cell]


#: what the program runs to build or read an ack, a send record, an
#: estimate or a row, and to start a timer, which the audit of the
#: window_32 cell lists with no generic instruction; the receiver's
#: arrival handler builds and queues each ack
SPECIALIZED = ("Receiver.on_arrival", "FixedDelayPath.send_copy",
               "Connection.fill_window",
               "TraceRecorder.record", "TraceRecorder.record_drop",
               "Connection._start_timer", "extract_sample", "first_timeout")


def test_row_and_timer_builders_list_no_generic_instruction():
    listed = _audit("window_32")
    for name in SPECIALIZED:
        assert listed[name] == [f"{name}: 0 generic"], listed[name]


#: the audit's generic instructions per function, by interpreter and
#: cell; a function left out lists none
BASELINE = json.loads((Path(__file__).with_name("hot_path_baseline.json")
                       ).read_text())
PYTHON = f"{sys.version_info.major}.{sys.version_info.minor}"


@pytest.mark.skipif(PYTHON not in BASELINE,
                    reason=f"no committed audit baseline for Python {PYTHON}")
@pytest.mark.parametrize("cell", sorted(BASELINE.get(PYTHON, {})))
def test_no_function_lists_more_generic_instructions_than_its_baseline(cell):
    # A ratchet: a count that rises fails here.  A change that lowers a
    # count lowers it in tests/hot_path_baseline.json too; a change that
    # must raise one shows its A/B and says why in CHANGES.md.
    baseline = BASELINE[PYTHON][cell]
    listed = _audit(cell)
    counts = {name: len(lines) - 1 for name, lines in listed.items()}
    assert set(baseline) <= set(counts)  # each baselined function ran
    risen = {name: lines for name, lines in listed.items()
             if counts[name] > baseline.get(name, 0)}
    assert risen == {}
