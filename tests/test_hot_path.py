"""The per-event path: how many Python calls it makes, and that each
boundary is reached once per use.

Deterministic, with no timing.  Over `connection.start()` + `engine.run()`
of two cells, `sys.setprofile` counts the calls whose code lives in the
rtosim package, per delivered packet; a helper added to the per-ack path
shows up here as a bound exceeded.  The same runs count the calls of the
boundaries that perfbench/tracer.py wraps, replaced where the benchmark
replaces them (the layer functions as `rtosim.transport` globals, the rest
as class attributes), and compare each with what the run itself reports.
A layer reached twice per use, or through a name the benchmark does not
see, fails here.
"""
import os
import sys
from collections import Counter
from pathlib import Path

import pytest

import rtosim
from rtosim import metrics, sim, transport
from rtosim.config import build_scenario
from rtosim.scenarios import prepare_scenario

PACKAGE = str(Path(rtosim.__file__).parent) + os.sep

#: cell -> (flat config, most rtosim calls per delivered packet)
CELLS = {
    # a loss_sweep cell of the sweep_grid benchmark: window 1, one timer
    "window_1": ({"scenario": "loss_sweep", "seed": "10", "loss.p": "0.1",
                  "packets": "800"}, 29),
    # the wide_window benchmark config, cut to 2,000 packets
    "window_32": ({"scenario": "loss_sweep", "seed": "1", "loss.p": "0.05",
                   "packets": "2000", "window": "32",
                   "timer_mode": "per_packet", "algorithm.layer2": "ignore",
                   "algorithm.layer4": "exp",
                   "stop_estimate_above": "none"}, 38),
}

LAYERS = ("layer1_update", "extract_sample", "first_timeout",
          "backoff_interval", "disconnect_decision")
METHODS = ((metrics.TraceRecorder, "record"),
           (metrics.TraceRecorder, "record_drop"),
           (transport.FixedDelayPath, "send_copy"),
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
    events = Counter(row.event for row in rows)
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
