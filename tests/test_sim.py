import bisect
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtosim.sim import (
    TICKS_PER_SECOND,
    Engine,
    EventKind,
    Link,
    LinkBusyError,
    LinkSpec,
    NodeBuffer,
    SchedulingError,
    Topology,
    format_ticks,
    parse_ticks,
    seconds_to_ticks,
    substream,
    ticks_to_seconds,
)


# -- time representation ----------------------------------------------------

def test_tick_resolution_is_one_microsecond():
    assert TICKS_PER_SECOND == 1_000_000
    assert seconds_to_ticks(1.5) == 1_500_000
    assert ticks_to_seconds(1_500_000) == 1.5


def test_format_ticks_is_exact_fixed_point():
    assert format_ticks(0) == "0.000000"
    assert format_ticks(1) == "0.000001"
    assert format_ticks(15_010_000_000) == "15010.000000"
    assert format_ticks(-2_500_001) == "-2.500001"


@given(st.integers(min_value=-10 ** 15, max_value=10 ** 15))
def test_format_parse_round_trip(ticks):
    assert parse_ticks(format_ticks(ticks)) == ticks


@given(st.integers(min_value=0, max_value=10 ** 12))
def test_tick_second_round_trip(ticks):
    assert seconds_to_ticks(ticks_to_seconds(ticks)) == ticks


def test_substream_is_stable_and_label_separated():
    a = substream(1, "loss")
    b = substream(1, "loss")
    c = substream(1, "backoff")
    first = [a.random() for _ in range(5)]
    assert first == [b.random() for _ in range(5)]
    assert first != [c.random() for _ in range(5)]


# -- engine -----------------------------------------------------------------

def test_engine_orders_by_time_then_insertion():
    engine = Engine()
    seen = []
    engine.schedule(5, EventKind.PACKET_ARRIVAL, "late-first",
                    lambda payload, now: seen.append(payload))
    engine.schedule(3, EventKind.PACKET_ARRIVAL, "early",
                    lambda payload, now: seen.append(payload))
    engine.schedule(5, EventKind.PACKET_ARRIVAL, "late-second",
                    lambda payload, now: seen.append(payload))
    assert engine.run() == 3
    assert seen == ["early", "late-first", "late-second"]
    assert engine.now == 5


def test_engine_rejects_events_in_the_past():
    engine = Engine()
    engine.schedule(3, EventKind.PACKET_ARRIVAL, None, lambda payload, now: None)
    engine.run()
    with pytest.raises(SchedulingError):
        engine.schedule(2, EventKind.PACKET_ARRIVAL, None, lambda payload, now: None)


def test_engine_deadline_leaves_later_events_queued():
    engine = Engine()
    seen = []
    for when in (1, 4, 9):
        engine.schedule(when, EventKind.PACKET_ARRIVAL, when,
                        lambda payload, now: seen.append(payload))
    assert engine.run(deadline=4) == 2
    assert seen == [1, 4]
    assert engine.pending() == 1


def test_engine_stop_request_halts_after_current_event():
    engine = Engine()
    seen = []

    def stopper(payload, now):
        seen.append(payload)
        engine.request_stop()

    engine.schedule(1, EventKind.PACKET_ARRIVAL, "a", stopper)
    engine.schedule(2, EventKind.PACKET_ARRIVAL, "b",
                    lambda payload, now: seen.append(payload))
    engine.run()
    assert seen == ["a"]
    assert engine.pending() == 1


def test_stop_requested_before_run_ends_it_before_its_first_event():
    engine = Engine()
    seen = []
    engine.schedule(1, EventKind.PACKET_ARRIVAL, "a",
                    lambda payload, now: seen.append(payload))
    engine.request_stop()
    assert engine.run() == 0
    assert seen == [] and engine.now == 0
    assert engine.run() == 1  # the stop request was spent
    assert seen == ["a"]


def test_empty_queue_returns_without_advancing_the_clock():
    engine = Engine()
    assert engine.run(deadline=50) == 0
    assert engine.now == 0


def _counted_engine(times, on_event=lambda engine, payload: None):
    engine = Engine()
    for when in times:
        engine.schedule(when, EventKind.PACKET_ARRIVAL, when,
                        lambda payload, now: on_event(engine, payload))
    return engine


def test_event_count_under_a_deadline():
    engine = _counted_engine([1, 2, 3, 4, 5])
    assert engine.run(deadline=3) == 3
    assert engine.events_processed == 3
    assert engine.run(deadline=3) == 0
    assert engine.events_processed == 3
    assert engine.run() == 2
    assert engine.events_processed == 5


def test_event_count_after_a_stop_request():
    def stop_at_two(engine, payload):
        if payload == 2:
            engine.request_stop()

    engine = _counted_engine([1, 2, 3, 4], stop_at_two)
    assert engine.run() == 2
    assert engine.events_processed == 2
    assert engine.pending() == 2
    assert engine.run() == 2
    assert engine.events_processed == 4


def test_event_count_when_a_handler_raises():
    def fail_at_three(engine, payload):
        if payload == 3:
            raise RuntimeError("handler failed")

    engine = _counted_engine([1, 2, 3, 4, 5], fail_at_three)
    with pytest.raises(RuntimeError, match="handler failed"):
        engine.run()
    # the two events handled before the failure count, the failed one not
    assert engine.events_processed == 2
    assert engine.now == 3
    assert engine.pending() == 2
    assert engine.run() == 2
    assert engine.events_processed == 4


class SortedListEngine:
    """Reference for Engine: a list kept sorted on (time, seq), run from the
    front.  Same interface, same stop and count rules, no buckets."""

    def __init__(self) -> None:
        self.now = 0
        self.events_processed = 0
        self._queue: list = []
        self._seq = 0
        self._stop_requested = False

    def schedule(self, time, kind, payload, handler) -> None:
        if time < self.now:
            raise SchedulingError(f"{kind.value} at {time} < {self.now}")
        bisect.insort(self._queue, (time, self._seq, handler, payload))
        self._seq += 1

    def request_stop(self) -> None:
        self._stop_requested = True

    def pending(self) -> int:
        return len(self._queue)

    def run(self, deadline=None) -> int:
        processed = 0
        try:
            while self._queue and not self._stop_requested:
                if deadline is not None and self._queue[0][0] > deadline:
                    break
                time, _, handler, payload = self._queue.pop(0)
                self.now = time
                handler(payload, time)
                processed += 1
        finally:
            self._stop_requested = False
            self.events_processed += processed
        return processed


class HandlerFailed(Exception):
    pass


def _drive(engine, seed: int) -> list:
    """Run one random script of schedules, deadlines, stops and one raising
    handler against `engine`, and log everything it can observe.  What a
    handler does is drawn from its own event id, so the script does not
    depend on the order the engine chooses."""
    log = []
    rng = random.Random(seed)
    failing = f"r{rng.randrange(8)}"

    def handler(event_id, now):
        log.append(("event", event_id, now, engine.now, engine.pending(),
                    engine.events_processed))
        own = random.Random(f"{seed}/{event_id}")
        if event_id.count(".") < 3:
            for child in range(own.randrange(4)):
                delay = own.choice((0, 0, 0, 1, 2, own.randrange(40)))
                engine.schedule(now + delay, EventKind.TIMER_EXPIRY,
                                f"{event_id}.{child}", handler)
                log.append(("pending", engine.pending()))
        if now and own.random() < 0.1:
            with pytest.raises(SchedulingError):
                engine.schedule(now - 1, EventKind.ACK_ARRIVAL, "late",
                                handler)
        if own.random() < 0.08:
            engine.request_stop()
        if event_id == failing:
            raise HandlerFailed(event_id)

    def run(deadline):
        try:
            log.append(("run", engine.run(deadline)))
        except HandlerFailed as failure:
            log.append(("raised", str(failure)))

    roots = 0
    for step in range(40):
        op = rng.random()
        if op < 0.4:
            engine.schedule(engine.now + rng.randrange(30),
                            EventKind.PACKET_ARRIVAL, f"r{roots}", handler)
            roots += 1
        elif op < 0.45:
            engine.request_stop()
        else:
            run(rng.choice((None, engine.now + rng.randrange(20))))
        log.append(("state", step, engine.now, engine.pending(),
                    engine.events_processed))
    for _ in range(20):  # stops and the failure each cut a run short
        run(None)
    log.append(("drained", engine.now, engine.pending(),
                engine.events_processed))
    return log


@settings(max_examples=150)
@given(st.integers(min_value=0, max_value=2 ** 32))
def test_engine_matches_a_sorted_list_reference(seed):
    expected = _drive(SortedListEngine(), seed)
    assert _drive(Engine(), seed) == expected


# -- links ------------------------------------------------------------------

def test_serialization_times_match_rate():
    slow = Link(19200, propagation_ticks=0)
    fast = Link(1_000_000, propagation_ticks=0)
    assert slow.serialization_ticks(8000) == 416_667  # 8000/19200 s, rounded
    assert fast.serialization_ticks(8000) == 8_000


def test_transmit_occupies_the_link():
    link = Link(1_000_000, propagation_ticks=10_000)
    arrival = link.transmit(8000, at=0)
    assert arrival == 18_000  # serialization + propagation
    assert link.busy_until == 8_000
    with pytest.raises(LinkBusyError):
        link.transmit(8000, at=4_000)
    assert link.idle_at(8_000)
    link.transmit(8000, at=8_000)


def test_zero_size_packet_pays_propagation_only():
    link = Link(19200, propagation_ticks=10_000)
    assert link.transmit(0, at=0) == 10_000


# -- buffers ----------------------------------------------------------------

def test_drop_tail_counting():
    buf = NodeBuffer(3)
    admitted = [buf.enqueue_or_drop() for _ in range(10)]
    assert admitted == [True] * 3 + [False] * 7
    assert buf.occupancy == 3
    assert buf.dropped == 7
    buf.release()
    assert buf.enqueue_or_drop()


def test_buffer_release_underflow_is_a_bug():
    buf = NodeBuffer(1)
    with pytest.raises(RuntimeError):
        buf.release()


def test_buffer_capacity_validation():
    # every NodeBuffer takes its capacity from a Topology, which checks it
    for capacity in (0, -1, True, 1.5):
        with pytest.raises(ValueError, match="buffer_capacity"):
            Topology((LinkSpec(19200, 0.01),), buffer_capacity=capacity)


# -- topology ---------------------------------------------------------------

def test_chain_shape():
    topo = Topology((LinkSpec(19200, 0.01),) * 3, buffer_capacity=2)
    assert topo.node_count == 4


def test_unloaded_rtt_sums_hops_and_ack_return():
    topo = Topology((LinkSpec(19200, 0.01),) * 3)
    # forward: 3 x (serialization + propagation); ack: 3 x propagation
    expected_ticks = 3 * (416_667 + 10_000) + 3 * 10_000
    assert seconds_to_ticks(topo.unloaded_rtt(8000)) == expected_ticks


@pytest.mark.parametrize("rate,propagation", [
    (0, 0.01), (-19200, 0.01), (19200, -0.01), (19200, float("inf")),
    (19200, float("nan")), (19200, 1e305),
])
def test_link_spec_validation(rate, propagation):
    with pytest.raises(ValueError):
        LinkSpec(rate, propagation)


def test_topology_validation():
    with pytest.raises(ValueError):
        Topology(())
