import bisect
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtosim.sim import (
    TICKS_PER_SECOND,
    Engine,
    EventKind,
    LinkSpec,
    SchedulingError,
    Topology,
    format_ticks,
    parse_ticks,
    seconds_to_ticks,
    serialization_ticks,
    substream,
    ticks_to_seconds,
)
from rtosim.transport import ChainPath


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


def test_ticks_past_float_range_keep_to_the_deadline():
    far = 10 ** 400  # no float holds it
    engine = Engine()
    seen = []

    def schedule(when):
        engine.schedule(when, EventKind.PACKET_ARRIVAL, None,
                        lambda payload, now: seen.append(now))

    schedule(far)
    assert engine.run(deadline=10 ** 399) == 0
    assert engine.pending() == 1 and engine.now == 0
    assert engine.run(deadline=far) == 1  # an event at the deadline runs
    assert engine.pending() == 0 and engine.now == far
    schedule(far + 1)
    assert engine.run() == 1
    assert seen == [far, far + 1] and engine.now == far + 1


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

class _Drops:
    """A recorder stand-in for a chain without a sender: it keeps each
    drop as (time, packet_id, copy, node)."""

    def __init__(self) -> None:
        self.drops: list[tuple[int, int, int, int]] = []

    def record_drop(self, time_ticks, packet_id, copy, location) -> None:
        self.drops.append((time_ticks, packet_id, copy, location))


def _chain(links, capacity=2, size_bits=8000):
    """A ChainPath on a fresh engine, with the (time, ack) pairs it
    delivers and its drop recorder."""
    engine, recorder = Engine(), _Drops()
    path = ChainPath(engine, recorder,
                     Topology(tuple(links), buffer_capacity=capacity),
                     size_bits)
    acks = []
    path.receiver.deliver_ack = lambda ack, now: acks.append((now, ack))
    return engine, path, acks, recorder


def test_serialization_times_match_rate():
    assert serialization_ticks(8000, 19200) == 416_667  # 8000/19200 s
    assert serialization_ticks(8000, 1_000_000) == 8_000
    # rounded to the nearest tick, a half tick up
    assert serialization_ticks(1, 2_000_000) == 1
    assert serialization_ticks(1, 3_000_000) == 0
    # the chain computes each link's ticks once, for its fixed size
    _, path, _, _ = _chain([LinkSpec(19200, 0.01), LinkSpec(1_000_000, 0)])
    assert path.serialization == [416_667, 8_000]
    assert path.propagation == [10_000, 0]


def test_a_copy_sent_on_a_busy_link_waits_for_it():
    engine, path, acks, _ = _chain([LinkSpec(1_000_000, 0.01)])
    path.send_copy(1, 1, 0)
    assert path.busy_until == [8_000]
    path.send_copy(2, 1, 4_000)  # the link is busy until 8_000
    assert path.busy_until == [8_000]
    assert len(path.waiting[0]) == 1
    engine.run()
    # the second starts when the first completes: serialization, then
    # propagation, then the ack's return propagation
    assert acks == [(28_000, (1, 1, 1)), (36_000, (2, 2, 1))]
    assert path.busy_until == [16_000]
    # a copy sent on the idle link starts at once
    path.send_copy(3, 1, engine.now)
    assert path.busy_until == [36_000 + 8_000]
    assert not path.waiting[0]


def test_a_link_is_idle_from_the_tick_its_transmission_completes():
    # a copy sent at that tick, before the completion event runs, starts
    # at once, and the completion then leaves the link to it
    engine, path, acks, _ = _chain([LinkSpec(1_000_000, 0)])
    path.send_copy(1, 1, 0)
    path.send_copy(2, 1, 8_000)
    assert path.busy_until == [16_000] and not path.waiting[0]
    engine.run()
    assert acks == [(8_000, (1, 1, 1)), (16_000, (2, 2, 1))]


def test_zero_size_packet_pays_propagation_only():
    engine, path, acks, _ = _chain([LinkSpec(19200, 0.01)], size_bits=0)
    path.send_copy(1, 1, 0)
    engine.run()
    assert acks == [(20_000, (1, 1, 1))]  # 10 ms out, 10 ms back


# -- buffers ----------------------------------------------------------------

def test_drop_tail_counting():
    # a fast ingress feeds a slow egress: node 1 admits 3 and drops 7
    engine, path, acks, recorder = _chain(
        [LinkSpec(1_000_000, 0), LinkSpec(19200, 0)], capacity=3)
    for packet_id in range(1, 11):
        path.send_copy(packet_id, 1, 0)
    engine.run(deadline=100_000)
    assert path.occupancy == [0, 3, 0]
    assert path.drops == [0, 7, 0]
    assert path.drops_per_node() == [0, 7, 0]
    assert recorder.drops == [(8_000 * packet_id, packet_id, 1, 1)
                              for packet_id in range(4, 11)]
    # the first copy's onward transmission completes and frees its slot
    engine.run(deadline=8_000 + 416_667)
    assert path.occupancy == [0, 2, 0]
    path.send_copy(11, 1, engine.now)
    engine.run(deadline=engine.now + 8_000)
    assert path.occupancy == [0, 3, 0]
    assert path.drops == [0, 7, 0]
    # drained, every admitted copy is delivered and the buffer is empty
    engine.run()
    assert path.occupancy == [0, 0, 0]
    assert [ack[1] for _, ack in acks] == [1, 2, 3, 11]


def test_the_source_and_destination_neither_buffer_nor_drop():
    engine, path, acks, recorder = _chain([LinkSpec(19200, 0)], capacity=1)
    for packet_id in range(1, 6):
        path.send_copy(packet_id, 1, 0)
    assert len(path.waiting[0]) == 4  # the source queues without limit
    engine.run()
    assert len(acks) == 5 and recorder.drops == []
    assert path.occupancy == [0, 0] and path.drops_per_node() == [0, 0]


def test_buffer_capacity_validation():
    # every chain buffer takes its capacity from a Topology, which checks it
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
