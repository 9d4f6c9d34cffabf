"""Window-based transport endpoints driven by the simulation engine.

The sender (Connection) owns the five-layer timeout algorithm: it measures
delay samples from acknowledgments (layers 1-2), arms its retransmission
timer (layer 3), backs the timer off across retries (layer 4), and declares
the peer unreachable when the give-up policy says so (layer 5).

Every retransmission timer belongs to one outstanding packet, its owner.  In
per-packet mode each outstanding packet owns one; in single mode only the
oldest outstanding packet does, and when it is acknowledged a fresh timer
starts for the new oldest.

Acks are cumulative.  A retransmitted packet's ack is ambiguous unless copy
echoing is enabled AND the ack newly acknowledges exactly that one packet;
only then is the echoed copy number trusted as the measurement origin.

The per-event path makes no call that does no simulation work: each layer
is reached once per use through its one function, a module global looked up
at call time, and acks, Ewma estimates and rows are built with tuple.__new__.

Two path models carry copies to the receiver:

  FixedDelayPath  abstract path with a constant delay, all of it on the data
                  direction, and an optional synthetic per-copy drop rule
                  (loss studies)
  ChainPath       store-and-forward serial chain with finite drop-tail buffers
                  at the interior nodes (congestion studies); acks return as
                  zero-size control packets that only pay propagation delay
"""
from __future__ import annotations

import math
from collections import deque
from enum import Enum
from typing import Callable, NamedTuple, Optional

from .estimators import (
    FromCopy,
    Layer1Policy,
    Layer2Policy,
    RttEstimate,
    TransmissionRecord,
    extract_sample,
    increase_estimate,
    layer1_update,
)
from .metrics import (ACK, DISCONNECT, ESTIMATE_UPDATE, RETRANSMIT, SEND,
                      TIMEOUT, TraceRecorder)
from .record import Record
from .sim import (
    Engine,
    EventKind,
    Link,
    NodeBuffer,
    TICKS_PER_SECOND,
    Topology,
    seconds_to_ticks,
    substream,
)
from .timeout import (
    Layer3Policy,
    Layer4Policy,
    Layer5Policy,
    RetryState,
    backoff_interval,
    disconnect_decision,
    first_timeout,
)

_tuple_new = tuple.__new__


class TimeoutAlgorithm(Record):
    """One slot per layer; any combination is a complete algorithm."""

    layer1: Layer1Policy
    layer2: Layer2Policy
    layer3: Layer3Policy
    layer4: Layer4Policy
    layer5: Layer5Policy


class TimerMode(Enum):
    SINGLE = "single"
    PER_PACKET = "per_packet"


class RetransmitScope(Enum):
    TIMED_OUT_ONLY = "timed_out_only"
    ALL_UNACKED = "all_unacked"


class AckPacket(NamedTuple):
    """Cumulative acknowledgment.  The echo fields name the arriving copy
    that triggered this ack; the sender decides whether to trust them."""

    cumulative_ack: int
    echo_packet_id: int
    echoed_copy_number: int


class Receiver:
    """Infinite receive buffer; every arriving copy is answered instantly
    with a cumulative ack (duplicates included, so lost acks heal)."""

    def __init__(self) -> None:
        self.cumulative = 0
        self.duplicates = 0
        self._cached: set[int] = set()

    def on_copy(self, packet_id: int, copy_number: int) -> AckPacket:
        if packet_id <= self.cumulative or packet_id in self._cached:
            self.duplicates += 1
        else:
            self._cached.add(packet_id)
            while self.cumulative + 1 in self._cached:
                self._cached.remove(self.cumulative + 1)
                self.cumulative += 1
        return _tuple_new(AckPacket, (self.cumulative, packet_id, copy_number))


class FixedDelayPath:
    """Constant-delay path with an optional synthetic per-copy drop rule.

    The full round-trip delay sits on the data direction; acks return
    instantly.  Synthetic drops are reported at location 0, the only "node"
    this path has.
    """

    def __init__(self, engine: Engine, recorder: TraceRecorder,
                 forward_ticks: int,
                 drop_fn: Optional[Callable[[int, int], bool]]) -> None:
        self.engine = engine
        self.receiver = Receiver()
        self.recorder = recorder
        self.forward_ticks = forward_ticks
        self.drop_fn = drop_fn
        self.deliver_ack: Callable[[AckPacket, int], None] = lambda ack, now: None

    def send_copy(self, packet_id: int, copy_number: int, now: int) -> None:
        if self.drop_fn is not None and self.drop_fn(packet_id, copy_number):
            self.recorder.record_drop(now, packet_id, copy_number, location=0)
            return
        self.engine.schedule(now + self.forward_ticks, EventKind.PACKET_ARRIVAL,
                             (packet_id, copy_number), self._on_arrival)

    def _on_arrival(self, payload: tuple[int, int], now: int) -> None:
        packet_id, copy_number = payload
        ack = self.receiver.on_copy(packet_id, copy_number)
        self.engine.schedule(now, EventKind.ACK_ARRIVAL, ack, self.deliver_ack)


class ChainPath:
    """Store-and-forward serial chain with drop-tail buffers.

    A packet occupies an interior node's buffer from full arrival until its
    onward serialization completes; arrivals finding the buffer at capacity
    are dropped and counted against that node.  The source queues its own
    sends without limit (the window bounds them anyway).
    """

    def __init__(self, engine: Engine, recorder: TraceRecorder,
                 topology: Topology, packet_size_bits: int) -> None:
        self.engine = engine
        self.receiver = Receiver()
        self.recorder = recorder
        self.size_bits = packet_size_bits
        self.links = [Link(spec.rate_bps, seconds_to_ticks(spec.propagation))
                      for spec in topology.links]
        n = topology.node_count
        self.buffers: dict[int, NodeBuffer] = {
            node: NodeBuffer(topology.buffer_capacity)
            for node in range(1, n - 1)
        }
        self._queues: dict[int, deque] = {node: deque() for node in range(n - 1)}
        self._last_node = n - 1
        self.reverse_ticks = sum(link.propagation_ticks for link in self.links)
        self.deliver_ack: Callable[[AckPacket, int], None] = lambda ack, now: None

    def send_copy(self, packet_id: int, copy_number: int, now: int) -> None:
        self._queues[0].append((packet_id, copy_number))
        self._try_start(0, now)

    def drops_per_node(self) -> list[int]:
        counts = [0] * (self._last_node + 1)
        for node, buf in self.buffers.items():
            counts[node] = buf.dropped
        return counts

    def _try_start(self, node: int, now: int) -> None:
        link = self.links[node]
        if not self._queues[node] or not link.idle_at(now):
            return
        packet_id, copy_number = self._queues[node].popleft()
        arrival = link.transmit(self.size_bits, now)
        self.engine.schedule(link.busy_until, EventKind.TRANSMISSION_COMPLETE,
                             (node, packet_id, copy_number, arrival),
                             self._on_complete)

    def _on_complete(self, payload: tuple[int, int, int, int],
                     now: int) -> None:
        node, packet_id, copy_number, arrival = payload
        if node in self.buffers:
            self.buffers[node].release()
        self.engine.schedule(arrival, EventKind.PACKET_ARRIVAL,
                             (node + 1, packet_id, copy_number),
                             self._on_arrival)
        self._try_start(node, now)

    def _on_arrival(self, payload: tuple[int, int, int], now: int) -> None:
        node, packet_id, copy_number = payload
        if node == self._last_node:
            ack = self.receiver.on_copy(packet_id, copy_number)
            self.engine.schedule(now + self.reverse_ticks,
                                 EventKind.ACK_ARRIVAL, ack, self.deliver_ack)
            return
        if self.buffers[node].enqueue_or_drop():
            self._queues[node].append((packet_id, copy_number))
            self._try_start(node, now)
        else:
            self.recorder.record_drop(now, packet_id, copy_number,
                                      location=node)


class Connection:
    """Sending endpoint: window, retransmission timers, five-layer algorithm.

    Every setting comes from its `scenarios.Scenario`, read once here into
    the plain attributes that the per-event methods use.
    """

    def __init__(self, scenario, engine: Engine, path,
                 recorder: TraceRecorder) -> None:
        self.scenario = scenario
        self.engine = engine
        self.path = path
        self.algorithm = scenario.algorithm
        self.recorder = recorder
        self.estimate = RttEstimate(scenario.initial_mean,
                                    scenario.initial_variance)
        self.packet_count = scenario.packet_count
        self.window_size = scenario.window_size
        self._per_packet = scenario.timer_mode is TimerMode.PER_PACKET
        self.retransmit_scope = scenario.retransmit_scope
        self.copy_echo_enabled = scenario.copy_echo
        self.backoff_rng = substream(scenario.seed, "backoff")
        self.sample_floor_ticks = max(1,
                                      seconds_to_ticks(scenario.sample_floor))
        self.stop_estimate_above = scenario.stop_estimate_above

        self.disconnected = False
        self.next_packet_id = 1
        self.outstanding: dict[int, TransmissionRecord] = {}
        self.packets_acked = 0
        self.timeout_event_count = 0
        self.total_copies_sent = 0
        self.stopped_early = False
        #: running step or multiplier of the layer 2 increase scheme, if any
        self._increase_running: Optional[float] = None

        #: owner packet id -> the retry state of its armed timer
        self._timers: dict[int, RetryState] = {}

        path.deliver_ack = self.on_ack
        recorder.state_probe = self._probe

    # -- trace plumbing ----------------------------------------------------

    def _probe(self, packet_id: int) -> tuple[float, float, float, int]:
        """Estimate columns, then the armed interval and retry count of the
        timer covering the packet: its own timer in per-packet mode, the
        one timer in single mode; 0.0 and 0 when none is armed."""
        timers = self._timers
        if self._per_packet:
            retry = timers.get(packet_id)
        elif timers:
            retry, = timers.values()
        else:
            retry = None
        estimate = self.estimate
        if retry is None:
            return (estimate.mean_estimate, estimate.variance_estimate, 0.0, 0)
        return (estimate.mean_estimate, estimate.variance_estimate,
                retry.last_interval, retry.retry_count)

    # -- sending -----------------------------------------------------------

    def start(self) -> None:
        self.fill_window(self.engine.now)

    def fill_window(self, now: int) -> None:
        while (not self.disconnected
               and len(self.outstanding) < self.window_size
               and self.next_packet_id <= self.packet_count):
            packet_id = self.next_packet_id
            self.next_packet_id = packet_id + 1
            self.outstanding[packet_id] = TransmissionRecord(packet_id, [now])
            self.total_copies_sent += 1
            self.recorder.record(now, SEND, packet_id, 1)
            self.path.send_copy(packet_id, 1, now)
            if self._per_packet or not self._timers:
                self._start_timer(now, packet_id)

    # -- timer management --------------------------------------------------

    def _start_timer(self, now: int, owner: int) -> None:
        retry = self._timers[owner] = RetryState()
        self._arm(now, owner, retry,
                  first_timeout(self.estimate, self.algorithm.layer3))

    def _arm(self, now: int, owner: int, retry: RetryState,
             interval_s: float) -> None:
        # seconds_to_ticks, ticks_to_seconds and retry.arm, inlined
        try:
            ticks = round(interval_s * TICKS_PER_SECOND)
        except (OverflowError, ValueError):
            # an interval past float range: the estimate has diverged
            retry.arm(math.inf)
            self.stopped_early = True
            self.engine.request_stop()
            return
        if ticks < 1:
            ticks = 1
        interval = ticks / TICKS_PER_SECOND
        if retry.t0 is None:
            retry.t0 = interval
        retry.last_interval = interval
        retry.cumulative_timeout += interval
        self.engine.schedule(now + ticks, EventKind.TIMER_EXPIRY, owner,
                             self._on_timer)

    # -- acknowledgment handling -------------------------------------------

    def on_ack(self, ack: AckPacket, now: int) -> None:
        if self.disconnected:
            return
        cumulative, echo_packet_id, echoed_copy = ack
        self.recorder.record(now, ACK, cumulative, echoed_copy)
        # Packets 1..packets_acked are acknowledged and `outstanding` holds
        # the rest, packets_acked + 1 .. next_packet_id - 1, so the packets
        # this ack newly covers are a range.
        first = self.packets_acked + 1
        if cumulative < first:
            return  # duplicate ack: everything it covers is already acked
        newly = range(first, cumulative + 1)
        # the echo is trusted only when it names the one packet newly acked
        if not (self.copy_echo_enabled and cumulative == first
                and echo_packet_id == first):
            echoed_copy = None
        outstanding = self.outstanding
        for pid in newly:
            self._apply_sample(outstanding.pop(pid), now, echoed_copy)
        self.packets_acked = cumulative
        timers = self._timers
        for pid in newly:
            if pid in timers:
                del timers[pid]  # its pending expiry goes stale
        if outstanding and not timers:
            self._start_timer(now, cumulative + 1)
        self.fill_window(now)
        if (self.stop_estimate_above is not None
                and self.estimate.mean_estimate > self.stop_estimate_above):
            self.stopped_early = True
            self.engine.request_stop()

    def _apply_sample(self, record: TransmissionRecord, now: int,
                      echoed_copy: Optional[int]) -> None:
        policy = self.algorithm.layer2
        sample = extract_sample(record, now, policy,
                                floor=self.sample_floor_ticks)
        if sample is not None and echoed_copy is not None:
            # a trusted echo names the copy that was answered: measure from it
            sample = extract_sample(record, now, FromCopy(echoed_copy),
                                    floor=self.sample_floor_ticks)
        if sample is not None:
            self.estimate = layer1_update(self.estimate,
                                          sample / TICKS_PER_SECOND,
                                          self.algorithm.layer1)
            self.recorder.record(now, ESTIMATE_UPDATE, record.packet_id, 0)
        elif policy.scheme is not None:
            self.estimate, self._increase_running = increase_estimate(
                self.estimate, policy.scheme, self._increase_running)
            self.recorder.record(now, ESTIMATE_UPDATE, record.packet_id, 0)

    # -- timeout handling --------------------------------------------------

    def _on_timer(self, owner: int, now: int) -> None:
        retry = self._timers.get(owner)
        if retry is None:
            return  # stale: the owner was acked, or the sender gave up
        self.timeout_event_count += 1
        self.recorder.record(now, TIMEOUT, owner, 0)
        retry.packets_delivered = self.packets_acked
        if disconnect_decision(retry, self.algorithm.layer5):
            self.recorder.record(now, DISCONNECT, owner, 0)
            self.disconnected = True
            self._timers.clear()  # pending expiries go stale
            self.engine.request_stop()
            return
        if self.retransmit_scope is RetransmitScope.ALL_UNACKED:
            targets = list(self.outstanding)
        else:
            targets = (owner,)
        for pid in targets:
            send_times = self.outstanding[pid].copy_send_times
            if send_times[-1] == now:
                # another timer already resent this packet in the same tick
                continue
            send_times.append(now)  # later than every earlier copy
            copy_number = len(send_times)
            self.total_copies_sent += 1
            self.recorder.record(now, RETRANSMIT, pid, copy_number)
            self.path.send_copy(pid, copy_number, now)
        retry.retry_count += 1
        self._arm(now, owner, retry,
                  backoff_interval(retry, self.algorithm.layer4,
                                   self.backoff_rng))
