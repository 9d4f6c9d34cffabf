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
at call time.  A copy's final arrival runs the Receiver, which answers it
and queues the ack to the sender's on_ack, and on_ack applies each newly
acked packet's sample in its own loop.  The path also keeps to the
operations the interpreter specializes (PEP 659):

  * no enum member load: the event kinds are module constants and the
    retransmit scope is a bool read at construction, since no interpreter
    up to 3.13 specializes a load from an Enum class;
  * handlers bound once: each object binds its event handlers in
    __init__, so the queued events of one kind share one handler object
    instead of a bound method built per schedule;
  * one frame and one tuple display per row: the recorder reads the
    sender's state through its read interface (see Connection) and
    writes all eight columns at once, the estimate's own float objects
    among them, with no builder called back and no tuple concatenated;
  * no class call per timer: a timer's RetryState comes from
    `timeout.new_retry_state`, its only constructor, since 3.11 leaves a
    call of a class with a Python __init__ generic;
  * policies bound once: the layer-2 policy and its increase scheme are
    read in __init__, since a class attribute or property loaded through
    an instance stays generic;
  * arguments by position: Python 3.11 leaves a call with keyword names
    generic, so extract_sample gets its floor, and record_drop its
    location, by position;
  * no set work on an in-order arrival: with nothing cached past a gap,
    the Receiver moves its cumulative ack up by one and tests the cache
    with `len() == 0`, since 3.13 leaves a set's truth test generic;
  * no deadline compare without a deadline: `Engine.run` compares a tick
    only with a deadline it was given, since an int compared with a float
    infinity stays generic;
  * one float per armed length: an arm of the tick count armed last
    reuses that arm's interval float instead of dividing again (the same
    int over the tick rate is the same double, so no value changes), and
    layer 1's `Ewma` returns an unmoved estimate itself (see
    `Ewma.update`), so the rows that record them share one object.

Acks (AckPacket), the send records in `outstanding`
(`estimators.TransmissionRecord`), estimates (`estimators.Estimate`) and
trace rows (`metrics.Row`) are all exact tuples, since only an exact
tuple's unpacking and indexing are specialized; the collector also
untracks an exact tuple of plain values, so a run's rows stay off its
walks.

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
from typing import Callable, Optional

from .estimators import (
    Layer1Policy,
    Layer2Policy,
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
    TICKS_PER_SECOND,
    Topology,
    seconds_to_ticks,
    serialization_ticks,
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
    new_retry_state,
)

# The event kinds, bound once: a member load from an Enum class stays
# generic on 3.11 to 3.13 (on 3.11 EnumType defines __getattr__),
# where a module constant loads through a specialized LOAD_GLOBAL.
_PACKET_ARRIVAL = EventKind.PACKET_ARRIVAL
_TRANSMISSION_COMPLETE = EventKind.TRANSMISSION_COMPLETE
_TIMER_EXPIRY = EventKind.TIMER_EXPIRY
_ACK_ARRIVAL = EventKind.ACK_ARRIVAL
#: TICKS_PER_SECOND as a float, for a float-by-float product
_TICKS_PER_SECOND_FLOAT = float(TICKS_PER_SECOND)


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


#: cumulative acknowledgment: (cumulative_ack, echo_packet_id,
#: echoed_copy_number); the echo fields name the arriving copy that
#: triggered it, and the sender decides whether to trust them
AckPacket = tuple[int, int, int]


class Receiver:
    """Infinite receive buffer, and the handler of each copy's final
    arrival, the exact tuple (node, packet_id, copy_number): it answers
    every copy, duplicates included so that lost acks heal, with a
    cumulative ack to `deliver_ack`, which the Connection installs, sent
    `ack_ticks` after the copy arrives.

    `_cached` maps each packet that arrived past a gap to the packet-id
    int of its arrival.  The in-order arrival with nothing cached, each
    first arrival at window 1, moves the cumulative ack up by one with no
    dict work; duplicates and out-of-order arrivals go through the dict,
    and a gap that fills moves the cumulative ack up to each cached
    arrival's int in turn.  So every ack carries the packet-id object of
    a copy that arrived, never an equal int made afresh."""

    def __init__(self, engine: Engine, ack_ticks: int) -> None:
        self.engine = engine
        self.ack_ticks = ack_ticks
        self.cumulative = 0
        self.duplicates = 0
        self._cached: dict[int, int] = {}

    def on_arrival(self, copy: tuple[int, int, int], now: int) -> None:
        _, packet_id, copy_number = copy
        # len() == 0, not `not`: 3.13 leaves a dict's TO_BOOL generic
        if packet_id == self.cumulative + 1 and len(self._cached) == 0:
            self.cumulative = packet_id
        elif packet_id <= self.cumulative or packet_id in self._cached:
            self.duplicates += 1
        else:
            self._cached[packet_id] = packet_id
            while self.cumulative + 1 in self._cached:
                self.cumulative = self._cached.pop(self.cumulative + 1)
        self.engine.schedule(now + self.ack_ticks, _ACK_ARRIVAL,
                             (self.cumulative, packet_id, copy_number),
                             self.deliver_ack)


class FixedDelayPath:
    """Constant-delay path with an optional synthetic per-copy drop rule.

    The full round-trip delay sits on the data direction, and the receiver
    (node 1) acks at once.  Synthetic drops are reported at location 0, the
    only node that sends.
    """

    def __init__(self, engine: Engine, recorder: TraceRecorder,
                 forward_ticks: int,
                 drop_fn: Optional[Callable[[int, int], bool]]) -> None:
        self.engine = engine
        self.receiver = Receiver(engine, 0)
        self.recorder = recorder
        self.forward_ticks = forward_ticks
        self.drop_fn = drop_fn
        self._arrival_handler = self.receiver.on_arrival

    def send_copy(self, packet_id: int, copy_number: int, now: int) -> None:
        # the rule read into a local is called through a specialized CALL
        drop_fn = self.drop_fn
        if drop_fn is not None and drop_fn(packet_id, copy_number):
            self.recorder.record_drop(now, packet_id, copy_number, 0)
            return
        self.engine.schedule(now + self.forward_ticks, _PACKET_ARRIVAL,
                             (1, packet_id, copy_number), self._arrival_handler)


class ChainPath:
    """Store-and-forward serial chain with drop-tail buffers.

    Link i joins node i to node i + 1.  A packet occupies an interior
    node's buffer from full arrival until its onward serialization
    completes; arrivals finding the buffer at capacity are dropped and
    counted against that node.  The source queues its own sends without
    limit (the window bounds them anyway).  The receiver's acks pay each
    link's propagation back.

    The packet size is fixed, so each link's serialization ticks are
    computed once.  The state sits in lists indexed by node, and a hop is
    one `_on_complete` and one `_on_arrival` event (the receiver's at the
    last node), each starting the next transmission itself.  A copy in
    flight is the exact tuple (node, packet_id, copy_number), node being
    where it queues or arrives.
    """

    def __init__(self, engine: Engine, recorder: TraceRecorder,
                 topology: Topology, packet_size_bits: int) -> None:
        self.engine = engine
        self.recorder = recorder
        links = topology.links
        #: per link: the packet's serialization and propagation ticks
        self.serialization = [serialization_ticks(packet_size_bits,
                                                  spec.rate_bps)
                              for spec in links]
        self.propagation = [seconds_to_ticks(spec.propagation)
                            for spec in links]
        #: per link: the tick its current transmission completes, and the
        #: copies queued at its sending node
        self.busy_until = [0] * len(links)
        self.waiting = [deque() for _ in links]
        #: per node: packets in its buffer, and arrivals it dropped; only
        #: the interior nodes buffer or drop
        self.occupancy = [0] * (len(links) + 1)
        self.drops = [0] * (len(links) + 1)
        self.capacity = topology.buffer_capacity
        self.reverse_ticks = sum(self.propagation)
        self.receiver = Receiver(engine, self.reverse_ticks)
        self._complete_handler = self._on_complete
        #: per link: the handler of an arrival at its far node
        self._arrival_handlers = ([self._on_arrival] * (len(links) - 1)
                                  + [self.receiver.on_arrival])

    def drops_per_node(self) -> list[int]:
        return list(self.drops)

    def send_copy(self, packet_id: int, copy_number: int, now: int) -> None:
        waiting = self.waiting[0]
        waiting.append((0, packet_id, copy_number))
        if now >= self.busy_until[0]:  # idle: send the head of the queue
            done = now + self.serialization[0]
            self.busy_until[0] = done
            self.engine.schedule(done, _TRANSMISSION_COMPLETE,
                                 waiting.popleft(), self._complete_handler)

    def _on_complete(self, copy: tuple[int, int, int], now: int) -> None:
        node, packet_id, copy_number = copy
        if node:  # the source holds no buffer
            self.occupancy[node] -= 1
        self.engine.schedule(now + self.propagation[node], _PACKET_ARRIVAL,
                             (node + 1, packet_id, copy_number),
                             self._arrival_handlers[node])
        # a copy sent in this tick before this event may hold the link
        waiting = self.waiting[node]
        if waiting and now >= self.busy_until[node]:
            done = now + self.serialization[node]
            self.busy_until[node] = done
            self.engine.schedule(done, _TRANSMISSION_COMPLETE,
                                 waiting.popleft(), self._complete_handler)

    def _on_arrival(self, copy: tuple[int, int, int], now: int) -> None:
        node, packet_id, copy_number = copy
        occupancy = self.occupancy
        if occupancy[node] >= self.capacity:
            self.drops[node] += 1
            self.recorder.record_drop(now, packet_id, copy_number, node)
            return
        occupancy[node] += 1
        waiting = self.waiting[node]
        waiting.append(copy)
        if now >= self.busy_until[node]:
            done = now + self.serialization[node]
            self.busy_until[node] = done
            self.engine.schedule(done, _TRANSMISSION_COMPLETE,
                                 waiting.popleft(), self._complete_handler)


class Connection:
    """Sending endpoint: window, retransmission timers, five-layer algorithm.

    Every setting comes from its `scenarios.Scenario`, read once here into
    the plain attributes that the per-event methods use.

    Read interface of the trace recorder (`metrics.TraceRecorder.follow`),
    which fills each row's state columns from it:

      estimate       the exact tuple (mean, variance), an
                     estimators.Estimate, replaced at each update
      packets_acked  packets 1..packets_acked are acknowledged
      timers         owner packet id -> the RetryState of its armed timer;
                     one dict for the sender's life
      per_packet     True in per-packet timer mode, False in single mode
    """

    def __init__(self, scenario, engine: Engine, path,
                 recorder: TraceRecorder) -> None:
        self.scenario = scenario
        self.engine = engine
        self.path = path
        self.algorithm = scenario.algorithm
        self.recorder = recorder
        self.estimate = (scenario.initial_mean, scenario.initial_variance)
        self.packet_count = scenario.packet_count
        self.window_size = scenario.window_size
        self.per_packet = scenario.timer_mode is TimerMode.PER_PACKET
        self._all_unacked = (scenario.retransmit_scope
                             is RetransmitScope.ALL_UNACKED)
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
        #: the layer-2 policy and its increase scheme, None for most
        self._layer2 = scenario.algorithm.layer2
        self._scheme = self._layer2.scheme
        #: running step or multiplier of the layer 2 increase scheme, if any
        self._increase_running: Optional[float] = None

        self.timers: dict[int, RetryState] = {}
        #: the tick count of the last timer armed, and its interval in seconds
        self._armed_ticks = 0
        self._armed_interval = 0.0

        self._timer_handler = self._on_timer
        path.receiver.deliver_ack = self.on_ack
        recorder.follow(self)

    # -- sending -----------------------------------------------------------

    def start(self) -> None:
        self.fill_window(self.engine.now)

    def fill_window(self, now: int) -> None:
        while (not self.disconnected
               and len(self.outstanding) < self.window_size
               and self.next_packet_id <= self.packet_count):
            packet_id = self.next_packet_id
            self.next_packet_id = packet_id + 1
            self.outstanding[packet_id] = (packet_id, [now])
            self.total_copies_sent += 1
            self.recorder.record(now, SEND, packet_id, 1)
            self.path.send_copy(packet_id, 1, now)
            if self.per_packet or not self.timers:
                self._start_timer(now, packet_id)

    # -- timer management --------------------------------------------------

    def _start_timer(self, now: int, owner: int) -> None:
        retry = self.timers[owner] = new_retry_state()
        self._arm(now, owner, retry,
                  first_timeout(self.estimate, self.algorithm.layer3))

    def _arm(self, now: int, owner: int, retry: RetryState,
             interval_s: float) -> None:
        # seconds_to_ticks, ticks_to_seconds and retry.arm, inlined.  The
        # float interval times the float tick rate is the double that
        # times the int rate gives, and only a float product specializes;
        # the true divisions stay generic, since no interpreter up to 3.13
        # specializes `/`
        try:
            ticks = round(interval_s * _TICKS_PER_SECOND_FLOAT)
        except (OverflowError, ValueError):
            # an interval past float range: the estimate has diverged
            retry.arm(math.inf)
            self.stopped_early = True
            self.engine.request_stop()
            return
        if ticks < 1:
            ticks = 1
        # An arm of the tick count armed last reuses that arm's float: the
        # same int divided by the tick rate is always the same double, so
        # only the object changes, the rows of every timer armed for that
        # length hold one float, and the `/` runs only on a new length
        if ticks == self._armed_ticks:
            interval = self._armed_interval
        else:
            interval = ticks / TICKS_PER_SECOND
            self._armed_ticks = ticks
            self._armed_interval = interval
        if retry.t0 is None:
            retry.t0 = interval
        retry.last_interval = interval
        retry.cumulative_timeout += interval
        self.engine.schedule(now + ticks, _TIMER_EXPIRY, owner,
                             self._timer_handler)

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
            record = outstanding.pop(pid)
            sample = extract_sample(record, now, self._layer2,
                                    self.sample_floor_ticks)
            if sample is not None and echoed_copy is not None:
                # a trusted echo names the answered copy: measure from it,
                # as from_copy would, clamped to the floor the same way
                times = record[1]
                sample = now - times[min(echoed_copy, len(times)) - 1]
                if sample <= 0:
                    sample = self.sample_floor_ticks
            if sample is not None:
                self.estimate = layer1_update(self.estimate,
                                              sample / TICKS_PER_SECOND,
                                              self.algorithm.layer1)
            elif self._scheme is not None:
                self.estimate, self._increase_running = increase_estimate(
                    self.estimate, self._scheme, self._increase_running)
            else:
                continue
            # the send record's packet id, the SEND row's own int object
            self.recorder.record(now, ESTIMATE_UPDATE, record[0], 0)
        self.packets_acked = cumulative
        timers = self.timers
        for pid in newly:
            if pid in timers:
                del timers[pid]  # its pending expiry goes stale
        if outstanding and not timers:
            self._start_timer(now, cumulative + 1)
        self.fill_window(now)
        if (self.stop_estimate_above is not None
                and self.estimate[0] > self.stop_estimate_above):
            self.stopped_early = True
            self.engine.request_stop()

    # -- timeout handling --------------------------------------------------

    def _on_timer(self, owner: int, now: int) -> None:
        retry = self.timers.get(owner)
        if retry is None:
            return  # stale: the owner was acked, or the sender gave up
        self.timeout_event_count += 1
        self.recorder.record(now, TIMEOUT, owner, 0)
        retry.packets_delivered = self.packets_acked
        if disconnect_decision(retry, self.algorithm.layer5):
            self.recorder.record(now, DISCONNECT, owner, 0)
            self.disconnected = True
            self.timers.clear()  # pending expiries go stale
            self.engine.request_stop()
            return
        if self._all_unacked:
            targets = list(self.outstanding)
        else:
            targets = (owner,)
        for pid in targets:
            send_times = self.outstanding[pid][1]
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
