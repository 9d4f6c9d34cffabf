"""Deterministic discrete-event simulation core.

Time is kept as an integer number of ticks (one tick = 1 microsecond) so that
event ordering never depends on floating-point rounding and a run can be
replayed bit for bit on any platform.  Ties on the event clock are broken by
scheduling order (FIFO).  The engine only orders events and calls their
handlers: each event is a handler and a payload, run as handler(payload, now).

    TICKS_PER_SECOND   tick resolution
    Engine             event queue + clock
    Link               point-to-point link with store-and-forward timing
    NodeBuffer         finite drop-tail buffer, counts its own drops
    Topology           serial chain description
    substream          independent seeded random stream per label
"""
from __future__ import annotations

import math
import random
import re
from enum import Enum
from heapq import heappop, heappush
from typing import Any, Callable, Optional

from .record import Record, require_count, require_finite

TICKS_PER_SECOND = 1_000_000


def seconds_to_ticks(seconds: float) -> int:
    """Quantize a duration in seconds to the nearest whole tick."""
    return round(seconds * TICKS_PER_SECOND)


def has_finite_ticks(seconds: float) -> bool:
    """True when seconds_to_ticks can convert the duration: it is finite
    and so is its product with TICKS_PER_SECOND."""
    return math.isfinite(seconds * TICKS_PER_SECOND)


def ticks_to_seconds(ticks: int) -> float:
    # Division (not multiplication by 1e-6): exact whenever the quotient is
    # representable, which keeps small tick counts bit-exact in float form.
    return ticks / TICKS_PER_SECOND


#: format_ticks' form; [0-9] matches ASCII digits only
_TICKS_FORM = re.compile(r"-?(?:0|[1-9][0-9]*)\.[0-9]{6}").fullmatch


def format_ticks(ticks: int) -> str:
    """Render a tick count as fixed-point seconds with 6 decimal places.

    Integer arithmetic throughout, so the output is exact for any magnitude.
    """
    if ticks < 0:
        return "-" + format_ticks(-ticks)
    whole, frac = divmod(ticks, TICKS_PER_SECOND)
    return f"{whole}.{frac:06d}"


def parse_ticks(text: str) -> int:
    """Inverse of format_ticks, accepting only the form it writes: an
    optional "-", ASCII whole seconds without a leading zero (0 itself
    aside), "." and exactly 6 ASCII decimals, and never -0.000000.
    Anything else, such as `1`, `1.5`, `01.000000` or a seventh decimal,
    raises ValueError."""
    if not _TICKS_FORM(text) or text == "-0.000000":
        raise ValueError(f"bad time {text!r}: expected seconds with exactly "
                         "6 decimal places, as format_ticks writes them")
    # six decimals make the text without its "." the tick count
    return int(text.replace(".", ""))


def substream(seed: int, label: str) -> random.Random:
    """Derive an independent random stream from a scenario seed and a label.

    String seeding goes through SHA-512 inside random.Random, so the mapping
    is stable across platforms and interpreter runs.
    """
    return random.Random(f"{seed}/{label}")


class SchedulingError(ValueError):
    """Raised when an event is scheduled before the current clock."""


class LinkBusyError(RuntimeError):
    """Raised when a transmission is started on a busy link (caller bug)."""


class EventKind(Enum):
    PACKET_ARRIVAL = "packet_arrival"
    TRANSMISSION_COMPLETE = "transmission_complete"
    TIMER_EXPIRY = "timer_expiry"
    ACK_ARRIVAL = "ack_arrival"


class Engine:
    """Event queue ordered by (time, sequence number): FIFO on ties.

    A queue entry is the plain tuple (time, seq, handler, payload), and
    running it calls handler(payload, now).  The event kind given to
    `schedule` is not stored; it only names the event in a SchedulingError.

    `events_processed` counts the events handled over the engine's life.
    It is brought up to date once per `run`, when the run returns or a
    handler raises out of it (the event whose handler raised does not
    count), so a handler reads the count as it stood when its run began.
    """

    def __init__(self) -> None:
        self.now: int = 0
        self._seq = 0
        self._queue: list[tuple[int, int, Callable[[Any, int], None], Any]] = []
        self._stop_requested = False
        self.events_processed = 0

    def schedule(self, time: int, kind: EventKind, payload: Any,
                 handler: Callable[[Any, int], None]) -> None:
        if time < self.now:
            raise SchedulingError(
                f"cannot schedule {kind.value} at {time}: clock is at {self.now}")
        seq = self._seq
        self._seq = seq + 1
        heappush(self._queue, (time, seq, handler, payload))

    def request_stop(self) -> None:
        """Stop the run after the event currently being processed.  A stop
        requested between runs ends the next run before its first event."""
        self._stop_requested = True

    def pending(self) -> int:
        return len(self._queue)

    def run(self, deadline: Optional[int] = None) -> int:
        """Process events until the queue empties, the deadline passes or a
        stop is requested.

        Returns the number of events processed.  The clock follows the events:
        after the run it reads the time of the last processed event (an empty
        queue leaves it untouched, never advanced to the deadline).
        """
        queue = self._queue
        pop = heappop
        limit = math.inf if deadline is None else deadline
        processed = 0
        try:
            while queue and not self._stop_requested:
                time = queue[0][0]
                if time > limit:
                    break
                _, _, handler, payload = pop(queue)
                self.now = time
                handler(payload, time)
                processed += 1
        finally:
            self._stop_requested = False
            self.events_processed += processed
        return processed


class Link:
    """Point-to-point link.  Arrival = start + size/rate + propagation."""

    __slots__ = ("rate_bps", "propagation_ticks", "busy_until")

    def __init__(self, rate_bps: int, propagation_ticks: int) -> None:
        self.rate_bps = rate_bps
        self.propagation_ticks = propagation_ticks
        self.busy_until = 0

    def serialization_ticks(self, size_bits: int) -> int:
        # rounded integer division: size/rate seconds at tick resolution
        num = size_bits * TICKS_PER_SECOND
        return (num + self.rate_bps // 2) // self.rate_bps

    def idle_at(self, at: int) -> bool:
        return at >= self.busy_until

    def transmit(self, size_bits: int, at: int) -> int:
        """Occupy the link and return the far-end arrival tick."""
        if at < self.busy_until:
            raise LinkBusyError(
                f"link busy until {self.busy_until}, transmit requested at {at}")
        ser = self.serialization_ticks(size_bits)
        self.busy_until = at + ser
        return at + ser + self.propagation_ticks


class NodeBuffer:
    """Finite drop-tail buffer.  Occupancy counts packets, not bytes."""

    __slots__ = ("capacity", "occupancy", "dropped")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("buffer capacity must be >= 1")
        self.capacity = capacity
        self.occupancy = 0
        self.dropped = 0

    def enqueue_or_drop(self) -> bool:
        """Admit one packet if space remains.  Returns True when enqueued."""
        if self.occupancy >= self.capacity:
            self.dropped += 1
            return False
        self.occupancy += 1
        return True

    def release(self) -> None:
        if self.occupancy <= 0:
            raise RuntimeError("release on an empty buffer")
        self.occupancy -= 1


class LinkSpec(Record):
    rate_bps: int
    propagation: float  # seconds

    def __post_init__(self) -> None:
        require_count(self, "rate_bps")
        require_finite(self, "propagation")
        if not (has_finite_ticks(self.propagation) and self.propagation >= 0):
            raise ValueError(f"propagation must be >= 0 with a finite tick "
                             f"count, got {self.propagation}")


class Topology(Record):
    """Serial chain: node 0 is the source, the last node the destination.

    links[i] joins node i to node i+1; every interior node forwards with a
    drop-tail buffer of `buffer_capacity` packets.
    """

    links: tuple[LinkSpec, ...]
    buffer_capacity: int = 2

    def __post_init__(self) -> None:
        if len(self.links) < 1:
            raise ValueError("a chain needs at least one link (two nodes)")
        require_count(self, "buffer_capacity")

    @property
    def node_count(self) -> int:
        return len(self.links) + 1

    def unloaded_rtt(self, size_bits: int) -> float:
        """One packet through an idle chain plus the ack's return path."""
        total = 0
        for spec in self.links:
            link = Link(spec.rate_bps, seconds_to_ticks(spec.propagation))
            total += link.serialization_ticks(size_bits) + link.propagation_ticks
        total += sum(seconds_to_ticks(spec.propagation) for spec in self.links)
        return ticks_to_seconds(total)
