"""Deterministic discrete-event simulation core.

Time is kept as an integer number of ticks (one tick = 1 microsecond) so that
event ordering never depends on floating-point rounding and a run can be
replayed bit for bit on any platform.  The engine only orders events and
calls their handlers: each event is a handler and a payload, run as
handler(payload, now).  Its queue is bucketed by tick, a heap of due ticks
with one FIFO bucket of events per tick.  Order rule: events run in
increasing time, ties in scheduling order, so an event scheduled at the
current tick runs after every event already queued for that tick.

    TICKS_PER_SECOND     tick resolution
    Engine               tick-bucketed event queue + clock
    serialization_ticks  a packet's transmission time on a link, in ticks
    Topology             serial chain description
    substream            independent seeded random stream per label
"""
from __future__ import annotations

import math
import random
import re
from enum import Enum
from heapq import heappop, heappush
from typing import Any, Callable, Optional

from .record import Count, Finite, Record

TICKS_PER_SECOND = 1_000_000


def seconds_to_ticks(seconds: float) -> int:
    """Quantize a duration in seconds to the nearest whole tick."""
    return round(seconds * TICKS_PER_SECOND)


def has_finite_ticks(seconds: float) -> bool:
    """True when seconds_to_ticks can convert the duration: it is finite
    and so is its product with TICKS_PER_SECOND."""
    return math.isfinite(seconds * TICKS_PER_SECOND)


def serialization_ticks(size_bits: int, rate_bps: int) -> int:
    """size_bits / rate_bps seconds, rounded to the nearest tick (half
    up) in integer arithmetic."""
    return (size_bits * TICKS_PER_SECOND + rate_bps // 2) // rate_bps


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


class EventKind(Enum):
    PACKET_ARRIVAL = "packet_arrival"
    TRANSMISSION_COMPLETE = "transmission_complete"
    TIMER_EXPIRY = "timer_expiry"
    ACK_ARRIVAL = "ack_arrival"


class Engine:
    """Event queue and clock: events run in order of (time, scheduling
    order), FIFO on ties.

    The queue is bucketed by tick.  `_ticks` is a heap of plain-int due
    ticks, each held once: a tick is pushed when its first event is
    scheduled.  `_buckets` maps each due tick to its events in scheduling
    order, a lone event as the bare pair (handler, payload) and two or more
    as a list of pairs.  `_shared` counts the events beyond the first of
    their tick, so that `pending()` is exact without a count kept for the
    lone event of a tick.  Running an event calls handler(payload, now).
    The event kind given to `schedule` is not stored; it only names the
    event in a SchedulingError.

    Order rule: ticks run in increasing order, and a tick's events in the
    order they were scheduled.  `run` takes a tick's bucket out of
    `_buckets` before running it, so an event that a handler schedules at
    the current tick opens a new bucket for that tick, which runs after
    everything already queued there.  While a bucket of two or more runs,
    `_draining` holds its events not yet run, last first; when a stop or a
    raising handler cuts the bucket short, they go back to the head of
    their tick, ahead of any events scheduled there since.

    `events_processed` counts the events handled over the engine's life.
    It is brought up to date once per `run`, when the run returns or a
    handler raises out of it (the event whose handler raised does not
    count), so a handler reads the count as it stood when its run began.
    """

    def __init__(self) -> None:
        self.now: int = 0
        self._ticks: list[int] = []
        self._buckets: dict[int, Any] = {}
        self._shared = 0
        self._draining: list[tuple[Callable[[Any, int], None], Any]] = []
        self._stop_requested = False
        self.events_processed = 0

    def schedule(self, time: int, kind: EventKind, payload: Any,
                 handler: Callable[[Any, int], None]) -> None:
        if time < self.now:
            raise SchedulingError(
                f"cannot schedule {kind.value} at {time}: clock is at {self.now}")
        event = (handler, payload)
        bucket = self._buckets.setdefault(time, event)
        if bucket is event:
            heappush(self._ticks, time)
            return
        if type(bucket) is list:
            bucket.append(event)
        else:
            self._buckets[time] = [bucket, event]
        self._shared += 1

    def request_stop(self) -> None:
        """Stop the run after the event currently being processed.  A stop
        requested between runs ends the next run before its first event."""
        self._stop_requested = True

    def pending(self) -> int:
        """Events queued and not yet run, also inside a handler: one per
        due tick, the shared ones, and the rest of the bucket being run."""
        return len(self._buckets) + self._shared + len(self._draining)

    def run(self, deadline: Optional[int] = None) -> int:
        """Process events until the queue empties, the deadline passes or a
        stop is requested.

        Returns the number of events processed.  The clock follows the events:
        after the run it reads the time of the last processed event (an empty
        queue leaves it untouched, never advanced to the deadline).

        An event at the deadline still runs; one past it stays queued.  A
        tick is compared with the deadline only when one is given, int with
        int, so a run without one pays no compare per tick; an int against
        a float infinity would be a compare the interpreter leaves generic.
        """
        ticks = self._ticks
        buckets = self._buckets
        pop = heappop
        processed = 0
        try:
            while ticks and not self._stop_requested:
                time = pop(ticks)
                if deadline is not None and time > deadline:
                    heappush(ticks, time)
                    break
                bucket = buckets.pop(time)
                self.now = time
                if type(bucket) is not list:
                    handler, payload = bucket
                    handler(payload, time)
                    processed += 1
                    continue
                self._shared -= len(bucket) - 1
                bucket.reverse()
                self._draining = bucket
                take = bucket.pop
                while bucket:
                    handler, payload = take()
                    handler(payload, time)
                    processed += 1
                    if self._stop_requested:
                        break
        finally:
            self._stop_requested = False
            self.events_processed += processed
            if self._draining:
                self._requeue()
        return processed

    def _requeue(self) -> None:
        """Put the events of a bucket cut short back at the head of their
        tick, ahead of any scheduled there while it ran."""
        rest = self._draining
        self._draining = []
        rest.reverse()
        time = self.now
        later = self._buckets.get(time)
        if later is None:
            heappush(self._ticks, time)
            self._shared += len(rest) - 1
        else:
            self._shared += len(rest)
            if type(later) is list:
                rest += later
            else:
                rest.append(later)
        self._buckets[time] = rest


class LinkSpec(Record):
    rate_bps: Count
    propagation: Finite  # seconds

    def __post_init__(self) -> None:
        if not (has_finite_ticks(self.propagation) and self.propagation >= 0):
            raise ValueError(f"propagation must be >= 0 with a finite tick "
                             f"count, got {self.propagation}")


class Topology(Record):
    """Serial chain: node 0 is the source, the last node the destination.

    links[i] joins node i to node i+1; every interior node forwards with a
    drop-tail buffer of `buffer_capacity` packets.
    """

    links: tuple[LinkSpec, ...]
    buffer_capacity: Count = 2

    def __post_init__(self) -> None:
        if len(self.links) < 1:
            raise ValueError("a chain needs at least one link (two nodes)")

    @property
    def node_count(self) -> int:
        return len(self.links) + 1

    def unloaded_rtt(self, size_bits: int) -> float:
        """One packet through an idle chain plus the ack's return path."""
        # forward: each hop's serialization and propagation; the ack
        # returns paying each hop's propagation only
        total = 0
        for spec in self.links:
            total += (serialization_ticks(size_bits, spec.rate_bps)
                      + 2 * seconds_to_ticks(spec.propagation))
        return ticks_to_seconds(total)
