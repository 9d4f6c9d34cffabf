"""Timeout interval selection, back-off, and give-up policies.

Three more layers on top of the delay estimate:

  * layer 3 - the interval armed for a fresh transmission (first_timeout)
  * layer 4 - how the interval evolves across retransmissions of the same
             packet (backoff_interval); t0 is retry 0 (RetryState.t0), t_i
             the interval armed after the i-th retransmission
  * layer 5 - when to declare the peer unreachable (disconnect_decision)

Each policy is a frozen Record (rtosim.record) that carries its own rule;
the functions validate the shared preconditions and delegate to it.
Durations are in the caller's unit; an optional cap t_max is applied after
every back-off rule that carries one.
"""
from __future__ import annotations

import math
import random
from typing import Optional, Union

from .estimators import Estimate
from .record import Count, Finite, Positive, Record

# ---------------------------------------------------------------------------
# layer 3: first timeout


class Scale(Record):
    """t0 = k * E."""

    ident = "scale"
    k: Positive = 4.0

    def first_interval(self, est: Estimate) -> float:
        return self.k * est[0]


class MeanPlusDeviation(Record):
    """t0 = E + k * sqrt(V)."""

    ident = "mean_plus_dev"
    k: Positive = 2.0

    def first_interval(self, est: Estimate) -> float:
        mean, variance = est
        if variance < 0:
            raise ValueError(f"variance must be >= 0, got {variance}")
        return mean + self.k * math.sqrt(variance)


class Clamped(Record):
    """t0 = clamp(k * E, t_min, t_max)."""

    ident = "clamped"
    k: Positive = 4.0
    t_min: Positive = 1.0
    t_max: Positive = 30.0

    def __post_init__(self) -> None:
        if self.t_min > self.t_max:
            raise ValueError(
                f"need t_min <= t_max, got [{self.t_min}, {self.t_max}]")

    def first_interval(self, est: Estimate) -> float:
        return max(self.t_min, min(self.k * est[0], self.t_max))


Layer3Policy = Union[Scale, MeanPlusDeviation, Clamped]


def first_timeout(est: Estimate, policy: Layer3Policy) -> float:
    """Interval to arm for a packet's first transmission.  Always > 0."""
    mean = est[0]
    if mean <= 0.0:  # float against float, a specialized comparison
        raise ValueError(
            f"estimate must be initialized with a positive mean, got {mean}")
    return policy.first_interval(est)


# ---------------------------------------------------------------------------
# layer 4: back-off across retransmissions


class RetryState:
    """Per-timer retry bookkeeping.  Build one with `new_retry_state()`.

    retry_count        retransmissions performed for the current packet
    t0                 the first interval armed, None until then
    last_interval      the interval armed most recently, None until then
    cumulative_timeout sum of every interval armed
    packets_delivered  connection-lifetime acknowledged-packet count, set
                       when a give-up decision is taken (feeds policies
                       whose patience grows with progress)

    The class has no __init__: Python 3.11 leaves a call of a class with a
    Python __init__ generic, and the sender starts a timer per packet.
    """

    __slots__ = ("retry_count", "t0", "last_interval", "cumulative_timeout",
                 "packets_delivered")
    retry_count: int
    t0: Optional[float]
    last_interval: Optional[float]
    cumulative_timeout: float
    packets_delivered: int

    def arm(self, interval: float) -> None:
        if self.t0 is None:
            self.t0 = interval
        self.last_interval = interval
        self.cumulative_timeout += interval


_object_new = object.__new__


def new_retry_state() -> RetryState:
    """A fresh RetryState, with no retry and no interval armed.

    A call of this function specializes in its caller; the slots are stored
    here, and only the allocation is a generic call."""
    state = _object_new(RetryState)
    state.retry_count = 0
    state.t0 = None
    state.last_interval = None
    state.cumulative_timeout = 0.0
    state.packets_delivered = 0
    return state


class NoBackoff(Record):
    """t_i = t0 for every retry."""

    ident = "none"
    t_max: Optional[Positive] = None

    def next_interval(self, state: RetryState,
                      rng: Optional[random.Random]) -> float:
        return state.t0


class ExponentialBackoff(Record):
    """t_i = b * t_{i-1}."""

    ident = "exp"
    b: Finite = 2.0
    t_max: Optional[Positive] = None

    def __post_init__(self) -> None:
        if self.b <= 1.0:
            raise ValueError(f"back-off base b must be > 1, got {self.b}")

    def next_interval(self, state: RetryState,
                      rng: Optional[random.Random]) -> float:
        return self.b * state.last_interval


class RandomExponentialBackoff(Record):
    """t_i drawn uniformly from [t_min, b**i * t0]."""

    ident = "rand_exp"
    b: Finite = 2.0
    t_min: Positive = 1e-6
    t_max: Optional[Positive] = None

    def __post_init__(self) -> None:
        if self.b <= 1.0:
            raise ValueError(f"back-off base b must be > 1, got {self.b}")

    def next_interval(self, state: RetryState,
                      rng: Optional[random.Random]) -> float:
        if rng is None:
            raise ValueError("random back-off needs a seeded random stream")
        try:
            upper = self.b ** state.retry_count * state.t0
        except OverflowError:
            # past float range: t_max caps the draw, or the timer diverges
            upper = math.inf
        return rng.uniform(min(self.t_min, upper), upper)


class LinearBackoff(Record):
    """t_i = t_{i-1} + delta_t."""

    ident = "linear"
    delta_t: Positive = 1.0
    t_max: Optional[Positive] = None

    def next_interval(self, state: RetryState,
                      rng: Optional[random.Random]) -> float:
        return state.last_interval + self.delta_t


Layer4Policy = Union[NoBackoff, ExponentialBackoff,
                     RandomExponentialBackoff, LinearBackoff]


def backoff_interval(state: RetryState, policy: Layer4Policy,
                     rng: Optional[random.Random] = None) -> float:
    """Interval t_i to arm after the state's latest retransmission (i >= 1)."""
    i = state.retry_count
    if i < 1:
        raise ValueError(
            f"back-off produces intervals for retry >= 1, state has {i}")
    if state.last_interval is None:
        raise ValueError("no interval has been armed yet")
    interval = policy.next_interval(state, rng)
    if policy.t_max is not None:
        interval = min(policy.t_max, interval)
    return interval


# ---------------------------------------------------------------------------
# layer 5: disconnection


class FixedRetries(Record):
    """Give up once r retransmissions have gone unanswered."""

    ident = "fixed_retries"
    r: Count = 10

    def give_up(self, state: RetryState) -> bool:
        return state.retry_count >= self.r


class GrowingRetries(Record):
    """Retry budget grows with delivered progress:

        r = base_r + floor(log2(1 + packets_delivered))

    A connection that has moved a lot of data earns more patience before the
    peer is declared unreachable.
    """

    ident = "growing_retries"
    base_r: Count = 10

    def budget(self, packets_delivered: int) -> int:
        return self.base_r + ((1 + packets_delivered).bit_length() - 1)

    def give_up(self, state: RetryState) -> bool:
        return state.retry_count >= self.budget(state.packets_delivered)


class TotalTimeAndRetries(Record):
    """Give up only when BOTH the summed timeout intervals reach g seconds
    and at least r retransmissions have gone unanswered."""

    ident = "time_and_retries"
    g: Positive = 20.0
    r: Count = 3

    def give_up(self, state: RetryState) -> bool:
        return (state.cumulative_timeout >= self.g
                and state.retry_count >= self.r)


Layer5Policy = Union[FixedRetries, GrowingRetries, TotalTimeAndRetries]


def disconnect_decision(state: RetryState, policy: Layer5Policy) -> bool:
    """True when the connection should be declared broken."""
    return policy.give_up(state)
