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

from .estimators import RttEstimate
from .record import Count, Finite, Positive, Record

# ---------------------------------------------------------------------------
# layer 3: first timeout


class Scale(Record):
    """t0 = k * E."""

    ident = "scale"
    k: Positive = 4.0

    def first_interval(self, est: RttEstimate) -> float:
        return self.k * est.mean_estimate


class MeanPlusDeviation(Record):
    """t0 = E + k * sqrt(V)."""

    ident = "mean_plus_dev"
    k: Positive = 2.0

    def first_interval(self, est: RttEstimate) -> float:
        if est.variance_estimate < 0:
            raise ValueError(
                f"variance must be >= 0, got {est.variance_estimate}")
        return est.mean_estimate + self.k * math.sqrt(est.variance_estimate)


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

    def first_interval(self, est: RttEstimate) -> float:
        return max(self.t_min, min(self.k * est.mean_estimate, self.t_max))


Layer3Policy = Union[Scale, MeanPlusDeviation, Clamped]


def first_timeout(est: RttEstimate, policy: Layer3Policy) -> float:
    """Interval to arm for a packet's first transmission.  Always > 0."""
    if est.mean_estimate <= 0:
        raise ValueError(
            f"estimate must be initialized with a positive mean, "
            f"got {est.mean_estimate}")
    return policy.first_interval(est)


# ---------------------------------------------------------------------------
# layer 4: back-off across retransmissions


class RetryState:
    """Per-timer retry bookkeeping.

    retry_count        retransmissions performed for the current packet
    t0                 the first interval armed, None until then
    last_interval      the interval armed most recently, None until then
    cumulative_timeout sum of every interval armed
    packets_delivered  connection-lifetime acknowledged-packet count, set
                       when a give-up decision is taken (feeds policies
                       whose patience grows with progress)
    """

    __slots__ = ("retry_count", "t0", "last_interval", "cumulative_timeout",
                 "packets_delivered")

    def __init__(self) -> None:
        self.retry_count = 0
        self.t0: Optional[float] = None
        self.last_interval: Optional[float] = None
        self.cumulative_timeout = 0.0
        self.packets_delivered = 0

    def arm(self, interval: float) -> None:
        if self.t0 is None:
            self.t0 = interval
        self.last_interval = interval
        self.cumulative_timeout += interval


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
