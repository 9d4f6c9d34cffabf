"""Round-trip delay estimation.

Two concerns live here, kept as pure state-passing functions and frozen
policy records (rtosim.record.Record) that carry their own behaviour:

  * layer 1 - how a new delay sample updates the running estimate
             (ewma, ewma_shift, mills, edge)
  * layer 2 - which sample, if any, to extract when a packet was sent more
             than once and the acknowledgment does not say which copy it
             answers (from_first, from_last, from_copy, ignore, and the
             four ignore_increase_* policies)

All durations are plain numbers in the caller's unit.  The EWMA core uses the
increment form E + (1-a)*(S-E): it is algebraically identical to a*E+(1-a)*S
and, unlike the two-product form, can never round outside [min(E,S), max(E,S)].
"""
from __future__ import annotations

from typing import NamedTuple, Optional, Union

from .record import Record, require_count, require_finite, require_positive

#: Default clamp for a non-positive extracted sample: one simulation tick.
DEFAULT_SAMPLE_FLOOR = 1e-6

#: builds a NamedTuple without its constructor's Python frame
_tuple_new = tuple.__new__


class RttEstimate(NamedTuple):
    """Running delay estimate: the smoothed mean and the smoothed variance
    only; the trace's estimate_update rows count the updates."""

    mean_estimate: float
    variance_estimate: float = 0.0


def _check_sample(sample: float) -> None:
    if sample < 0:
        raise ValueError(f"delay sample must be >= 0, got {sample}")


def _blend(old: float, new: float, keep: float) -> float:
    # keep*old + (1-keep)*new, computed in increment form
    return old + (1.0 - keep) * (new - old)


# ---------------------------------------------------------------------------
# layer 1: validated parameters plus update(est, sample)


class Ewma(Record):
    ident = "ewma"
    alpha: float = 0.5

    def __post_init__(self) -> None:
        require_finite(self, "alpha")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")

    def update(self, est: RttEstimate, sample: float) -> RttEstimate:
        """E <- alpha*E + (1-alpha)*S, with _check_sample and _blend inlined."""
        if sample < 0:
            _check_sample(sample)
        mean, variance = est
        mean += (1.0 - self.alpha) * (sample - mean)
        return _tuple_new(RttEstimate, (mean, variance))


class EwmaShift(Record):
    ident = "ewma_shift"
    n: int = 3

    def __post_init__(self) -> None:
        require_count(self, "n")

    def update(self, est: RttEstimate, sample: float) -> RttEstimate:
        """E <- E + 2**-n * (S - E), i.e. ewma with alpha = 1 - 2**-n.

        The shift-friendly form: the weight is an exact power of two, so this
        is bit-identical to Ewma at the corresponding alpha.
        """
        _check_sample(sample)
        keep = 1.0 - 2.0 ** -self.n
        return RttEstimate(_blend(est.mean_estimate, sample, keep),
                           est.variance_estimate)


class Mills(Record):
    ident = "mills"
    alpha1: float = 15.0 / 16.0
    alpha2: float = 3.0 / 4.0

    def __post_init__(self) -> None:
        require_finite(self, "alpha1", "alpha2")
        if not (0.0 < self.alpha2 < self.alpha1 < 1.0):
            raise ValueError(
                f"need 0 < alpha2 < alpha1 < 1, got {self.alpha1}, {self.alpha2}")

    def update(self, est: RttEstimate, sample: float) -> RttEstimate:
        """Asymmetric smoothing: weight alpha1 when the sample falls below
        the estimate, alpha2 otherwise.  A sample exactly equal to the
        estimate takes the alpha2 branch (the value is the same either way).
        """
        _check_sample(sample)
        keep = self.alpha1 if sample < est.mean_estimate else self.alpha2
        return RttEstimate(_blend(est.mean_estimate, sample, keep),
                           est.variance_estimate)


class Edge(Record):
    ident = "edge"
    alpha: float = 0.5
    beta: float = 0.5

    def __post_init__(self) -> None:
        require_finite(self, "alpha", "beta")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if not 0.0 < self.beta < 1.0:
            raise ValueError(f"beta must be in (0, 1), got {self.beta}")

    def update(self, est: RttEstimate, sample: float) -> RttEstimate:
        """Mean and variance update.

        The variance is smoothed against the squared error of the sample from
        the mean as it stood *before* this update, then the mean moves:

            V <- beta*V + (1-beta)*(S - E)**2
            E <- alpha*E + (1-alpha)*S
        """
        _check_sample(sample)
        err = sample - est.mean_estimate
        variance = _blend(est.variance_estimate, err * err, self.beta)
        mean = _blend(est.mean_estimate, sample, self.alpha)
        return RttEstimate(mean, variance)


Layer1Policy = Union[Ewma, EwmaShift, Mills, Edge]


def layer1_update(est: RttEstimate, sample: float,
                  policy: Layer1Policy) -> RttEstimate:
    return policy.update(est, sample)


# ---------------------------------------------------------------------------
# the ignore_increase_* layer 2 policies: no sample from an ambiguous ack,
# and a blind estimate increase instead.  The running step or multiplier of
# the growing increases belongs to the run: next_mean takes the value the
# previous application left (None before the first) and returns the next one.


class IgnoreAndIncrease(Record):
    """No sample from a multi-copy record; the policy is its own scheme."""

    def origin(self, record: TransmissionRecord):
        return None

    @property
    def scheme(self) -> IgnoreAndIncrease:
        return self


class LinearIncrease(IgnoreAndIncrease):
    """E <- E + delta."""

    ident = "ignore_increase_linear"
    delta: float = 2.0

    def __post_init__(self) -> None:
        require_positive(self, "delta")

    def next_mean(self, mean: float, running: Optional[float]
                  ) -> tuple[float, Optional[float]]:
        return mean + self.delta, running


class ParabolicIncrease(IgnoreAndIncrease):
    """E <- E + delta_i, where the step itself grows by delta2 each time."""

    ident = "ignore_increase_parabolic"
    delta0: float = 1.0
    delta2: float = 1.0

    def __post_init__(self) -> None:
        require_positive(self, "delta0")
        require_finite(self, "delta2")
        if self.delta2 < 0:
            raise ValueError(f"delta2 must be >= 0, got {self.delta2}")

    def next_mean(self, mean: float, running: Optional[float]
                  ) -> tuple[float, float]:
        step = self.delta0 if running is None else running
        return mean + step, step + self.delta2


class ExponentialIncrease(IgnoreAndIncrease):
    """E <- c * E with c > 1."""

    ident = "ignore_increase_exp"
    c: float = 2.0

    def __post_init__(self) -> None:
        require_finite(self, "c")
        if self.c <= 1.0:
            raise ValueError(f"c must be > 1, got {self.c}")

    def next_mean(self, mean: float, running: Optional[float]
                  ) -> tuple[float, Optional[float]]:
        return self.c * mean, running


class SecondOrderExponentialIncrease(IgnoreAndIncrease):
    """E <- c_i * E, where the multiplier itself grows by delta_c each time."""

    ident = "ignore_increase_exp2"
    c0: float = 1.5
    delta_c: float = 0.5

    def __post_init__(self) -> None:
        require_finite(self, "c0", "delta_c")
        if self.c0 <= 1.0:
            raise ValueError(f"c0 must be > 1, got {self.c0}")
        if self.delta_c < 0:
            raise ValueError(f"delta_c must be >= 0, got {self.delta_c}")

    def next_mean(self, mean: float, running: Optional[float]
                  ) -> tuple[float, float]:
        mult = self.c0 if running is None else running
        return mult * mean, mult + self.delta_c


def increase_estimate(est: RttEstimate, scheme: IgnoreAndIncrease,
                      running: Optional[float] = None
                      ) -> tuple[RttEstimate, Optional[float]]:
    """Apply one blind estimate increase.

    `running` is the scheme's step or multiplier as the previous increase of
    the same run left it, None for the first.  Returns the new estimate and
    the running value to pass to the next increase.
    """
    mean, running = scheme.next_mean(est.mean_estimate, running)
    return RttEstimate(mean, est.variance_estimate), running


# ---------------------------------------------------------------------------
# layer 2: sample extraction from a possibly-retransmitted packet


class TransmissionRecord:
    """Send history of one packet: strictly increasing per-copy send times."""

    __slots__ = ("packet_id", "copy_send_times")

    def __init__(self, packet_id: int, copy_send_times: list) -> None:
        self.packet_id = packet_id
        self.copy_send_times = copy_send_times


# Every layer 2 policy answers origin(record): the send time to measure a
# multi-copy record's sample from, or None to take no sample.  `scheme` is
# the estimate increase applied instead of a discarded sample, if any.


class FromFirst(Record):
    ident = "from_first"
    scheme = None

    def origin(self, record: TransmissionRecord):
        return record.copy_send_times[0]


class FromLast(Record):
    ident = "from_last"
    scheme = None

    def origin(self, record: TransmissionRecord):
        return record.copy_send_times[-1]


class FromCopy(Record):
    """Measure from copy j (1-based), or from the last copy if fewer exist."""

    ident = "from_copy"
    scheme = None
    j: int = 2

    def __post_init__(self) -> None:
        require_count(self, "j")

    def origin(self, record: TransmissionRecord):
        times = record.copy_send_times
        return times[min(self.j, len(times)) - 1]


class Ignore(Record):
    ident = "ignore"
    scheme = None

    def origin(self, record: TransmissionRecord):
        return None


Layer2Policy = Union[FromFirst, FromLast, FromCopy, Ignore, LinearIncrease,
                     ParabolicIncrease, ExponentialIncrease,
                     SecondOrderExponentialIncrease]


def extract_sample(record: TransmissionRecord, ack_time,
                   policy: Layer2Policy,
                   floor=DEFAULT_SAMPLE_FLOOR) -> Optional[float]:
    """Pick the delay sample this acknowledgment yields, if any.

    A record with a single copy is unambiguous and yields ack_time - send_time
    under every policy.  With two or more copies the policy decides which send
    to measure from; the ignore family yields no sample at all.  A computed
    interval <= 0 (possible under from_copy, since the measuring origin may
    postdate the copy that was actually answered) is clamped to `floor`.
    """
    n = len(record.copy_send_times)
    if n == 0:
        raise ValueError(f"packet {record.packet_id} has no recorded copies")
    origin = record.copy_send_times[0] if n == 1 else policy.origin(record)
    if origin is None:
        return None
    sample = ack_time - origin
    if sample <= 0:
        return floor
    return sample
