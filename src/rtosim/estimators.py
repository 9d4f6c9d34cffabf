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

An estimate is the exact tuple `(mean, variance)` (Estimate), and every
reader takes its fields by position or unpacking: only an exact tuple's are
specialized (PEP 659).  A send record is the exact tuple
`(packet_id, copy_send_times)` (TransmissionRecord) for the same reason.
"""
from __future__ import annotations

from typing import Optional, Union

from .record import Count, Finite, Positive, Record

#: Default clamp for a non-positive extracted sample: one simulation tick.
DEFAULT_SAMPLE_FLOOR = 1e-6


#: one estimate: (mean, variance), the smoothed mean and the smoothed
#: variance; the trace's estimate_update rows count the updates
Estimate = tuple[float, float]


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
    alpha: Finite = 0.5

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")

    def update(self, est: Estimate, sample: float) -> Estimate:
        """E <- alpha*E + (1-alpha)*S, with _check_sample and _blend inlined.

        A sample equal to the mean returns `est` itself.  For a finite mean
        other than -0.0 that is exact: (1-alpha)*0.0 is 0.0 and mean + 0.0
        is mean, so only the object changes.  A run's mean is always such a
        value (`initial_mean` is positive, every sample is at least the
        positive floor), and an unmoved estimate then keeps one float for
        every row that records it.
        """
        if sample < 0.0:  # float against float, a specialized comparison
            _check_sample(sample)
        mean, variance = est
        if sample == mean:
            return est
        return (mean + (1.0 - self.alpha) * (sample - mean), variance)


class EwmaShift(Record):
    ident = "ewma_shift"
    n: Count = 3

    def update(self, est: Estimate, sample: float) -> Estimate:
        """E <- E + 2**-n * (S - E), i.e. ewma with alpha = 1 - 2**-n.

        The shift-friendly form: the weight is an exact power of two, so this
        is bit-identical to Ewma at the corresponding alpha.
        """
        _check_sample(sample)
        keep = 1.0 - 2.0 ** -self.n
        mean, variance = est
        return (_blend(mean, sample, keep), variance)


class Mills(Record):
    ident = "mills"
    alpha1: Finite = 15.0 / 16.0
    alpha2: Finite = 3.0 / 4.0

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha2 < self.alpha1 < 1.0):
            raise ValueError(
                f"need 0 < alpha2 < alpha1 < 1, got {self.alpha1}, {self.alpha2}")

    def update(self, est: Estimate, sample: float) -> Estimate:
        """Asymmetric smoothing: weight alpha1 when the sample falls below
        the estimate, alpha2 otherwise.  A sample exactly equal to the
        estimate takes the alpha2 branch (the value is the same either way).
        """
        _check_sample(sample)
        mean, variance = est
        keep = self.alpha1 if sample < mean else self.alpha2
        return (_blend(mean, sample, keep), variance)


class Edge(Record):
    ident = "edge"
    alpha: Finite = 0.5
    beta: Finite = 0.5

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if not 0.0 < self.beta < 1.0:
            raise ValueError(f"beta must be in (0, 1), got {self.beta}")

    def update(self, est: Estimate, sample: float) -> Estimate:
        """Mean and variance update.

        The variance is smoothed against the squared error of the sample from
        the mean as it stood *before* this update, then the mean moves:

            V <- beta*V + (1-beta)*(S - E)**2
            E <- alpha*E + (1-alpha)*S
        """
        _check_sample(sample)
        mean, variance = est
        err = sample - mean
        variance = _blend(variance, err * err, self.beta)
        return (_blend(mean, sample, self.alpha), variance)


Layer1Policy = Union[Ewma, EwmaShift, Mills, Edge]


def layer1_update(est: Estimate, sample: float,
                  policy: Layer1Policy) -> Estimate:
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
    delta: Positive = 2.0

    def next_mean(self, mean: float, running: Optional[float]
                  ) -> tuple[float, Optional[float]]:
        return mean + self.delta, running


class ParabolicIncrease(IgnoreAndIncrease):
    """E <- E + delta_i, where the step itself grows by delta2 each time."""

    ident = "ignore_increase_parabolic"
    delta0: Positive = 1.0
    delta2: Finite = 1.0

    def __post_init__(self) -> None:
        if self.delta2 < 0:
            raise ValueError(f"delta2 must be >= 0, got {self.delta2}")

    def next_mean(self, mean: float, running: Optional[float]
                  ) -> tuple[float, float]:
        step = self.delta0 if running is None else running
        return mean + step, step + self.delta2


class ExponentialIncrease(IgnoreAndIncrease):
    """E <- c * E with c > 1."""

    ident = "ignore_increase_exp"
    c: Finite = 2.0

    def __post_init__(self) -> None:
        if self.c <= 1.0:
            raise ValueError(f"c must be > 1, got {self.c}")

    def next_mean(self, mean: float, running: Optional[float]
                  ) -> tuple[float, Optional[float]]:
        return self.c * mean, running


class SecondOrderExponentialIncrease(IgnoreAndIncrease):
    """E <- c_i * E, where the multiplier itself grows by delta_c each time."""

    ident = "ignore_increase_exp2"
    c0: Finite = 1.5
    delta_c: Finite = 0.5

    def __post_init__(self) -> None:
        if self.c0 <= 1.0:
            raise ValueError(f"c0 must be > 1, got {self.c0}")
        if self.delta_c < 0:
            raise ValueError(f"delta_c must be >= 0, got {self.delta_c}")

    def next_mean(self, mean: float, running: Optional[float]
                  ) -> tuple[float, float]:
        mult = self.c0 if running is None else running
        return mult * mean, mult + self.delta_c


def increase_estimate(est: Estimate, scheme: IgnoreAndIncrease,
                      running: Optional[float] = None
                      ) -> tuple[Estimate, Optional[float]]:
    """Apply one blind estimate increase.

    `running` is the scheme's step or multiplier as the previous increase of
    the same run left it, None for the first.  Returns the new estimate and
    the running value to pass to the next increase.
    """
    mean, variance = est
    mean, running = scheme.next_mean(mean, running)
    return (mean, variance), running


# ---------------------------------------------------------------------------
# layer 2: sample extraction from a possibly-retransmitted packet


#: send history of one packet: (packet_id, copy_send_times), the copies'
#: send times strictly increasing; the layer 2 policies read it by position
TransmissionRecord = tuple[int, list[int]]

# Every layer 2 policy answers origin(record): the send time to measure a
# multi-copy record's sample from, or None to take no sample.  `scheme` is
# the estimate increase applied instead of a discarded sample, if any.


class FromFirst(Record):
    ident = "from_first"
    scheme = None

    def origin(self, record: TransmissionRecord):
        return record[1][0]


class FromLast(Record):
    ident = "from_last"
    scheme = None

    def origin(self, record: TransmissionRecord):
        return record[1][-1]


class FromCopy(Record):
    """Measure from copy j (1-based), or from the last copy if fewer exist."""

    ident = "from_copy"
    scheme = None
    j: Count = 2

    def origin(self, record: TransmissionRecord):
        times = record[1]
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
    packet_id, times = record
    n = len(times)
    if n == 0:
        raise ValueError(f"packet {packet_id} has no recorded copies")
    origin = times[0] if n == 1 else policy.origin(record)
    if origin is None:
        return None
    sample = ack_time - origin
    if sample <= 0:
        return floor
    return sample
