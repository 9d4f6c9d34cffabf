import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rtosim.estimators import RttEstimate
from rtosim.timeout import (
    Clamped,
    ExponentialBackoff,
    FixedRetries,
    GrowingRetries,
    LinearBackoff,
    MeanPlusDeviation,
    NoBackoff,
    RandomExponentialBackoff,
    RetryState,
    Scale,
    TotalTimeAndRetries,
    backoff_interval,
    disconnect_decision,
    first_timeout,
)


# -- layer 3 ----------------------------------------------------------------

def test_scale_multiplies_the_mean():
    assert first_timeout(RttEstimate(1.0), Scale(4.0)) == 4.0
    assert first_timeout(RttEstimate(5.0), Scale(2.0)) == 10.0


def test_mean_plus_deviation_adds_scaled_root_variance():
    assert first_timeout(RttEstimate(3.0, 4.0), MeanPlusDeviation(2.0)) == 7.0


def test_clamped_bounds_bind():
    policy = Clamped(4.0, t_min=1.0, t_max=30.0)
    assert first_timeout(RttEstimate(0.1), policy) == 1.0
    assert first_timeout(RttEstimate(2.0), policy) == 8.0
    assert first_timeout(RttEstimate(100.0), policy) == 30.0


def test_first_timeout_rejects_uninitialized_estimate():
    with pytest.raises(ValueError):
        first_timeout(RttEstimate(0.0), Scale(4.0))


def test_clamped_validation():
    with pytest.raises(ValueError):
        Clamped(4.0, t_min=5.0, t_max=1.0)
    with pytest.raises(ValueError):
        Clamped(0.0)


@pytest.mark.parametrize("policy", [Scale, MeanPlusDeviation, Clamped])
@pytest.mark.parametrize("k", [math.inf, math.nan])
def test_layer3_policies_reject_a_non_finite_k(policy, k):
    with pytest.raises(ValueError, match="finite"):
        policy(k)


@given(st.floats(min_value=1e-3, max_value=1e3),
       st.floats(min_value=1e-3, max_value=1e3),
       st.floats(min_value=1e-3, max_value=50))
def test_scale_is_linear_in_the_mean(mean, scale_by, k):
    direct = first_timeout(RttEstimate(scale_by * mean), Scale(k))
    assert direct == pytest.approx(scale_by * first_timeout(RttEstimate(mean),
                                                            Scale(k)),
                                   rel=1e-12)


# -- layer 4 ----------------------------------------------------------------

def walk(policy, t0, steps, rng=None):
    state = RetryState()
    state.arm(t0)
    out = []
    for _ in range(steps):
        state.retry_count += 1
        interval = backoff_interval(state, policy, rng)
        state.arm(interval)
        out.append(interval)
    return out


def test_exponential_backoff_doubles():
    assert walk(ExponentialBackoff(2.0), 4.0, 2) == [8.0, 16.0]


def test_exponential_backoff_respects_its_cap():
    assert walk(ExponentialBackoff(2.0, t_max=10.0), 4.0, 3) == [8.0, 10.0, 10.0]


def test_no_backoff_repeats_t0():
    assert walk(NoBackoff(), 4.0, 3) == [4.0, 4.0, 4.0]


def test_linear_backoff_adds_its_step():
    assert walk(LinearBackoff(1.5), 4.0, 2) == [5.5, 7.0]


def test_random_backoff_draw_stays_in_range():
    rng = random.Random(7)
    state = RetryState()
    for t in (4.0, 8.0, 16.0):
        state.arm(t)
        state.retry_count += 1
    # retry 3: draw from [t_min, b**3 * t0] = [1, 32]
    value = backoff_interval(state, RandomExponentialBackoff(2.0, 1.0), rng)
    assert 1.0 <= value <= 32.0


def test_random_backoff_past_float_range_draws_once_under_its_cap():
    state = RetryState()
    state.arm(0.01)
    state.retry_count = 1100  # 2.0 ** 1100 overflows
    rng, twin = random.Random(7), random.Random(7)
    capped = RandomExponentialBackoff(2.0, t_max=0.01)
    assert backoff_interval(state, capped, rng) == 0.01
    twin.random()
    assert rng.getstate() == twin.getstate()
    uncapped = RandomExponentialBackoff(2.0)
    assert backoff_interval(state, uncapped, rng) == math.inf


def test_random_backoff_requires_a_stream():
    state = RetryState()
    state.arm(4.0)
    state.retry_count = 1
    with pytest.raises(ValueError):
        backoff_interval(state, RandomExponentialBackoff(2.0, 1.0), None)


def test_backoff_needs_a_retry():
    state = RetryState()
    state.arm(4.0)
    with pytest.raises(ValueError):
        backoff_interval(state, NoBackoff(), None)


def test_backoff_parameter_validation():
    with pytest.raises(ValueError):
        ExponentialBackoff(1.0)
    with pytest.raises(ValueError):
        LinearBackoff(0.0)
    with pytest.raises(ValueError):
        RandomExponentialBackoff(2.0, 0.0)


@given(st.floats(min_value=1.001, max_value=4),
       st.floats(min_value=0.001, max_value=10),
       st.integers(min_value=1, max_value=8))
def test_uncapped_exponential_is_geometric(b, t0, steps):
    out = walk(ExponentialBackoff(b), t0, steps)
    full = [t0] + out
    for prev, cur in zip(full, full[1:]):
        assert cur == b * prev


@given(st.floats(min_value=1.001, max_value=4),
       st.floats(min_value=0.001, max_value=10),
       st.floats(min_value=0.001, max_value=100),
       st.integers(min_value=1, max_value=8))
def test_capped_sequences_never_exceed_t_max(b, t0, t_max, steps):
    for policy in (ExponentialBackoff(b, t_max=t_max),
                   LinearBackoff(0.7, t_max=t_max),
                   NoBackoff(t_max=t_max)):
        assert all(v <= t_max for v in walk(policy, t0, steps))


# -- layer 5 ----------------------------------------------------------------

def exhausted(retries, total=0.0, delivered=0):
    state = RetryState()
    state.packets_delivered = delivered
    state.retry_count = retries
    state.cumulative_timeout = total
    return state


def test_fixed_retries_trips_at_the_budget():
    assert not disconnect_decision(exhausted(9), FixedRetries(10))
    assert disconnect_decision(exhausted(10), FixedRetries(10))


def test_no_retries_never_disconnects():
    fresh = RetryState()
    for policy in (FixedRetries(1), GrowingRetries(1),
                   TotalTimeAndRetries(0.001, 1)):
        assert not disconnect_decision(fresh, policy)


def test_growing_retries_earns_patience_with_progress():
    policy = GrowingRetries(10)
    assert policy.budget(0) == 10
    assert policy.budget(1) == 11
    assert policy.budget(7) == 13
    assert disconnect_decision(exhausted(10, delivered=0), policy)
    assert not disconnect_decision(exhausted(10, delivered=1), policy)


def test_total_time_needs_both_thresholds():
    policy = TotalTimeAndRetries(20.0, 3)
    assert disconnect_decision(exhausted(4, total=25.0), policy)
    assert not disconnect_decision(exhausted(2, total=25.0), policy)
    assert not disconnect_decision(exhausted(4, total=19.0), policy)


@given(st.integers(min_value=1, max_value=8),
       st.lists(st.floats(min_value=0.01, max_value=10), min_size=1,
                max_size=15))
def test_disconnect_is_monotone(budget, intervals):
    policy = FixedRetries(budget)
    state = RetryState()
    tripped = False
    for interval in intervals:
        state.arm(interval)
        state.retry_count += 1
        decision = disconnect_decision(state, policy)
        assert decision or not tripped
        tripped = decision


def test_retry_state_bookkeeping():
    state = RetryState()
    assert (state.t0, state.last_interval) == (None, None)
    state.arm(4.0)
    state.arm(8.0)
    assert (state.t0, state.last_interval) == (4.0, 8.0)
    assert state.cumulative_timeout == 12.0
    # a fresh state, as the next packet's timer starts with, keeps nothing
    fresh = RetryState()
    assert (fresh.t0, fresh.last_interval) == (None, None)
    assert fresh.cumulative_timeout == 0.0
