
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rtosim.estimators import (
    DEFAULT_SAMPLE_FLOOR,
    Edge,
    Ewma,
    EwmaShift,
    ExponentialIncrease,
    FromCopy,
    FromFirst,
    FromLast,
    Ignore,
    LinearIncrease,
    Mills,
    ParabolicIncrease,
    SecondOrderExponentialIncrease,
    extract_sample,
    increase_estimate,
    layer1_update,
)

finite = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)
weights = st.floats(min_value=1e-6, max_value=1 - 1e-6)


# -- smoothing updates ------------------------------------------------------

def test_ewma_halves_the_gap():
    est = Ewma(0.5).update((1.0, 0.0), 5.0)
    assert est == (3.0, 0.0)


def test_ewma_keeps_most_of_the_old_estimate():
    assert Ewma(0.875).update((2.0, 0.0), 10.0)[0] == 3.0


def test_ewma_rejects_bad_arguments():
    with pytest.raises(ValueError):
        Ewma(1.0).update((1.0, 0.0), 5.0)
    with pytest.raises(ValueError):
        Ewma(0.0).update((1.0, 0.0), 5.0)
    with pytest.raises(ValueError):
        Ewma(0.5).update((1.0, 0.0), -0.1)


def test_shift_update_values():
    assert EwmaShift(1).update((1.0, 0.0), 5.0)[0] == 3.0
    assert EwmaShift(2).update((4.0, 0.0), 8.0)[0] == 5.0
    with pytest.raises(ValueError):
        EwmaShift(0).update((1.0, 0.0), 5.0)


def test_mills_branches():
    # decreasing sample takes the heavy weight, increasing the light one
    mills = Mills(15 / 16, 3 / 4)
    assert mills.update((16.0, 0.0), 0.0)[0] == 15.0
    assert mills.update((4.0, 0.0), 8.0)[0] == 5.0
    with pytest.raises(ValueError):
        Mills(0.5, 0.9).update((1.0, 0.0), 1.0)


def test_mills_boundary_sample_uses_alpha2():
    # S == E lands in the else branch; the value happens to be a fixed point
    est = Mills(15 / 16, 3 / 4).update((7.0, 0.0), 7.0)
    assert est[0] == 7.0


def test_edge_variance_uses_pre_update_error():
    est = Edge(0.5, 0.5).update((0.0, 0.0), 4.0)
    assert est[0] == 2.0
    assert est[1] == 8.0
    # a sample on the mean decays the variance and moves nothing
    est = Edge(0.5, 0.75).update((3.0, 4.0), 3.0)
    assert est[0] == 3.0
    assert est[1] == 3.0


@pytest.mark.parametrize("alpha", [0.125, 0.5, 0.875])
def test_ewma_returns_an_unmoved_estimate_itself(alpha):
    # a sample equal to the mean leaves est as it is, object and all
    est = (0.25, 0.5)
    assert Ewma(alpha).update(est, est[0]) is est
    assert Ewma(alpha).update(est, 1.0) == (0.25 + (1.0 - alpha) * 0.75, 0.5)


@given(finite, finite, weights)
def test_fixed_point_when_sample_equals_estimate(mean, variance, alpha):
    est = (mean, variance)
    assert Ewma(alpha).update(est, mean)[0] == mean
    assert Mills(15 / 16, 3 / 4).update(est, mean)[0] == mean


@given(finite, st.floats(min_value=0, max_value=1e3), weights, weights)
def test_updates_stay_between_estimate_and_sample(mean, sample, alpha, beta):
    est = (mean, 1.0)
    lo, hi = sorted((mean, sample))
    for out in (Ewma(alpha).update(est, sample),
                Edge(alpha, beta).update(est, sample),
                Mills(15 / 16, 3 / 4).update(est, sample)):
        assert lo <= out[0] <= hi
        assert out[1] >= 0


@given(finite, st.floats(min_value=0, max_value=1e3),
       st.integers(min_value=1, max_value=10))
def test_shift_matches_ewma_at_power_of_two_weight(mean, sample, n):
    shift = EwmaShift(n).update((mean, 0.0), sample)
    plain = Ewma(1.0 - 2.0 ** -n).update((mean, 0.0), sample)
    assert shift[0] == plain[0]


def test_policy_dispatch():
    est = (1.0, 4.0)
    assert layer1_update(est, 5.0, Ewma(0.5))[0] == 3.0
    assert layer1_update(est, 5.0, EwmaShift(1))[0] == 3.0
    assert layer1_update(est, 5.0, Mills())[0] == 2.0
    edge = layer1_update(est, 5.0, Edge(0.5, 0.5))
    assert edge[0] == 3.0 and edge[1] == 10.0


def test_policy_parameter_validation():
    with pytest.raises(ValueError):
        Ewma(0.0)
    with pytest.raises(ValueError):
        EwmaShift(0)
    with pytest.raises(ValueError):
        Mills(3 / 4, 15 / 16)  # ordering reversed
    with pytest.raises(ValueError):
        Edge(0.5, 1.5)


# -- blind increase schemes -------------------------------------------------

def test_exponential_increase_doubles():
    est, _ = increase_estimate((5.0, 0.0), ExponentialIncrease(2.0))
    assert est[0] == 10.0


def test_linear_increase_adds_the_step():
    est, _ = increase_estimate((5.0, 0.0), LinearIncrease(2.0))
    assert est[0] == 7.0


def test_parabolic_increase_grows_its_step():
    scheme = ParabolicIncrease(1.0, 1.0)
    est, step = increase_estimate((5.0, 0.0), scheme)
    assert est[0] == 6.0
    est, step = increase_estimate(est, scheme, step)
    assert est[0] == 8.0
    # the scheme holds no state: a new run starts from delta0 again
    est, _ = increase_estimate((5.0, 0.0), scheme)
    assert est[0] == 6.0


def test_second_order_increase_grows_its_multiplier():
    scheme = SecondOrderExponentialIncrease(1.5, 0.5)
    est, mult = increase_estimate((4.0, 0.0), scheme)
    assert est[0] == 6.0
    est, mult = increase_estimate(est, scheme, mult)
    assert est[0] == 12.0


def test_increase_scheme_validation():
    with pytest.raises(ValueError):
        ExponentialIncrease(1.0)
    with pytest.raises(ValueError):
        LinearIncrease(0.0)
    with pytest.raises(ValueError):
        SecondOrderExponentialIncrease(0.9, 0.5)


# -- sample extraction ------------------------------------------------------

def retransmitted_record():
    return (1, [0.0, 10.0])


def test_from_first_measures_the_whole_episode():
    assert extract_sample(retransmitted_record(), 15.0, FromFirst()) == 15.0


def test_from_last_measures_the_final_copy():
    assert extract_sample(retransmitted_record(), 15.0, FromLast()) == 5.0


def test_from_copy_clamps_to_available_copies():
    record = retransmitted_record()
    assert extract_sample(record, 15.0, FromCopy(1)) == 15.0
    assert extract_sample(record, 15.0, FromCopy(2)) == 5.0
    assert extract_sample(record, 15.0, FromCopy(9)) == 5.0


def test_ignore_family_discards_ambiguous_samples():
    record = retransmitted_record()
    assert extract_sample(record, 15.0, Ignore()) is None
    assert extract_sample(record, 15.0, ExponentialIncrease()) is None


def test_single_copy_is_unambiguous_for_every_policy():
    record = (1, [0.0])
    for policy in (FromFirst(), FromLast(), FromCopy(3), Ignore(),
                   ExponentialIncrease()):
        assert extract_sample(record, 7.0, policy) == 7.0


def test_nonpositive_sample_clamps_to_floor():
    # measuring origin postdates the answered copy
    record = (1, [0.0, 10.0])
    assert extract_sample(record, 8.0, FromLast()) == DEFAULT_SAMPLE_FLOOR
    assert extract_sample(record, 8.0, FromLast(), floor=0.5) == 0.5


def test_extract_rejects_empty_record():
    with pytest.raises(ValueError):
        extract_sample((1, []), 1.0, FromFirst())


@given(st.lists(st.floats(min_value=0.01, max_value=10), min_size=2,
                max_size=5),
       st.floats(min_value=0.01, max_value=10))
def test_from_first_dominates_from_last(gaps, tail):
    times = [0.0]
    for gap in gaps:
        times.append(times[-1] + gap)
    ack = times[-1] + tail
    record = (1, times)
    assert extract_sample(record, ack, FromFirst()) \
        > extract_sample(record, ack, FromLast())


def test_from_copy_requires_positive_index():
    with pytest.raises(ValueError):
        FromCopy(0)
