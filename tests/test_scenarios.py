import gc
import math
import sys
from fractions import Fraction

import pytest

from rtosim.config import ConfigError, build_scenario
from rtosim.experiments import (
    _timer_wait_ticks,
    classify_case,
    fig3_divergence,
    fig6_false_convergence,
    jth_attempt_matrix,
    loss_threshold_sweep,
    timer_wait_share,
    tsao_lee,
)
from rtosim.metrics import TraceRow
from rtosim.scenarios import (
    SCENARIO_NAMES,
    BernoulliLoss,
    BufferOverflowOnly,
    DropCopiesBefore,
    EveryFirstCopyLost,
    NoLoss,
    Scenario,
    finish_run,
    prepare_scenario,
    run_scenario,
)
from rtosim.sim import LinkSpec, Topology, seconds_to_ticks, substream


#: a short loss_sweep cell: 60 packets at p = 0.2, seed 7
LOSS_CELL = {"scenario": "loss_sweep", "loss.p": "0.2", "seed": "7",
             "packets": "60"}


def closed_form_fig3(i):
    # derived by unrolling E' = E/2 + S/2 with S = 4E + 1 copy round trip
    return (4 * 2.5 ** i - 1) / 3


def test_first_copy_loss_follows_the_closed_form():
    trajectory = fig3_divergence(8)
    assert trajectory[1] == 3.0
    assert trajectory[2] == 8.0
    for i, estimate in enumerate(trajectory):
        assert estimate == pytest.approx(closed_form_fig3(i), abs=2e-6)


def test_fig3_validates_i_max():
    with pytest.raises(ValueError):
        fig3_divergence(0)


def test_sampling_from_the_retransmission_locks_the_underestimate():
    outcome = fig6_false_convergence("from_last", packets=100)
    assert outcome.trajectory == [5.0] * 100
    assert outcome.retransmissions == 100
    assert outcome.summary.duplicates_received == 100
    assert outcome.summary.verdict == "FalseConverged"


def test_discarding_ambiguous_samples_freezes_the_estimate():
    outcome = fig6_false_convergence("ignore", packets=100)
    # no unambiguous ack ever arrives, so the estimate is never touched
    assert outcome.trajectory == [5.0]
    assert outcome.retransmissions == 100
    assert outcome.summary.verdict == "FalseConverged"


def test_fig6_rejects_unknown_policies():
    with pytest.raises(ValueError, match="policy"):
        fig6_false_convergence("from_penultimate")


def test_jth_cell_rejects_bad_copy_indices():
    with pytest.raises(ValueError):
        jth_attempt_matrix(0, 1)
    with pytest.raises(ValueError):
        jth_attempt_matrix(1, 0)


def test_every_named_scenario_builds():
    for name in SCENARIO_NAMES:
        scenario = build_scenario({"scenario": name, "seed": "3"})
        assert isinstance(scenario, Scenario)
        assert scenario.seed == 3
    with pytest.raises(ConfigError):
        build_scenario({"scenario": "fig4"})


def test_same_seed_replays_byte_for_byte():
    scenario = build_scenario(LOSS_CELL)
    first = run_scenario(scenario)
    second = run_scenario(scenario)
    assert first.rows == second.rows
    assert first.summary == second.summary


def test_interleaved_runs_of_one_scenario_match_a_solo_run():
    # the parabolic increase grows its step within a run; two runs of the
    # same scenario stepped in turn must not share that step
    config = {"scenario": "fig3", "packets": "6",
              "algorithm.layer2": "ignore_increase_parabolic"}
    scenario = build_scenario(config)
    solo = run_scenario(scenario)
    assert solo.summary.final_e == 22.0
    runs = [prepare_scenario(scenario) for _ in range(2)]
    for run in runs:
        run.start()
    deadline = 0
    while any(run.engine.pending() for run in runs):
        deadline += seconds_to_ticks(0.5)
        for run in runs:
            run.engine.run(deadline)
    for run in runs:
        result = finish_run(run)
        assert result.rows == solo.rows
        assert result.summary == solo.summary
    assert scenario == build_scenario(config)


@pytest.mark.parametrize("stepped", [False, True])
def test_a_finished_run_s_rows_are_owned_by_its_result_alone(stepped):
    # the engine, sender, path and recorder refer to one another, so rows
    # the recorder kept would outlive the result until a cyclic collection
    scenario = build_scenario(LOSS_CELL)
    gc.disable()
    try:
        if stepped:
            connection = prepare_scenario(scenario)
            connection.start()
            connection.engine.run()
            rows = finish_run(connection).rows
            assert connection.recorder.rows == []
        else:
            rows = run_scenario(scenario).rows
        # the name `rows` and getrefcount's own argument
        references = sys.getrefcount(rows)
    finally:
        gc.enable()
    assert references == 2
    assert rows


def test_different_seeds_draw_different_losses():
    base = build_scenario(LOSS_CELL)
    other = Scenario(**{**vars(base), "seed": 8})
    assert run_scenario(base).rows != run_scenario(other).rows


def test_drop_deciders():
    assert NoLoss().drop_predicate(substream(1, "loss")) is None
    assert BufferOverflowOnly().drop_predicate(substream(1, "loss")) is None

    first_lost = EveryFirstCopyLost().drop_predicate(substream(1, "loss"))
    assert first_lost(5, 1) and not first_lost(5, 2)

    before_third = DropCopiesBefore(3).drop_predicate(substream(1, "loss"))
    assert [before_third(1, c) for c in (1, 2, 3, 4)] == [
        True, True, False, False]

    coin_a = BernoulliLoss(0.5).drop_predicate(substream(9, "loss"))
    coin_b = BernoulliLoss(0.5).drop_predicate(substream(9, "loss"))
    draws_a = [coin_a(1, 1) for _ in range(50)]
    draws_b = [coin_b(1, 1) for _ in range(50)]
    assert draws_a == draws_b
    assert any(draws_a) and not all(draws_a)


def test_loss_model_validation():
    with pytest.raises(ValueError):
        BernoulliLoss(1.0)
    with pytest.raises(ValueError):
        BernoulliLoss(-0.1)
    with pytest.raises(ValueError):
        DropCopiesBefore(0)


def test_chain_delay_is_the_unloaded_round_trip():
    scenario = build_scenario({"scenario": "tsao_lee_slow"})
    assert scenario.name == "tsao_lee_slow"
    assert scenario.true_rtt == scenario.topology.unloaded_rtt(8000)
    assert build_scenario({"scenario": "tsao_lee_fast"}).name == \
        "tsao_lee_fast"


def test_chain_scenarios_refuse_synthetic_loss():
    with pytest.raises(ValueError, match="buffer overflow"):
        Scenario(**{**vars(build_scenario({"scenario": "tsao_lee_slow"})),
                    "loss": BernoulliLoss(0.1)})


def test_chain_timer_wait_share_is_pinned():
    assert tsao_lee(19200).waiting_fraction == 0.004269691334143115
    assert tsao_lee(1_000_000).waiting_fraction == 1.0


def _row(time_ticks, event, packet_id):
    return TraceRow(time_ticks, event, packet_id, 1, 0.0, 0.0, 0.0, 0)


def test_timer_wait_counts_armed_idle_ticks_to_the_last_row_or_a_disconnect():
    rows = [_row(0, "send", 1), _row(50, "ack", 1),  # idle 10..50, armed
            _row(60, "send", 2),
            _row(65, "send", 3),  # queues behind packet 2: busy until 80
            _row(100, "retransmit", 2)]  # idle 80..100, busy until 110
    assert _timer_wait_ticks(rows, 10) == 40 + 20
    disconnected = rows + [_row(150, "disconnect", 2), _row(300, "send", 4)]
    assert _timer_wait_ticks(disconnected, 10) == 40 + 20 + 40


def test_chain_timer_wait_share_ends_with_the_last_row():
    # cut by its horizon, this run's engine clock stops 12.9 s after its
    # last row, still armed and idle; counting to that clock gave 1.263
    result = run_scenario(build_scenario({
        "scenario": "tsao_lee_fast", "seed": "993909", "packets": "78",
        "window": "7", "copy_echo": "true",
        "topology.ingress_rate": "38400", "topology.buffer_capacity": "1",
        "topology.propagation": "0.001", "packet_size_bits": "800",
        "horizon": "83.92534419846652", "stop_estimate_above": "100",
        "initial_e": "2.489213767782512",
        "algorithm.layer5": "growing_retries",
        "algorithm.layer5.base_r": "1"}))
    assert result.connection.engine.now > result.summary.elapsed_ticks
    assert 0.99 < timer_wait_share(result) <= 1.0


def test_sweep_rows_come_back_sorted_by_p():
    rows = loss_threshold_sweep(4.0, [0.1, 0.0], packets=10)
    assert [p for p, _ in rows] == [0.0, 0.1]
    assert rows[0][1].packets_delivered == 10


def test_canned_drift_cases_cover_all_three_labels():
    assert classify_case("class1") == "I"
    assert classify_case("class2") == "II"
    assert classify_case("class3") == "III"


#: annotation -> the values a field of it refuses, and the words of the
#: refusal: an integer key cannot write a fraction, a number key cannot
#: write nan, inf or a Fraction (`1/3`), and neither can write a bool
#: (--dump-config would write `packets = true`, which build_scenario
#: refuses); only an Optional field may hold None
_NOT_FLOATS = (math.nan, math.inf, Fraction(1, 3), True, False)
_REFUSED = {"int": ((2.5, True, False), "must be an integer"),
            "float": ((*_NOT_FLOATS, None), "must be a finite number"),
            "Optional[float]": (_NOT_FLOATS, "must be a finite number")}
_LINK = LinkSpec(19200, 0.01)
_RECORDS = (build_scenario({"scenario": "fig3"}), _LINK, Topology((_LINK,)))
_FIELD_REFUSALS = [
    (record, field, value, _REFUSED[annotation][1])
    for record in _RECORDS
    for field, annotation in record._fields.items()
    if annotation in _REFUSED
    for value in _REFUSED[annotation][0]
] + [
    # a fractional ingress rate: the run would keep time in float ticks
    (_LINK, "rate_bps", 19200.5, "must be an integer"),
]


@pytest.mark.parametrize(
    "record, field, value, words", _FIELD_REFUSALS,
    ids=[f"{type(record).__name__}.{field}={value}"
         for record, field, value, _ in _FIELD_REFUSALS])
def test_every_numeric_field_refuses_a_value_its_key_cannot_write(
        record, field, value, words):
    with pytest.raises(ValueError, match=f"^{field} {words}"):
        type(record)(**{**vars(record), field: value})


@pytest.mark.parametrize("field, value, kind", [
    ("timer_mode", "per_packet", "TimerMode"),
    ("retransmit_scope", "all_unacked", "RetransmitScope"),
    ("copy_echo", 2, "bool"),
])
def test_an_enum_or_bool_field_refuses_another_type(field, value, kind):
    # "per_packet" would run in single-timer mode, and copy_echo = 2 dumps
    # a config that build_scenario refuses
    base = build_scenario({"scenario": "fig3"})
    with pytest.raises(ValueError, match=f"^{field} must be a {kind}, "):
        Scenario(**{**vars(base), field: value})
