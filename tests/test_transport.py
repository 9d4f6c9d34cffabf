import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from properties import a1_algorithm

from rtosim.config import LAYER_POLICIES, build_scenario

from rtosim.estimators import (
    ExponentialIncrease,
    FromFirst,
    Ignore,
    Ewma,
)
from rtosim.metrics import (
    ACK,
    DISCONNECT,
    ESTIMATE_UPDATE,
    RETRANSMIT,
    SEND,
    TIMEOUT,
)
from rtosim.scenarios import (
    EveryFirstCopyLost,
    NoLoss,
    Scenario,
    prepare_scenario,
    run_scenario,
)
from rtosim.sim import Engine, seconds_to_ticks
from rtosim.timeout import (
    ExponentialBackoff,
    FixedRetries,
    NoBackoff,
    Scale,
)
from rtosim.transport import (
    Receiver,
    RetransmitScope,
    TimeoutAlgorithm,
    TimerMode,
)


def algo(layer2=None, k=4.0, backoff=None, retries=10 ** 9):
    return TimeoutAlgorithm(Ewma(0.5), layer2 or FromFirst(), Scale(k),
                            backoff or NoBackoff(), FixedRetries(retries))


def wire(algorithm, *, packet_count, drop_fn=None, **kwargs):
    """A run assembled the way every run is, with a hand-written drop rule
    set on its fixed-delay path."""
    conn = prepare_scenario(Scenario(name="wire", algorithm=algorithm,
                                     packet_count=packet_count, **kwargs))
    conn.path.drop_fn = drop_fn
    return conn.engine, conn, conn.path.receiver, conn.recorder


# -- receiver ---------------------------------------------------------------

def _receiver(ack_ticks=0):
    """A Receiver on a fresh engine, with a hand for its arrivals at one
    tick and the (time, ack) pairs it delivers."""
    engine = Engine()
    receiver = Receiver(engine, ack_ticks)
    acks = []
    receiver.deliver_ack = lambda ack, now: acks.append((now, ack))

    def arrive(time, *copies):
        for packet_id, copy_number in copies:
            receiver.on_arrival((1, packet_id, copy_number), time)
        engine.run()
    return receiver, arrive, acks


def test_receiver_acks_in_order_arrivals():
    r, arrive, acks = _receiver()
    arrive(0, (1, 1), (2, 1))
    assert acks == [(0, (1, 1, 1)), (0, (2, 2, 1))]
    assert (r.cumulative, r.duplicates) == (2, 0)


def test_receiver_caches_out_of_order_and_jumps():
    r, arrive, acks = _receiver()
    arrive(0, (2, 1), (3, 1), (1, 1))
    assert [ack for _, ack in acks] == [(0, 2, 1), (0, 3, 1), (3, 1, 1)]
    assert r.duplicates == 0


def test_receiver_acks_a_filled_gap_with_the_arrivals_own_ints():
    # ids past the small ints, each a fresh object: the ack after a gap
    # fills carries the cached arrival's int, not an equal one made anew
    r, arrive, acks = _receiver()
    arrive(0, *((packet_id, 1) for packet_id in range(1, 299)))
    late, early = int("299"), int("300")
    arrive(1, (early, 1), (late, 1))
    assert [ack for _, ack in acks[-2:]] == [(298, 300, 1), (300, 299, 1)]
    assert acks[-1][1][0] is early and r.cumulative is early


def test_receiver_counts_duplicates_and_reacks():
    r, arrive, acks = _receiver()
    arrive(0, (1, 1), (1, 2))  # duplicate still answered, lost acks heal
    assert acks[-1] == (0, (1, 1, 2))
    assert (r.cumulative, r.duplicates) == (1, 1)


def test_receiver_acks_after_its_delay_as_exact_tuples():
    r, arrive, acks = _receiver(ack_ticks=7)
    arrive(10, (1, 1))
    arrive(12, (3, 1))
    assert acks == [(17, (1, 1, 1)), (19, (1, 3, 1))]
    assert {type(ack) for _, ack in acks} == {tuple}


def _reference_acks(arrivals, ack_ticks):
    """(time, ack) pairs and duplicates of arrivals one tick apart: the
    cumulative ack is the largest k with packets 1..k all seen."""
    seen, acks, duplicates = set(), [], 0
    for time, (packet_id, copy_number) in enumerate(arrivals):
        duplicates += packet_id in seen
        seen.add(packet_id)
        cumulative = 0
        while cumulative + 1 in seen:
            cumulative += 1
        acks.append((time + ack_ticks, (cumulative, packet_id, copy_number)))
    return acks, duplicates


@given(st.lists(st.tuples(st.integers(1, 12), st.integers(1, 3)),
                max_size=40),
       st.integers(0, 5))
# packet 2 is cumulative + 1 while packet 3 is cached: the jump to 3 must
# come from the cache, not from the in-order step
@example([(1, 1), (3, 1), (2, 1)], 0)
@example([(2, 1), (1, 1), (3, 1), (3, 2), (5, 1), (4, 1)], 2)
def test_receiver_acks_match_the_reference(arrivals, ack_ticks):
    r, arrive, acks = _receiver(ack_ticks)
    for time, copy in enumerate(arrivals):
        arrive(time, copy)
    expected, duplicates = _reference_acks(arrivals, ack_ticks)
    assert acks == expected
    assert r.duplicates == duplicates
    assert r.cumulative == (expected[-1][1][0] if expected else 0)


# -- clean sending ----------------------------------------------------------

def test_single_clean_packet_trace_shape():
    engine, conn, receiver, recorder = wire(algo(), packet_count=1)
    conn.start()
    engine.run()
    events = [event for _, event, *_ in recorder.rows]
    assert events == [SEND, ACK, ESTIMATE_UPDATE]
    assert (conn.packets_acked, conn.outstanding, conn.disconnected) == \
        (1, {}, False)
    assert conn.estimate[0] == 1.0  # sample equals the estimate
    assert conn.timers == {}


def test_window_never_overfills():
    engine, conn, receiver, recorder = wire(algo(), packet_count=6,
                                            window_size=2)
    conn.start()
    assert len(conn.outstanding) == 2
    engine.run()
    assert receiver.cumulative == 6
    assert conn.total_copies_sent == 6


def test_spurious_timer_expiry_is_ignored():
    # the ack disarms the timer; the stale expiry event must do nothing
    engine, conn, receiver, recorder = wire(algo(), packet_count=2)
    conn.start()
    engine.run()
    assert conn.timeout_event_count == 0
    assert all(event != TIMEOUT for _, event, *_ in recorder.rows)


# -- loss and retransmission ------------------------------------------------

def test_first_copy_loss_walks_one_inflation_step():
    engine, conn, receiver, recorder = wire(
        algo(), packet_count=1, drop_fn=lambda pid, copy: copy == 1)
    conn.start()
    engine.run()
    events = [(event, copy) for _, event, _, copy, *_ in recorder.rows]
    assert events == [(SEND, 1), ("drop", 1), (TIMEOUT, 0), (RETRANSMIT, 2),
                      (ACK, 2), (ESTIMATE_UPDATE, 0)]
    # timeout at 4, retransmit arrives at 5: measured from the first copy
    assert conn.estimate[0] == 3.0
    assert conn.timeout_event_count == 1


def test_ignore_policy_skips_ambiguous_update():
    engine, conn, receiver, recorder = wire(
        algo(Ignore()), packet_count=1, drop_fn=lambda pid, copy: copy == 1)
    conn.start()
    engine.run()
    assert conn.estimate[0] == 1.0
    assert all(event != ESTIMATE_UPDATE for _, event, *_ in recorder.rows)


def test_ignore_and_increase_applies_once_per_ambiguous_ack():
    engine, conn, receiver, recorder = wire(
        algo(ExponentialIncrease(2.0)), packet_count=1,
        drop_fn=lambda pid, copy: copy < 3)
    conn.start()
    engine.run()
    # two retransmissions, one acknowledgment: exactly one doubling
    assert conn.estimate[0] == 2.0


def test_exponential_backoff_across_retries():
    engine, conn, receiver, recorder = wire(
        algo(backoff=ExponentialBackoff(2.0)), packet_count=1,
        drop_fn=lambda pid, copy: copy < 4)
    conn.start()
    engine.run()
    timeouts = [row for row in recorder.rows if row[1] == TIMEOUT]
    assert [interval for *_, interval, _ in timeouts] == [4.0, 8.0, 16.0]


def test_all_unacked_scope_retransmits_the_window():
    engine, conn, receiver, recorder = wire(
        algo(), packet_count=2, window_size=2,
        retransmit_scope=RetransmitScope.ALL_UNACKED,
        drop_fn=lambda pid, copy: copy == 1)
    conn.start()
    engine.run()
    retrans = [packet_id for _, event, packet_id, *_ in recorder.rows
               if event == RETRANSMIT]
    assert retrans == [1, 2]  # one timer expiry resends every outstanding
    assert conn.timeout_event_count == 1


def test_timed_out_only_scope_resends_just_the_owner():
    engine, conn, receiver, recorder = wire(
        algo(), packet_count=2, window_size=2,
        retransmit_scope=RetransmitScope.TIMED_OUT_ONLY,
        drop_fn=lambda pid, copy: copy == 1)
    conn.start()
    first_timeout_retrans = None
    engine.run()
    rows = recorder.rows
    first_timeout_at = next(i for i, (_, event, *_) in enumerate(rows)
                            if event == TIMEOUT)
    first_timeout_retrans = [packet_id
                             for _, event, packet_id, *_
                             in rows[first_timeout_at:]
                             if event == RETRANSMIT]
    assert first_timeout_retrans[0] == 1
    assert conn.timeout_event_count == 2  # packet 2 needs its own expiry


def test_per_packet_timers_fire_independently():
    engine, conn, receiver, recorder = wire(
        algo(), packet_count=2, window_size=2,
        timer_mode=TimerMode.PER_PACKET,
        drop_fn=lambda pid, copy: copy == 1)
    conn.start()
    engine.run()
    assert conn.timeout_event_count == 2
    assert receiver.cumulative == 2
    timeouts = {packet_id for _, event, packet_id, *_ in recorder.rows
                if event == TIMEOUT}
    assert timeouts == {1, 2}


def test_per_packet_timeout_rows_show_their_own_timer():
    # a short first timeout with doubling back-off: several copies of a
    # packet time out before the first one that got through is acked
    engine, conn, receiver, recorder = wire(
        algo(k=0.25, backoff=ExponentialBackoff(2.0)), packet_count=4,
        window_size=2, timer_mode=TimerMode.PER_PACKET,
        drop_fn=lambda pid, copy: copy == 1)
    conn.start()
    engine.run()
    seen: dict[int, list] = {}
    for _, event, packet_id, _, _, _, interval, retry in recorder.rows:
        if event == TIMEOUT:
            seen.setdefault(packet_id, []).append((interval, retry))
    assert sorted(seen) == [1, 2, 3, 4]
    assert max(len(rows) for rows in seen.values()) >= 2
    for rows in seen.values():
        t0 = rows[0][0]
        assert t0 > 0
        assert rows == [(pytest.approx(t0 * 2 ** i), i)
                        for i in range(len(rows))]


def test_timers_armed_for_one_tick_count_share_their_interval():
    # every copy is lost: both timers arm at tick 0 for one tick count,
    # expire together and back off to double it
    engine, conn, receiver, recorder = wire(
        algo(backoff=ExponentialBackoff(2.0)), packet_count=2,
        window_size=2, timer_mode=TimerMode.PER_PACKET,
        drop_fn=lambda pid, copy: True)
    conn.start()
    one, two = conn.timers[1], conn.timers[2]
    first = one.last_interval
    assert two.last_interval is first
    engine.run(seconds_to_ticks(first))
    assert one.retry_count == two.retry_count == 1
    assert one.last_interval == 2 * first
    assert one.last_interval is not first
    assert two.last_interval is one.last_interval


def test_per_packet_disconnect_row_names_its_packet():
    engine, conn, receiver, recorder = wire(
        algo(retries=2), packet_count=1, timer_mode=TimerMode.PER_PACKET,
        drop_fn=lambda pid, copy: True)
    conn.start()
    engine.run()
    _, event, packet_id, *_, retry = recorder.rows[-1]
    assert (event, packet_id, retry) == (DISCONNECT, 1, 2)


def test_disconnect_after_retry_budget():
    engine, conn, receiver, recorder = wire(
        algo(retries=2), packet_count=1, drop_fn=lambda pid, copy: True)
    conn.start()
    engine.run()
    assert conn.disconnected
    assert [event for _, event, *_ in recorder.rows][-1] == DISCONNECT
    assert conn.timeout_event_count == 3  # two retries armed, third gives up


# -- acknowledgment semantics ----------------------------------------------

def test_cumulative_ack_covers_all_preceding():
    engine, conn, receiver, recorder = wire(
        algo(), packet_count=2, window_size=2,
        drop_fn=lambda pid, copy: pid == 1 and copy == 1)
    conn.start()
    engine.run()
    # packet 2 arrived first but its ack named cumulative 0; the retransmitted
    # packet 1 released both: first the ambiguous sample (5), then the plain
    # single-copy sample for packet 2 (also 5)
    updates = [estimate_e for _, event, _, _, estimate_e, *_ in recorder.rows
               if event == ESTIMATE_UPDATE]
    assert updates == [3.0, 4.0]
    assert conn.estimate[0] == 4.0


def test_copy_echo_resolves_ambiguity_when_exact():
    engine, conn, receiver, recorder = wire(
        algo(), packet_count=1, copy_echo=True,
        drop_fn=lambda pid, copy: copy == 1)
    conn.start()
    engine.run()
    # the echo says copy 2 answered, so the sample is the true delay and
    # the estimate never inflates
    assert conn.estimate[0] == 1.0


def test_copy_echo_ignored_for_covering_acks():
    engine, conn, receiver, recorder = wire(
        algo(), packet_count=2, window_size=2, copy_echo=True,
        drop_fn=lambda pid, copy: pid == 1 and copy == 1)
    conn.start()
    engine.run()
    # cumulative ack covers packets 1 and 2 at once: copy identity unknown,
    # both measured per from_first exactly as without the echo
    assert conn.estimate[0] == 4.0


def test_duplicate_ack_is_a_no_op():
    engine, conn, receiver, recorder = wire(algo(), packet_count=1)
    conn.start()
    engine.run()
    before = conn.estimate
    conn.on_ack((1, 1, 1), engine.now)
    assert conn.estimate == before


def test_retry_state_resets_when_the_owner_is_acked():
    engine, conn, receiver, recorder = wire(
        algo(), packet_count=2, drop_fn=lambda pid, copy: (pid, copy) == (1, 1))
    conn.start()
    # packet 1 times out at 4 s and its retransmission is acked at 5 s, when
    # packet 2 goes out; its timer starts from zero retries and time
    engine.run(deadline=seconds_to_ticks(5.5))
    retry = conn.timers[2]
    assert retry.retry_count == 0
    assert retry.cumulative_timeout == retry.t0 == 12.0
    engine.run()
    assert conn.packets_acked == 2


def test_single_mode_timer_is_owned_by_the_oldest_unacked_packet():
    # the recorder finds single mode's one timer under packets_acked + 1:
    # at every row of random single-timer runs, drop rows included, that
    # is the only owner it can have
    rng = random.Random(23)
    layers = {layer: sorted(policies)
              for layer, policies in LAYER_POLICIES.items()}
    timed_rows = 0
    for index in range(200):
        config = {"scenario": rng.choice(["loss_sweep", "tsao_lee_fast",
                                          "fig3", "fig6_fromlast"]),
                  "seed": str(index), "packets": str(rng.randint(1, 40)),
                  "window": str(rng.choice([1, 2, 4, 8])),
                  "timer_mode": "single", "horizon": "300",
                  "retransmit_scope": rng.choice(["timed_out_only",
                                                  "all_unacked"]),
                  "copy_echo": rng.choice(["true", "false"])}
        for layer in (2, 4, 5):
            config[f"algorithm.layer{layer}"] = rng.choice(layers[layer])
        if config["scenario"] == "loss_sweep":
            config["loss.p"] = str(rng.choice([0.0, 0.1, 0.3]))
        conn = prepare_scenario(build_scenario(config))
        recorder = conn.recorder

        def checked(record):
            def checked_record(time_ticks, *columns):
                nonlocal timed_rows
                assert set(conn.timers) <= {conn.packets_acked + 1}, config
                timed_rows += bool(conn.timers)
                record(time_ticks, *columns)
            return checked_record

        recorder.record = checked(recorder.record)
        recorder.record_drop = checked(recorder.record_drop)
        conn.start()
        conn.engine.run(seconds_to_ticks(300))
    assert timed_rows > 0


# -- run_scenario level -----------------------------------------------------

def test_zero_loss_scenario_has_no_retransmissions():
    result = run_scenario(Scenario(
        name="clean", algorithm=a1_algorithm(retries=10), loss=NoLoss(),
        packet_count=20))
    assert result.summary.total_copies_sent == 20
    assert result.summary.duplicates_received == 0
    assert result.summary.verdict == "Bounded"


def test_every_first_copy_lost_doubles_the_traffic():
    result = run_scenario(Scenario(
        name="lossy", algorithm=a1_algorithm(retries=10 ** 9),
        loss=EveryFirstCopyLost(), packet_count=5))
    assert result.summary.total_copies_sent == 10
    assert result.summary.drop_count_per_node == [5]
    assert result.summary.duplicates_received == 0
