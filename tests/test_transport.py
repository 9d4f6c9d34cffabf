import pytest
from properties import a1_algorithm

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
from rtosim.sim import seconds_to_ticks
from rtosim.timeout import (
    ExponentialBackoff,
    FixedRetries,
    NoBackoff,
    Scale,
)
from rtosim.transport import (
    AckPacket,
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

def test_receiver_acks_in_order_arrivals():
    r = Receiver()
    assert r.on_copy(1, 1) == AckPacket(1, 1, 1)
    assert r.on_copy(2, 1) == AckPacket(2, 2, 1)
    assert (r.cumulative, r.duplicates) == (2, 0)


def test_receiver_caches_out_of_order_and_jumps():
    r = Receiver()
    assert r.on_copy(2, 1).cumulative_ack == 0
    assert r.on_copy(3, 1).cumulative_ack == 0
    assert r.on_copy(1, 1).cumulative_ack == 3
    assert r.duplicates == 0


def test_receiver_counts_duplicates_and_reacks():
    r = Receiver()
    r.on_copy(1, 1)
    again = r.on_copy(1, 2)  # duplicate still answered, lost acks heal
    assert again.cumulative_ack == 1
    assert (r.cumulative, r.duplicates) == (1, 1)


# -- clean sending ----------------------------------------------------------

def test_single_clean_packet_trace_shape():
    engine, conn, receiver, recorder = wire(algo(), packet_count=1)
    conn.start()
    engine.run()
    events = [row.event for row in recorder.rows]
    assert events == [SEND, ACK, ESTIMATE_UPDATE]
    assert (conn.packets_acked, conn.outstanding, conn.disconnected) == \
        (1, {}, False)
    assert conn.estimate.mean_estimate == 1.0  # sample equals the estimate
    assert conn._timers == {}


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
    assert all(row.event != TIMEOUT for row in recorder.rows)


# -- loss and retransmission ------------------------------------------------

def test_first_copy_loss_walks_one_inflation_step():
    engine, conn, receiver, recorder = wire(
        algo(), packet_count=1, drop_fn=lambda pid, copy: copy == 1)
    conn.start()
    engine.run()
    events = [(row.event, row.copy) for row in recorder.rows]
    assert events == [(SEND, 1), ("drop", 1), (TIMEOUT, 0), (RETRANSMIT, 2),
                      (ACK, 2), (ESTIMATE_UPDATE, 0)]
    # timeout at 4, retransmit arrives at 5: measured from the first copy
    assert conn.estimate.mean_estimate == 3.0
    assert conn.timeout_event_count == 1


def test_ignore_policy_skips_ambiguous_update():
    engine, conn, receiver, recorder = wire(
        algo(Ignore()), packet_count=1, drop_fn=lambda pid, copy: copy == 1)
    conn.start()
    engine.run()
    assert conn.estimate.mean_estimate == 1.0
    assert all(row.event != ESTIMATE_UPDATE for row in recorder.rows)


def test_ignore_and_increase_applies_once_per_ambiguous_ack():
    engine, conn, receiver, recorder = wire(
        algo(ExponentialIncrease(2.0)), packet_count=1,
        drop_fn=lambda pid, copy: copy < 3)
    conn.start()
    engine.run()
    # two retransmissions, one acknowledgment: exactly one doubling
    assert conn.estimate.mean_estimate == 2.0


def test_exponential_backoff_across_retries():
    engine, conn, receiver, recorder = wire(
        algo(backoff=ExponentialBackoff(2.0)), packet_count=1,
        drop_fn=lambda pid, copy: copy < 4)
    conn.start()
    engine.run()
    timeouts = [row for row in recorder.rows if row.event == TIMEOUT]
    assert [row.timeout_interval for row in timeouts] == [4.0, 8.0, 16.0]


def test_all_unacked_scope_retransmits_the_window():
    engine, conn, receiver, recorder = wire(
        algo(), packet_count=2, window_size=2,
        retransmit_scope=RetransmitScope.ALL_UNACKED,
        drop_fn=lambda pid, copy: copy == 1)
    conn.start()
    engine.run()
    retrans = [row.packet_id for row in recorder.rows
               if row.event == RETRANSMIT]
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
    first_timeout_at = next(i for i, r in enumerate(rows)
                            if r.event == TIMEOUT)
    first_timeout_retrans = [r.packet_id for r in rows[first_timeout_at:]
                             if r.event == RETRANSMIT]
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
    timeouts = {row.packet_id for row in recorder.rows
                if row.event == TIMEOUT}
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
    for row in recorder.rows:
        if row.event == TIMEOUT:
            seen.setdefault(row.packet_id, []).append(
                (row.timeout_interval, row.retry_count))
    assert sorted(seen) == [1, 2, 3, 4]
    assert max(len(rows) for rows in seen.values()) >= 2
    for rows in seen.values():
        t0 = rows[0][0]
        assert t0 > 0
        assert rows == [(pytest.approx(t0 * 2 ** i), i)
                        for i in range(len(rows))]


def test_per_packet_disconnect_row_names_its_packet():
    engine, conn, receiver, recorder = wire(
        algo(retries=2), packet_count=1, timer_mode=TimerMode.PER_PACKET,
        drop_fn=lambda pid, copy: True)
    conn.start()
    engine.run()
    last = recorder.rows[-1]
    assert (last.event, last.packet_id, last.retry_count) == \
        (DISCONNECT, 1, 2)


def test_disconnect_after_retry_budget():
    engine, conn, receiver, recorder = wire(
        algo(retries=2), packet_count=1, drop_fn=lambda pid, copy: True)
    conn.start()
    engine.run()
    assert conn.disconnected
    assert [row.event for row in recorder.rows][-1] == DISCONNECT
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
    updates = [row.estimate_e for row in recorder.rows
               if row.event == ESTIMATE_UPDATE]
    assert updates == [3.0, 4.0]
    assert conn.estimate.mean_estimate == 4.0


def test_copy_echo_resolves_ambiguity_when_exact():
    engine, conn, receiver, recorder = wire(
        algo(), packet_count=1, copy_echo=True,
        drop_fn=lambda pid, copy: copy == 1)
    conn.start()
    engine.run()
    # the echo says copy 2 answered, so the sample is the true delay and
    # the estimate never inflates
    assert conn.estimate.mean_estimate == 1.0


def test_copy_echo_ignored_for_covering_acks():
    engine, conn, receiver, recorder = wire(
        algo(), packet_count=2, window_size=2, copy_echo=True,
        drop_fn=lambda pid, copy: pid == 1 and copy == 1)
    conn.start()
    engine.run()
    # cumulative ack covers packets 1 and 2 at once: copy identity unknown,
    # both measured per from_first exactly as without the echo
    assert conn.estimate.mean_estimate == 4.0


def test_duplicate_ack_is_a_no_op():
    engine, conn, receiver, recorder = wire(algo(), packet_count=1)
    conn.start()
    engine.run()
    before = conn.estimate
    conn.on_ack(AckPacket(1, 1, 1), engine.now)
    assert conn.estimate == before


def test_retry_state_resets_when_the_owner_is_acked():
    engine, conn, receiver, recorder = wire(
        algo(), packet_count=2, drop_fn=lambda pid, copy: (pid, copy) == (1, 1))
    conn.start()
    # packet 1 times out at 4 s and its retransmission is acked at 5 s, when
    # packet 2 goes out; its timer starts from zero retries and time
    engine.run(deadline=seconds_to_ticks(5.5))
    retry = conn._timers[2]
    assert retry.retry_count == 0
    assert retry.cumulative_timeout == retry.t0 == 12.0
    engine.run()
    assert conn.packets_acked == 2


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
