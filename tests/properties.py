"""Randomized invariant batteries.

Each check_* function draws `cases` random instances from a seeded generator,
asserts the invariant on every one, and returns the number of cases checked.
The unit-test files exercise the same invariants through hypothesis for
shrinkable counterexamples; these loops exist so the acceptance suite can run
each invariant at a guaranteed case count.
"""
from __future__ import annotations

import io
import math
import random

from rtosim.estimators import (
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
    RttEstimate,
    SecondOrderExponentialIncrease,
    TransmissionRecord,
    extract_sample,
    increase_estimate,
)
from rtosim.metrics import (
    ACK,
    DIVERGENCE_FACTOR,
    ESTIMATE_UPDATE,
    EVENT_KINDS,
    RETRANSMIT,
    SEND,
    TIMEOUT,
    TraceRow,
    read_trace,
    summarize,
    write_trace,
)
from rtosim.scenarios import (
    BernoulliLoss,
    EveryFirstCopyLost,
    NoLoss,
    Scenario,
    finish_run,
    prepare_scenario,
    run_scenario,
)
from rtosim.sim import (
    Engine,
    EventKind,
    LinkSpec,
    NodeBuffer,
    SchedulingError,
    Topology,
    seconds_to_ticks,
    ticks_to_seconds,
)
from rtosim.timeout import (
    ExponentialBackoff,
    FixedRetries,
    GrowingRetries,
    LinearBackoff,
    NoBackoff,
    RandomExponentialBackoff,
    RetryState,
    Scale,
    TotalTimeAndRetries,
    backoff_interval,
    disconnect_decision,
    first_timeout,
)
from rtosim.transport import RetransmitScope, TimeoutAlgorithm, TimerMode


def a1_algorithm(k: float = 4.0, retries: int = 10) -> TimeoutAlgorithm:
    """The baseline composition: smoothed mean from the first copy, timer a
    multiple of the mean, no back-off, fixed retry budget."""
    return TimeoutAlgorithm(Ewma(0.5), FromFirst(), Scale(k), NoBackoff(),
                            FixedRetries(retries))


def _estimate(rng: random.Random) -> RttEstimate:
    return RttEstimate(rng.uniform(1e-3, 1e3), rng.uniform(0.0, 1e3))


# -- layer 1 / layer 2 ------------------------------------------------------

def check_shift_equivalence(cases: int, seed: int = 101) -> int:
    """ewma_shift(n) is bit-identical to ewma(alpha = 1 - 2**-n)."""
    rng = random.Random(seed)
    for _ in range(cases):
        est = _estimate(rng)
        sample = rng.uniform(0.0, 1e3)
        n = rng.randint(1, 10)
        via_shift = EwmaShift(n).update(est, sample).mean_estimate
        via_alpha = Ewma(1.0 - 2.0 ** -n).update(est, sample).mean_estimate
        assert via_shift == via_alpha, (est, sample, n)
    return cases


def check_update_bounds(cases: int, seed: int = 102) -> int:
    """Every layer 1 mean lands inside [min(E, S), max(E, S)]; edge keeps
    the variance nonnegative."""
    rng = random.Random(seed)
    for _ in range(cases):
        est = _estimate(rng)
        sample = rng.uniform(0.0, 1e3)
        lo, hi = sorted((est.mean_estimate, sample))
        outputs = [
            Ewma(rng.uniform(1e-6, 1 - 1e-6)).update(est, sample),
            EwmaShift(rng.randint(1, 16)).update(est, sample),
            Mills(15 / 16, 3 / 4).update(est, sample),
            Edge(rng.uniform(1e-6, 1 - 1e-6),
                 rng.uniform(1e-6, 1 - 1e-6)).update(est, sample),
        ]
        for out in outputs:
            assert lo <= out.mean_estimate <= hi, (est, sample, out)
            assert out.variance_estimate >= 0.0
    return cases


def check_mills_degenerate(cases: int, seed: int = 103) -> int:
    """mills(alpha1, alpha2) is exactly ewma(alpha1) for a sample below the
    estimate and ewma(alpha2) otherwise."""
    rng = random.Random(seed)
    for _ in range(cases):
        est = _estimate(rng)
        sample = rng.uniform(0.0, 1e3)
        alpha1 = rng.uniform(1e-6, 1 - 1e-6)
        alpha2 = alpha1 * rng.uniform(1e-3, 1 - 1e-6)
        alpha = alpha1 if sample < est.mean_estimate else alpha2
        assert Mills(alpha1, alpha2).update(est, sample) == \
            Ewma(alpha).update(est, sample), (est, sample, alpha1, alpha2)
    return cases


def check_single_copy_policies(cases: int, seed: int = 104) -> int:
    """A single-copy record yields the same sample under every policy."""
    rng = random.Random(seed)
    policies = [FromFirst(), FromLast(), FromCopy(1), FromCopy(7), Ignore(),
                ExponentialIncrease()]
    for _ in range(cases):
        send = rng.uniform(0.0, 1e3)
        ack = send + rng.uniform(1e-6, 1e3)
        record = TransmissionRecord(1, [send])
        samples = {extract_sample(record, ack, p) for p in policies}
        assert samples == {ack - send}, (send, ack, samples)
    return cases


def check_first_vs_last(cases: int, seed: int = 105) -> int:
    """On multi-copy records FromFirst strictly exceeds FromLast, and any
    FromCopy(j) sample sits between them."""
    rng = random.Random(seed)
    for _ in range(cases):
        times = [rng.uniform(0.0, 10.0)]
        for _ in range(rng.randint(1, 4)):
            times.append(times[-1] + rng.uniform(1e-3, 10.0))
        ack = times[-1] + rng.uniform(1e-3, 10.0)
        record = TransmissionRecord(1, times)
        from_first = extract_sample(record, ack, FromFirst())
        from_last = extract_sample(record, ack, FromLast())
        assert from_first > from_last, (times, ack)
        j = rng.randint(1, 6)
        mid = extract_sample(record, ack, FromCopy(j))
        assert from_last <= mid <= from_first, (times, ack, j)
    return cases


def check_increase_monotone(cases: int, seed: int = 106) -> int:
    """Every increase application strictly raises the mean; the parabolic
    step and second-order multiplier never shrink between calls."""
    rng = random.Random(seed)
    for _ in range(cases):
        schemes = [
            LinearIncrease(rng.uniform(1e-3, 5.0)),
            ParabolicIncrease(rng.uniform(1e-3, 5.0), rng.uniform(0.0, 5.0)),
            ExponentialIncrease(1.0 + rng.uniform(1e-3, 3.0)),
            SecondOrderExponentialIncrease(1.0 + rng.uniform(1e-3, 2.0),
                                           rng.uniform(0.0, 2.0)),
        ]
        for scheme in schemes:
            est = RttEstimate(rng.uniform(1e-3, 100.0))
            running = None
            last_step, last_mult = 0.0, 0.0
            for _ in range(5):
                nxt, running = increase_estimate(est, scheme, running)
                assert nxt.mean_estimate > est.mean_estimate, scheme
                if isinstance(scheme, ParabolicIncrease):
                    step = nxt.mean_estimate - est.mean_estimate
                    assert step >= last_step - 1e-12
                    last_step = step
                elif isinstance(scheme, SecondOrderExponentialIncrease):
                    mult = nxt.mean_estimate / est.mean_estimate
                    assert mult >= last_mult - 1e-12
                    last_mult = mult
                est = nxt
    return cases


# -- layers 3-5 -------------------------------------------------------------

def check_scale_linearity(cases: int, seed: int = 107) -> int:
    rng = random.Random(seed)
    for _ in range(cases):
        k = rng.uniform(1e-3, 50.0)
        mean = rng.uniform(1e-3, 1e3)
        lam = rng.uniform(1e-3, 1e3)
        scaled = first_timeout(RttEstimate(lam * mean), Scale(k))
        direct = lam * first_timeout(RttEstimate(mean), Scale(k))
        assert math.isclose(scaled, direct, rel_tol=1e-12), (k, mean, lam)
    return cases


def _armed_sequence(policy, t0: float, steps: int,
                    rng: random.Random) -> list[float]:
    state = RetryState()
    state.arm(t0)
    intervals = [t0]
    for _ in range(steps):
        state.retry_count += 1
        nxt = backoff_interval(state, policy, rng)
        state.arm(nxt)
        intervals.append(nxt)
    return intervals


def check_backoff_shapes(cases: int, seed: int = 108) -> int:
    """Uncapped exponential back-off is exactly geometric; adding any cap
    keeps the sequence nondecreasing and never above t_max."""
    rng = random.Random(seed)
    for _ in range(cases):
        b = 1.0 + rng.uniform(1e-3, 3.0)
        t0 = rng.uniform(1e-3, 10.0)
        steps = rng.randint(2, 8)
        free = _armed_sequence(ExponentialBackoff(b), t0, steps, rng)
        for prev, cur in zip(free, free[1:]):
            assert cur == b * prev, (b, t0, free)
        t_max = rng.uniform(t0, t0 * b ** steps)
        capped = _armed_sequence(ExponentialBackoff(b, t_max=t_max), t0,
                                 steps, rng)
        for prev, cur in zip(capped, capped[1:]):
            assert prev <= cur <= t_max + 1e-15, (b, t0, t_max, capped)
        lin = _armed_sequence(LinearBackoff(rng.uniform(1e-3, 5.0),
                                            t_max=t_max), t0, steps, rng)
        assert all(v <= t_max + 1e-15 for v in lin[1:])
    return cases


def check_randexp_backoff(cases: int, seed: int = 109) -> int:
    """Random exponential draws stay inside [t_min, b**i * t0] and replay
    bit-identically from an equally seeded stream."""
    rng = random.Random(seed)
    for _ in range(cases):
        b = 1.0 + rng.uniform(1e-3, 2.0)
        t0 = rng.uniform(1e-2, 10.0)
        t_min = rng.uniform(1e-6, t0)
        policy = RandomExponentialBackoff(b, t_min)
        steps = rng.randint(2, 6)
        stream_seed = rng.randrange(2 ** 32)
        first = _armed_sequence(policy, t0, steps, random.Random(stream_seed))
        second = _armed_sequence(policy, t0, steps, random.Random(stream_seed))
        assert first == second
        for i, value in enumerate(first[1:], start=1):
            upper = b ** i * t0
            assert min(t_min, upper) <= value <= upper, (b, t0, t_min, i)
    return cases


def check_disconnect_monotone(cases: int, seed: int = 110) -> int:
    """Once a give-up policy says disconnect, more retries or elapsed
    timeout never revoke the decision."""
    rng = random.Random(seed)
    for _ in range(cases):
        policy = rng.choice([
            FixedRetries(rng.randint(1, 6)),
            GrowingRetries(rng.randint(1, 4)),
            TotalTimeAndRetries(rng.uniform(0.5, 20.0), rng.randint(1, 5)),
        ])
        state = RetryState()
        state.packets_delivered = rng.randrange(10)
        state.arm(rng.uniform(0.1, 5.0))
        tripped = False
        for _ in range(12):
            decision = disconnect_decision(state, policy)
            assert not (tripped and not decision), (policy, state)
            tripped = tripped or decision
            state.retry_count += 1
            state.arm(rng.uniform(0.1, 5.0))
    return cases


# -- simulation core --------------------------------------------------------

def check_engine_ordering(cases: int, seed: int = 112) -> int:
    """Events come back in (time, insertion) order; scheduling into the
    past is refused."""
    rng = random.Random(seed)
    for _ in range(cases):
        engine = Engine()
        seen: list[tuple[int, int]] = []
        count = rng.randint(1, 12)
        for label in range(count):
            when = rng.randrange(5)  # ties on purpose
            engine.schedule(when, EventKind.PACKET_ARRIVAL, (when, label),
                            lambda payload, now: seen.append(payload))
        engine.run()
        assert seen == sorted(seen), seen
        try:
            engine.schedule(engine.now - 1, EventKind.PACKET_ARRIVAL, None,
                            lambda payload, now: None)
        except SchedulingError:
            pass
        else:
            assert engine.now == 0, "past scheduling must be rejected"
    return cases


def check_buffer_bounds(cases: int, seed: int = 113) -> int:
    """Drop-tail occupancy stays within [0, capacity] under random
    enqueue/release traffic and matches a shadow model."""
    rng = random.Random(seed)
    for _ in range(cases):
        capacity = rng.randint(1, 5)
        buf = NodeBuffer(capacity)
        model_occupancy = model_drops = 0
        for _ in range(rng.randint(1, 30)):
            if model_occupancy > 0 and rng.random() < 0.4:
                buf.release()
                model_occupancy -= 1
            else:
                admitted = buf.enqueue_or_drop()
                if model_occupancy < capacity:
                    assert admitted
                    model_occupancy += 1
                else:
                    assert not admitted
                    model_drops += 1
            assert 0 <= buf.occupancy <= capacity
        assert buf.occupancy == model_occupancy
        assert buf.dropped == model_drops
    return cases


def _random_chain_scenario(rng: random.Random, name: str) -> Scenario:
    links = tuple(
        LinkSpec(rng.choice([9600, 19200, 48000, 96000]),
                 rng.uniform(0.001, 0.02))
        for _ in range(rng.randint(1, 3))
    )
    topology = Topology(links, buffer_capacity=rng.randint(1, 2))
    return Scenario(
        name=name,
        algorithm=a1_algorithm(k=rng.uniform(2.0, 6.0),
                               retries=10 ** 9),
        true_rtt=topology.unloaded_rtt(8000),
        packet_count=rng.randint(1, 4),
        seed=rng.randrange(2 ** 16),
        window_size=rng.randint(1, 3),
        topology=topology,
    )


def check_chain_conservation(cases: int, seed: int = 114) -> int:
    """On a drained chain every packet is delivered, every sent copy was
    either received (once per packet, plus the receiver's duplicates) or
    dropped, interior buffers are empty, and no ack beats the unloaded
    round trip."""
    rng = random.Random(seed)
    for index in range(cases):
        result = run_scenario(_random_chain_scenario(rng, f"chain{index}"))
        conn = result.connection
        path, scenario = conn.path, conn.scenario
        receiver = path.receiver
        dropped = sum(path.drops_per_node())
        assert receiver.cumulative == scenario.packet_count
        assert receiver.cumulative + receiver.duplicates + dropped \
            == conn.total_copies_sent
        assert all(buf.occupancy == 0 for buf in path.buffers.values())
        floor_ticks = seconds_to_ticks(scenario.true_rtt)
        first_ack = next(r for r in result.rows if r.event == ACK)
        assert first_ack.time_ticks >= floor_ticks
        assert result.summary.packets_delivered == scenario.packet_count
    return cases


# -- transport --------------------------------------------------------------

def check_zero_loss_convergence(cases: int, seed: int = 115) -> int:
    """Without loss no retransmission ever happens and the smoothed mean
    obeys the geometric error bound |E_n - d| <= alpha**n |E0 - d|, with n
    the trace's estimate_update rows.

    The initial mean is drawn at or above the true delay: an undershooting
    first timer causes genuine spurious retransmissions even without loss
    (that is the false-convergence setup, tested elsewhere).
    """
    rng = random.Random(seed)
    for index in range(cases):
        alpha = rng.uniform(0.1, 0.9)
        rtt = rng.uniform(0.05, 5.0)
        scenario = Scenario(
            name=f"clean{index}",
            algorithm=TimeoutAlgorithm(Ewma(alpha), FromFirst(),
                                       Scale(rng.uniform(2.0, 6.0)),
                                       NoBackoff(), FixedRetries(10)),
            loss=NoLoss(),
            true_rtt=rtt,
            packet_count=rng.randint(1, 10),
            seed=index,
            window_size=rng.randint(1, 3),
            initial_mean=rtt * rng.uniform(1.0, 5.0),
        )
        result = run_scenario(scenario)
        assert result.summary.total_copies_sent == scenario.packet_count
        assert all(row.event != "retransmit" for row in result.rows)
        est = result.connection.estimate
        d = ticks_to_seconds(seconds_to_ticks(rtt))  # as sampled, tick-exact
        updates = sum(1 for row in result.rows if row.event == ESTIMATE_UPDATE)
        bound = alpha ** updates * abs(scenario.initial_mean - d)
        assert abs(est.mean_estimate - d) <= bound + 1e-9, scenario
    return cases


def _random_lossy_scenario(rng: random.Random, name: str) -> Scenario:
    return Scenario(
        name=name,
        algorithm=a1_algorithm(k=rng.uniform(1.5, 4.0), retries=10 ** 9),
        loss=BernoulliLoss(rng.uniform(0.0, 0.25)),
        true_rtt=rng.uniform(0.1, 2.0),
        packet_count=rng.randint(1, 5),
        seed=rng.randrange(2 ** 16),
        window_size=rng.randint(1, 3),
    )


def check_single_timer_exclusive(cases: int, seed: int = 116) -> int:
    """In single-timer mode at most one live expiry event is pending at any
    event boundary (stale expiries, whose owner was acked, do not count)."""
    rng = random.Random(seed)
    for index in range(cases):
        conn = prepare_scenario(_random_lossy_scenario(rng, f"tmr{index}"))
        engine = conn.engine
        conn.start()
        guard = 0
        while engine._queue:
            guard += 1
            assert guard < 100_000
            engine.run(deadline=engine._queue[0][0])
            live = sum(
                1 for _, _, handler, owner in engine._queue
                if handler == conn._on_timer and owner in conn._timers
            )
            assert live <= 1, f"{live} live timers pending"
        finish_run(conn)
    return cases


def check_outstanding_contiguous(cases: int, seed: int = 121) -> int:
    """After every event the sender's outstanding packets are exactly
    packets_acked + 1 .. next_packet_id - 1, in id order: the range an ack
    newly covers starts right after the packets already acknowledged.  Each
    packet's copies are sent at strictly increasing times, even where two
    timers retransmit it in one tick."""
    rng = random.Random(seed)
    for index in range(cases):
        scenario = Scenario(
            name=f"contig{index}",
            algorithm=a1_algorithm(k=rng.uniform(1.2, 4.0), retries=10 ** 9),
            loss=BernoulliLoss(rng.uniform(0.0, 0.3)),
            true_rtt=rng.uniform(0.1, 2.0),
            packet_count=rng.randint(1, 10),
            seed=rng.randrange(2 ** 16),
            window_size=rng.randint(1, 6),
            timer_mode=rng.choice(list(TimerMode)),
            retransmit_scope=rng.choice(list(RetransmitScope)),
            copy_echo=rng.random() < 0.5,
        )
        conn = prepare_scenario(scenario)
        engine = conn.engine

        def check() -> None:
            first = conn.packets_acked + 1
            assert list(conn.outstanding) == \
                list(range(first, conn.next_packet_id)), scenario

        schedule = engine.schedule

        def checked_schedule(time, kind, payload, handler):
            def checked(payload, now):
                handler(payload, now)
                check()
            return schedule(time, kind, payload, checked)

        engine.schedule = checked_schedule  # check after every event
        conn.start()
        check()
        engine.run()
        assert conn.packets_acked == scenario.packet_count
        last_sent: dict[int, int] = {}
        for row in conn.recorder.rows:
            if row.event in (SEND, RETRANSMIT):
                assert row.time_ticks > last_sent.get(row.packet_id, -1), \
                    (scenario, row)
                last_sent[row.packet_id] = row.time_ticks
    return cases


def check_copy_accounting(cases: int, seed: int = 117) -> int:
    """Every packet is delivered, receiver duplicates equal copies sent
    minus delivered packets minus network drops, and the trace's timeout
    rows match the sender counter."""
    rng = random.Random(seed)
    for index in range(cases):
        result = run_scenario(_random_lossy_scenario(rng, f"acct{index}"))
        conn = result.connection
        receiver = conn.path.receiver
        drops = sum(result.summary.drop_count_per_node)
        assert receiver.cumulative == conn.scenario.packet_count
        assert receiver.duplicates == \
            conn.total_copies_sent - receiver.cumulative - drops
        assert receiver.duplicates == result.summary.duplicates_received
        timeout_rows = sum(1 for r in result.rows if r.event == TIMEOUT)
        assert timeout_rows == conn.timeout_event_count
        assert result.summary.timeout_count == conn.timeout_event_count
    return cases


# -- scenarios / metrics ----------------------------------------------------

def check_replay_determinism(cases: int, seed: int = 118) -> int:
    """The same scenario and seed replays to the identical trace."""
    rng = random.Random(seed)
    for index in range(cases):
        scenario = _random_lossy_scenario(rng, f"replay{index}")
        first = run_scenario(scenario)
        second = run_scenario(scenario)
        assert first.rows == second.rows
        assert first.summary == second.summary
    return cases


def check_summary_roundtrip(cases: int, seed: int = 119) -> int:
    """Summarizing a trace re-read from its serialized form reproduces the
    in-memory report, and the verdict is always exactly one of the three."""
    rng = random.Random(seed)
    verdicts = {"Bounded", "Diverged", "FalseConverged"}
    for index in range(cases):
        if index % 2:
            scenario = _random_lossy_scenario(rng, f"io{index}")
        else:  # mix in a systematically retransmitting shape
            scenario = Scenario(
                name=f"io{index}",
                algorithm=a1_algorithm(k=rng.uniform(2.0, 5.0),
                                       retries=10 ** 9),
                loss=EveryFirstCopyLost(),
                packet_count=rng.randint(1, 4),
                seed=index,
            )
        result = run_scenario(scenario)
        buffer = io.StringIO()
        write_trace(result.rows, buffer)
        buffer.seek(0)
        reread = summarize(read_trace(buffer), scenario.true_rtt)
        assert reread == result.summary
        assert result.summary.verdict in verdicts
    return cases


def check_divergence_monotone(cases: int, seed: int = 120) -> int:
    """Raising any one row's estimate in a trace can only turn summarize's
    Diverged verdict on, never off."""
    rng = random.Random(seed)
    kinds = sorted(EVENT_KINDS)
    for _ in range(cases):
        rtt = rng.uniform(0.1, 10.0)
        limit = DIVERGENCE_FACTOR * rtt
        rows = []
        time_ticks = 0
        for _ in range(rng.randint(1, 20)):
            time_ticks += rng.randint(0, 1000)
            event = rng.choice(kinds)
            rows.append(TraceRow(
                time_ticks, event, rng.randint(1, 5),
                rng.randint(2, 3) if event == RETRANSMIT else 1,
                rng.uniform(0.0, limit * 1.1), 0.0, 1.0, rng.randint(0, 2)))
        before = summarize(rows, rtt).verdict == "Diverged"
        index = rng.randrange(len(rows))
        bumped = list(rows)
        bumped[index] = rows[index]._replace(
            estimate_e=rows[index].estimate_e + rng.uniform(0.0, limit))
        after = summarize(bumped, rtt).verdict == "Diverged"
        assert after or not before, (rows, bumped)
    return cases


#: name -> battery, used by the acceptance suite to drive every invariant
ALL_BATTERIES = {
    fn.__name__: fn
    for fn in (
        check_shift_equivalence,
        check_update_bounds,
        check_mills_degenerate,
        check_single_copy_policies,
        check_first_vs_last,
        check_increase_monotone,
        check_scale_linearity,
        check_backoff_shapes,
        check_randexp_backoff,
        check_disconnect_monotone,
        check_engine_ordering,
        check_buffer_bounds,
        check_chain_conservation,
        check_zero_loss_convergence,
        check_single_timer_exclusive,
        check_outstanding_contiguous,
        check_copy_accounting,
        check_replay_determinism,
        check_summary_roundtrip,
        check_divergence_monotone,
    )
}
