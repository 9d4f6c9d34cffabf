"""Canned, parameterized experiment definitions and their drivers.

A Scenario is an immutable Record, a pure value: (scenario, seed) determines
the run uniquely, and runs of one scenario share no state, even when they
are stepped in turn, so every driver here is replayable.  The named
scenarios exposed to the CLI are:

    fig3            geometric estimate blow-up: first copy of every packet
                    lost, samples measured from the first copy
    fig6_fromlast   stuck-low estimate: timer shorter than the true delay,
                    samples measured from the last copy
    fig6_ignore     same setup, ambiguous samples discarded outright
    tsao_lee_slow   3-link chain, matched 19.2 kb/s rates
    tsao_lee_fast   same chain with a 1 Mb/s ingress link (buffer overruns)
    loss_sweep      one Bernoulli-loss cell of the divergence-threshold grid
    jth_matrix      one (i, j) cell of the ack-of-copy-i vs measure-from-
                    copy-j outcome matrix
    classify        one canned estimator-drift classification case

The grid drivers (loss_threshold_sweep, jth_attempt_matrix run per cell)
live here as library functions; the CLI `sweep` command and
`scripts/reproduce_results.py` iterate them.
"""
from __future__ import annotations

import math
from typing import Callable, Optional, Sequence, Union

from .estimators import (
    Ewma,
    FromCopy,
    FromFirst,
    FromLast,
    Ignore,
    initial_estimate,
)
from .metrics import (
    ACK,
    DISCONNECT,
    ESTIMATE_UPDATE,
    RETRANSMIT,
    SEND,
    SummaryReport,
    TraceRecorder,
    TraceRow,
    VERDICT_DIVERGED,
    VERDICT_FALSE_CONVERGED,
    summarize,
)
from .record import Record
from .sim import (
    Engine,
    LinkSpec,
    Topology,
    has_finite_ticks,
    seconds_to_ticks,
    substream,
)
from .timeout import FixedRetries, NoBackoff, Scale
from .transport import (
    ChainPath,
    Connection,
    FixedDelayPath,
    Receiver,
    RetransmitScope,
    TimeoutAlgorithm,
    TimerMode,
)

#: retry budget that no canned run can exhaust; keeps give-up handling out
#: of experiments whose point is the estimator trajectory
EFFECTIVELY_UNLIMITED_RETRIES = 10 ** 9


# -- loss models -----------------------------------------------------------
# Each model answers drop_predicate(rng): the per-copy drop rule for the
# fixed-delay path, (packet_id, copy) -> dropped, or None for no rule.

DropPredicate = Callable[[int, int], bool]


class NoLoss(Record):
    ident = "none"

    def drop_predicate(self, rng) -> None:
        return None


class BernoulliLoss(Record):
    ident = "bernoulli"
    p: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.p < 1.0:
            raise ValueError(f"loss probability must be in [0, 1), got {self.p}")

    def drop_predicate(self, rng) -> DropPredicate:
        p = self.p
        return lambda packet_id, copy: rng.random() < p


class EveryFirstCopyLost(Record):
    """The first transmission of every packet is dropped, deterministically."""

    ident = "every_first_copy_lost"

    def drop_predicate(self, rng) -> DropPredicate:
        return lambda packet_id, copy: copy == 1


class BufferOverflowOnly(Record):
    """No synthetic drops; losses arise solely from finite chain buffers."""

    ident = "buffer_overflow_only"

    def drop_predicate(self, rng) -> None:
        return None


class DropCopiesBefore(Record):
    """Copies numbered below i are dropped, so copy i is the first to arrive.

    This is the deterministic forcing device for the ack-of-copy-i studies.
    """

    ident = "drop_copies_before"
    i: int

    def __post_init__(self) -> None:
        if self.i < 1:
            raise ValueError(f"copy index must be >= 1, got {self.i}")

    def drop_predicate(self, rng) -> DropPredicate:
        threshold = self.i
        return lambda packet_id, copy: copy < threshold


LossModel = Union[NoLoss, BernoulliLoss, EveryFirstCopyLost,
                  BufferOverflowOnly, DropCopiesBefore]


# -- scenario definition ---------------------------------------------------

class Scenario(Record):
    """Everything a run needs; plus a seed it is fully deterministic."""

    name: str
    algorithm: TimeoutAlgorithm
    loss: LossModel = NoLoss()
    true_rtt: float = 1.0
    packet_count: int = 100
    seed: int = 1
    horizon: Optional[float] = None  # seconds of simulated time, None = run out
    window_size: int = 1
    timer_mode: TimerMode = TimerMode.SINGLE
    retransmit_scope: RetransmitScope = RetransmitScope.TIMED_OUT_ONLY
    copy_echo: bool = False
    initial_mean: float = 1.0
    initial_variance: float = 0.0
    topology: Optional[Topology] = None
    packet_size_bits: int = 8000
    sample_floor: float = 1e-6  # seconds; substituted for nonpositive samples
    stop_estimate_above: Optional[float] = None  # seconds; early-out for sweeps

    def __post_init__(self) -> None:
        for name in ("true_rtt", "initial_mean", "sample_floor", "horizon",
                     "stop_estimate_above"):
            value = getattr(self, name)
            if value is not None and not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        for name in ("true_rtt", "sample_floor", "horizon"):
            value = getattr(self, name)
            if value is not None and not has_finite_ticks(value):
                raise ValueError(f"{name} must have a finite tick count, "
                                 f"got {value}")
        if seconds_to_ticks(self.true_rtt) < 1:
            raise ValueError(f"true_rtt must be at least one tick (1e-6 s), "
                             f"got {self.true_rtt}")
        if not (math.isfinite(self.initial_variance)
                and self.initial_variance >= 0):
            raise ValueError(f"initial_variance must be finite and >= 0, "
                             f"got {self.initial_variance}")
        for name in ("packet_count", "window_size", "packet_size_bits"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, "
                                 f"got {getattr(self, name)}")
        # a model without a drop rule has none whatever its random stream
        if self.topology is not None \
                and self.loss.drop_predicate(None) is not None:
            raise ValueError(
                "synthetic per-copy loss only applies to fixed-delay paths; "
                "chain scenarios lose packets to buffer overflow")


class RunResult(Record):
    """A finished run.  The result is the only owner of its rows: finish_run
    moves them out of the recorder and leaves the recorder empty, so
    dropping the result frees them."""

    scenario: Scenario
    rows: list[TraceRow]
    summary: SummaryReport
    connection: Connection
    receiver: Receiver
    path: object


class PreparedRun(Record):
    """A scenario assembled but not yet run; step the engine yourself or
    hand the whole thing to finish_run."""

    scenario: Scenario
    engine: Engine
    recorder: TraceRecorder
    receiver: Receiver
    path: object
    connection: Connection
    deadline: Optional[int]


def prepare_scenario(scenario: Scenario) -> PreparedRun:
    engine = Engine()
    recorder = TraceRecorder()
    receiver = Receiver()
    if scenario.topology is not None:
        path = ChainPath(engine, receiver, recorder, scenario.topology,
                         scenario.packet_size_bits)
    else:
        drop_fn = scenario.loss.drop_predicate(
            substream(scenario.seed, "loss"))
        path = FixedDelayPath(engine, receiver, recorder,
                              forward_ticks=seconds_to_ticks(scenario.true_rtt),
                              drop_fn=drop_fn)
    connection = Connection(
        engine, path, scenario.algorithm, recorder,
        initial=initial_estimate(scenario.initial_mean,
                                 scenario.initial_variance),
        packet_count=scenario.packet_count,
        window_size=scenario.window_size,
        timer_mode=scenario.timer_mode,
        retransmit_scope=scenario.retransmit_scope,
        copy_echo_enabled=scenario.copy_echo,
        backoff_rng=substream(scenario.seed, "backoff"),
        sample_floor_ticks=max(1, seconds_to_ticks(scenario.sample_floor)),
        stop_estimate_above=scenario.stop_estimate_above,
    )
    deadline = None
    if scenario.horizon is not None:
        deadline = seconds_to_ticks(scenario.horizon)
    return PreparedRun(scenario, engine, recorder, receiver, path, connection,
                       deadline)


def finish_run(prepared: PreparedRun) -> RunResult:
    """Summarize a prepared run whose engine has been drained.

    The rows move into the result and the recorder is left empty.  The
    engine, sender, path and recorder refer to one another, so rows the
    recorder kept would live until a cyclic collection; owned by the result
    alone, they are freed with it.
    """
    recorder = prepared.recorder
    rows, recorder.rows = recorder.rows, []
    summary = summarize(rows, prepared.scenario.true_rtt)
    return RunResult(prepared.scenario, rows, summary, prepared.connection,
                     prepared.receiver, prepared.path)


def run_scenario(scenario: Scenario) -> RunResult:
    prepared = prepare_scenario(scenario)
    prepared.connection.start()
    prepared.engine.run(prepared.deadline)
    return finish_run(prepared)


# -- canned scenario builders ---------------------------------------------

def a1_algorithm(k: float = 4.0, retries: int = 10) -> TimeoutAlgorithm:
    """The baseline composition: smoothed mean from the first copy, timer a
    multiple of the mean, no back-off, fixed retry budget."""
    return TimeoutAlgorithm(Ewma(0.5), FromFirst(), Scale(k), NoBackoff(),
                            FixedRetries(retries))


def make_fig3(i_max: int = 12, seed: int = 1) -> Scenario:
    if i_max < 1:
        raise ValueError(f"i_max must be >= 1, got {i_max}")
    return Scenario(
        name="fig3",
        algorithm=a1_algorithm(k=4.0, retries=EFFECTIVELY_UNLIMITED_RETRIES),
        loss=EveryFirstCopyLost(),
        true_rtt=1.0,
        packet_count=i_max,
        seed=seed,
        initial_mean=1.0,
    )


_FIG6_POLICIES = {
    "from_last": FromLast,
    "ignore": Ignore,
}


def make_fig6(policy: str = "from_last", packets: int = 1000,
              seed: int = 1) -> Scenario:
    if policy not in _FIG6_POLICIES:
        raise ValueError(f"policy must be one of {sorted(_FIG6_POLICIES)}, "
                         f"got {policy!r}")
    algorithm = TimeoutAlgorithm(Ewma(0.5), _FIG6_POLICIES[policy](),
                                 Scale(2.0), NoBackoff(),
                                 FixedRetries(EFFECTIVELY_UNLIMITED_RETRIES))
    return Scenario(
        name=f"fig6_{policy.replace('_', '')}",
        algorithm=algorithm,
        loss=NoLoss(),
        true_rtt=15.0,
        packet_count=packets,
        seed=seed,
        initial_mean=5.0,
    )


def make_tsao_lee(ingress_bps: int, seed: int = 1) -> Scenario:
    topology = Topology(
        links=(LinkSpec(ingress_bps, 0.010),
               LinkSpec(19200, 0.010),
               LinkSpec(19200, 0.010)),
        buffer_capacity=2,
    )
    return Scenario(
        name="tsao_lee_slow" if ingress_bps == 19200 else "tsao_lee_fast",
        algorithm=a1_algorithm(k=4.0, retries=EFFECTIVELY_UNLIMITED_RETRIES),
        loss=BufferOverflowOnly(),
        true_rtt=topology.unloaded_rtt(8000),
        packet_count=500,
        seed=seed,
        window_size=4,
        # Retransmitting only the blocking packet keeps the pipe starved
        # between recovery cycles, so cumulative acks cover cached packets
        # whose samples span whole timeout waits.  Go-back-N would refresh
        # every outstanding packet each cycle and the estimate equilibrates
        # instead of compounding.
        retransmit_scope=RetransmitScope.TIMED_OUT_ONLY,
        initial_mean=1.0,
        topology=topology,
        packet_size_bits=8000,
    )


def make_loss_cell(p: float, k: float = 4.0, seed: int = 1,
                   packets: int = 800) -> Scenario:
    # 800 packets separates the two first-passage regimes at the default
    # divergence threshold: above the 1/(1+k) boundary the estimate crosses
    # it within ~200 packets, below it the occasional excursion needs
    # thousands
    return Scenario(
        name="loss_sweep",
        algorithm=a1_algorithm(k=k, retries=EFFECTIVELY_UNLIMITED_RETRIES),
        loss=BernoulliLoss(p),
        true_rtt=1.0,
        packet_count=packets,
        seed=seed,
        initial_mean=1.0,
        stop_estimate_above=100.0,
    )


def make_jth_cell(i: int, j: int, seed: int = 1) -> Scenario:
    if i < 1 or j < 1:
        raise ValueError(f"copy indices must be >= 1, got i={i} j={j}")
    algorithm = TimeoutAlgorithm(Ewma(0.875), FromCopy(j), Scale(2.0),
                                 NoBackoff(),
                                 FixedRetries(EFFECTIVELY_UNLIMITED_RETRIES))
    return Scenario(
        name="jth_matrix",
        algorithm=algorithm,
        loss=DropCopiesBefore(i),
        true_rtt=1.0,
        packet_count=80,
        seed=seed,
        initial_mean=0.15,
        stop_estimate_above=100.0,
    )


#: case -> (layer1, layer2, layer3, loss, packets, initial mean) of the
#: canned drift cases: estimates that grow, hold, or shrink across ambiguous
#: acknowledgments
_CLASSIFY_CASES = {
    "class1": (Ewma(0.5), FromFirst(), Scale(4.0), EveryFirstCopyLost(), 10,
               1.0),
    "class2": (Ewma(0.5), Ignore(), Scale(4.0), EveryFirstCopyLost(), 10, 1.0),
    # spurious-timeout regime measured from the second copy: every sample
    # lands below the mean, so the estimate drifts downward
    "class3": (Ewma(0.875), FromCopy(2), Scale(2.0), NoLoss(), 12, 0.49),
}


def make_classify_case(case: str = "class1", seed: int = 1) -> Scenario:
    if case not in _CLASSIFY_CASES:
        raise ValueError(f"case must be class1, class2 or class3, got {case!r}")
    layer1, layer2, layer3, loss, packets, initial_mean = _CLASSIFY_CASES[case]
    return Scenario(
        name="classify",
        algorithm=TimeoutAlgorithm(layer1, layer2, layer3, NoBackoff(),
                                   FixedRetries(EFFECTIVELY_UNLIMITED_RETRIES)),
        loss=loss,
        true_rtt=1.0,
        packet_count=packets,
        seed=seed,
        initial_mean=initial_mean,
    )


# -- figure-level drivers --------------------------------------------------

def fig3_divergence(i_max: int) -> list[float]:
    """Estimate after each ambiguous ack, E_0 included: i_max + 1 values."""
    scenario = make_fig3(i_max)
    result = run_scenario(scenario)
    series = [after for _, after in result.summary.ambiguous_acks]
    if len(series) != i_max:
        raise RuntimeError(
            f"expected {i_max} ambiguous acknowledgments, saw {len(series)}")
    return [scenario.initial_mean] + series


class Fig6Result(Record):
    trajectory: list[float]
    retransmissions: int
    duplicates: int
    summary: SummaryReport


def fig6_false_convergence(policy: str, packets: int = 1000) -> Fig6Result:
    result = run_scenario(make_fig6(policy, packets))
    summary = result.summary
    return Fig6Result(
        trajectory=[row.estimate_e for row in result.rows
                    if row.event == ESTIMATE_UPDATE] or
                   [result.scenario.initial_mean],
        retransmissions=summary.total_copies_sent - summary.packets_offered,
        duplicates=result.receiver.duplicates,
        summary=summary,
    )


def _timer_wait_ticks(rows: Sequence[TraceRow],
                      serialization_ticks: int) -> int:
    """Ticks up to the last row that a timer was armed while the source
    link sat idle; the link serializes copies in turn."""
    waiting = sent = acked = busy_until = last = 0
    for row in rows:
        now, event = row.time_ticks, row.event
        if sent > acked:
            waiting += max(0, now - max(last, busy_until))
        last = now
        if event == SEND or event == RETRANSMIT:
            busy_until = max(now, busy_until) + serialization_ticks
            sent = max(sent, row.packet_id)
        elif event == ACK:
            acked = max(acked, row.packet_id)
        elif event == DISCONNECT:
            break
    return waiting


def timer_wait_share(result: RunResult) -> float:
    """The share of a chain run's elapsed time (up to its last row, as in
    the summary) that a retransmission timer was armed (a sent packet
    unacknowledged, no disconnect; RFC 6298 section 5) while the source
    link sat idle (serializing no sent or retransmitted copy), read from
    the trace.  Both sides end at the last row, so the share is at most 1
    even when the engine's clock ran past it."""
    path = result.path
    elapsed = result.summary.elapsed_ticks
    waiting = _timer_wait_ticks(
        result.rows, path.links[0].serialization_ticks(path.size_bits))
    return waiting / elapsed if elapsed > 0 else 0.0


class TsaoLeeResult(Record):
    elapsed_ticks: int
    drop_count_per_node: list[int]
    timeout_count: int
    waiting_fraction: float
    summary: SummaryReport


def tsao_lee(ingress_bps: int) -> TsaoLeeResult:
    """Chain-transfer experiment.  waiting_fraction is timer_wait_share."""
    result = run_scenario(make_tsao_lee(ingress_bps))
    return TsaoLeeResult(
        elapsed_ticks=result.summary.elapsed_ticks,
        drop_count_per_node=result.path.drops_per_node(),
        timeout_count=result.connection.timeout_event_count,
        waiting_fraction=timer_wait_share(result),
        summary=result.summary,
    )


def loss_threshold_sweep(k: float, p_values: Sequence[float], *,
                         seed: int = 1, packets: int = 800
                         ) -> list[tuple[float, SummaryReport]]:
    """One run per loss probability; rows sorted by p."""
    return [(p, run_scenario(make_loss_cell(p, k=k, seed=seed,
                                            packets=packets)).summary)
            for p in sorted(p_values)]


OUTCOME_CONVERGES = "Converges"
OUTCOME_DIVERGES = "Diverges"
OUTCOME_FALSE_CONVERGES = "FalseConverges"


def jth_attempt_matrix(i: int, j: int) -> str:
    """Outcome for one (ack-of-copy-i, measure-from-copy-j) cell."""
    scenario = make_jth_cell(i, j)
    result = run_scenario(scenario)
    summary = result.summary
    if summary.verdict == VERDICT_DIVERGED:
        return OUTCOME_DIVERGES
    if summary.verdict == VERDICT_FALSE_CONVERGED:
        return OUTCOME_FALSE_CONVERGES
    d = scenario.true_rtt
    if abs(summary.final_e - d) / d < 0.05:
        return OUTCOME_CONVERGES
    raise RuntimeError(
        f"cell (i={i}, j={j}) ended bounded but away from the true delay: "
        f"final_e={summary.final_e:.6f}")


def classify_case(case: str, seed: int = 1) -> str:
    return run_scenario(make_classify_case(case, seed)).summary.class_label \
        or "II"


#: CLI-addressable scenario names and their default constructions, by seed
_NAMED: dict[str, Callable[[int], Scenario]] = {
    "fig3": lambda seed: make_fig3(seed=seed),
    "fig6_fromlast": lambda seed: make_fig6("from_last", seed=seed),
    "fig6_ignore": lambda seed: make_fig6("ignore", seed=seed),
    "tsao_lee_slow": lambda seed: make_tsao_lee(19200, seed=seed),
    "tsao_lee_fast": lambda seed: make_tsao_lee(1_000_000, seed=seed),
    "loss_sweep": lambda seed: make_loss_cell(0.3, seed=seed),
    "jth_matrix": lambda seed: make_jth_cell(2, 2, seed=seed),
    "classify": lambda seed: make_classify_case("class1", seed=seed),
}
SCENARIO_NAMES = tuple(_NAMED)


def named_scenario(name: str, seed: int = 1) -> Scenario:
    """The named scenario's default construction; KeyError if unknown."""
    return _NAMED[name](seed)
