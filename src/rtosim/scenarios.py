"""Scenarios: the run definition, its assembly, and the canned presets.

A Scenario is an immutable Record, a pure value: (scenario, seed) determines
the run uniquely, and runs of one scenario share no state, even when they
are stepped in turn.  prepare_scenario assembles one into an engine, a path
and a sender, and returns the sender (`transport.Connection`), which reads
every setting from its scenario; run_scenario runs it to the end and
returns a RunResult: the trace rows, their summary and the sender.

Each canned scenario is a preset: a flat config (see `config`) of the
keys it sets over Scenario's defaults, built on a shared A1 base.
`config.build_scenario` lays a config's keys over the preset it names, so
the CLI, the benchmark and the experiment drivers (`rtosim.experiments`)
all build a scenario one way.  The presets are:

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
"""
from __future__ import annotations

from typing import Callable, Optional, Union

from .metrics import SummaryReport, TraceRecorder, TraceRow, summarize
from .record import Record, require_count, require_finite, require_positive
from .sim import (
    Engine,
    Topology,
    has_finite_ticks,
    seconds_to_ticks,
    substream,
)
from .transport import (
    ChainPath,
    Connection,
    FixedDelayPath,
    RetransmitScope,
    TimeoutAlgorithm,
    TimerMode,
)

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
        require_finite(self, "p")
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
        require_count(self, "i")

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
        # each field holds only what its key can write: --dump-config
        # would write anything else as a value that build_scenario refuses
        require_count(self, "packet_count", "window_size", "packet_size_bits")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ValueError(f"seed must be an integer, got {self.seed}")
        require_positive(self, "true_rtt", "initial_mean", "sample_floor",
                         "horizon", "stop_estimate_above")
        require_finite(self, "initial_variance")
        if self.initial_variance < 0:
            raise ValueError(f"initial_variance must be >= 0, "
                             f"got {self.initial_variance}")
        for name, kind in (("timer_mode", TimerMode), ("copy_echo", bool),
                           ("retransmit_scope", RetransmitScope)):
            value = getattr(self, name)
            if not isinstance(value, kind):
                raise ValueError(f"{name} must be a {kind.__name__}, "
                                 f"got {value!r}")
        for name in ("true_rtt", "sample_floor", "horizon"):
            value = getattr(self, name)
            if value is not None and not has_finite_ticks(value):
                raise ValueError(f"{name} must have a finite tick count, "
                                 f"got {value}")
        if seconds_to_ticks(self.true_rtt) < 1:
            raise ValueError(f"true_rtt must be at least one tick (1e-6 s), "
                             f"got {self.true_rtt}")
        # a model without a drop rule has none whatever its random stream
        if self.topology is not None \
                and self.loss.drop_predicate(None) is not None:
            raise ValueError(
                "synthetic per-copy loss only applies to fixed-delay paths; "
                "chain scenarios lose packets to buffer overflow")


class RunResult(Record):
    """A finished run.  The result is the only owner of its rows: finish_run
    moves them out of the recorder and leaves the recorder empty, so
    dropping the result frees them.  The sender holds the rest of the run:
    its scenario, engine, path (and the path's receiver) and recorder."""

    rows: list[TraceRow]
    summary: SummaryReport
    connection: Connection


def prepare_scenario(scenario: Scenario) -> Connection:
    """Assemble a scenario into an engine, a path and its sender, and return
    the sender: start it and run its engine yourself, or hand the scenario
    to run_scenario."""
    engine = Engine()
    recorder = TraceRecorder()
    if scenario.topology is not None:
        path = ChainPath(engine, recorder, scenario.topology,
                         scenario.packet_size_bits)
    else:
        drop_fn = scenario.loss.drop_predicate(
            substream(scenario.seed, "loss"))
        path = FixedDelayPath(engine, recorder,
                              forward_ticks=seconds_to_ticks(scenario.true_rtt),
                              drop_fn=drop_fn)
    return Connection(scenario, engine, path, recorder)


def finish_run(connection: Connection) -> RunResult:
    """Summarize a prepared run whose engine has been drained.

    The rows move into the result and the recorder is left empty.  The
    engine, sender, path and recorder refer to one another, so rows the
    recorder kept would live until a cyclic collection; owned by the result
    alone, they are freed with it.
    """
    recorder = connection.recorder
    rows, recorder.rows = recorder.rows, []
    summary = summarize(rows, connection.scenario.true_rtt)
    return RunResult(rows, summary, connection)


def run_scenario(scenario: Scenario) -> RunResult:
    connection = prepare_scenario(scenario)
    connection.start()
    connection.engine.run(None if scenario.horizon is None
                          else seconds_to_ticks(scenario.horizon))
    return finish_run(connection)


# -- canned scenarios ------------------------------------------------------

#: the baseline composition A1: smoothed mean from the first copy, timer a
#: multiple of the mean, no back-off.  Its retry budget is one that no
#: canned run can exhaust, which keeps give-up handling out of experiments
#: whose point is the estimator trajectory.
_A1 = {
    "algorithm.layer1": "ewma", "algorithm.layer1.alpha": "0.5",
    "algorithm.layer2": "from_first",
    "algorithm.layer3": "scale", "algorithm.layer3.k": "4.0",
    "algorithm.layer4": "none",
    "algorithm.layer5": "fixed_retries", "algorithm.layer5.r": "1000000000",
}

_FIG6 = {**_A1, "algorithm.layer3.k": "2.0", "loss.variant": "none",
         "true_rtt": "15.0", "packets": "1000", "initial_e": "5.0"}

#: link rates (bit/s) of the Tsao-Lee chain after its ingress link; the
#: topology keys set the ingress rate, every link's propagation delay and
#: the buffer capacity, and the chain's true_rtt is its unloaded round trip
CHAIN_DOWNSTREAM_RATES = (19200, 19200)

_TSAO_LEE = {
    **_A1, "loss.variant": "buffer_overflow_only",
    "packets": "500", "window": "4",
    # Retransmitting only the blocking packet keeps the pipe starved
    # between recovery cycles, so cumulative acks cover cached packets
    # whose samples span whole timeout waits.  Go-back-N would refresh
    # every outstanding packet each cycle and the estimate equilibrates
    # instead of compounding.
    "retransmit_scope": "timed_out_only",
    "topology.propagation": "0.01", "topology.buffer_capacity": "2",
}

#: scenario name -> the keys it sets over Scenario's defaults; each names
#: all five layers and its loss model
PRESETS: dict[str, dict[str, str]] = {
    "fig3": {**_A1, "loss.variant": "every_first_copy_lost", "packets": "12"},
    "fig6_fromlast": {**_FIG6, "algorithm.layer2": "from_last"},
    "fig6_ignore": {**_FIG6, "algorithm.layer2": "ignore"},
    "tsao_lee_slow": {**_TSAO_LEE, "topology.ingress_rate": "19200"},
    "tsao_lee_fast": {**_TSAO_LEE, "topology.ingress_rate": "1000000"},
    "loss_sweep": {
        **_A1, "loss.variant": "bernoulli", "loss.p": "0.3",
        # 800 packets separates the two first-passage regimes at the
        # default divergence threshold: above the 1/(1+k) boundary the
        # estimate crosses it within ~200 packets, below it the occasional
        # excursion needs thousands
        "packets": "800", "stop_estimate_above": "100.0",
    },
    "jth_matrix": {
        **_A1, "algorithm.layer1.alpha": "0.875",
        "algorithm.layer2": "from_copy", "algorithm.layer2.j": "2",
        "algorithm.layer3.k": "2.0",
        "loss.variant": "drop_copies_before", "loss.i": "2",
        "packets": "80", "initial_e": "0.15", "stop_estimate_above": "100.0",
    },
    # drift class I: the estimate grows across ambiguous acknowledgments
    "classify": {**_A1, "loss.variant": "every_first_copy_lost",
                 "packets": "10"},
}
SCENARIO_NAMES = tuple(PRESETS)
