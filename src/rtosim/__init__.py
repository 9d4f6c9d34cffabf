"""rtosim: a deterministic testbed for retransmission-timeout algorithms.

A timeout algorithm is assembled from five independently chosen layers:

  1. estimate update        how a delay sample changes the smoothed estimate
  2. sample measurement     which copy of a retransmitted packet anchors the
                            sample, if any
  3. first timeout          timer interval for a fresh transmission
  4. back-off               how the interval grows across retries
  5. disconnection          when repeated failure means the peer is gone

The package provides the layer policies, a tick-resolution event simulator
with window transport and lossy or store-and-forward paths, trace/summary
reporting with divergence and false-convergence detectors, canned
experiment scenarios, and a CLI (`rtosim run|sweep|list-policies`).
"""

from .estimators import (
    DEFAULT_SAMPLE_FLOOR,
    Edge,
    Ewma,
    EwmaShift,
    ExponentialIncrease,
    FromCopy,
    FromFirst,
    FromLast,
    Ignore,
    IgnoreAndIncrease,
    LinearIncrease,
    Mills,
    ParabolicIncrease,
    RttEstimate,
    SecondOrderExponentialIncrease,
    TransmissionRecord,
    edge_update,
    ewma_shift_update,
    ewma_update,
    extract_sample,
    increase_estimate,
    initial_estimate,
    layer1_update,
    mills_update,
)
from .metrics import (
    SummaryReport,
    TraceRow,
    detect_divergence,
    detect_false_convergence,
    read_trace,
    summarize,
    write_summary,
    write_trace,
)
from .scenarios import (
    BernoulliLoss,
    BufferOverflowOnly,
    DropCopiesBefore,
    EveryFirstCopyLost,
    NoLoss,
    Scenario,
    classify_algorithm,
    fig3_divergence,
    fig6_false_convergence,
    jth_attempt_matrix,
    loss_threshold_sweep,
    named_scenario,
    prepare_scenario,
    run_scenario,
    tsao_lee,
)
from .sim import Engine, Link, LinkSpec, NodeBuffer, Topology, substream
from .timeout import (
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
from .transport import (
    AckPacket,
    ChainPath,
    Connection,
    FixedDelayPath,
    Receiver,
    RetransmitScope,
    TimeoutAlgorithm,
    TimerMode,
)

__version__ = "0.1.0"
