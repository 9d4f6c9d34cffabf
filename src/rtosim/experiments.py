"""The paper's experiments as library functions over the canned presets.

Each driver builds its runs with `config.build_scenario`: a preset from
`scenarios.PRESETS` and the keys the driver's arguments set, so the
experiments run exactly what `rtosim run NAME --set KEY=VALUE` runs.  The
grid drivers (loss_threshold_sweep, jth_attempt_matrix run per cell) are
iterated by `scripts/reproduce_results.py` and the acceptance tests.
"""
from __future__ import annotations

from typing import Optional, Sequence

from .config import build_scenario
from .metrics import (
    ACK,
    DISCONNECT,
    ESTIMATE_UPDATE,
    RETRANSMIT,
    Row,
    SEND,
    SummaryReport,
    VERDICT_DIVERGED,
    VERDICT_FALSE_CONVERGED,
)
from .record import Record
from .scenarios import RunResult, run_scenario


def _run(config: dict[str, str]) -> RunResult:
    return run_scenario(build_scenario(config))


def fig3_divergence(i_max: int) -> list[float]:
    """Estimate after each ambiguous ack, E_0 included: i_max + 1 values."""
    if i_max < 1:
        raise ValueError(f"i_max must be >= 1, got {i_max}")
    result = _run({"scenario": "fig3", "packets": str(i_max)})
    series = [after for _, after in result.summary.ambiguous_acks]
    if len(series) != i_max:
        raise RuntimeError(
            f"expected {i_max} ambiguous acknowledgments, saw {len(series)}")
    return [result.connection.scenario.initial_mean] + series


class Fig6Result(Record):
    trajectory: list[float]
    retransmissions: int
    summary: SummaryReport


def fig6_false_convergence(policy: str,
                           packets: Optional[int] = None) -> Fig6Result:
    """The fig6 preset of `policy` (from_last or ignore); `packets` None
    keeps the preset's count."""
    if policy not in ("from_last", "ignore"):
        raise ValueError(f"policy must be one of ['from_last', 'ignore'], "
                         f"got {policy!r}")
    config = {"scenario": "fig6_" + policy.replace("_", "")}
    if packets is not None:
        config["packets"] = str(packets)
    result = _run(config)
    summary = result.summary
    return Fig6Result(
        trajectory=[estimate_e for _, event, _, _, estimate_e, _, _, _
                    in result.rows if event == ESTIMATE_UPDATE] or
                   [result.connection.scenario.initial_mean],
        retransmissions=summary.total_copies_sent - summary.packets_offered,
        summary=summary,
    )


def _timer_wait_ticks(rows: Sequence[Row],
                      serialization_ticks: int) -> int:
    """Ticks up to the last row that a timer was armed while the source
    link sat idle; the link serializes copies in turn."""
    waiting = sent = acked = busy_until = last = 0
    for now, event, packet_id, _, _, _, _, _ in rows:
        if sent > acked:
            waiting += max(0, now - max(last, busy_until))
        last = now
        if event == SEND or event == RETRANSMIT:
            busy_until = max(now, busy_until) + serialization_ticks
            sent = max(sent, packet_id)
        elif event == ACK:
            acked = max(acked, packet_id)
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
    elapsed = result.summary.elapsed_ticks
    waiting = _timer_wait_ticks(result.rows,
                                result.connection.path.serialization[0])
    return waiting / elapsed if elapsed > 0 else 0.0


class TsaoLeeResult(Record):
    drop_count_per_node: list[int]
    waiting_fraction: float
    summary: SummaryReport


def tsao_lee(ingress_bps: int) -> TsaoLeeResult:
    """Chain-transfer experiment: the Tsao-Lee chain with its ingress link
    at `ingress_bps`.  waiting_fraction is timer_wait_share."""
    result = _run({"scenario": "tsao_lee_slow",
                   "topology.ingress_rate": str(ingress_bps)})
    return TsaoLeeResult(
        drop_count_per_node=result.connection.path.drops_per_node(),
        waiting_fraction=timer_wait_share(result),
        summary=result.summary,
    )


def loss_threshold_sweep(k: float, p_values: Sequence[float], *,
                         seed: int = 1, packets: Optional[int] = None
                         ) -> list[tuple[float, SummaryReport]]:
    """One loss_sweep run per loss probability, with timer multiple k;
    rows sorted by p.  `packets` None keeps the preset's count."""
    config = {"scenario": "loss_sweep", "seed": str(seed),
              "algorithm.layer3.k": str(k)}
    if packets is not None:
        config["packets"] = str(packets)
    return [(p, _run({**config, "loss.p": str(p)}).summary)
            for p in sorted(p_values)]


OUTCOME_CONVERGES = "Converges"
OUTCOME_DIVERGES = "Diverges"
OUTCOME_FALSE_CONVERGES = "FalseConverges"


def jth_attempt_matrix(i: int, j: int) -> str:
    """Outcome for one (ack-of-copy-i, measure-from-copy-j) cell."""
    if i < 1 or j < 1:
        raise ValueError(f"copy indices must be >= 1, got i={i} j={j}")
    result = _run({"scenario": "jth_matrix", "loss.i": str(i),
                   "algorithm.layer2.j": str(j)})
    summary = result.summary
    if summary.verdict == VERDICT_DIVERGED:
        return OUTCOME_DIVERGES
    if summary.verdict == VERDICT_FALSE_CONVERGED:
        return OUTCOME_FALSE_CONVERGES
    d = result.connection.scenario.true_rtt
    if abs(summary.final_e - d) / d < 0.05:
        return OUTCOME_CONVERGES
    raise RuntimeError(
        f"cell (i={i}, j={j}) ended bounded but away from the true delay: "
        f"final_e={summary.final_e:.6f}")


#: case -> the keys it sets over the classify preset (class 1): estimates
#: that grow, hold, or shrink across ambiguous acknowledgments
_CLASSIFY_CASES = {
    "class1": {},
    "class2": {"algorithm.layer2": "ignore"},
    # spurious-timeout regime measured from the second copy: every sample
    # lands below the mean, so the estimate drifts downward
    "class3": {"algorithm.layer1.alpha": "0.875",
               "algorithm.layer2": "from_copy", "algorithm.layer2.j": "2",
               "algorithm.layer3.k": "2.0", "loss.variant": "none",
               "packets": "12", "initial_e": "0.49"},
}


def classify_case(case: str, seed: int = 1) -> str:
    if case not in _CLASSIFY_CASES:
        raise ValueError(f"case must be class1, class2 or class3, got {case!r}")
    result = _run({"scenario": "classify", "seed": str(seed),
                   **_CLASSIFY_CASES[case]})
    return result.summary.class_label or "II"
