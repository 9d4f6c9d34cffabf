"""End-to-end acceptance checks, one test per criterion.

Each test drives the public API at defaults, measures its own wall time, and
reports a single pass/fail line through the shared criterion_report fixture.
"""
import random
import time

from properties import ALL_BATTERIES

from rtosim.estimators import (
    Edge,
    Ewma,
    EwmaShift,
    Mills,
)
from rtosim.config import build_scenario
from rtosim.experiments import (
    classify_case,
    fig3_divergence,
    fig6_false_convergence,
    jth_attempt_matrix,
    loss_threshold_sweep,
    tsao_lee,
)
from rtosim.metrics import write_trace
from rtosim.scenarios import run_scenario
from rtosim.timeout import (
    Clamped,
    ExponentialBackoff,
    LinearBackoff,
    MeanPlusDeviation,
    NoBackoff,
    RandomExponentialBackoff,
    Scale,
    backoff_interval,
    first_timeout,
    new_retry_state,
)

TICK = 1e-6  # seconds


def test_criterion_1_ambiguous_acks_grow_geometrically(criterion_report):
    start = time.perf_counter()
    trajectory = fig3_divergence(12)
    wall = time.perf_counter() - start

    worst = max(abs(trajectory[i] - (4 * 2.5 ** i - 1) / 3)
                for i in range(1, 13))
    ok = (trajectory[1] == 3.0 and trajectory[2] == 8.0
          and worst <= 2 * TICK and wall < 1.0)
    criterion_report(
        1, ok,
        f"estimates track (4*2.5^i - 1)/3 for i=1..12 within {worst:.1e} s, "
        f"E_1={trajectory[1]:g} E_2={trajectory[2]:g}, {wall:.2f}s")


def test_criterion_2_underestimate_locks_in(criterion_report):
    start = time.perf_counter()
    from_last = fig6_false_convergence("from_last", packets=1000)
    ignore = fig6_false_convergence("ignore", packets=1000)
    wall = time.perf_counter() - start

    frozen = (from_last.trajectory == [5.0] * 1000
              and ignore.trajectory == [5.0])
    ok = (frozen
          and from_last.retransmissions == 1000
          and ignore.retransmissions == 1000
          and from_last.summary.duplicates_received == 1000
          and ignore.summary.duplicates_received == 1000
          and from_last.summary.verdict == "FalseConverged"
          and ignore.summary.verdict == "FalseConverged"
          and wall < 1.0)
    criterion_report(
        2, ok,
        "measure-from-last and discard both hold E=5 for 1000 packets with "
        f"one retransmission and one duplicate each, both FalseConverged, "
        f"{wall:.2f}s")


def test_criterion_3_loss_rate_threshold(criterion_report):
    start = time.perf_counter()
    p_values = [0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35]
    seeds = range(1, 6)
    verdicts = {}
    for seed in seeds:
        for p, summary in loss_threshold_sweep(4.0, p_values, seed=seed):
            verdicts[(seed, p)] = summary.verdict
    wall = time.perf_counter() - start

    low_ok = all(verdicts[(s, p)] == "Bounded"
                 for s in seeds for p in (0.05, 0.10))
    high_ok = all(verdicts[(s, p)] == "Diverged"
                  for s in seeds for p in (0.30, 0.35))
    crossings = [min(p for p in p_values if verdicts[(s, p)] == "Diverged")
                 for s in seeds]
    inside = sum(1 for p in crossings if 0.10 <= p <= 0.30)
    ok = low_ok and high_ok and inside >= 3 and wall < 30.0
    criterion_report(
        3, ok,
        f"k=4: p<=0.10 Bounded and p>=0.30 Diverged on all 5 seeds, "
        f"crossings {sorted(set(crossings))} sit inside [0.10, 0.30] "
        f"for {inside}/5 seeds, {wall:.1f}s")


def test_criterion_4_ack_copy_vs_measured_copy(criterion_report):
    start = time.perf_counter()
    outcomes = {(i, j): jth_attempt_matrix(i, j)
                for i in (1, 2, 3) for j in (1, 2, 3)}
    wall = time.perf_counter() - start

    def expected(i, j):
        if i == j:
            return "Converges"
        return "Diverges" if i > j else "FalseConverges"

    misses = [(cell, outcome) for cell, outcome in outcomes.items()
              if outcome != expected(*cell)]
    ok = not misses and wall < 5.0
    criterion_report(
        4, ok,
        "3x3 matrix: diagonal Converges, ack-late cells Diverge, ack-early "
        f"cells FalseConverge ({len(misses)} mismatches), {wall:.2f}s")


def test_criterion_5_shared_bottleneck_collapse(criterion_report):
    start = time.perf_counter()
    slow = tsao_lee(19200)
    fast = tsao_lee(1_000_000)
    wall = time.perf_counter() - start

    ratio = fast.summary.elapsed_ticks / slow.summary.elapsed_ticks
    ok = (ratio >= 10.0
          and slow.drop_count_per_node[1] == 0
          and fast.drop_count_per_node[1] > 0
          and fast.waiting_fraction > 0.5
          and wall < 60.0)
    criterion_report(
        5, ok,
        f"fast ingress takes {ratio:.3g}x the slow transfer's time, gateway "
        f"drops {fast.drop_count_per_node[1]} packets (slow run: "
        f"{slow.drop_count_per_node[1]}), sender idles on an armed timer "
        f"{fast.waiting_fraction:.0%} of the run, {wall:.1f}s")


def test_criterion_6_drift_classes_are_seed_stable(criterion_report):
    labels = {case: {classify_case(case, seed) for seed in range(1, 6)}
              for case in ("class1", "class2", "class3")}
    ok = (labels["class1"] == {"I"}
          and labels["class2"] == {"II"}
          and labels["class3"] == {"III"})
    criterion_report(
        6, ok,
        "raising, frozen and shrinking estimate cases classify as I/II/III "
        "on every seed 1..5")


def test_criterion_7_traces_replay_byte_identical(criterion_report, tmp_path):
    identical = []
    for name in ("loss_sweep", "jth_matrix"):
        scenario = build_scenario({"scenario": name, "seed": "3"})
        paths = (tmp_path / f"{name}_a.csv", tmp_path / f"{name}_b.csv")
        for path in paths:
            write_trace(run_scenario(scenario).rows, path)
        first, second = (path.read_bytes() for path in paths)
        identical.append(first == second and len(first) > 0)
    ok = all(identical)
    criterion_report(
        7, ok,
        "repeated runs with the same config and seed write byte-identical "
        "trace files (randomized and deterministic drops)")


def _walk(policy, t0, steps, rng=None):
    state = new_retry_state()
    state.arm(t0)
    out = []
    for _ in range(steps):
        state.retry_count += 1
        interval = backoff_interval(state, policy, rng)
        state.arm(interval)
        out.append(interval)
    return out


def test_criterion_8_operator_examples_and_invariants(criterion_report):
    examples = [
        (Ewma(0.5).update((1.0, 0.0), 5.0)[0], 3.0),
        (Ewma(0.875).update((2.0, 0.0), 10.0)[0], 3.0),
        (EwmaShift(1).update((1.0, 0.0), 5.0)[0], 3.0),
        (EwmaShift(2).update((4.0, 0.0), 8.0)[0], 5.0),
        (Mills(15 / 16, 3 / 4).update((16.0, 0.0), 0.0)[0], 15.0),
        (Mills(15 / 16, 3 / 4).update((4.0, 0.0), 8.0)[0], 5.0),
        (Edge(0.5, 0.75).update((3.0, 4.0), 3.0)[1], 3.0),
        (first_timeout((1.0, 0.0), Scale(4.0)), 4.0),
        (first_timeout((5.0, 0.0), Scale(2.0)), 10.0),
        (first_timeout((3.0, 4.0), MeanPlusDeviation(2.0)), 7.0),
        (first_timeout((0.1, 0.0), Clamped(4.0, 1.0, 30.0)), 1.0),
        (first_timeout((100.0, 0.0), Clamped(4.0, 1.0, 30.0)), 30.0),
        (_walk(NoBackoff(), 4.0, 3), [4.0, 4.0, 4.0]),
        (_walk(ExponentialBackoff(2.0), 4.0, 2), [8.0, 16.0]),
        (_walk(ExponentialBackoff(2.0, t_max=10.0), 4.0, 3),
         [8.0, 10.0, 10.0]),
        (_walk(LinearBackoff(1.5), 4.0, 2), [5.5, 7.0]),
    ]
    example_failures = [(got, want) for got, want in examples if got != want]

    rng = random.Random(8)
    rand_exp = _walk(RandomExponentialBackoff(2.0, t_max=20.0), 4.0, 6, rng)
    capped_ok = (rand_exp == _walk(RandomExponentialBackoff(2.0, t_max=20.0),
                                   4.0, 6, random.Random(8))
                 and max(rand_exp) <= 20.0)

    counts = {name: battery(1000) for name, battery in ALL_BATTERIES.items()}
    batteries_ok = all(count >= 1000 for count in counts.values())

    ok = not example_failures and capped_ok and batteries_ok
    criterion_report(
        8, ok,
        f"{len(examples) + 1} pinned operator examples reproduce and "
        f"{len(counts)} randomized invariant batteries pass at "
        f"{min(counts.values())} cases each")
