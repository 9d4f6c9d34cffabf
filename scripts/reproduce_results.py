#!/usr/bin/env python3
"""Re-run the headline experiments and print their tables.

Usage:
  python3 scripts/reproduce_results.py              # all sections, a few seconds
  python3 scripts/reproduce_results.py growth chain # just these sections
  python3 scripts/reproduce_results.py --list

reproduce_results.expected holds the output of a full run without its
per-section (N.NNs) timing lines.

Sections:
  growth     estimate blow-up when every first copy is lost
  lockin     the two ways a low estimate survives its own retransmissions
  threshold  Bernoulli loss rate at which the estimate escapes, 5 seeds
  matrix     ack-of-copy-i vs measure-from-copy-j outcome grid
  chain      shared-bottleneck transfer, slow vs fast ingress
  classes    drift classification of three canned algorithms
"""
import argparse
import sys
import time

from rtosim.experiments import (
    classify_case,
    fig3_divergence,
    fig6_false_convergence,
    jth_attempt_matrix,
    loss_threshold_sweep,
    tsao_lee,
)


def section_growth() -> None:
    trajectory = fig3_divergence(12)
    print("  i   estimate     closed form (4*2.5^i - 1)/3")
    for i, estimate in enumerate(trajectory):
        print(f"  {i:2d}  {estimate:12.4f}  {(4 * 2.5 ** i - 1) / 3:12.4f}")


def section_lockin() -> None:
    for policy in ("from_last", "ignore"):
        outcome = fig6_false_convergence(policy, packets=1000)
        tail = outcome.trajectory[-1]
        print(f"  {policy:10s}  E stays {tail:g}, "
              f"{outcome.retransmissions} retransmissions, "
              f"{outcome.summary.duplicates_received} duplicates, "
              f"verdict {outcome.summary.verdict}")


def section_threshold(seeds: range) -> None:
    p_values = [0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35]
    print("  p     " + "  ".join(f"seed{seed}" for seed in seeds))
    rows = {p: [] for p in p_values}
    for seed in seeds:
        for p, summary in loss_threshold_sweep(4.0, p_values, seed=seed):
            rows[p].append(summary.verdict)
    for p in p_values:
        cells = "  ".join(f"{verdict[:5]:5s}" for verdict in rows[p])
        print(f"  {p:.2f}  {cells}")
    print("  (k=4 predicts the escape point near p = 1/(1+k) = 0.20)")


def section_matrix() -> None:
    print("  ack\\measure      j=1             j=2             j=3")
    for i in (1, 2, 3):
        cells = "  ".join(f"{jth_attempt_matrix(i, j):14s}"
                          for j in (1, 2, 3))
        print(f"  i={i}            {cells}")


def section_chain() -> None:
    slow = tsao_lee(19200)
    fast = tsao_lee(1_000_000)
    ratio = fast.summary.elapsed_ticks / slow.summary.elapsed_ticks
    for label, run in (("19.2 kbit/s", slow), ("1 Mbit/s", fast)):
        print(f"  ingress {label:11s}  elapsed {run.summary.elapsed_seconds:10.3e} s,"
              f"  timeouts {run.summary.timeout_count:4d},"
              f"  drops/node {run.drop_count_per_node},"
              f"  timer-wait {run.waiting_fraction:.1%}")
    print(f"  slowdown from the faster ingress: {ratio:.3g}x")


def section_classes(seeds: range) -> None:
    for case in ("class1", "class2", "class3"):
        labels = sorted({classify_case(case, seed) for seed in seeds})
        print(f"  {case}: {' '.join(labels)} across seeds "
              f"{seeds.start}..{seeds.stop - 1}")


SECTIONS = {
    "growth": lambda seeds: section_growth(),
    "lockin": lambda seeds: section_lockin(),
    "threshold": section_threshold,
    "matrix": lambda seeds: section_matrix(),
    "chain": lambda seeds: section_chain(),
    "classes": section_classes,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Re-run the headline experiments and print their tables.")
    parser.add_argument("sections", nargs="*", metavar="SECTION",
                        help="subset to run (default: all)")
    parser.add_argument("--seeds", type=int, default=5, metavar="N",
                        help="seeds 1..N for the randomized sections")
    parser.add_argument("--list", action="store_true",
                        help="print section names and exit")
    args = parser.parse_args(argv)

    if args.list:
        print("\n".join(SECTIONS))
        return 0
    chosen = args.sections or list(SECTIONS)
    unknown = [name for name in chosen if name not in SECTIONS]
    if unknown:
        parser.error(f"unknown sections: {' '.join(unknown)}")

    seeds = range(1, args.seeds + 1)
    for name in chosen:
        start = time.perf_counter()
        print(f"== {name}")
        SECTIONS[name](seeds)
        print(f"   ({time.perf_counter() - start:.2f}s)")
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
