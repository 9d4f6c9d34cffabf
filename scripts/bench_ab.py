#!/usr/bin/env python3
"""A/B the benchmark between two source trees, in alternating pairs.

    python3 scripts/bench_ab.py PARENT_TREE CHANGE_TREE \\
        --workload long_transfer [--workload wide_window ...] \\
        --seeds 901-910 --seconds 30 --out BENCH_9.json

Each tree runs its own `perfbench/run.py --trace 0` from its own directory,
so each side is timed with the benchmark code of its own commit.  Pair k
uses the k-th seed for every workload; odd pairs run the parent first, even
pairs the change.  After each run the entry is appended to --out, a JSON
array with one object per line (side, workload, seed, pair, first, result),
so an interrupted A/B keeps the pairs it finished.  A seed that --out
already holds for a workload is refused, so no run replaces another.
Without --seeds nothing runs and the table of --out is printed; a missing
--out is then an error.  Each run starts from a fresh temporary copy of its
tree without any __pycache__, as a clean export would, so no bytecode that
either tree holds is timed.

The report pairs the two sides' runs by workload and seed.  It gives, per
workload and end-to-end metric (from the change tree's BENCHMARK.json),
each side's median and quartiles, the ratio of the medians, and the pairs
the change won; ties count for neither side.  A workload with no pair
that has both sides is left out of the table and named in the notes.
"""
from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")


def parse_seeds(text: str) -> list[int]:
    """'901-910', or one seed such as '901'."""
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def run_side(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    # a fresh copy outside both trees, without bytecode: both sides compile
    # their own sources alike, and the standard library keeps its bytecode;
    # .git is left out because nothing that runs reads it
    with tempfile.TemporaryDirectory(prefix="bench_ab_") as scratch:
        copy = Path(scratch) / tree.name
        shutil.copytree(tree, copy,
                        ignore=shutil.ignore_patterns("__pycache__", ".git"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=copy, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"error: {tree} {workload} seed {seed} exited "
                 f"{proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-1])


def load(path: Path) -> list[dict]:
    return json.loads(path.read_text()) if path.exists() else []


def save(path: Path, entries: list[dict]) -> None:
    body = ",\n".join(json.dumps(entry) for entry in entries)
    path.write_text("[\n" + body + "\n]\n")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def number(value: float) -> str:
    return f"{value:,.0f}" if abs(value) >= 1000 else f"{value:.4g}"


def report(entries: list[dict], metrics: list[dict]) -> list[str]:
    lines = ["| workload | metric | parent | change | ratio | wins |",
             "|---|---|---|---|---|---|"]
    notes = []
    for workload in dict.fromkeys(entry["workload"] for entry in entries):
        pairs: dict[int, dict[str, dict]] = {}
        for entry in entries:
            if entry["workload"] == workload:
                pairs.setdefault(entry["seed"], {})[entry["side"]] = entry
        complete = [p for p in pairs.values() if len(p) == 2]
        if not complete:
            notes.append(f"{workload}: no pair with both sides")
            continue
        label = workload
        for metric in metrics:
            name, higher = metric["name"], metric["better"] == "higher"
            value = {side: [p[side]["result"]["metrics"][name]["value"]
                            for p in complete] for side in SIDES}
            wins = sum((c > p) if higher else (c < p)
                       for p, c in zip(value["parent"], value["change"]))
            cells = []
            for side in SIDES:
                q1, median, q3 = quartiles(value[side])
                cells.append(f"{number(median)} "
                             f"[{number(q1)}, {number(q3)}]")
            ratio = (statistics.median(value["change"])
                     / statistics.median(value["parent"]))
            lines.append(f"| {label} | {name} | {cells[0]} | {cells[1]} | "
                         f"{ratio:.3f} | {wins}/{len(complete)} |")
            label = ""
        failed = {side: sum(p[side]["result"]["failed"] for p in complete)
                  for side in SIDES}
        notes.append(f"{workload}: {len(complete)} pairs; failed operations "
                     f"parent {failed['parent']}, change {failed['change']}")
    return lines + [""] + notes


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=parse_seeds, default=[])
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    if not args.seeds and not args.out.exists():
        sys.exit(f"error: {args.out} does not exist")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())

    entries = load(args.out)
    held = {(entry["workload"], entry["seed"]) for entry in entries}
    clash = sorted(f"{workload} seed {seed}" for workload in args.workload
                   for seed in args.seeds if (workload, seed) in held)
    if clash:
        sys.exit(f"error: {args.out} already holds {', '.join(clash)}")
    for pair, seed in enumerate(args.seeds, start=1):
        first = SIDES[(pair - 1) % 2]
        order = SIDES if first == "parent" else SIDES[::-1]
        for workload in args.workload:
            for side in order:
                result = run_side(trees[side], workload, seed, args.seconds)
                entries.append({"side": side, "workload": workload,
                                "seed": seed, "pair": pair,
                                "first": first, "result": result})
                save(args.out, entries)
                print(f"pair {pair} seed {seed} {workload} {side}: "
                      f"correct={result['correct']} "
                      f"failed={result['failed']}", flush=True)
    selected = [entry for entry in entries
                if entry["workload"] in args.workload]
    print("\n".join(report(selected, spec["end_to_end"])))


if __name__ == "__main__":
    main()
