#!/usr/bin/env python3
"""A/B the benchmark between two source trees, in alternating pairs.

    python3 scripts/bench_ab.py PARENT_TREE CHANGE_TREE \\
        --workload long_transfer [--workload wide_window ...] \\
        --seeds 901-910 --seconds 30 --out BENCH_9.json \\
        [--python /path/to/python3.13]
    python3 scripts/bench_ab.py --trend BENCH_*.json

Each tree runs its own `perfbench/run.py --trace 0` from its own directory,
so each side is timed with the benchmark code of its own commit.  Both
sides run under one interpreter, --python, by default the one running this
script.  Pair k uses the k-th seed for every workload; odd pairs run the
parent first, even pairs the change.  After each run the entry is appended
to --out, a JSON array with one object per line (side, workload, seed,
pair, first, python, result), so an interrupted A/B keeps the pairs it
finished; `python` is the interpreter's `sys.version`.  A seed that --out
already holds for a workload under the same interpreter is refused, so no
run replaces another.  Without --seeds nothing runs and the table of --out
is printed; a missing --out is then an error.  Each run starts from a
fresh temporary copy of its tree without any __pycache__, as a clean
export would, so no bytecode that either tree holds is timed.

The report pairs the two sides' runs by interpreter, workload and seed.
For each interpreter it gives a table headed by its version: per
workload and end-to-end metric (from the change tree's BENCHMARK.json),
each side's median and quartiles, the ratio of the medians, the pairs
the change won (ties count for neither side) and a verdict against the
metric's bound:

    worse       the change's median is past the bound, in the metric's
                worse direction, from the parent's median
    unresolved  not worse, but the parent's interquartile range exceeds
                the bound times its median, and the change did not win
                every pair, so the runs spread too widely to tell
    inside      otherwise

A workload with no pair that has both sides is left out of the table and
named in the notes.

--trend runs nothing and needs no tree: it prints one table of the
trajectory across the files named, in the natural order of their names
(BENCH_9 before BENCH_10), with one line per file, workload and
interpreter, and in it the change side's median of each end-to-end metric
(from the BENCHMARK.json beside this script; "-" where the file has none).
"""
from __future__ import annotations

import argparse
import json
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")
ROOT = Path(__file__).resolve().parents[1]


def parse_seeds(text: str) -> list[int]:
    """'901-910', or one seed such as '901'."""
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def interpreter_version(python: str) -> str:
    """The `sys.version` of the interpreter at `python`."""
    proc = subprocess.run([python, "-c", "import sys; print(sys.version)"],
                          capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.exit(f"error: {python} exited {proc.returncode}\n{proc.stderr}")
    return proc.stdout.strip()


def run_side(python: str, tree: Path, workload: str, seed: int,
             seconds: float) -> dict:
    # a fresh copy outside both trees, without bytecode: both sides compile
    # their own sources alike, and the standard library keeps its bytecode;
    # .git is left out because nothing that runs reads it
    with tempfile.TemporaryDirectory(prefix="bench_ab_") as scratch:
        copy = Path(scratch) / tree.name
        shutil.copytree(tree, copy,
                        ignore=shutil.ignore_patterns("__pycache__", ".git"))
        proc = subprocess.run(
            [python, "perfbench/run.py", "--workload", workload,
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


def verdict(parent: list[float], change: list[float], metric: dict,
            wins: int) -> str:
    """worse, unresolved or inside: see the module docstring."""
    bound = metric["bound"]
    q1, median, q3 = quartiles(parent)
    shift = statistics.median(change) / median - 1
    if (-shift if metric["better"] == "higher" else shift) > bound:
        return "worse"
    if (q3 - q1) / median > bound and wins < len(parent):
        return "unresolved"
    return "inside"


def number(value: float) -> str:
    return f"{value:,.0f}" if abs(value) >= 1000 else f"{value:.4g}"


def report(entries: list[dict], metrics: list[dict]) -> list[str]:
    """One table per interpreter, headed by its `sys.version`."""
    lines = []
    for version in dict.fromkeys(entry.get("python") for entry in entries):
        runs = [entry for entry in entries if entry.get("python") == version]
        lines += [f"interpreter: {version or 'not recorded'}", "",
                  *interpreter_report(runs, metrics), ""]
    return lines[:-1]


def interpreter_report(entries: list[dict], metrics: list[dict]) -> list[str]:
    lines = ["| workload | metric | parent | change | ratio | wins "
             "| verdict |",
             "|---|---|---|---|---|---|---|"]
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
            judged = verdict(value["parent"], value["change"], metric, wins)
            lines.append(f"| {label} | {name} | {cells[0]} | {cells[1]} | "
                         f"{ratio:.3f} | {wins}/{len(complete)} | "
                         f"{judged} |")
            label = ""
        failed = {side: sum(p[side]["result"]["failed"] for p in complete)
                  for side in SIDES}
        notes.append(f"{workload}: {len(complete)} pairs; failed operations "
                     f"parent {failed['parent']}, change {failed['change']}")
    return lines + [""] + notes


def trend(paths: list[Path], metrics: list[dict]) -> list[str]:
    """The --trend table: see the module docstring."""
    names = [metric["name"] for metric in metrics]
    lines = ["| file | workload | interpreter | " + " | ".join(names) + " |",
             "|---|---|---|" + "---|" * len(names)]
    for path in sorted(paths, key=lambda path: [
            int(part) if part.isdigit() else part
            for part in re.split(r"(\d+)", path.name)]):
        runs: dict[tuple[str, str], list[dict]] = {}
        for entry in load(path):
            if entry["side"] == "change":
                version = entry.get("python")
                version = version.split()[0] if version else "not recorded"
                runs.setdefault((entry["workload"], version), []).append(
                    entry["result"]["metrics"])
        for (workload, version), results in sorted(runs.items()):
            cells = [number(statistics.median(
                         result[name]["value"] for result in results))
                     if all(name in result for result in results) else "-"
                     for name in names]
            lines.append(f"| {path.name} | {workload} | {version} | "
                         + " | ".join(cells) + " |")
    return lines


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path, nargs="?")
    parser.add_argument("change", type=Path, nargs="?")
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seeds", type=parse_seeds, default=[])
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--python", default=sys.executable,
                        help="interpreter that runs both sides "
                             "(default: the one running this script)")
    parser.add_argument("--trend", type=Path, nargs="+", metavar="BENCH",
                        help="print the trajectory table of these files "
                             "and exit")
    args = parser.parse_args()
    if args.trend:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        print("\n".join(trend(args.trend, spec["end_to_end"])))
        return
    if None in (args.parent, args.change, args.workload, args.out):
        parser.error("PARENT, CHANGE, --workload and --out are required "
                     "without --trend")
    if not args.seeds and not args.out.exists():
        sys.exit(f"error: {args.out} does not exist")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())

    entries = load(args.out)
    version = interpreter_version(args.python) if args.seeds else None
    held = {(entry.get("python"), entry["workload"], entry["seed"])
            for entry in entries}
    clash = sorted(f"{workload} seed {seed}" for workload in args.workload
                   for seed in args.seeds
                   if (version, workload, seed) in held)
    if clash:
        sys.exit(f"error: {args.out} already holds {', '.join(clash)} "
                 f"under {version}")
    for pair, seed in enumerate(args.seeds, start=1):
        first = SIDES[(pair - 1) % 2]
        order = SIDES if first == "parent" else SIDES[::-1]
        for workload in args.workload:
            for side in order:
                result = run_side(args.python, trees[side], workload, seed,
                                  args.seconds)
                entries.append({"side": side, "workload": workload,
                                "seed": seed, "pair": pair, "first": first,
                                "python": version, "result": result})
                save(args.out, entries)
                print(f"pair {pair} seed {seed} {workload} {side}: "
                      f"correct={result['correct']} "
                      f"failed={result['failed']}", flush=True)
    selected = [entry for entry in entries
                if entry["workload"] in args.workload]
    print("\n".join(report(selected, spec["end_to_end"])))


if __name__ == "__main__":
    main()
