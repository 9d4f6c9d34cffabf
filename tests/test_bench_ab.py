"""The A/B report of scripts/bench_ab.py: how it counts wins, the verdict
it gives each metric, which workloads it leaves out of the table, the tree
copy each run starts from, and the interpreter each run names."""
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_ab.py"
_spec = importlib.util.spec_from_file_location("bench_ab", SCRIPT)
bench_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_ab)

METRICS = [{"name": "packets_per_s", "better": "higher", "bound": 0.1},
           {"name": "setup_s", "better": "lower", "bound": 0.25}]


def entry(side: str, workload: str, seed: int, packets_per_s: float,
          setup_s: float, python: str = "3.11.7 (test)") -> dict:
    return {"side": side, "workload": workload, "seed": seed, "pair": seed,
            "first": "parent", "python": python,
            "result": {"correct": True, "attempted": 10, "failed": 0,
                       "metrics": {"packets_per_s": {"value": packets_per_s,
                                                     "unit": "packets/s"},
                                   "setup_s": {"value": setup_s,
                                               "unit": "s"}}}}


def table(lines: list[str]) -> list[str]:
    return [line for line in lines if line.startswith("|")][2:]


def test_ties_count_for_neither_side():
    entries = [
        entry("parent", "w", 1, 100.0, 0.5), entry("change", "w", 1, 100.0, 0.5),
        entry("parent", "w", 2, 100.0, 0.5), entry("change", "w", 2, 110.0, 0.4),
        entry("parent", "w", 3, 100.0, 0.5), entry("change", "w", 3, 90.0, 0.6),
    ]
    rows = table(bench_ab.report(entries, METRICS))
    assert len(rows) == 2
    # one tie, one win and one loss on each metric, whichever way it points
    assert rows[0].startswith("| w | packets_per_s |")
    assert rows[0].endswith("| 1.000 | 1/3 | inside |")
    assert rows[1].startswith("|  | setup_s |")
    assert rows[1].endswith("| 1.000 | 1/3 | inside |")


def test_a_workload_without_a_complete_pair_is_named_and_left_out():
    entries = [
        entry("parent", "w", 1, 100.0, 0.5), entry("change", "w", 1, 105.0, 0.5),
        # both sides ran, but never on the same seed
        entry("parent", "lonely", 1, 100.0, 0.5),
        entry("change", "lonely", 2, 100.0, 0.5),
    ]
    lines = bench_ab.report(entries, METRICS)
    assert not any("lonely" in row for row in table(lines))
    assert len(table(lines)) == 2
    assert "lonely: no pair with both sides" in lines
    assert "w: 1 pairs; failed operations parent 0, change 0" in lines


def test_a_report_of_a_missing_file_is_an_error(tmp_path, monkeypatch):
    missing = tmp_path / "BENCH_missing.json"
    monkeypatch.setattr("sys.argv", ["bench_ab.py", ".", ".", "--workload",
                                     "sweep_grid", "--out", str(missing)])
    with pytest.raises(SystemExit) as exit_info:
        bench_ab.main()
    assert "does not exist" in str(exit_info.value.code)


def test_each_run_starts_from_a_fresh_copy_of_its_tree_without_bytecode(
        tmp_path, monkeypatch):
    trees = [tmp_path / "parent", tmp_path / "change"]
    copies = []

    def fake_run(args, cwd, **kwargs):
        assert args[:2] == ["/opt/python3.99", "perfbench/run.py"]
        copy = Path(cwd)
        assert (copy / "perfbench" / "run.py").read_text() == "# run\n"
        assert not list(copy.rglob("__pycache__"))
        assert not (copy / ".git").exists()
        assert "env" not in kwargs  # no bytecode prefix of its own
        copies.append(copy)
        return subprocess.CompletedProcess(args, 0, '{"correct": true}\n', "")

    monkeypatch.setattr(bench_ab.subprocess, "run", fake_run)
    for tree in trees:
        cache = tree / "perfbench" / "__pycache__"
        cache.mkdir(parents=True)
        (cache / "run.cpython-311.pyc").write_bytes(b"")
        (tree / "perfbench" / "run.py").write_text("# run\n")
        (tree / ".git").mkdir()
        for _ in range(2):
            assert bench_ab.run_side("/opt/python3.99", tree, "w", 1,
                                     1.0) == {"correct": True}
        # the tree itself keeps its bytecode
        assert cache.is_dir()
    assert len(set(copies)) == 4
    for copy in copies:
        assert not copy.exists()  # removed after its run
        for tree in trees:
            assert not copy.resolve().is_relative_to(tree.resolve())


def test_the_interpreter_version_is_its_sys_version():
    assert bench_ab.interpreter_version(sys.executable) == sys.version


def test_each_line_names_the_interpreter_and_the_report_prints_it(
        tmp_path, monkeypatch, capsys):
    for tree in ("parent", "change"):
        (tmp_path / tree).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(
        json.dumps({"end_to_end": METRICS}))
    out = tmp_path / "BENCH_test.json"
    runs = []

    def fake_run_side(python, tree, workload, seed, seconds):
        runs.append((python, tree.name, seed))
        return entry("", workload, seed, 100.0, 0.5)["result"]

    monkeypatch.setattr(bench_ab, "interpreter_version",
                        lambda python: f"3.99.0 at {python}")
    monkeypatch.setattr(bench_ab, "run_side", fake_run_side)
    argv = ["bench_ab.py", str(tmp_path / "parent"), str(tmp_path / "change"),
            "--workload", "w", "--seeds", "1-2", "--out", str(out)]
    monkeypatch.setattr("sys.argv", argv + ["--python", "/opt/py"])
    bench_ab.main()
    assert {python for python, _, _ in runs} == {"/opt/py"}
    lines = json.loads(out.read_text())
    assert [line["python"] for line in lines] == ["3.99.0 at /opt/py"] * 4
    assert "interpreter: 3.99.0 at /opt/py" in capsys.readouterr().out

    # the same seeds under another interpreter are new runs, not a clash
    monkeypatch.setattr("sys.argv", argv + ["--python", "/opt/other"])
    bench_ab.main()
    assert len(json.loads(out.read_text())) == 8
    with pytest.raises(SystemExit, match="already holds w seed 1"):
        bench_ab.main()


def test_the_report_gives_each_interpreter_its_own_table():
    entries = [
        entry("parent", "w", 1, 100.0, 0.5, "3.11"),
        entry("change", "w", 1, 110.0, 0.5, "3.11"),
        entry("parent", "w", 1, 100.0, 0.5, "3.13"),
        entry("change", "w", 1, 90.0, 0.5, "3.13"),
    ]
    lines = bench_ab.report(entries, METRICS)
    first, second = (lines.index("interpreter: 3.11"),
                     lines.index("interpreter: 3.13"))
    assert first < second
    assert table(lines[first:second])[0].endswith("| 1.100 | 1/1 | inside |")
    assert table(lines[second:])[0].endswith("| 0.900 | 0/1 | inside |")


def _verdicts(parent: list[tuple[float, float]],
              change: list[tuple[float, float]]) -> list[str]:
    """The verdict column of a report of one workload whose pair k ran
    parent[k] and change[k], each (packets_per_s, setup_s)."""
    entries = []
    for seed, (p, c) in enumerate(zip(parent, change), start=1):
        entries += [entry("parent", "w", seed, *p),
                    entry("change", "w", seed, *c)]
    return [row.rsplit("|", 2)[1].strip()
            for row in table(bench_ab.report(entries, METRICS))]


def test_a_median_past_the_bound_in_the_worse_direction_is_worse(
        tmp_path, monkeypatch, capsys):
    # packets_per_s falls 12% (bound 10%); setup_s rises 30% (bound 25%)
    parent = [(100.0, 0.10), (101.0, 0.10), (99.0, 0.10)]
    change = [(88.0, 0.13), (89.0, 0.13), (87.0, 0.13)]
    assert _verdicts(parent, change) == ["worse", "worse"]
    # the same distance in the better direction is inside
    assert _verdicts(change, parent) == ["inside", "inside"]
    # the report of a synthetic --out file, with the change tree's bounds
    (tmp_path / "change").mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(
        json.dumps({"end_to_end": METRICS}))
    out = tmp_path / "BENCH_synthetic.json"
    bench_ab.save(out, [entry(side, "w", seed, *values)
                        for seed, pair in enumerate(zip(parent, change), 1)
                        for side, values in zip(bench_ab.SIDES, pair)])
    monkeypatch.setattr("sys.argv", [
        "bench_ab.py", str(tmp_path), str(tmp_path / "change"),
        "--workload", "w", "--out", str(out)])
    bench_ab.main()
    rows = table(capsys.readouterr().out.splitlines())
    assert [row.endswith("| 0/3 | worse |") for row in rows] == [True, True]


def test_a_wide_parent_spread_is_unresolved_unless_every_pair_is_won():
    # the parent's interquartile range is 20% of its median on
    # packets_per_s and 50% on setup_s, past both bounds; the medians
    # barely move
    parent = [(80.0, 0.05), (100.0, 0.10), (120.0, 0.15)]
    lost_one = [(81.0, 0.049), (101.0, 0.099), (119.0, 0.151)]
    assert _verdicts(parent, lost_one) == ["unresolved", "unresolved"]
    won_all = [(81.0, 0.049), (101.0, 0.099), (121.0, 0.149)]
    assert _verdicts(parent, won_all) == ["inside", "inside"]
    # a median past the bound is worse however wide the spread
    assert _verdicts(parent, [(70.0, 0.2)] * 3) == ["worse", "worse"]


def test_the_trend_gives_the_change_median_per_file_workload_and_interpreter(
        tmp_path):
    files = [tmp_path / name for name in ("BENCH_10.json", "BENCH_9.json")]
    bench_ab.save(files[0], [
        entry("change", "w", 1, 200.0, 0.5, "3.13.0 (main) [GCC]"),
        entry("parent", "w", 1, 1.0, 9.0, "3.11.7 (main) [GCC]"),
        entry("change", "w", 1, 100.0, 0.5, "3.11.7 (main) [GCC]"),
        entry("change", "w", 2, 300.0, 0.7, "3.11.7 (main) [GCC]")])
    old = entry("change", "w", 1, 50.0, 0.5)
    del old["python"]  # the early files name no interpreter
    del old["result"]["metrics"]["setup_s"]
    bench_ab.save(files[1], [old])
    lines = bench_ab.trend(files, METRICS)
    assert lines[0] == ("| file | workload | interpreter | packets_per_s "
                        "| setup_s |")
    # natural order of the names; the parent's runs are left out
    assert lines[2:] == [
        "| BENCH_9.json | w | not recorded | 50 | - |",
        "| BENCH_10.json | w | 3.11.7 | 200 | 0.6 |",
        "| BENCH_10.json | w | 3.13.0 | 200 | 0.5 |"]


def test_the_trend_needs_no_tree(monkeypatch, capsys):
    committed = sorted(SCRIPT.parents[1].glob("BENCH_*.json"))
    monkeypatch.setattr("sys.argv", ["bench_ab.py", "--trend",
                                     *map(str, committed)])
    bench_ab.main()
    lines = capsys.readouterr().out.splitlines()
    assert {line.split(" | ")[0][2:] for line in lines[2:]} \
        == {path.name for path in committed}
    monkeypatch.setattr("sys.argv", ["bench_ab.py", "--workload", "w"])
    with pytest.raises(SystemExit):
        bench_ab.main()
