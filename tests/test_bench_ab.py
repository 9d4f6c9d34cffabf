"""The A/B report of scripts/bench_ab.py: how it counts wins and which
workloads it leaves out of the table, and the tree copy each run starts
from."""
import importlib.util
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_ab.py"
_spec = importlib.util.spec_from_file_location("bench_ab", SCRIPT)
bench_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_ab)

METRICS = [{"name": "packets_per_s", "better": "higher"},
           {"name": "setup_s", "better": "lower"}]


def entry(side: str, workload: str, seed: int, packets_per_s: float,
          setup_s: float) -> dict:
    return {"side": side, "workload": workload, "seed": seed, "pair": seed,
            "first": "parent",
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
    assert rows[0].endswith("| 1.000 | 1/3 |")
    assert rows[1].startswith("|  | setup_s |")
    assert rows[1].endswith("| 1.000 | 1/3 |")


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
            assert bench_ab.run_side(tree, "w", 1, 1.0) == {"correct": True}
        # the tree itself keeps its bytecode
        assert cache.is_dir()
    assert len(set(copies)) == 4
    for copy in copies:
        assert not copy.exists()  # removed after its run
        for tree in trees:
            assert not copy.resolve().is_relative_to(tree.resolve())
