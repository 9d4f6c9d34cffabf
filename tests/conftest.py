"""Shared pytest plumbing.

The acceptance tests report one human-readable line per criterion; the hook
below replays those lines in a dedicated section at the end of the run, so a
plain `pytest -v` shows the pass/fail ledger even though stdout from passing
tests is normally captured.  `invoke` runs the CLI in-process for the CLI and
golden tests.
"""
import contextlib
import io
from types import SimpleNamespace

import pytest

ACCEPTANCE_LINES: list[str] = []


@pytest.fixture
def criterion_report():
    def record(number: int, ok: bool, detail: str) -> None:
        line = f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}"
        ACCEPTANCE_LINES.append(line)
        print(line)
        assert ok, line

    return record


def invoke(*args: str) -> SimpleNamespace:
    """Run `rtosim ARGS...` in-process, the way the benchmark calls it.

    Returns `exit_code` (0 when main returns, else its SystemExit code) and
    `output`, stdout and stderr in the order they were written."""
    from rtosim.cli import main

    output = io.StringIO()
    exit_code = 0
    with contextlib.redirect_stdout(output), contextlib.redirect_stderr(output):
        try:
            main(list(args), standalone_mode=False)
        except SystemExit as exc:
            exit_code = exc.code
    return SimpleNamespace(exit_code=exit_code, output=output.getvalue())


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
