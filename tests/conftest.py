"""Shared pytest configuration.

This checkout's ``src`` goes at the end of ``sys.path``, so a checkout named
on ``$PYTHONPATH`` is the one under test and this one serves otherwise.

Acceptance tests register one human-readable line per criterion in
ACCEPTANCE_LINES; the terminal summary hook prints them after the run so the
pass/fail status of every criterion is visible regardless of capture mode.
"""

import sys
from pathlib import Path

sys.path.append(str(Path(__file__).resolve().parents[1] / "src"))

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
