"""Smoke test of the benchmark itself, on tiny corpora and forests.

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--size", "smoke",
         "--seconds", "0.2", *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = _run("--workload", workload, "--trace", str(trace))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: v["unit"] for name, v in result["metrics"].items()
    }
    for m in wanted:
        if m["name"] == "data.load_s":  # printed as data.load_idx_s or data.load_csv_s
            continue
        line = re.compile(rf"^{re.escape(m['name'])}\s+\S+\s+{re.escape(m['unit'])}(\s|$)", re.M)
        assert line.search(proc.stdout), f"{m['name']} not printed with unit {m['unit']}"
    printed_only = [] if trace else [("query_ms.tail", "ms")]
    if not trace and workload != "table-mixed":
        printed_only += [("reconstruct_s", "s"), ("damage_s", "s")]
    for name, unit in printed_only:
        assert re.search(rf"^{re.escape(name)}\s+\S+\s+{unit}\s", proc.stdout, re.M), name
    assert re.search(r"^ops_failed\s+0\s+ops\s+of \d+ attempted", proc.stdout, re.M)


def test_wrong_expected_digest_counts_as_failed_op():
    proc = _run("--workload", "table-mixed", "--expect-digest", "0" * 16)
    assert proc.returncode != 0
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert not result["correct"]
    assert result["failed"] >= 1
    assert "FAILED digest.expected" in proc.stdout


def test_fails_without_the_program():
    bare = ROOT / ".perfbench_out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", SPEC["workloads"][0]["name"], cwd=bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
