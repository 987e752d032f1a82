"""Benchmark of the eforest CLI loop: train -> encode -> decode -> reconstruct
-> damage, then single-row queries, on synthetic corpora.

    python3 perfbench/run.py                       # every workload, untraced
    python3 perfbench/run.py --trace 1             # every workload, untraced then traced
    python3 perfbench/run.py --workload text-sup --seed 3 --seconds 10 --trace 0

Run from the repository root. A single workload runs in this process; without
``--workload`` each workload runs in a fresh child process, so peak memory
belongs to one workload. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics untraced (``--trace 0``), the per-layer metrics traced (``--trace 1``).
Work files go to ``.perfbench_out/`` under the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench_out"
EXPECTED = HERE / "expected.json"
WORKLOAD_NAMES = ("pixels-unsup", "text-sup", "table-mixed")
SETUP_REPEATS = 3

# End-to-end metrics in the result line, with units. Also printed, not in
# the result line: reconstruct_s and damage_s (all-numeric workloads only,
# part of loop_s) and query_ms.tail, whose spread over seeds on a shared
# machine (up to 0.21 of its median) leaves no room for a regression bound.
END_TO_END = {
    "setup_s": "s",
    "train_s": "s",
    "encode_s": "s",
    "decode_s": "s",
    "loop_s": "s",
    "query_ms.p50": "ms",
    "model_bytes": "bytes",
    "peak_rss_mb": "MB",
}
# Per-layer metrics in the traced result line (the ones every workload has).
PER_LAYER = {
    "data.load_s": "s",
    "data.save_csv_s": "s",
    "training.train_forest_s": "s",
    "training.root_split_ms": "ms",
    "training.nodes": "count",
    "training.leaves": "count",
    "training.max_depth": "levels",
    "training.mean_depth": "levels",
    "training.nodes_per_s": "1/s",
    "persistence.save_model_s": "s",
    "persistence.forest_record_s": "s",
    "persistence.canonical_json_s": "s",
    "persistence.fnv1a64_s": "s",
    "persistence.load_model_s": "s",
    "forest.from_records_s": "s",
    "persistence.load_rest_s": "s",
    "persistence.save_encodings_s": "s",
    "persistence.load_encodings_s": "s",
    "codec.encode_batch_s": "s",
    "codec.decode_batch_s": "s",
    "codec.decode_rows_per_s": "1/s",
    "codec.distinct_leaves": "count",
    "codec.distinct_leaf_share": "ratio",
    "codec.decode_region_ms": "ms",
    "forest.path_to_rule_ms": "ms",
    "rules.calculate_mcr_ms": "ms",
    "rules.representative_ms": "ms",
    "trace.train_s": "s",
    "trace.encode_s": "s",
    "trace.decode_s": "s",
    "trace.query_ms": "ms",
}
STAGES = ("train", "encode", "decode", "reconstruct", "damage")


def _pin_threads() -> None:
    """One BLAS/OpenMP thread, set before numpy loads."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ[var] = "1"


def _import_program():
    """Import the program from this checkout's src/ and tests/, or exit 2."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    try:
        import eforest
        import synthdata
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT}: {exc}", file=sys.stderr)
        sys.exit(2)
    for mod in (eforest, synthdata):
        if ROOT not in Path(mod.__file__).resolve().parents:
            print(f"perfbench: {mod.__name__} resolves outside {ROOT}", file=sys.stderr)
            sys.exit(2)
    return eforest


def _git_commit() -> str:
    """HEAD of this checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(eforest) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "eforest": eforest.__version__,
        "git_commit": _git_commit(),
        # persistence imports numba when it can; then fnv1a64 hashes inputs
        # of 64 KiB or more in a JIT kernel, orders of magnitude faster.
        "numba": "numba" in sys.modules,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def _fmt(value) -> str:
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def _print_metric(name: str, value, unit: str, note: str = "") -> None:
    print(f"{name:32s} {_fmt(value):>14s} {unit:6s} {note}".rstrip())


def _setup(w, seed: int, workdir: Path, clock):
    """Corpus generation and input files, SETUP_REPEATS times on ``clock``;
    returns the inputs of the last repeat."""
    from workloads import make_corpus, write_inputs

    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        inputs = write_inputs(w, make_corpus(w, seed), workdir)
        clock.add("setup", [time.perf_counter() - started])
    return inputs


def run_workload(args) -> int:
    _pin_threads()
    started = time.perf_counter()
    eforest = _import_program()
    import checks as chk
    import loop
    import replay
    from workloads import sized

    import_s = time.perf_counter() - started
    w = sized(args.workload, args.size)
    mode = "traced" if args.trace else "untraced"
    workdir = OUT / w.name / mode
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = environment(eforest)
    print(f"# {w.name} seed={args.seed} {mode} seconds={args.seconds} size={args.size} "
          f"(train {w.n_train}, test {w.n_test}, trees {w.trees})")
    print("# env " + json.dumps(env, sort_keys=True))

    clock = loop.Clock()
    inputs = _setup(w, args.seed, workdir, clock)
    ops = chk.Ops()
    try:
        if args.trace:
            result = replay.replay(w, inputs, workdir, args.seed, args.seconds, ops, clock)
        else:
            result = loop.untraced(w, inputs, workdir, args.seed, args.seconds, ops, clock)
    except Exception as exc:  # a crash of the program under test fails the run
        import traceback

        traceback.print_exc()
        ops.add("run", False, repr(exc))
        result = None

    report = {"workload": w.name, "seed": args.seed, "mode": mode, "env": env,
              "size": args.size, "seconds": args.seconds}
    metrics = {}
    if result is not None:
        expected = chk.check_digest(ops, f"{args.size}/{w.name}", args.seed, result["digest"],
                                    EXPECTED, args.expect_digest)
        report.update(digest=result["digest"], expected_digest=expected,
                      forest_id=result["forest_id"], rounds=result["rounds"])
        report["samples"] = {"raw_s": clock.raw, "scaled_s": clock.scaled,
                             "calibration_s": clock.calibrations}
        print(f"# {result['rounds']} rounds")
        if args.trace:
            metrics = _traced_metrics(result, workdir, clock)
        else:
            metrics = _untraced_metrics(result, clock, import_s)
    report.update(attempted=ops.attempted, failed=ops.failed, failures=ops.failures,
                  metrics=metrics)
    (workdir / "report.json").write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")

    print(f"{'ops_failed':32s} {ops.failed:>14d} {'ops':6s} of {ops.attempted} attempted")
    for failure in ops.failures:
        print(f"#   FAILED {failure}")
    if result is not None:
        note = ("matches the recorded digest" if report["expected_digest"] == result["digest"]
                else "no recorded digest for this seed" if report["expected_digest"] is None
                else f"EXPECTED {report['expected_digest']}")
        print(f"# output digest {result['digest']} ({note}); forest id {result['forest_id']}")
    wanted = PER_LAYER if args.trace else END_TO_END
    correct = ops.failed == 0 and all(name in metrics for name in wanted)
    print(json.dumps({
        "correct": correct,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": metrics[name][0], "unit": unit}
                    for name, unit in wanted.items() if name in metrics},
    }))
    return 0 if correct else 1


def _untraced_metrics(result: dict, clock, import_s: float) -> dict:
    """End-to-end metrics from the clock's scaled timings (raw ones in the notes)."""
    import checks as chk
    import loop

    import_scaled = import_s * loop.CAL_REF_S / clock.calibrations[0]
    out = {}
    setup = chk.timing(clock.scaled["setup"])
    out["setup_s"] = (import_scaled + setup["median"], "s",
                      f"imports + median of {setup['n']} set-ups; raw "
                      f"{import_s + statistics.median(clock.raw['setup']):.4f} s")
    loop_s = loop_raw = 0.0
    for stage in STAGES:
        if stage not in clock.scaled:
            continue
        t = chk.timing(clock.scaled[stage])
        raw = statistics.median(clock.raw[stage])
        loop_s += t["median"]
        loop_raw += raw
        tail = (f", p{t['tail_pct']:g} {t['tail']:.4f} s" if "tail" in t
                else ", no tail below 11 samples")
        out[f"{stage}_s"] = (t["median"], "s", f"median of {t['n']}{tail}; raw {raw:.4f} s")
    out["loop_s"] = (loop_s, "s", f"sum of the medians above; raw {loop_raw:.4f} s")
    q, q_raw = (chk.timing([v * 1e3 for v in loop.row_medians(samples["query"],
                                                               result["query_rows"])])
                for samples in (clock.scaled, clock.raw))
    note = f"over {q['n']} rows, each the median of its {len(clock.raw['query']) // q['n']} queries"
    out["query_ms.p50"] = (q["median"], "ms", f"{note}; raw {q_raw['median']:.4f} ms")
    if "tail" in q:
        out["query_ms.tail"] = (q["tail"], "ms",
                                f"p{q['tail_pct']:g} {note}; raw {q_raw['tail']:.4f} ms")
    out["model_bytes"] = (result["model_bytes"], "bytes", "")
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", "")
    print(f"# times below are scaled to the reference speed (calibration median "
          f"{statistics.median(clock.calibrations) * 1e3:.2f} ms, reference "
          f"{loop.CAL_REF_S * 1e3:.0f} ms); raw medians in the notes")
    for name, (value, unit, note) in out.items():
        _print_metric(name, value, unit, note)
    return {name: (value, unit) for name, (value, unit, _) in out.items()}


def _traced_metrics(result: dict, workdir: Path, clock) -> dict:
    """Per-layer metrics (raw self times) and the stage totals, scaled like the
    untraced timings and set next to the untraced run of the same seed."""
    import replay

    tr = result["tracer"]
    tr.write(workdir / "spans.jsonl")
    layers = replay.layer_metrics(result)
    for name, (value, unit) in layers.items():
        _print_metric(name, value, unit)
    totals = replay.stage_totals(tr, clock)
    untraced = _untraced_report(workdir, result)
    print("# stage totals: raw traced, its self time, then traced and untraced scaled to the "
          "reference speed (untraced: the last run of this seed)")
    print(f"# {'stage':12s} {'raw':>10s} {'self':>10s} {'traced':>10s} {'untraced':>10s} "
          f"{'traced-untraced':>16s}")
    for stage in (*STAGES, "query"):
        if stage not in totals:
            continue
        t = totals[stage]
        scale, unit, key = (1e3, "ms", "query_ms.p50") if stage == "query" else (1, "s", f"{stage}_s")
        line = (f"# {stage:12s} {t['total'] * scale:10.4f} {t['self'] * scale:10.4f} "
                f"{t['scaled'] * scale:10.4f}")
        if key in untraced:
            line += f" {untraced[key]:10.4f} {t['scaled'] * scale - untraced[key]:+16.4f}"
        print(line + f" {unit}")
    stage_metrics = {f"trace.{stage}_s": (totals[stage]["scaled"], "s")
                     for stage in ("train", "encode", "decode")}
    stage_metrics["trace.query_ms"] = (totals["query"]["scaled"] * 1e3, "ms")
    for name, (value, unit) in stage_metrics.items():
        _print_metric(name, value, unit, "scaled")
    layers["data.load_s"] = next(v for k, v in layers.items() if k.startswith("data.load_"))
    return {**layers, **stage_metrics}


def _untraced_report(workdir: Path, result: dict) -> dict:
    """End-to-end metrics of the last untraced run of the same workload, size
    and seed (same digest), by name."""
    path = workdir.parent / "untraced" / "report.json"
    try:
        report = json.loads(path.read_text())
    except (OSError, ValueError):
        return {}
    if report.get("digest") != result["digest"]:
        return {}
    return {name: value for name, (value, _unit) in report.get("metrics", {}).items()}


def run_all(args) -> int:
    """Each workload in a fresh child process; untraced, then traced if asked."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        for trace in ((0, 1) if args.trace else (0,)):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace), "--size", args.size]
            if args.expect_digest:
                argv += ["--expect-digest", args.expect_digest]
            child = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
            sys.stdout.write(child.stdout)
            sys.stderr.write(child.stderr)
            lines = child.stdout.strip().splitlines()
            try:
                last = json.loads(lines[-1])
            except (IndexError, ValueError):
                return child.returncode or 1
            status = status or child.returncode
            combined["correct"] &= last["correct"]
            combined["attempted"] += last["attempted"]
            combined["failed"] += last["failed"]
            for metric, value in last["metrics"].items():
                combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="one workload in this process (default: all, one child each)")
    parser.add_argument("--seed", type=int, default=0, help="corpus, forest and query seed")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="how long to repeat rounds of CLI loop and queries "
                        "(at least 4 rounds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: replay the stages under spans and report per-layer metrics")
    parser.add_argument("--size", choices=("bench", "baseline", "smoke"), default="bench",
                        help="corpus and forest sizes: bench (timed default), baseline "
                        "(the ROADMAP baseline scale) or smoke (the benchmark's own test)")
    parser.add_argument("--expect-digest",
                        help="expected output digest, overriding the recorded one")
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
