"""The untraced run: the real CLI, in-process, then single-row queries.

Every CLI command is ``eforest.cli.main(argv)`` timed from outside. Training
always gets ``--threads 1``. The queries run on a forest loaded once, each one
``codec.decode_region`` plus ``rules.representative`` on a training row.

A run is a series of rounds, each one CLI loop (the first few followed by a
batch of queries), repeated until the run's seconds are spent. Rounds
interleave the commands over the whole run, so the per-command medians do not
hang on one slow stretch of a shared machine.

Machine speed: on a shared host the same work can take 1.5x as long for a
minute at a time. So a fixed calibration kernel, which uses no eforest code,
runs between any two timed steps, and every timing is also reported scaled to
a reference speed: measured seconds x CAL_REF_S / (mean of the calibrations
just before and just after it). README.md shows how much steadier this is.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
import traceback

import numpy as np

import checks as chk
from eforest import cli, codec, data, persistence, rules
from workloads import DAMAGE_KEEP, data_flags

CAL_REF_S = 0.040  # calibration seconds at the reference speed (2-vCPU Xeon VM, quiet)
MIN_ROUNDS = 4
# Every run queries the same QUERY_ROWS training rows QUERY_REPS times each,
# split over its first MIN_ROUNDS rounds. A row's latency is the median of its
# repetitions, so one burst of contention cannot make a row slow, and the
# tail over 200 rows is always p95 (10 rows beyond it).
QUERY_ROWS = 200
QUERY_REPS = 3
QUERIES = QUERY_ROWS * QUERY_REPS
QUERY_BATCH = QUERIES // MIN_ROUNDS
CHECK_SAMPLE = 16  # test rows cross-checked against the rule-algebra oracle


def calibrate() -> float:
    """Seconds of a fixed mix of interpreter, numpy, container and json work
    (about 40 ms). The mix slows down with contention about as much as the
    program's own mix of numpy calls and small-object Python does."""
    started = time.perf_counter()
    total = 0
    for i in range(150_000):
        total += i * i
    a = np.arange(4096, dtype=float)
    for _ in range(300):
        a = np.sqrt(a + 1.0)[::-1].copy()
    table = {}
    for i in range(30_000):
        table[i % 1999] = (i, i * 0.5, frozenset((i % 7, i % 11)))
    for v in sorted(table.values(), key=lambda v: v[1]):
        total += 3 in v[2]
    for _ in range(2):
        json.loads(json.dumps([{"t": "num", "thr": i * 0.5} for i in range(3000)]))
    return time.perf_counter() - started


class Clock:
    """Timings of steps separated by calibrations: raw seconds and seconds
    scaled to the reference speed, by step name."""

    def __init__(self):
        self.raw: dict[str, list[float]] = {}
        self.scaled: dict[str, list[float]] = {}
        self.calibrations = [calibrate()]

    def add(self, name: str, seconds: list[float]) -> None:
        """Record the timings of one step; calibrates after it."""
        self.calibrations.append(calibrate())
        scale = CAL_REF_S / ((self.calibrations[-2] + self.calibrations[-1]) / 2)
        self.raw.setdefault(name, []).extend(seconds)
        self.scaled.setdefault(name, []).extend(s * scale for s in seconds)


def _run_cli(argv, ops: chk.Ops, name: str) -> tuple[float, dict | None]:
    """Run one CLI command; returns (seconds, parsed JSON summary or None)."""
    out = io.StringIO()
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    except Exception:
        seconds = time.perf_counter() - started
        ops.add(f"cli.{name}", False, traceback.format_exc(limit=3))
        return seconds, None
    seconds = time.perf_counter() - started
    if not ops.add(f"cli.{name}", code == 0, f"exit code {code}"):
        return seconds, None
    return seconds, json.loads(out.getvalue().strip().splitlines()[-1])


def cli_commands(w, inputs, workdir, seed: int) -> list[tuple[str, list[str]]]:
    """train -> encode -> decode [-> reconstruct -> damage] as CLI argument lists."""
    model = str(workdir / "model.json")
    train_flags = data_flags(w, inputs, inputs.train_path)
    test_flags = data_flags(w, inputs, inputs.test_path)
    commands = [
        ("train", ["train", *train_flags, "--mode", w.mode, "--trees", str(w.trees),
                   "--seed", str(seed), "--threads", "1", "--out", model]),
        ("encode", ["encode", *test_flags, "--model", model,
                    "--out", str(workdir / "test.enc")]),
        ("decode", ["decode", "--model", model, "--encodings", str(workdir / "test.enc"),
                    "--out", str(workdir / "recon.csv")]),
    ]
    if w.metric is not None:
        commands += [
            ("reconstruct", ["reconstruct", *test_flags, "--model", model, "--metric", w.metric,
                             "--report", str(workdir / "reconstruct.json")]),
            ("damage", ["damage", *test_flags, "--model", model, "--keep", DAMAGE_KEEP,
                        "--seed", str(seed), "--metric", w.metric,
                        "--report", str(workdir / "damage.json")]),
        ]
    return commands


def query_rows(n_train: int, seed: int) -> np.ndarray:
    """Fixed seeded sample of distinct training rows for the queries."""
    rng = np.random.default_rng([seed, 7])
    return rng.permutation(n_train)[: min(QUERY_ROWS, n_train)]


def check_sample(n_test: int, seed: int) -> np.ndarray:
    """Fixed seeded sample of test rows for the output cross-checks."""
    return np.random.default_rng([seed, 11]).permutation(n_test)[:CHECK_SAMPLE]


def query_codes(forest, X_train, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The query rows and their encodings under ``forest``."""
    X_rows = X_train[query_rows(len(X_train), seed)]
    return X_rows, codec.encode_batch(forest, data.Dataset(forest.schema, X_rows)).leaf_ids


def query_batch(forest, X_rows, codes, start: int, latencies: list[float],
                rows: list[int]) -> int:
    """QUERY_BATCH queries from position ``start`` of the sample; appends each
    query's seconds and row, and returns how many raised or missed their own
    row (Acceptance 1: a training row lies in its decoded region)."""
    failed = 0
    for k in range(start, start + QUERY_BATCH):
        i = k % len(codes)
        try:
            started = time.perf_counter()
            region = codec.decode_region(forest, codes[i])
            rules.representative(region, "min")
            latencies.append(time.perf_counter() - started)
            rows.append(i)
            failed += not rules.contains(region, X_rows[i])
        except Exception:
            failed += 1
    return failed


def row_medians(samples: list[float], rows: list[int]) -> list[float]:
    """Median of each query row's repetitions."""
    by_row: dict[int, list[float]] = {}
    for value, row in zip(samples, rows):
        by_row.setdefault(row, []).append(value)
    return [float(np.median(v)) for v in by_row.values()]


def untraced(w, inputs, workdir, seed: int, seconds: float, ops: chk.Ops,
             clock: Clock) -> dict | None:
    """Rounds of CLI loop for ``seconds``, the first MIN_ROUNDS of them each
    followed by a batch of queries, timed on ``clock`` (one step per command,
    ``query`` for each query); then the output checks.

    Returns the round count, model size, forest id and output digest, or None
    as soon as a command fails.
    """
    commands = cli_commands(w, inputs, workdir, seed)
    hashes = set()
    query_rows_done: list[int] = []
    failed_queries = 0
    forest = None
    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
        for name, argv in commands:
            elapsed, summary = _run_cli(argv, ops, name)
            if summary is None:
                return None
            clock.add(name, [elapsed])
            if name == "train":
                hashes.add(summary["hash"])
        if forest is None:
            forest = persistence.load_model(workdir / "model.json")
            X_rows, codes = query_codes(forest, inputs.X_train, seed)
            clock.calibrations.append(calibrate())
        if rounds < MIN_ROUNDS:
            latencies: list[float] = []
            failed_queries += query_batch(forest, X_rows, codes, rounds * QUERY_BATCH,
                                          latencies, query_rows_done)
            clock.add("query", latencies)
        rounds += 1
    ops.add("query", failed_queries == 0, "(raised or missed its own training row)",
            count=QUERIES, failed=failed_queries)
    ops.add("train.same_model_every_round", hashes == {persistence.forest_hex_id(forest)},
            str(sorted(hashes)))

    leaf_ids, recon = chk.read_outputs(workdir / "test.enc", workdir / "recon.csv",
                                       forest.schema.kinds)
    chk.check_outputs(ops, forest, inputs.X_test, workdir / "test.enc", recon,
                      check_sample(len(inputs.X_test), seed))
    means = []
    if w.metric is not None:
        recon_mean = json.loads((workdir / "reconstruct.json").read_text())["mean"]
        damage_means = json.loads((workdir / "damage.json").read_text())["means"]
        chk.check_report_means(ops, w.metric, inputs.X_test, recon, recon_mean, damage_means)
        means = [recon_mean, *damage_means]
    return {
        "rounds": rounds,
        "query_rows": query_rows_done,
        "model_bytes": (workdir / "model.json").stat().st_size,
        "forest_id": persistence.forest_hex_id(forest),
        "digest": chk.output_digest(leaf_ids, recon, means),
    }
