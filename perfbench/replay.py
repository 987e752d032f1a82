"""The traced run: the CLI loop's stages replayed as direct calls to each
module's public functions, every call wrapped in a span.

Each stage (train, encode, decode, reconstruct, damage, query) is a root span
with its own trace id; the layer calls it makes are its children. Rounds
repeat the stages for the run's seconds, as the untraced run does. Spans live
in memory and are written out once, at the end of the run. Per-layer metrics
are self times: a span's duration minus the time its children cover.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import checks as chk
from eforest import codec, data, forest as forest_mod, metrics, persistence, rules, training
from eforest.rng import tree_stream
from loop import MIN_ROUNDS, QUERIES, QUERY_BATCH, Clock, check_sample, query_codes
from workloads import DAMAGE_KEEP, load_input

ROOT_SPLIT_REPEATS = 5


class Tracer:
    """In-memory span recorder: (id, trace, parent, name, start, end)."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._traces = 0
        self._origin = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            self._traces += 1
        rec = {
            "id": len(self.spans),
            "trace": parent["trace"] if parent else self._traces,
            "parent": parent["id"] if parent else None,
            "name": name,
            "start": time.perf_counter() - self._origin,
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter() - self._origin
            self._stack.pop()

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the time its direct children cover.

        Children of one parent never overlap here (one thread), so their
        covered time is the sum of their durations.
        """
        out = {s["id"]: s["end"] - s["start"] for s in self.spans}
        for s in self.spans:
            if s["parent"] is not None:
                out[s["parent"]] -= s["end"] - s["start"]
        return out

    def write(self, path: Path) -> None:
        path.write_text("".join(json.dumps(s) + "\n" for s in self.spans))


def _stage_tree(tr: Tracer, name: str) -> dict[str, list[float]]:
    """Layer-call name -> self times of that call in every root span ``name``."""
    selfs = tr.self_times()
    roots = {s["id"] for s in tr.spans if s["parent"] is None and s["name"] == name}
    out: dict[str, list[float]] = {}
    for s in tr.spans:
        if s["parent"] in roots:
            out.setdefault(s["name"], []).append(selfs[s["id"]])
    return out


def replay(w, inputs, workdir: Path, seed: int, seconds: float, ops: chk.Ops,
           clock: Clock) -> dict:
    """Rounds of every stage under spans for ``seconds``, as in the untraced
    run; returns the tracer, counters and the output digest. Each stage's
    total also goes on ``clock``, to be scaled like the untraced timings."""
    tr = Tracer()

    @contextmanager
    def stage(name: str):
        with tr.span(name) as rec:
            yield
        clock.add(name, [rec["end"] - rec["start"]])

    model = workdir / "model.json"
    enc = workdir / "test.enc"
    recon = workdir / "recon.csv"
    load_name = "data.load_idx" if w.fmt == "idx" else "data.load_csv"
    config = training.TrainConfig(mode="supervised" if w.mode == "sup" else "unsupervised",
                                  n_trees=w.trees, seed=seed, threads=1)

    def load(path):
        with tr.span(load_name):
            return load_input(w, inputs, path)

    def load_model():
        with tr.span("persistence.load_model"):
            return persistence.load_model(model)

    query_forest = None
    failed_queries = 0
    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
        with stage("train"):
            train = load(inputs.train_path)
            with tr.span("training.train_forest"):
                fresh = training.train_forest(train, config)
            with tr.span("persistence.save_model"):
                model_hash = persistence.save_model(fresh, model)
        if rounds == 0:
            _train_detail(tr, w, train, fresh, model, model_hash, seed, ops)

        with stage("encode"):
            forest = load_model()
            test = load(inputs.test_path)
            with tr.span("codec.encode_batch"):
                matrix = codec.encode_batch(forest, test)
            with tr.span("persistence.save_encodings"):
                persistence.save_encodings(matrix, enc)

        with stage("decode"):
            forest = load_model()
            with tr.span("persistence.load_encodings"):
                matrix = persistence.load_encodings(enc)
            with tr.span("codec.decode_batch"):
                out = codec.decode_batch(forest, matrix)
            with tr.span("data.save_csv"):
                data.save_csv(out, recon)

        means = []
        if w.metric is not None:
            with stage("reconstruct"):
                forest = load_model()
                test = load(inputs.test_path)
                with tr.span("metrics.reconstruction_report"):
                    report, _ = metrics.reconstruction_report(forest, test, metric=w.metric)
            with stage("damage"):
                forest = load_model()
                test = load(inputs.test_path)
                with tr.span("metrics.damage_curve"):
                    curve = metrics.damage_curve(forest, test, DAMAGE_KEEP.split(","),
                                                 seed=seed, metric=w.metric)
            means = [report.mean, *(r.mean for r in curve)]

        if query_forest is None:
            query_forest = forest
            X_rows, codes = query_codes(forest, inputs.X_train, seed)
        if rounds < MIN_ROUNDS:
            failed_queries += _query_batch(tr, clock, query_forest, X_rows, codes,
                                           rounds * QUERY_BATCH)
        rounds += 1
    ops.add("query", failed_queries == 0, "(missed its own training row)", count=QUERIES,
            failed=failed_queries)

    leaf_ids, recon_X = chk.read_outputs(enc, recon, forest.schema.kinds)
    if means:
        chk.check_report_means(ops, w.metric, inputs.X_test, recon_X, means[0], means[1:])
    chk.check_outputs(ops, forest, inputs.X_test, enc, recon_X,
                      check_sample(len(inputs.X_test), seed))
    distinct = sum(len(np.unique(leaf_ids[:, t])) for t in range(leaf_ids.shape[1]))
    max_depth, mean_depth = forest_mod.depth_stats(fresh)
    counts = {
        "training.nodes": sum(t.n_nodes for t in fresh.trees),
        "training.leaves": sum(t.leaf_count for t in fresh.trees),
        "training.max_depth": max_depth,
        "training.mean_depth": mean_depth,
        "codec.distinct_leaves": distinct,
        "codec.distinct_leaf_share": distinct / leaf_ids.size,
        "n_test": leaf_ids.shape[0],
    }
    return {
        "tracer": tr,
        "counts": counts,
        "rounds": rounds,
        "forest_id": persistence.forest_hex_id(forest),
        "digest": chk.output_digest(leaf_ids, recon_X, means),
    }


def _train_detail(tr: Tracer, w, train, fresh, model: Path, model_hash: str, seed: int,
                  ops: chk.Ops) -> None:
    """Not a CLI stage: the root split, the three parts of the content hash and
    the tree validation of load, each timed on its own so that the per-layer
    table can split train_s and load_model_s."""
    with tr.span("train-detail"):
        rows = np.arange(train.n)
        for _ in range(ROOT_SPLIT_REPEATS):
            stream = tree_stream(seed, 0)
            with tr.span("training.root_split"):
                if w.mode == "sup":
                    training.build_supervised_node(train.X, rows, train.labels, stream,
                                                   train.schema)
                else:
                    training.build_unsupervised_node(train.X, rows, stream, train.schema)
        with tr.span("persistence.forest_record"):
            record = persistence.forest_record(fresh)
        with tr.span("persistence.canonical_json_bytes"):
            blob = persistence.canonical_json_bytes(record)
        with tr.span("persistence.fnv1a64"):
            digest64 = persistence.fnv1a64(blob)
        ops.add("hash.parts_match_save_model", f"{digest64:016x}" == model_hash)
        with tr.span("json.loads"):
            parsed = json.loads(model.read_bytes())
        with tr.span("forest.from_records"):
            for t in parsed["trees"]:
                forest_mod.Tree.from_records(t["nodes"], fresh.schema)


def _query_batch(tr: Tracer, clock: Clock, forest, X_rows, codes, start: int) -> int:
    """The untraced query batch under spans, plus a replay of decode_region's
    own steps (path rules, then their intersection) as a separate root span.
    Returns how many queries missed their own training row."""
    failed = 0
    totals = []
    for k in range(start, start + QUERY_BATCH):
        i = k % len(codes)
        with tr.span("query") as rec:
            with tr.span("codec.decode_region"):
                region = codec.decode_region(forest, codes[i])
            with tr.span("rules.representative"):
                rules.representative(region, "min")
        failed += not rules.contains(region, X_rows[i])
        with tr.span("query-detail"):
            with tr.span("forest.path_to_rule"):
                path_rules = [
                    forest_mod.path_to_rule(forest_mod.get_path(t, int(leaf)), forest.schema)
                    for t, leaf in zip(forest.trees, codes[i])
                ]
            with tr.span("rules.calculate_mcr"):
                rules.calculate_mcr(path_rules, forest.bounds, forest.schema)
        totals.append(rec["end"] - rec["start"])
    clock.add("query", totals)
    return failed


def layer_metrics(result: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics by name: (value, unit). Times are self times of one
    call, the median when a stage replay makes the call several times."""
    tr = result["tracer"]
    counts = result["counts"]
    stages = {
        name: _stage_tree(tr, name)
        for name in ("train", "train-detail", "encode", "decode", "reconstruct", "damage",
                     "query", "query-detail")
    }

    def one(stage, call):
        return statistics.median(stages[stage][call])

    def every(call):
        return [v for calls in stages.values() for v in calls.get(call, [])]

    load_name = next(n for n in ("data.load_idx", "data.load_csv") if every(n))
    load_model = statistics.median(every("persistence.load_model"))
    out = {
        f"{load_name}_s": (one("train", load_name) + one("encode", load_name), "s"),
        "data.save_csv_s": (one("decode", "data.save_csv"), "s"),
        "training.train_forest_s": (one("train", "training.train_forest"), "s"),
        "training.root_split_ms": (one("train-detail", "training.root_split") * 1e3, "ms"),
        "training.nodes": (counts["training.nodes"], "count"),
        "training.leaves": (counts["training.leaves"], "count"),
        "training.max_depth": (counts["training.max_depth"], "levels"),
        "training.mean_depth": (counts["training.mean_depth"], "levels"),
        "training.nodes_per_s": (
            counts["training.nodes"] / one("train", "training.train_forest"), "1/s"),
        "persistence.save_model_s": (one("train", "persistence.save_model"), "s"),
        "persistence.forest_record_s": (one("train-detail", "persistence.forest_record"), "s"),
        "persistence.canonical_json_s": (
            one("train-detail", "persistence.canonical_json_bytes"), "s"),
        "persistence.fnv1a64_s": (one("train-detail", "persistence.fnv1a64"), "s"),
        "persistence.load_model_s": (load_model, "s"),
        "forest.from_records_s": (one("train-detail", "forest.from_records"), "s"),
        "persistence.save_encodings_s": (one("encode", "persistence.save_encodings"), "s"),
        "persistence.load_encodings_s": (one("decode", "persistence.load_encodings"), "s"),
        "codec.encode_batch_s": (one("encode", "codec.encode_batch"), "s"),
        "codec.decode_batch_s": (one("decode", "codec.decode_batch"), "s"),
        "codec.decode_rows_per_s": (
            counts["n_test"] / one("decode", "codec.decode_batch"), "1/s"),
        "codec.distinct_leaves": (counts["codec.distinct_leaves"], "count"),
        "codec.distinct_leaf_share": (counts["codec.distinct_leaf_share"], "ratio"),
        "codec.decode_region_ms": (one("query", "codec.decode_region") * 1e3, "ms"),
        "forest.path_to_rule_ms": (one("query-detail", "forest.path_to_rule") * 1e3, "ms"),
        "rules.calculate_mcr_ms": (one("query-detail", "rules.calculate_mcr") * 1e3, "ms"),
        "rules.representative_ms": (one("query", "rules.representative") * 1e3, "ms"),
    }
    out["persistence.load_rest_s"] = (
        load_model - out["forest.from_records_s"][0] - out["persistence.canonical_json_s"][0]
        - out["persistence.fnv1a64_s"][0], "s")
    if stages["reconstruct"]:
        out["metrics.reconstruction_report_s"] = (
            one("reconstruct", "metrics.reconstruction_report"), "s")
        out["metrics.damage_curve_s"] = (one("damage", "metrics.damage_curve"), "s")
    return out


def stage_totals(tr: Tracer, clock: Clock) -> dict[str, dict]:
    """Per stage: median traced total, raw and scaled (seconds), median self
    time and the number of spans."""
    selfs = tr.self_times()
    by_stage: dict[str, list[tuple[float, float]]] = {}
    for s in tr.spans:
        if s["parent"] is None and s["name"] in clock.scaled:
            by_stage.setdefault(s["name"], []).append((s["end"] - s["start"], selfs[s["id"]]))
    return {
        name: {"total": statistics.median(t for t, _ in v),
               "scaled": statistics.median(clock.scaled[name]),
               "self": statistics.median(x for _, x in v), "n": len(v)}
        for name, v in by_stage.items()
    }
