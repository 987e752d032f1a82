"""Command-line experiment harness.

Subcommands train forests, encode and decode datasets, and run the
reconstruction, damage-tolerance, and model-reuse studies. Every command is
deterministic given its flags, prints a one-line JSON summary to stdout, and
writes machine-readable reports that echo the full configuration.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
import time
from pathlib import Path

from . import codec, data, metrics, persistence, training
from .errors import ConfigError, EForestError
from .forest import MODES, depth_stats
from .rules import STRATEGIES

MODE_NAMES = {mode.removesuffix("ervised"): mode for mode in MODES}  # sup, unsup


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _emit(**summary) -> None:
    print(json.dumps(summary, sort_keys=True))


def _write_text(path, text: str) -> None:
    data.atomic_write_bytes(Path(path), [text.encode("utf-8")])


def _write_json(path, payload: dict) -> None:
    _write_text(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _add_data_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True, help="dataset file (idx images or csv)")
    p.add_argument("--format", choices=("idx", "csv"), default="idx")
    p.add_argument("--labels", help="idx label file paired with --data")
    p.add_argument(
        "--csv-kinds",
        help="attribute kinds for csv data, e.g. 'num*4,cat:YES|NO' (default: all numeric)",
    )
    p.add_argument("--csv-header", action="store_true", help="csv file has a header row")
    p.add_argument("--label-column", help="csv label column index or header name")


def _add_decode_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", required=True)
    p.add_argument("--strategy", choices=tuple(STRATEGIES), default="min")
    p.add_argument("--mask-keep", type=float, help="keep fraction of trees")
    p.add_argument("--mask-seed", type=int, help="seed of the kept trees (default 0); "
                   "needs --mask-keep")


def _data_reader(args):
    """The function that reads the dataset the data flags name; the flags are
    checked now, before any file is read."""
    if args.format == "idx":
        stray = [flag for flag, given in (("--csv-kinds", args.csv_kinds is not None),
                                          ("--csv-header", args.csv_header),
                                          ("--label-column", args.label_column is not None))
                 if given]
        if stray:
            raise ConfigError(f"--format idx does not take {', '.join(stray)}")
        return functools.partial(data.load_idx, args.data, args.labels)
    if args.labels is not None:
        raise ConfigError("--format csv does not take --labels; name the label column "
                          "with --label-column")
    if args.csv_kinds == "":
        raise ConfigError("--csv-kinds is empty; omit it to read every column as numeric")
    label_col = args.label_column
    if label_col is not None and label_col.lstrip("-").isdigit():
        label_col = int(label_col)
    return functools.partial(data.load_csv, args.data, args.csv_kinds,
                             label_column=label_col, has_header=args.csv_header)


def _mask_seed(args) -> int | None:
    """The ``--mask-seed`` that ``--mask-keep`` draws its trees with (default
    0), or None without ``--mask-keep``; both are checked before any file is read."""
    if args.mask_keep is None:
        if args.mask_seed is not None:
            raise ConfigError("--mask-seed needs --mask-keep")
        return None
    codec.check_keep_fractions([args.mask_keep])
    return 0 if args.mask_seed is None else args.mask_seed


# -- train ---------------------------------------------------------------------


def _build_train_config(args) -> training.TrainConfig:
    base = {}
    if args.config:
        try:
            with open(args.config) as fh:
                base = json.load(fh)
        except (OSError, ValueError, RecursionError) as exc:  # deep nesting is not a ValueError
            raise ConfigError(f"cannot read config file {args.config}: {exc}") from None
        if not isinstance(base, dict):
            raise ConfigError(f"{args.config}: config file must hold a JSON object")
    flags = {
        "mode": MODE_NAMES.get(args.mode, args.mode) if args.mode else None,
        "n_trees": args.trees,
        "seed": args.seed,
        "min_node_size": args.min_node,
        "max_depth_cap": args.max_depth,
        "bootstrap": args.bootstrap,
        "threads": args.threads,
    }
    unknown = sorted(set(base) - {f.name for f in dataclasses.fields(training.TrainConfig)})
    if unknown:
        raise ConfigError(f"{args.config}: unknown config keys {unknown}")
    # given flags win over the config file; TrainConfig supplies the defaults
    merged = {**base, **{k: v for k, v in flags.items() if v is not None}}
    if merged.get("mode") is None or merged.get("n_trees") is None:
        raise ConfigError("--mode and --trees are required (flags or --config file)")
    return training.TrainConfig(**merged)


def cmd_train(args) -> int:
    read_data = _data_reader(args)
    config = _build_train_config(args)
    dataset = read_data()
    started = time.perf_counter()
    forest = training.train_forest(dataset, config)
    seconds = time.perf_counter() - started
    content_hash = persistence.save_model(forest, args.out)
    max_depth, avg_depth = depth_stats(forest)
    _emit(command="train", model=str(args.out), hash=content_hash, mode=config.mode,
          trees=config.n_trees, seed=config.seed, n=dataset.n, d=dataset.d,
          max_depth=max_depth, avg_depth=avg_depth, train_seconds=seconds)
    return 0


# -- encode / decode -----------------------------------------------------------


def cmd_encode(args) -> int:
    read_data = _data_reader(args)
    forest = persistence.load_model(args.model)
    dataset = read_data()
    matrix = codec.encode_batch(forest, dataset, reuse=args.reuse)
    persistence.save_encodings(matrix, args.out)
    _emit(command="encode", encodings=str(args.out), model_hash=matrix.forest_id,
          n=matrix.n, trees=matrix.T)
    return 0


def cmd_decode(args) -> int:
    seed = _mask_seed(args)
    forest = persistence.load_model(args.model)
    matrix = persistence.load_encodings(args.encodings)
    mask = None if seed is None else codec.TreeMask.from_fraction(forest.T, args.mask_keep, seed)
    recon = codec.decode_batch(forest, matrix, strategy=args.strategy, mask=mask)
    data.save_csv(recon, args.out)
    _emit(command="decode", out=str(args.out), n=recon.n, strategy=args.strategy,
          kept_trees=len(mask) if mask else forest.T)
    return 0


# -- studies: reconstruct / reuse / damage ---------------------------------------


def _load_study(args) -> tuple:
    """The model and dataset a study runs on, and the report echo naming them."""
    read_data = _data_reader(args)
    forest = persistence.load_model(args.model)
    dataset = read_data()
    echo = {"command": args.command, "model": str(args.model),
            "model_hash": persistence.forest_hex_id(forest), "data": str(args.data)}
    return forest, dataset, echo


def cmd_reconstruction(args) -> int:
    """``reconstruct``, or ``reuse`` through a model trained on other data."""
    seed = _mask_seed(args)
    forest, dataset, echo = _load_study(args)
    mask = None if seed is None else codec.TreeMask.from_fraction(forest.T, args.mask_keep, seed)
    report, recon = metrics.reconstruction_report(
        forest, dataset, metric=args.metric, strategy=args.strategy, mask=mask,
        reuse=args.command == "reuse",
        config={**echo, "mask_keep": args.mask_keep, "mask_seed": seed},
    )
    _write_json(args.report, report.to_json_dict(include_values=True))
    if args.report_csv:
        _write_text(args.report_csv, report.to_csv_text())
    if args.dump_recon:
        data.save_csv(recon, args.dump_recon)
    _emit(command=args.command, report=str(args.report), metric=args.metric,
          mean=report.mean, n=report.n)
    return 0


def cmd_damage(args) -> int:
    try:
        fractions = [float(f) for f in args.keep.split(",") if f.strip()]
    except ValueError:
        raise ConfigError(f"--keep expects comma-separated floats, got {args.keep!r}") from None
    codec.check_keep_fractions(fractions)
    forest, dataset, echo = _load_study(args)
    reports = metrics.damage_curve(forest, dataset, fractions, seed=args.seed,
                                   metric=args.metric, strategy=args.strategy)
    means = [r.mean for r in reports]
    _write_json(args.report, {
        **echo, "seed": args.seed, "metric": args.metric, "strategy": args.strategy,
        "keep_fractions": fractions, "means": means,
        "curve": [r.to_json_dict(include_values=False) for r in reports],
    })
    _emit(command="damage", report=str(args.report), keep_fractions=fractions, means=means)
    return 0


# -- stats -----------------------------------------------------------------------


def cmd_stats(args) -> int:
    forest = persistence.load_model(args.model)
    max_depth, avg_depth = depth_stats(forest)
    leaf_counts = forest.leaf_counts
    max_leaves = int(leaf_counts.max())
    bits_per_tree = max(1, (max_leaves - 1).bit_length())
    encoding_bits = forest.T * bits_per_tree
    input_bits = forest.d * 32
    _emit(command="stats", model=str(args.model), model_hash=persistence.forest_hex_id(forest),
          kind=forest.kind, trees=forest.T, d=forest.d, max_depth=max_depth,
          avg_depth=avg_depth, leaf_count_min=int(leaf_counts.min()),
          leaf_count_max=max_leaves, leaf_count_mean=float(leaf_counts.mean()),
          bits_per_tree=bits_per_tree, encoding_bits=encoding_bits, input_bits=input_bits,
          size_ratio=encoding_bits / input_bits)
    return 0


# -- parser -----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eforest",
        description="Tree-ensemble autoencoder: train forests, encode instances "
        "as leaf ordinals, and decode them back by rule intersection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a forest and save it as a model file")
    _add_data_flags(p)
    p.add_argument("--mode", choices=(*MODE_NAMES, *MODES))
    p.add_argument("--trees", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--min-node", type=int, help="leaf size threshold (default 2)")
    p.add_argument("--max-depth", type=int, help="optional depth cap")
    p.add_argument("--bootstrap", action=argparse.BooleanOptionalAction, default=None)
    p.add_argument("--threads", type=int,
                   help="worker processes (default 1), at most one per tree and per usable CPU")
    p.add_argument("--config", help="JSON file with TrainConfig fields; flags override")
    p.add_argument("--out", required=True, help="model file to write")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("encode", help="encode a dataset into leaf ordinals")
    _add_data_flags(p)
    p.add_argument("--model", required=True)
    p.add_argument("--reuse", action="store_true", help="allow kind-compatible schemas")
    p.add_argument("--out", required=True, help="encodings file to write")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="decode an encodings file back to instances")
    _add_decode_flags(p)
    p.add_argument("--encodings", required=True)
    p.add_argument("--out", required=True, help="reconstruction csv to write")
    p.set_defaults(func=cmd_decode)

    for name, text in (("reconstruct", "encode + decode + metric"),
                       ("reuse", "reconstruct through a model trained on another dataset")):
        p = sub.add_parser(name, help=text)
        _add_data_flags(p)
        _add_decode_flags(p)
        p.add_argument("--metric", choices=metrics.METRICS, default="mse")
        p.add_argument("--report", required=True, help="report JSON to write")
        p.add_argument("--report-csv", help="optional per-sample metric csv")
        p.add_argument("--dump-recon", help="optional reconstruction csv")
        p.set_defaults(func=cmd_reconstruction)

    p = sub.add_parser("damage", help="reconstruction quality under dropped trees")
    _add_data_flags(p)
    p.add_argument("--model", required=True)
    p.add_argument("--keep", default="0.25,0.5,0.75,1.0", help="comma-separated keep fractions")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--metric", choices=metrics.METRICS, default="mse")
    p.add_argument("--strategy", choices=tuple(STRATEGIES), default="min")
    p.add_argument("--report", required=True)
    p.set_defaults(func=cmd_damage)

    p = sub.add_parser("stats", help="depth, leaf, and code-size statistics of a model")
    p.add_argument("--model", required=True)
    p.set_defaults(func=cmd_stats)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except EForestError as exc:
        _log(f"error: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
