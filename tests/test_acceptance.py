"""End-to-end acceptance gate.

Each test checks one shipping criterion at desk scale and registers a
human-readable PASS/FAIL line that the terminal summary prints after the run.
The image and text corpora are deterministic synthetic stand-ins generated in
process; set EFOREST_MNIST_DIR to a directory of idx-ubyte files to also run
the extended full-corpus study.
"""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

import conftest
from eforest import cli
from eforest.codec import TreeMask, decode_region, encode_batch
from eforest.data import Dataset, Schema, load_idx
from eforest.forest import depth_stats, get_path, path_to_rule
from eforest.metrics import damage_curve, reconstruction_report
from eforest.persistence import load_model, save_model
from eforest.rules import CategorySet, Interval, contains, representative
from eforest.training import TrainConfig, train_forest

from synthdata import (
    cifar_gray_like,
    grid_points,
    mnist_like,
    random_mixed,
    rule_axis_masks,
    tfidf_like,
    walk_codes,
    worked_example,
    write_idx_images,
    write_idx_labels,
)

TIMINGS: dict[str, float] = {}


def record(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {number} {name}: {status} ({detail})"
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, line


def skip_line(number: int, name: str, detail: str) -> None:
    conftest.ACCEPTANCE_LINES.append(f"ACCEPTANCE {number} {name}: SKIP ({detail})")


def timed(key: str, fn, *args, **kwargs):
    started = time.perf_counter()
    out = fn(*args, **kwargs)
    TIMINGS[key] = time.perf_counter() - started
    return out


def mean_mse(key: str, forest, dataset, reuse: bool = False) -> float:
    report, _ = timed(
        key, reconstruction_report, forest, dataset,
        metric="mse", strategy="min", reuse=reuse,
    )
    return report.mean


# -- shared corpora and models ---------------------------------------------------


@pytest.fixture(scope="module")
def digits_train():
    return timed("gen_digits_train", mnist_like, 5000, seed=101)


@pytest.fixture(scope="module")
def digits_test():
    return timed("gen_digits_test", mnist_like, 1000, seed=202)


@pytest.fixture(scope="module")
def sup100(digits_train):
    cfg = TrainConfig(mode="supervised", n_trees=100, seed=11)
    return timed("train_sup100", train_forest, digits_train, cfg)


@pytest.fixture(scope="module")
def unsup100(digits_train):
    cfg = TrainConfig(mode="unsupervised", n_trees=100, seed=22)
    return timed("train_unsup100", train_forest, digits_train, cfg)


@pytest.fixture(scope="module")
def unsup200(digits_train):
    cfg = TrainConfig(mode="unsupervised", n_trees=200, seed=33)
    return timed("train_unsup200", train_forest, digits_train, cfg)


@pytest.fixture(scope="module")
def unsup50(digits_train):
    cfg = TrainConfig(mode="unsupervised", n_trees=50, seed=44)
    return timed("train_unsup50", train_forest, digits_train, cfg)


# -- criteria ---------------------------------------------------------------------


def test_01_exact_containment():
    """Every decoded region contains the instance it encodes, exactly."""
    started = time.perf_counter()
    t_cycle = (1, 3, 7, 15, 30, 50)
    datasets = []
    seed = 1000
    while len(datasets) < 12:
        ds = random_mixed(seed)
        seed += 1
        if ds.schema.all_numeric or ds.schema.category_sizes.all():
            continue  # keep only genuinely mixed schemas
        datasets.append(ds)

    checked = 0
    for i, ds in enumerate(datasets):
        mode = "supervised" if i % 2 == 0 else "unsupervised"
        cfg = TrainConfig(mode=mode, n_trees=t_cycle[i % len(t_cycle)], seed=i)
        forest = train_forest(ds, cfg)
        matrix = encode_batch(forest, ds)
        for r in range(ds.n):
            region = decode_region(forest, matrix.leaf_ids[r])
            assert contains(region, ds.X[r]), f"dataset {i}, row {r} escaped its region"
            checked += 1
    elapsed = time.perf_counter() - started
    record(
        1, "exact-containment",
        checked >= 1000 and elapsed < 60.0,
        f"{checked} instances across {len(datasets)} mixed datasets, {elapsed:.1f}s",
    )


def test_02_region_oracle():
    """Decoded regions equal brute-force grid intersection of the path rules."""
    per_axis = 20
    forests_checked = 0
    for i in range(100):
        rng = np.random.default_rng(20_000 + i)
        ds = Dataset(
            Schema.numeric(["a0", "a1", "a2", "a3"]),
            rng.uniform(-20, 20, (60, 4)).round(2),
        )
        forest = train_forest(
            ds, TrainConfig(mode="unsupervised", n_trees=1 + i % 8, seed=i)
        )
        row = int(rng.integers(0, ds.n))
        codes = encode_batch(forest, ds).leaf_ids[row]
        region = decode_region(forest, codes)
        path_rules = [
            path_to_rule(get_path(forest.trees[t], int(codes[t])), forest.schema)
            for t in range(forest.T)
        ]

        axes = grid_points(forest.bounds, per_axis)

        def on_grid(rule):
            m = rule_axis_masks(rule, axes)
            return (
                m[0][:, None, None, None]
                & m[1][None, :, None, None]
                & m[2][None, None, :, None]
                & m[3][None, None, None, :]
            )

        oracle = np.ones((per_axis,) * 4, dtype=bool)
        for rule in path_rules:
            oracle &= on_grid(rule)
        assert (on_grid(region) == oracle).all(), f"forest {i} region mismatch"
        forests_checked += 1
    record(
        2, "region-oracle", forests_checked == 100,
        f"{forests_checked} forests, {per_axis}^4 grid each, exact equality",
    )


def test_03_worked_example():
    """The documented hand-built forest reproduces its region and decoding."""
    ex = worked_example()
    forest, instance = ex["forest"], ex["instance"]
    codes = walk_codes(forest, instance)
    assert (codes == ex["leaf_ordinals"]).all()

    region = decode_region(forest, codes)
    expected = {
        0: Interval(0.5, 1.6, lo_closed=True, hi_closed=False),
        1: Interval(1.5, 2.0, lo_closed=True, hi_closed=False),
        2: CategorySet(frozenset({2})),  # GREEN
        3: CategorySet(frozenset({0})),  # YES
    }
    assert region == expected, f"region {region} != {expected}"

    point = representative(region, "mean")
    ok = point[1] == 1.75 and point[2] == 2.0 and point[3] == 0.0
    record(
        3, "worked-example", ok,
        "region {x1 in [0.5,1.6), x2 in [1.5,2), x3=GREEN, x4=YES}, "
        f"mean point x2={point[1]}, x3=GREEN, x4=YES",
    )


def test_04_damage_monotonicity(unsup100, digits_test):
    """Fewer kept trees can only widen regions and worsen reconstruction."""
    # Region form: nested masks on a small forest, grid-verified subsets.
    rng = np.random.default_rng(4)
    ds = Dataset(
        Schema.numeric(["a0", "a1", "a2", "a3"]),
        rng.uniform(0, 100, (120, 4)).round(1),
    )
    forest = train_forest(ds, TrainConfig(mode="unsupervised", n_trees=12, seed=4))
    small = TreeMask.from_fraction(12, 0.25, seed=3)
    large = TreeMask.from_fraction(12, 0.667, seed=3)
    assert set(small.keep) < set(large.keep)
    axes = grid_points(forest.bounds, 20)
    matrix = encode_batch(forest, ds)
    for r in range(50):
        wide = decode_region(forest, matrix.leaf_ids[r], mask=small)
        tight = decode_region(forest, matrix.leaf_ids[r], mask=large)
        for m_wide, m_tight in zip(
            rule_axis_masks(wide, axes), rule_axis_masks(tight, axes)
        ):
            assert not (m_tight & ~m_wide).any(), f"row {r}: region grew under more trees"

    # Aggregate form: mean error non-increasing as the kept fraction grows.
    fractions = (0.25, 0.5, 0.75, 1.0)
    reports = timed(
        "damage_curve", damage_curve, unsup100, digits_test, fractions, seed=7
    )
    means = [r.mean for r in reports]
    inversions = [
        (means[i + 1] - means[i]) / means[i]
        for i in range(len(means) - 1)
        if means[i + 1] > means[i]
    ]
    ok = len(inversions) <= 1 and all(rel <= 0.02 for rel in inversions)
    record(
        4, "damage-monotonicity", ok,
        "50 nested-mask regions grid-verified; mse by kept fraction "
        + ", ".join(f"{f}:{m:.1f}" for f, m in zip(fractions, means)),
    )


def test_05_reconstruction_direction(sup100, unsup100, unsup200, unsup50, digits_test):
    """Random splits beat supervised splits, and more trees beat fewer."""
    mse_sup = mean_mse("eval_sup100", sup100, digits_test)
    mse_unsup = mean_mse("eval_unsup100", unsup100, digits_test)
    mse_200 = mean_mse("eval_unsup200", unsup200, digits_test)
    mse_50 = mean_mse("eval_unsup50", unsup50, digits_test)
    total = sum(
        TIMINGS[k]
        for k in (
            "gen_digits_train", "gen_digits_test",
            "train_sup100", "train_unsup100", "train_unsup200", "train_unsup50",
            "eval_sup100", "eval_unsup100", "eval_unsup200", "eval_unsup50",
        )
    )
    mode_ratio = mse_unsup / mse_sup
    size_ratio = mse_200 / mse_50
    ok = mode_ratio <= 0.8 and size_ratio <= 0.8 and total < 300.0
    record(
        5, "reconstruction-direction", ok,
        f"unsup/sup mse {mse_unsup:.1f}/{mse_sup:.1f} ratio {mode_ratio:.2f}, "
        f"T200/T50 mse {mse_200:.1f}/{mse_50:.1f} ratio {size_ratio:.2f}, "
        f"runtime {total:.0f}s",
    )


def test_06_depth_direction(sup100, unsup100):
    """Unsupervised trees grow deeper than supervised trees on the same data."""
    sup_max, sup_avg = depth_stats(sup100)
    unsup_max, unsup_avg = depth_stats(unsup100)
    ok = unsup_avg > sup_avg and unsup_max > sup_max
    record(
        6, "depth-direction", ok,
        f"avg {unsup_avg:.1f} > {sup_avg:.1f}, max {unsup_max} > {sup_max}",
    )


def test_07_extended_corpus():
    """Optional full-corpus study; runs only when real idx files are supplied."""
    root = os.environ.get("EFOREST_MNIST_DIR")
    if not root:
        skip_line(
            7, "extended-corpus",
            "set EFOREST_MNIST_DIR to a directory with the idx-ubyte files to run",
        )
        pytest.skip("EFOREST_MNIST_DIR not set")
    root = Path(root)
    train = load_idx(
        root / "train-images-idx3-ubyte", root / "train-labels-idx1-ubyte"
    )
    test = load_idx(root / "t10k-images-idx3-ubyte", root / "t10k-labels-idx1-ubyte")
    threads = max(1, int(os.environ.get("EFOREST_THREADS", "0") or os.cpu_count() or 1))
    forest = train_forest(
        train,
        TrainConfig(mode="unsupervised", n_trees=1000, seed=1, threads=threads),
    )
    report, _ = reconstruction_report(forest, test, metric="mse", strategy="min")
    record(7, "extended-corpus", report.mean <= 30.0, f"mean mse {report.mean:.2f}")


def test_08_determinism(tmp_path, capsys):
    """Identical training commands produce byte-identical model files."""
    ds = mnist_like(300, seed=9)
    images = tmp_path / "images.idx"
    labels = tmp_path / "labels.idx"
    write_idx_images(images, ds.X.reshape(-1, 28, 28))
    write_idx_labels(labels, ds.labels)
    argv = ["train", "--data", str(images), "--labels", str(labels),
            "--mode", "unsup", "--trees", "10", "--seed", "5"]
    a, b, c = (tmp_path / name for name in ("a.json", "b.json", "c.json"))
    assert cli.main(argv + ["--out", str(a)]) == 0
    assert cli.main(argv + ["--out", str(b)]) == 0
    capsys.readouterr()
    twice_identical = a.read_bytes() == b.read_bytes()
    save_model(load_model(a), c)
    round_trip_stable = c.read_bytes() == a.read_bytes()
    record(
        8, "determinism", twice_identical and round_trip_stable,
        f"repeat-train identical: {twice_identical}, "
        f"save/load/save stable: {round_trip_stable}",
    )


def test_09_model_reuse(digits_test):
    """Forests trained on photo-style images still reconstruct digit images."""
    photos = timed("gen_photos", cifar_gray_like, 5000, seed=303)
    sup = timed(
        "train_photo_sup", train_forest, photos,
        TrainConfig(mode="supervised", n_trees=100, seed=55),
    )
    unsup = timed(
        "train_photo_unsup", train_forest, photos,
        TrainConfig(mode="unsupervised", n_trees=100, seed=66),
    )
    mse_sup = mean_mse("eval_reuse_sup", sup, digits_test, reuse=True)
    mse_unsup = mean_mse("eval_reuse_unsup", unsup, digits_test, reuse=True)
    finite = math.isfinite(mse_sup) and math.isfinite(mse_unsup)
    ratio = mse_unsup / mse_sup
    record(
        9, "model-reuse", finite and ratio <= 0.8,
        f"reuse mse unsup {mse_unsup:.1f} vs sup {mse_sup:.1f}, ratio {ratio:.2f}",
    )


def test_10_text_cosine():
    """Sparse text-style vectors reconstruct to near-zero cosine distance."""
    docs = timed("gen_docs", tfidf_like, 2000, 500, seed=404)
    sup = timed(
        "train_docs_sup", train_forest, docs,
        TrainConfig(mode="supervised", n_trees=200, seed=77),
    )
    unsup = timed(
        "train_docs_unsup", train_forest, docs,
        TrainConfig(mode="unsupervised", n_trees=200, seed=88),
    )
    rep_sup, _ = timed(
        "eval_docs_sup", reconstruction_report, sup, docs,
        metric="cosine", strategy="min",
    )
    rep_unsup, _ = timed(
        "eval_docs_unsup", reconstruction_report, unsup, docs,
        metric="cosine", strategy="min",
    )
    ok = rep_unsup.mean < 0.1 and rep_unsup.mean < rep_sup.mean
    record(
        10, "text-cosine", ok,
        f"unsup cosine {rep_unsup.mean:.4f} < 0.1 and < sup {rep_sup.mean:.4f}",
    )
