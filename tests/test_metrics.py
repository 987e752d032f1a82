"""Metric math against frozen values and an independent reference, report
structure, and the damage-curve experiment helper."""

import math

import numpy as np
import pytest

from eforest import codec, forest as forest_mod
from eforest.codec import TreeMask, encode_batch
from eforest.data import Categorical, Dataset, Numeric, Schema
from eforest.errors import ConfigError, FormatError
from eforest.metrics import (
    ReconReport,
    damage_curve,
    metric_rows,
    reconstruction_report,
)
from eforest.training import TrainConfig, train_forest


def reference_mse(a, b):
    return sum((x - y) ** 2 for x, y in zip(a, b)) / len(a)


def reference_cosine(a, b):
    na = math.sqrt(sum(x * x for x in a))
    nb = math.sqrt(sum(y * y for y in b))
    if na == 0.0 and nb == 0.0:
        return 0.0
    if na == 0.0 or nb == 0.0:
        return 1.0
    return 1.0 - sum(x * y for x, y in zip(a, b)) / (na * nb)


def numeric_dataset(seed=0, n=50, d=6):
    rng = np.random.default_rng(seed)
    return Dataset(
        Schema.numeric([f"v{j}" for j in range(d)]),
        rng.normal(0, 3, (n, d)).round(2),
        labels=rng.integers(0, 3, n),
    )


def row(metric, a, b):
    """The metric between two vectors, as a one-row metric_rows call."""
    return float(metric_rows(metric, [a], [b])[0])


class TestScalarMetrics:
    def test_mse_known_value(self):
        assert row("mse", [0.0, 0.0], [3.0, 4.0]) == 12.5
        assert row("mse", [1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_cosine_known_values(self):
        assert row("cosine", [1.0, 0.0], [1.0, 0.0]) == 0.0
        assert row("cosine", [1.0, 0.0], [0.0, 1.0]) == 1.0
        assert row("cosine", [1.0, 0.0], [-1.0, 0.0]) == 2.0
        assert row("cosine", [1.0, 0.0], [2.0, 0.0]) == 0.0

    def test_cosine_zero_vector_conventions(self):
        assert row("cosine", [0.0, 0.0], [0.0, 0.0]) == 0.0
        assert row("cosine", [0.0, 0.0], [1.0, 2.0]) == 1.0
        assert row("cosine", [1.0, 2.0], [0.0, 0.0]) == 1.0

    def test_matches_reference_on_random_vectors(self):
        rng = np.random.default_rng(3)
        A = rng.normal(0, 5, (40, 7))
        B = rng.normal(0, 5, (40, 7))
        mse_rows = metric_rows("mse", A, B)
        cosine_rows = metric_rows("cosine", A, B)
        for i in range(40):
            assert mse_rows[i] == pytest.approx(reference_mse(A[i], B[i]), rel=1e-12)
            assert cosine_rows[i] == pytest.approx(
                reference_cosine(A[i], B[i]), rel=1e-12
            )

    def test_row_and_scalar_routes_agree(self):
        # each row's value is independent of the other rows in the matrix
        rng = np.random.default_rng(5)
        A = rng.normal(0, 1, (10, 4))
        B = rng.normal(0, 1, (10, 4))
        for name in ("mse", "cosine"):
            rows = metric_rows(name, A, B)
            for i in range(10):
                assert rows[i] == row(name, A[i], B[i])

    def test_shape_errors(self):
        with pytest.raises(FormatError, match=r"shape mismatch \(2, 3\) vs \(2, 4\)"):
            metric_rows("mse", np.zeros((2, 3)), np.zeros((2, 4)))
        with pytest.raises(FormatError, match="metrics need at least one attribute"):
            metric_rows("mse", np.zeros((2, 0)), np.zeros((2, 0)))
        with pytest.raises(FormatError, match=r"expected a matrix, got shape \(2, 2, 2\)"):
            metric_rows("mse", np.zeros((2, 2, 2)), np.zeros((2, 2, 2)))
        with pytest.raises(FormatError, match=r"expected a matrix, got shape \(3,\)"):
            metric_rows("mse", np.zeros(3), np.zeros(3))

    def test_unknown_metric(self):
        with pytest.raises(ConfigError):
            metric_rows("manhattan", np.zeros((1, 2)), np.zeros((1, 2)))


class TestReconReport:
    def test_mean_and_n(self):
        r = ReconReport("mse", np.array([1.0, 2.0, 6.0]))
        assert r.n == 3
        assert r.mean == 3.0

    def test_empty_mean_is_zero(self):
        assert ReconReport("mse", np.zeros(0)).mean == 0.0

    def test_json_dict(self):
        r = ReconReport("mse", np.array([1.5]), {"strategy": "min"})
        full = r.to_json_dict()
        assert full == {
            "metric": "mse",
            "n": 1,
            "mean": 1.5,
            "config": {"strategy": "min"},
            "values": [1.5],
        }
        assert "values" not in r.to_json_dict(include_values=False)

    def test_csv_text(self):
        r = ReconReport("mse", np.array([1.0, 0.25]))
        assert r.to_csv_text() == "sample_index,metric_value\n0,1.0\n1,0.25\n"


class TestReconstructionReport:
    def test_mean_matches_manual_loop(self):
        ds = numeric_dataset(seed=7)
        forest = train_forest(ds, TrainConfig(mode="unsupervised", n_trees=6, seed=2))
        report, recon = reconstruction_report(forest, ds, metric="mse", strategy="min")
        assert report.n == ds.n
        manual = np.mean(
            [reference_mse(ds.X[i], recon.X[i]) for i in range(ds.n)]
        )
        assert report.mean == pytest.approx(manual, rel=1e-12)

    def test_config_echo(self):
        ds = numeric_dataset(seed=9)
        forest = train_forest(ds, TrainConfig(mode="unsupervised", n_trees=5, seed=1))
        mask = TreeMask((0, 2))
        report, _ = reconstruction_report(
            forest, ds, metric="mse", strategy="max", mask=mask, config={"tag": "run1"}
        )
        assert report.config["strategy"] == "max"
        assert report.config["kept_trees"] == 2
        assert report.config["n_trees"] == 5
        assert report.config["model_kind"] == "unsupervised"
        assert report.config["reuse"] is False
        assert report.config["tag"] == "run1"

    def test_rejects_categorical_schema(self):
        schema = Schema(("a", "c"), (Numeric(), Categorical(("x", "y"))))
        ds = Dataset(schema, np.array([[0.5, 0.0], [1.5, 1.0], [2.5, 0.0], [0.0, 1.0]]))
        forest = train_forest(ds, TrainConfig(mode="unsupervised", n_trees=2, seed=0))
        with pytest.raises(ConfigError,
                           match="metric 'cosine' needs an all-numeric schema; "
                                 "this one has categorical attributes"):
            reconstruction_report(forest, ds, metric="cosine")

    def test_unknown_metric(self):
        ds = numeric_dataset()
        forest = train_forest(ds, TrainConfig(mode="unsupervised", n_trees=2, seed=0))
        with pytest.raises(ConfigError):
            reconstruction_report(forest, ds, metric="l1")

    def test_full_mask_equals_no_mask(self):
        ds = numeric_dataset(seed=11)
        forest = train_forest(ds, TrainConfig(mode="unsupervised", n_trees=7, seed=3))
        bare, _ = reconstruction_report(forest, ds)
        full_mask = TreeMask.from_fraction(7, 1.0, 5)
        masked, _ = reconstruction_report(forest, ds, mask=full_mask)
        assert bare.values.tolist() == masked.values.tolist()


class TestDamageCurve:
    def test_reports_structure(self):
        ds = numeric_dataset(seed=13)
        forest = train_forest(ds, TrainConfig(mode="unsupervised", n_trees=8, seed=4))
        reports = damage_curve(forest, ds, (0.25, 0.5, 1.0), seed=9)
        assert [r.config["keep_fraction"] for r in reports] == [0.25, 0.5, 1.0]
        assert [r.config["kept_trees"] for r in reports] == [2, 4, 8]
        assert all(r.config["mask_seed"] == 9 for r in reports)
        assert all(r.n == ds.n for r in reports)

    def test_matches_explicit_masked_reports(self):
        ds = numeric_dataset(seed=17)
        forest = train_forest(ds, TrainConfig(mode="unsupervised", n_trees=8, seed=5))
        # unsorted and duplicated fractions keep their input order
        fractions = (1.0, 0.25, 0.75, 0.25, 0.5)
        for strategy in ("min", "mean", "max"):
            reports = damage_curve(forest, ds, fractions, seed=3, strategy=strategy)
            assert [r.config["keep_fraction"] for r in reports] == list(fractions)
            for f, report in zip(fractions, reports):
                mask = TreeMask.from_fraction(8, f, 3)
                direct, _ = reconstruction_report(forest, ds, strategy=strategy, mask=mask)
                assert report.config["kept_trees"] == len(mask)
                assert report.values.tobytes() == direct.values.tobytes()

    def test_absorbs_each_tree_once(self, monkeypatch):
        ds = numeric_dataset(seed=18)
        forest = train_forest(ds, TrainConfig(mode="unsupervised", n_trees=8, seed=5))
        walked = []
        descend = forest_mod.descend

        def counted(forest, roots, n, go_true):
            walked.append(len(roots))
            return descend(forest, roots, n, go_true)

        # encode walks from the forest module, the decode fold from the codec
        monkeypatch.setattr(forest_mod, "descend", counted)
        monkeypatch.setattr(codec, "descend", counted)
        damage_curve(forest, ds, (0.75, 0.25, 1.0, 0.5, 0.25), seed=2)
        # T trees walked to encode plus T to decode the nested masks, smallest first
        assert sum(walked) == 2 * forest.T

    def test_full_fraction_matches_undamaged(self):
        ds = numeric_dataset(seed=19)
        forest = train_forest(ds, TrainConfig(mode="unsupervised", n_trees=6, seed=6))
        curve = damage_curve(forest, ds, (1.0,), seed=0)
        plain, _ = reconstruction_report(forest, ds)
        assert curve[0].values.tolist() == plain.values.tolist()

    def test_validation(self):
        ds = numeric_dataset(seed=23)
        forest = train_forest(ds, TrainConfig(mode="unsupervised", n_trees=5, seed=7))
        with pytest.raises(ConfigError):
            damage_curve(forest, ds, ())
        with pytest.raises(ConfigError):
            damage_curve(forest, ds, (0.45, 2.0))
        with pytest.raises(ConfigError):
            # 0.1 of 5 trees keeps half a tree, which rounds to none kept
            damage_curve(forest, ds, (0.1,))
        with pytest.raises(ConfigError):
            damage_curve(forest, ds, (0.5,), metric="l1")
        with pytest.raises(ConfigError, match="mask seed must be an integer, got True"):
            damage_curve(forest, ds, (0.5,), seed=True)

    def test_numpy_seed_is_echoed_as_an_int(self):
        ds = numeric_dataset(seed=23)
        forest = train_forest(ds, TrainConfig(mode="unsupervised", n_trees=5, seed=7))
        (report,) = damage_curve(forest, ds, (0.6,), seed=np.int64(2))
        assert type(report.config["mask_seed"]) is int
        assert report.to_json_dict(include_values=False) == damage_curve(
            forest, ds, (0.6,), seed=2)[0].to_json_dict(include_values=False)
