"""Reconstruction quality metrics and experiment-level report helpers.

MSE is the per-attribute mean of squared differences in the raw value scale.
Cosine distance is 1 minus the cosine of the angle between two vectors, with
the conventions that two zero vectors are at distance 0 and exactly one zero
vector is at distance 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .codec import TreeMask, check_keep_fractions, decode_masks, encode_batch
from .data import Dataset
from .errors import ConfigError, FormatError
from .forest import Forest

METRICS = ("mse", "cosine")


def _as_rows(a) -> np.ndarray:
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2:
        raise FormatError(f"expected a matrix, got shape {arr.shape}")
    return arr


def _mse_rows(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    diff = A - B
    return np.einsum("ij,ij->i", diff, diff) / A.shape[1]


def _cosine_rows(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    dot = np.einsum("ij,ij->i", A, B)
    na = np.sqrt(np.einsum("ij,ij->i", A, A))
    nb = np.sqrt(np.einsum("ij,ij->i", B, B))
    a0 = na == 0.0
    b0 = nb == 0.0
    denom = np.where(a0 | b0, 1.0, na * nb)
    out = 1.0 - dot / denom
    out = np.where(a0 ^ b0, 1.0, out)
    return np.where(a0 & b0, 0.0, out)


def metric_rows(metric: str, A, B) -> np.ndarray:
    """Per-row metric values between two equally shaped matrices."""
    if metric not in METRICS:
        raise ConfigError(f"unknown metric {metric!r}")
    A = _as_rows(A)
    B = _as_rows(B)
    if A.shape != B.shape:
        raise FormatError(f"shape mismatch {A.shape} vs {B.shape}")
    if A.shape[1] == 0:
        raise FormatError("metrics need at least one attribute")
    return _mse_rows(A, B) if metric == "mse" else _cosine_rows(A, B)


@dataclass(frozen=True)
class ReconReport:
    """Per-sample metric values plus their mean and the run configuration."""

    metric: str
    values: np.ndarray
    config: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(
            self, "values", np.asarray(self.values, dtype=np.float64)
        )

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def mean(self) -> float:
        return float(self.values.mean()) if self.n else 0.0

    def to_json_dict(self, include_values: bool = True) -> dict:
        out = {
            "metric": self.metric,
            "n": self.n,
            "mean": self.mean,
            "config": self.config,
        }
        if include_values:
            out["values"] = self.values.tolist()
        return out

    def to_csv_text(self) -> str:
        lines = ["sample_index,metric_value"]
        lines.extend(f"{i},{float(v)!r}" for i, v in enumerate(self.values))
        return "\n".join(lines) + "\n"


def _reports(forest, dataset, metric, strategy, masks, echoes, reuse=False):
    """Encode ``dataset`` once, then yield (report, reconstruction) under each
    mask in turn, decoded as one fold over the trees. Each report's config
    echoes the run plus the matching entry of ``echoes``."""
    if metric not in METRICS:
        raise ConfigError(f"unknown metric {metric!r}")
    if not dataset.schema.all_numeric:
        raise ConfigError(
            f"metric {metric!r} needs an all-numeric schema; this one has "
            "categorical attributes"
        )
    matrix = encode_batch(forest, dataset, reuse=reuse)
    for mask, echo, recon in zip(masks, echoes, decode_masks(forest, matrix, masks, strategy)):
        values = metric_rows(metric, dataset.X, recon.X) if dataset.n else np.zeros(0)
        config = {
            "metric": metric,
            "strategy": strategy,
            "n_trees": forest.T,
            "kept_trees": len(mask) if mask is not None else forest.T,
            "model_kind": forest.kind,
            **echo,
        }
        yield ReconReport(metric, values, config), recon


def reconstruction_report(
    forest: Forest,
    dataset: Dataset,
    metric: str = "mse",
    strategy: str = "min",
    mask: TreeMask | None = None,
    reuse: bool = False,
    config: dict | None = None,
) -> tuple[ReconReport, Dataset]:
    """Encode, decode, and score a dataset against its reconstruction."""
    echo = {"reuse": reuse, **(config or {})}
    return next(_reports(forest, dataset, metric, strategy, [mask], [echo], reuse))


def damage_curve(
    forest: Forest,
    dataset: Dataset,
    keep_fractions,
    seed: int = 0,
    metric: str = "mse",
    strategy: str = "min",
) -> list[ReconReport]:
    """Reconstruction reports under tree masks of growing size.

    One seeded permutation drives every fraction, so the kept sets are nested
    and the curve isolates the effect of the number of surviving trees. The
    masks are decoded smallest first, so every tree is walked once; reports
    keep the order of ``keep_fractions``.
    """
    fractions = [float(f) for f in keep_fractions]
    check_keep_fractions(fractions)
    masks = [TreeMask.from_fraction(forest.T, f, seed) for f in fractions]
    order = sorted(range(len(masks)), key=lambda i: len(masks[i]))
    echoes = [{"keep_fraction": fractions[i], "mask_seed": int(seed)} for i in order]
    curve = _reports(forest, dataset, metric, strategy, [masks[i] for i in order], echoes)
    reports = [None] * len(masks)
    for i, (report, _) in zip(order, curve):
        reports[i] = report
    return reports
