"""Summary statistics, the output digest and the output checks shared by the
untraced and the traced run."""

from __future__ import annotations

import hashlib
import json
import statistics
from pathlib import Path

import numpy as np

from eforest import codec, data, metrics, persistence, rules


def tail(samples) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with >= 10 samples beyond
    it, or None below 11 samples."""
    n = len(samples)
    if n < 11:
        return None
    p = 100.0 * (1.0 - 10.0 / n)
    return p, float(np.percentile(samples, p))


def timing(samples) -> dict:
    """Median, tail and sample count of a list of durations."""
    out = {"median": statistics.median(samples), "n": len(samples)}
    t = tail(samples)
    if t is not None:
        out["tail_pct"], out["tail"] = t
    return out


def output_digest(leaf_ids: np.ndarray, recon: np.ndarray, means) -> str:
    """Digest of the decoded outputs, independent of file formats and hashes.

    Callers pass the leaf-ordinal matrix as read back by ``load_encodings``,
    the reconstruction as read back by ``load_csv`` and the report means, so
    a change that keeps behaviour but changes a file format or the model hash
    keeps the digest.
    """
    h = hashlib.sha256()
    for arr, dtype in ((leaf_ids, "<i8"), (recon, "<f8")):
        h.update(np.asarray(arr.shape, dtype="<i8").tobytes())
        h.update(np.ascontiguousarray(arr, dtype=dtype).tobytes())
    h.update(np.asarray(means, dtype="<f8").tobytes())
    return h.hexdigest()[:16]


def read_outputs(encodings_path: Path, recon_path: Path, kinds) -> tuple[np.ndarray, np.ndarray]:
    """The leaf-ordinal matrix and the reconstruction, read back from their files."""
    leaf_ids = persistence.load_encodings(encodings_path).leaf_ids
    return leaf_ids, data.load_csv(recon_path, kinds, has_header=True).X


class Ops:
    """Counts attempted operations and records the ones that failed.

    CLI commands, queries and output checks are all operations; a failure of
    any of them fails the run.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def add(self, name: str, ok: bool, detail: str = "", count: int = 1,
            failed: int | None = None) -> bool:
        """Record ``count`` attempts of ``name``, of which ``failed`` failed
        (by default all of them when ``ok`` is false, none otherwise)."""
        if failed is None:
            failed = 0 if ok else count
        self.attempted += count
        self.failed += failed
        if failed:
            self.failures.append(f"{name}: {failed} of {count} failed {detail}".rstrip())
        return failed == 0


def check_outputs(ops: Ops, forest, X_test, enc_path: Path, recon: np.ndarray, sample) -> None:
    """Cross-check the encodings file and the reconstruction against the library.

    ``sample`` indexes test rows. Their encodings must match ``encode_batch``
    and their reconstructed rows must equal the rule-algebra oracle,
    ``representative(decode_region(...))``, exactly.
    """
    matrix = persistence.load_encodings(enc_path)
    ops.add("encodings.forest_id", matrix.forest_id == persistence.forest_hex_id(forest),
            matrix.forest_id)
    ops.add("encodings.shape", matrix.leaf_ids.shape == (len(X_test), forest.T),
            str(matrix.leaf_ids.shape))
    fresh = codec.encode_batch(forest, data.Dataset(forest.schema, X_test[sample])).leaf_ids
    ops.add("encodings.match_encode_batch", np.array_equal(fresh, matrix.leaf_ids[sample]))
    oracle = np.stack(
        [rules.representative(codec.decode_region(forest, matrix.leaf_ids[i]), "min")
         for i in sample]
    )
    ops.add("recon.match_rule_oracle", np.array_equal(oracle, recon[sample]))


def check_report_means(ops: Ops, metric: str, X_test, recon: np.ndarray,
                       recon_mean: float, damage_means) -> None:
    """The reconstruct mean must equal the metric recomputed from the decode
    output, keeping every tree must reproduce it, and the damage curve may
    rise at most once, by at most 2%, as trees are added (Acceptance 4)."""
    expect = float(metrics.metric_rows(metric, X_test, recon).mean())
    ops.add("report.reconstruct_mean", recon_mean == expect, f"{recon_mean} vs {expect}")
    ops.add("report.damage_full_equals_reconstruct", damage_means[-1] == recon_mean,
            f"{damage_means[-1]} vs {recon_mean}")
    rises = [(b - a) / a for a, b in zip(damage_means, damage_means[1:]) if b > a]
    ops.add("report.damage_monotone", len(rises) <= 1 and all(r <= 0.02 for r in rises),
            json.dumps(damage_means))


def check_digest(ops: Ops, key: str, seed: int, digest: str,
                 expected_file: Path, override: str | None) -> str | None:
    """Compare with the digest recorded for this size/workload key and seed,
    if there is one."""
    expected = override
    if expected is None and expected_file.exists():
        known = json.loads(expected_file.read_text())
        expected = known.get(key, {}).get(str(seed))
    if expected is not None:
        ops.add("digest.expected", digest == expected, f"{digest} vs expected {expected}")
    return expected
