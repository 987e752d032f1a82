"""Model and encoding files: canonical bytes, content hashing, damage
detection, and every file-format error path."""

import functools
import hashlib
import json
import os
import re
import stat
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eforest import cli
from eforest.codec import EncodingMatrix, encode_batch
from eforest.data import (
    Bounds, Categorical, Dataset, Numeric, Schema, atomic_write_bytes, load_csv, load_idx,
)
from eforest.errors import EForestError, FormatError, InvalidModelError
from eforest.forest import Forest
from eforest.persistence import (
    MODEL_VERSION,
    canonical_json_bytes,
    fnv1a64,
    forest_hex_id,
    forest_record,
    load_encodings,
    load_model,
    save_encodings,
    save_model,
)
from eforest.training import TrainConfig, train_forest

from synthdata import mnist_like, random_mixed, tfidf_like, true_children

# Published FNV-1a 64-bit reference digests.
FNV_VECTORS = {
    b"": 0xCBF29CE484222325,
    b"a": 0xAF63DC4C8601EC8C,
    b"foobar": 0x85944171F73967E8,
}


def small_forest(seed=1, mode="unsupervised", n_trees=3):
    rng = np.random.default_rng(7)
    ds = Dataset(
        Schema.numeric(["a", "b", "c"]),
        rng.normal(0, 1, (40, 3)).round(2),
        labels=rng.integers(0, 2, 40),
    )
    return train_forest(ds, TrainConfig(mode=mode, n_trees=n_trees, seed=seed)), ds


def _fnv1a64_by_bytes(data: bytes) -> int:
    """FNV-1a 64 one byte at a time, as the specification states it."""
    h = 0xCBF29CE484222325
    for byte in data:
        h = ((h ^ byte) * 0x100000001B3) & ((1 << 64) - 1)
    return h


class TestFnv:
    def test_reference_vectors(self):
        for data, expect in FNV_VECTORS.items():
            assert fnv1a64(data) == expect
            assert _fnv1a64_by_bytes(data) == expect

    @given(seed=st.integers(0, 2**32 - 1), length=st.integers(0, 3 * 65536))
    @settings(max_examples=25, deadline=None)
    @example(seed=0, length=0)
    @example(seed=1, length=1)
    @example(seed=2, length=65535)  # one byte short of a chunk
    @example(seed=3, length=65536)  # exactly one chunk
    @example(seed=4, length=65537)  # one byte into the second chunk
    @example(seed=5, length=2 * 65536 + 3)  # a tail shorter than one uint64 word
    def test_equals_byte_loop(self, seed, length):
        data = np.random.default_rng(seed).integers(0, 256, length, dtype=np.uint8).tobytes()
        assert fnv1a64(data) == _fnv1a64_by_bytes(data)

    @given(data=st.binary(max_size=300))
    @settings(max_examples=200, deadline=None)
    def test_equals_byte_loop_on_short_inputs(self, data):
        assert fnv1a64(data) == _fnv1a64_by_bytes(data)

    @given(data=st.binary(max_size=300), cuts=st.lists(st.integers(0, 300), max_size=3))
    @settings(max_examples=100, deadline=None)
    @example(data=b"\x07" * 65540, cuts=[3, 65538])  # parts that straddle a chunk
    def test_parts_hash_as_their_concatenation(self, data, cuts):
        ends = [0, *sorted(min(c, len(data)) for c in cuts), len(data)]
        parts = [memoryview(data)[a:b] for a, b in zip(ends, ends[1:])]
        assert fnv1a64(*parts) == _fnv1a64_by_bytes(data)

    def test_low_byte_runs(self):
        # runs of one byte value keep the low state byte on short cycles
        for value in (0x00, 0x01, 0x80, 0xB3, 0xFF):
            data = bytes([value]) * 70_000
            assert fnv1a64(data) == _fnv1a64_by_bytes(data)


class TestCanonicalJson:
    def test_sorted_compact_ascii(self):
        got = canonical_json_bytes({"b": 1, "a": [1.5, "xé"]})
        assert got == b'{"a":[1.5,"x\\u00e9"],"b":1}'

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            canonical_json_bytes({"v": float("nan")})

    def test_stable_across_key_insertion_order(self):
        a = canonical_json_bytes({"x": 1, "y": 2})
        b = canonical_json_bytes({"y": 2, "x": 1})
        assert a == b


class TestAtomicWrite:
    def test_overwrites_existing(self, tmp_path):
        p = tmp_path / "f.bin"
        atomic_write_bytes(p, [b"one"])
        atomic_write_bytes(p, [b"two"])
        assert p.read_bytes() == b"two"
        leftovers = [q for q in tmp_path.iterdir() if q != p]
        assert leftovers == []

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002], ids=["022", "077", "002"])
    def test_mode_follows_umask(self, tmp_path, umask):
        p = tmp_path / "f.bin"
        old = os.umask(umask)
        try:
            atomic_write_bytes(p, [b"one"])
        finally:
            os.umask(old)
        assert stat.S_IMODE(p.stat().st_mode) == 0o666 & ~umask

    def test_failed_replace_leaves_no_temporary_file(self, tmp_path):
        target = tmp_path / "taken"
        target.mkdir()
        with pytest.raises(FormatError):
            atomic_write_bytes(target, [b"one"])
        assert list(tmp_path.iterdir()) == [target]


class TestModelRoundTrip:
    def test_save_load_save_is_byte_stable(self, tmp_path):
        forest, ds = small_forest()
        p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
        h1 = save_model(forest, p1)
        loaded = load_model(p1)
        h2 = save_model(loaded, p2)
        assert h1 == h2
        assert p1.read_bytes() == p2.read_bytes()

    def test_loaded_forest_encodes_identically(self, tmp_path):
        forest, ds = small_forest(seed=5)
        p = tmp_path / "m.json"
        save_model(forest, p)
        loaded = load_model(p)
        assert encode_batch(loaded, ds).leaf_ids.tolist() == (
            encode_batch(forest, ds).leaf_ids.tolist()
        )
        assert loaded.kind == forest.kind
        assert loaded.seed == forest.seed
        assert loaded.config == forest.config
        assert loaded.bounds.lo.tolist() == forest.bounds.lo.tolist()

    def test_load_peak_leaves_out_the_parsed_record(self, tmp_path):
        # 43.7k nodes; holding the parsed record, file bytes and hashed-part
        # views through construction peaked at 155 B/node, releasing them 93
        forest = train_forest(mnist_like(4000), TrainConfig(mode="unsupervised", n_trees=8,
                                                            seed=1))
        p = tmp_path / "m.json"
        written = save_model(forest, p)
        tracemalloc.start()
        try:
            loaded = load_model(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 120 * len(forest.attr)
        assert forest_hex_id(loaded) == written
        for name in ("attr", "param", "roots", "true_child", "leaf_pos", "leaf_rank"):
            assert np.array_equal(getattr(loaded, name), getattr(forest, name)), name

    def test_hash_is_cached_and_matches(self, tmp_path):
        forest, _ = small_forest(seed=9)
        p = tmp_path / "m.json"
        written = save_model(forest, p)
        assert written == forest_hex_id(forest)
        record = json.loads(p.read_text())
        assert record["hash"] == written
        assert forest_hex_id(load_model(p)) == written

    def test_categorical_schema_round_trip(self, tmp_path):
        ds = random_mixed(61)
        forest = train_forest(ds, TrainConfig(mode="unsupervised", n_trees=2, seed=0))
        p = tmp_path / "m.json"
        save_model(forest, p)
        loaded = load_model(p)
        assert loaded.schema == ds.schema

    def test_file_shape(self, tmp_path):
        forest, _ = small_forest()
        p = tmp_path / "m.json"
        save_model(forest, p)
        blob = p.read_bytes()
        assert blob.endswith(b"\n")
        record = json.loads(blob)
        assert set(record.keys()) == {
            "version", "kind", "seed", "schema", "bounds", "config", "trees", "hash"
        }
        assert record["version"] == MODEL_VERSION

    def test_single_leaf_tree_record(self):
        ds = Dataset(Schema.numeric(["a"]), np.array([[1.0], [2.0]]))
        forest = train_forest(
            ds, TrainConfig(mode="unsupervised", n_trees=1, seed=0, max_depth_cap=0)
        )
        record = forest_record(forest)
        assert record["trees"] == [{"nodes": {"attr": [-1], "param": [0.0]}}]

    def test_trees_are_stored_as_the_two_arrays(self, tmp_path):
        forest, _ = small_forest()
        p = tmp_path / "m.json"
        save_model(forest, p)
        trees = json.loads(p.read_bytes())["trees"]
        assert [t["nodes"] for t in trees] == [
            {"attr": tree.attr.tolist(), "param": tree.param.tolist()} for tree in forest.trees
        ]

    def test_version_3_file_save_load_save_is_byte_identical(self, tmp_path):
        # numeric and categorical tests, written without node kinds or children
        blob = small_mixed_model()
        record = json.loads(blob)
        assert record["version"] == 3
        assert all(t["nodes"].keys() == {"attr", "param"} for t in record["trees"])
        p = tmp_path / "m.json"
        p.write_bytes(blob)
        save_model(load_model(p), p)
        assert p.read_bytes() == blob

    def test_version_2_file_is_refused(self, tmp_path, capsys):
        # the same forest as version 2 wrote it: four arrays per tree, hashed as written
        p = tmp_path / "m.json"
        p.write_bytes(small_mixed_model())
        forest = load_model(p)
        record = forest_record(forest)
        for t, tree in zip(record["trees"], forest.trees):
            kind, true_child = v2_kind_and_true_child(tree, forest.schema)
            t["nodes"].update(kind=kind.tolist(), true_child=true_child.tolist())
        record["version"] = 2
        record["hash"] = f"{fnv1a64(canonical_json_bytes(record)):016x}"
        p.write_bytes(canonical_json_bytes(record) + b"\n")
        with pytest.raises(InvalidModelError, match="unsupported model version 2"):
            load_model(p)
        assert cli.main(["stats", "--model", str(p)]) == 1
        assert "unsupported model version 2" in capsys.readouterr().err


# Fixed-seed forests with the sha256 of their tree arrays, their content ids
# and their model-file sha256 digests. The array digest does not depend on the
# file format; the other two change with it, and with them every saved model
# and every encodings file tied to one.
GOLDEN_MODELS = {
    "mnist-unsup": (
        lambda: mnist_like(200, seed=0), "unsupervised", 8, 1,
        "92d5e1d569a8061efdeb6e93f7e4cbc920bc4226f5a7c2e5f12091bef81f126c",
        "9fa404644c6f72e6",
        "5c6609683b2e953f8b3a7cdfc9d0cfb65efcd00f7e07f86cafb5e10e6a3d1bd4",
    ),
    "mnist-sup": (
        lambda: mnist_like(200, seed=1), "supervised", 6, 4,
        "f750d9306bcbcfe7e9e49618236912cd3b66b2c5a3af35fdf2517e8d25961d96",
        "b28cd8cdb5d8e03c",
        "25b5182684ea4553d414969c99d207d8a262b2dd6d4866b62fe9fb5e4ba7b4ef",
    ),
    "tfidf-sup": (
        lambda: tfidf_like(200, 100, seed=0), "supervised", 6, 2,
        "ec005e141c281ccbe2345ea8dfe61ba00e47b82aa9b80d885e74c65c991d04d6",
        "e1de7077cacf0146",
        "93c71a06f44af268ef1383203f127f266b7852b663d56e46c60fad1dfe4d8fea",
    ),
    "mixed-sup": (
        lambda: random_mixed(49, d=8), "supervised", 6, 3,
        "a50c64a8fe868bab8cd3937435c8759d118a4013cd4b0d8e0c3116f6caa57d79",
        "641a2ac4ef039f92",
        "32faf2579206083b3cbbf8c866e4081e17808f0bef7f99486063993e16cf9d50",
    ),
}


def v2_kind_and_true_child(tree, schema):
    """The two arrays version 2 also stored: ``kind`` (0 leaf, 1 numeric test,
    2 categorical test; int8) from the schema, and the derived ``true_child``."""
    is_cat = schema.category_sizes > 0
    kind = np.where(tree.attr < 0, 0, np.where(is_cat[tree.attr], 2, 1)).astype(np.int8)
    return kind, true_children(tree.attr)


def has_categorical_test(tree, schema) -> bool:
    return bool((schema.category_sizes[tree.attr[tree.attr >= 0]] > 0).any())


def tree_arrays_sha256(forest) -> str:
    """sha256 of every tree's version-2 arrays (kind int8, attr int32, param
    float64, true_child int32), little-endian, in that order, tree by tree.
    The digest does not depend on which of them a file stores."""
    h = hashlib.sha256()
    for tree in forest.trees:
        kind, true_child = v2_kind_and_true_child(tree, forest.schema)
        for arr, dtype in ((kind, "<i1"), (tree.attr, "<i4"), (tree.param, "<f8"),
                           (true_child, "<i4")):
            h.update(arr.astype(dtype).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN_MODELS))
def test_golden_model_bytes(tmp_path, name):
    make, mode, n_trees, seed, arrays_sha256, hex_id, sha256 = GOLDEN_MODELS[name]
    ds = make()
    forest = train_forest(ds, TrainConfig(mode=mode, n_trees=n_trees, seed=seed))
    if name == "mixed-sup":
        assert any(has_categorical_test(t, forest.schema) for t in forest.trees)
    assert tree_arrays_sha256(forest) == arrays_sha256
    p = tmp_path / "m.json"
    assert save_model(forest, p) == hex_id
    assert hashlib.sha256(p.read_bytes()).hexdigest() == sha256
    assert tree_arrays_sha256(load_model(p)) == arrays_sha256


def rewrite_with_fresh_hash(path, mutate):
    """Apply a structural edit and restamp the content hash so only the
    structure, not the checksum, is wrong."""
    record = json.loads(path.read_text())
    record.pop("hash")
    mutate(record)
    record["hash"] = f"{fnv1a64(canonical_json_bytes(record)):016x}"
    path.write_bytes(canonical_json_bytes(record) + b"\n")


def stamp_bytes(blob: bytes) -> bytes:
    """Stamp a model file with the FNV-1a of its own bytes, its top-level
    hash member and final newline cut out, however they spell the record."""
    at = blob.index(b'"hash":"')
    end = at + len(b'"hash":"0123456789abcdef",')
    return blob[:at] + b'"hash":"%016x",' % fnv1a64(blob[:at] + blob[end:-1]) + blob[end:]


class TestModelLayout:
    @pytest.mark.parametrize("edit", [
        lambda blob: (json.dumps(json.loads(blob), sort_keys=True, indent=2) + "\n").encode(),
        lambda blob: (json.dumps(dict(reversed(json.loads(blob).items())),
                                 separators=(",", ":")) + "\n").encode(),
        lambda blob: blob.rstrip(b"\n"),
        lambda blob: blob.replace(b'{"bounds":', b'{ "bounds":', 1),
        lambda blob: blob.replace(b'"hash":', b'"hash" :', 1),
    ], ids=["pretty-printed", "key-reordered", "no-final-newline", "space-in-head",
            "space-in-member"])
    def test_any_other_layout_is_refused(self, tmp_path, edit):
        # even where the record, and so the stated hash, is unchanged
        forest, _ = small_forest()
        p = tmp_path / "m.json"
        save_model(forest, p)
        p.write_bytes(edit(p.read_bytes()))
        with pytest.raises(InvalidModelError, match="not laid out as save_model writes"):
            load_model(p)

    def test_hash_key_in_the_config_round_trips(self, tmp_path):
        # the cut takes the top-level member, not the config's
        forest, _ = small_forest()
        p, again = tmp_path / "m.json", tmp_path / "again.json"
        save_model(forest, p)
        rewrite_with_fresh_hash(p, lambda r: r["config"].update({"hash": "0123456789abcdef"}))
        stamped = json.loads(p.read_bytes())["hash"]
        loaded = load_model(p)
        assert loaded.config["hash"] == "0123456789abcdef"
        assert forest_hex_id(loaded) == stamped
        assert save_model(loaded, again) == stamped
        assert again.read_bytes() == p.read_bytes()

    def test_forest_from_a_restamped_file_saves_a_file_that_loads(self, tmp_path):
        # the first param spelled with an "e0" exponent, and a hash over those
        # bytes, loads; the id it loads with is not the canonical one, so
        # saving must not write it
        forest, _ = small_forest()
        p, again = tmp_path / "m.json", tmp_path / "again.json"
        save_model(forest, p)
        blob = p.read_bytes()
        start = blob.index(b'"param":[')
        end = min(blob.index(b",", start), blob.index(b"]", start))
        p.write_bytes(stamp_bytes(blob[:end] + b"e0" + blob[end:]))
        loaded = load_model(p)
        assert forest_hex_id(loaded) != forest_hex_id(forest)
        assert save_model(loaded, again) == forest_hex_id(forest) == forest_hex_id(loaded)
        assert again.read_bytes() == blob
        assert forest_hex_id(load_model(again)) == forest_hex_id(forest)


class TestModelDamage:
    def test_tampered_file_is_detected(self, tmp_path):
        forest, _ = small_forest()
        p = tmp_path / "m.json"
        save_model(forest, p)
        record = json.loads(p.read_text())
        record["seed"] = record["seed"] + 1
        p.write_bytes(canonical_json_bytes(record) + b"\n")
        with pytest.raises(InvalidModelError,
                           match="content hash [0-9a-f]{16} does not match stated "):
            load_model(p)

    def test_flipped_byte_in_a_tree_is_detected(self, tmp_path):
        forest, _ = small_forest()
        p = tmp_path / "m.json"
        save_model(forest, p)
        blob = bytearray(p.read_bytes())
        # the first threshold digit: still valid JSON and a valid tree
        at = blob.index(b'"param":[') + len(b'"param":[')
        while not chr(blob[at]).isdigit():
            at += 1
        blob[at] = ord("1") if blob[at] != ord("1") else ord("2")
        p.write_bytes(bytes(blob))
        with pytest.raises(InvalidModelError,
                           match="content hash [0-9a-f]{16} does not match stated "):
            load_model(p)

    def test_structurally_broken_tree_strict(self, tmp_path):
        forest, _ = small_forest()
        p = tmp_path / "m.json"
        save_model(forest, p)
        rewrite_with_fresh_hash(
            p, lambda r: r["trees"][1]["nodes"]["attr"].__setitem__(0, 99999)
        )
        with pytest.raises(InvalidModelError):
            load_model(p)

    def test_error_names_the_broken_tree(self, tmp_path):
        forest, _ = small_forest(n_trees=3)
        p = tmp_path / "m.json"
        save_model(forest, p)
        # a leaf root leaves the nodes stored after it unreachable
        rewrite_with_fresh_hash(
            p, lambda r: r["trees"][2]["nodes"]["attr"].__setitem__(0, -1)
        )
        with pytest.raises(InvalidModelError, match=r"^tree 2: node 0: nodes after this leaf"):
            load_model(p)


@pytest.mark.parametrize("kind, load", [
    ("model", load_model),
    ("encodings", load_encodings),
    ("idx", load_idx),
    ("csv", load_csv),
])
def test_an_absent_file_is_named_with_its_kind(tmp_path, kind, load):
    path = tmp_path / f"absent.{kind}"
    message = f"cannot read {kind} file {path}: [Errno 2] No such file or directory: '{path}'"
    with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
        load(path)


class TestModelFormatErrors:
    def make_saved(self, tmp_path):
        forest, _ = small_forest()
        p = tmp_path / "m.json"
        save_model(forest, p)
        return p

    def test_missing_file(self, tmp_path):
        with pytest.raises(FormatError):
            load_model(tmp_path / "absent.json")

    @pytest.mark.parametrize("damage", [lambda nodes: nodes["param"].pop(),
                                        lambda nodes: nodes.update(attr=[], param=[])],
                             ids=["unequal", "empty"])
    def test_tree_arrays_of_unequal_length(self, tmp_path, damage):
        p = self.make_saved(tmp_path)
        rewrite_with_fresh_hash(p, lambda r: damage(r["trees"][1]["nodes"]))
        with pytest.raises(InvalidModelError, match="^tree 1: tree node arrays must be "
                           "non-empty and of equal length$"):
            load_model(p)

    def test_not_json(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text("{broken")
        with pytest.raises(FormatError):
            load_model(p)

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_constant(self, tmp_path, constant):
        # json.loads reads these, but save_model never writes them
        p = self.make_saved(tmp_path)
        blob = p.read_bytes()
        p.write_bytes(blob.replace(b'"config":{', b'"config":{"x":' + constant.encode() + b",", 1))
        with pytest.raises(FormatError):
            load_model(p)

    def test_wrong_top_keys(self, tmp_path):
        p = self.make_saved(tmp_path)
        record = json.loads(p.read_text())
        record["extra"] = 1
        p.write_bytes(canonical_json_bytes(record))
        with pytest.raises(FormatError):
            load_model(p)

    def test_unsupported_version(self, tmp_path):
        p = self.make_saved(tmp_path)
        rewrite_with_fresh_hash(p, lambda r: r.update({"version": MODEL_VERSION + 1}))
        with pytest.raises(InvalidModelError,
                           match=rf"unsupported model version {MODEL_VERSION + 1} "
                                 rf"\(this release reads {MODEL_VERSION}\)"):
            load_model(p)

    def test_unknown_kind(self, tmp_path):
        p = self.make_saved(tmp_path)
        rewrite_with_fresh_hash(p, lambda r: r.update({"kind": "reinforced"}))
        with pytest.raises(InvalidModelError):
            load_model(p)

    def test_non_integer_seed(self, tmp_path):
        p = self.make_saved(tmp_path)
        rewrite_with_fresh_hash(p, lambda r: r.update({"seed": "zero"}))
        with pytest.raises(InvalidModelError):
            load_model(p)

    def test_boolean_seed(self, tmp_path):
        # JSON true is a Python int subclass; a config refuses it as a seed
        p = self.make_saved(tmp_path)
        rewrite_with_fresh_hash(p, lambda r: r.update({"seed": True}))
        with pytest.raises(InvalidModelError, match="seed must be an integer"):
            load_model(p)

    def test_bad_bounds(self, tmp_path):
        p = self.make_saved(tmp_path)
        rewrite_with_fresh_hash(p, lambda r: r["bounds"].pop("hi"))
        with pytest.raises(InvalidModelError):
            load_model(p)

    def test_bounds_length_mismatch(self, tmp_path):
        p = self.make_saved(tmp_path)
        rewrite_with_fresh_hash(
            p, lambda r: r["bounds"].update({"lo": [0.0], "hi": [1.0]})
        )
        with pytest.raises(InvalidModelError):
            load_model(p)

    def test_bad_schema(self, tmp_path):
        p = self.make_saved(tmp_path)
        rewrite_with_fresh_hash(
            p, lambda r: r["schema"]["kinds"][0].update({"kind": "complex"})
        )
        with pytest.raises(InvalidModelError):
            load_model(p)

    def test_config_not_object(self, tmp_path):
        p = self.make_saved(tmp_path)
        rewrite_with_fresh_hash(p, lambda r: r.update({"config": [1, 2]}))
        with pytest.raises(InvalidModelError):
            load_model(p)

    def test_empty_tree_list(self, tmp_path):
        p = self.make_saved(tmp_path)
        rewrite_with_fresh_hash(p, lambda r: r.update({"trees": []}))
        with pytest.raises(InvalidModelError, match="a forest needs at least one tree$"):
            load_model(p)

    @pytest.mark.parametrize("nodes", [5, None], ids=["int", "null"])
    def test_nodes_not_a_list(self, tmp_path, nodes):
        p = self.make_saved(tmp_path)
        rewrite_with_fresh_hash(p, lambda r: r["trees"][0].update({"nodes": nodes}))
        with pytest.raises(InvalidModelError):
            load_model(p)

    def test_bad_tree_wrapper(self, tmp_path):
        p = self.make_saved(tmp_path)
        rewrite_with_fresh_hash(
            p, lambda r: r["trees"].__setitem__(0, {"nodes": [], "extra": 1})
        )
        with pytest.raises(InvalidModelError):
            load_model(p)


# every model field the loader types strictly: the two node columns,
# attribute names, category values and bounds
STRICT_FIELDS = ("attr", "param", "names", "values", "lo", "hi")

JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=4)
)


@functools.lru_cache(maxsize=1)
def small_mixed_model() -> bytes:
    """Saved bytes of a three-tree model with numeric and categorical tests."""
    ds = random_mixed(2, n=30, d=4)
    forest = train_forest(
        ds, TrainConfig(mode="unsupervised", n_trees=3, seed=1, max_depth_cap=3)
    )
    assert all(has_categorical_test(t, ds.schema) for t in forest.trees)
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "m.json"
        save_model(forest, p)
        return p.read_bytes()


def field_places(record, field):
    """(container, key) of every occurrence of one strictly typed field."""
    if field in ("lo", "hi"):
        end = record["bounds"][field]
        return [(end, j) for j in range(len(end))]
    if field == "names":
        names = record["schema"]["names"]
        return [(names, j) for j in range(len(names))]
    if field == "values":
        return [
            (k["values"], v)
            for k in record["schema"]["kinds"]
            if k["kind"] == "cat"
            for v in range(len(k["values"]))
        ]
    return [
        (column, i)
        for t in record["trees"]
        for column in [t["nodes"][field]]
        for i in range(len(column))
    ]


class TestStrictFieldTypes:
    @given(field=st.sampled_from(STRICT_FIELDS), pick=st.integers(0, 99), value=JSON_SCALARS)
    @example(field="param", pick=0, value=1)
    @example(field="param", pick=0, value="0.5")
    @example(field="attr", pick=0, value=1.25)
    @example(field="attr", pick=0, value=True)
    @example(field="attr", pick=0, value=2**40)
    @example(field="names", pick=0, value=7)
    @example(field="hi", pick=0, value=1000)
    @example(field="lo", pick=0, value="-1000.0")
    @settings(max_examples=150, deadline=None)
    def test_loads_only_what_it_would_save(self, field, pick, value):
        # a re-hashed model with one field replaced either is refused, or
        # saves back to exactly the bytes it was loaded from
        record = json.loads(small_mixed_model())
        record.pop("hash")
        places = field_places(record, field)
        container, key = places[pick % len(places)]
        container[key] = value
        record["hash"] = f"{fnv1a64(canonical_json_bytes(record)):016x}"
        blob = canonical_json_bytes(record) + b"\n"
        with tempfile.TemporaryDirectory() as tmp:
            p = Path(tmp) / "m.json"
            p.write_bytes(blob)
            try:
                forest = load_model(p)
            except InvalidModelError:
                return
            save_model(forest, p)
            assert p.read_bytes() == blob

    @pytest.mark.parametrize(
        "place",
        [
            lambda r: r["trees"][0]["nodes"],
            lambda r: r["trees"][0],
            lambda r: r["schema"],
            lambda r: r["schema"]["kinds"][0],
            lambda r: r["bounds"],
        ],
        ids=["nodes", "tree", "schema", "attribute-kind", "bounds"],
    )
    def test_extra_field_is_refused(self, tmp_path, place):
        # save_model would drop the field, so the model could not be re-saved as read
        p = tmp_path / "m.json"
        p.write_bytes(small_mixed_model())
        rewrite_with_fresh_hash(p, lambda r: place(r).update({"extra": 0}))
        with pytest.raises(InvalidModelError):
            load_model(p)

    @pytest.mark.parametrize("version", [1.0, True], ids=["float", "bool"])
    def test_version_must_be_an_integer(self, tmp_path, version):
        p = tmp_path / "m.json"
        p.write_bytes(small_mixed_model())
        rewrite_with_fresh_hash(p, lambda r: r.update({"version": version}))
        with pytest.raises(InvalidModelError, match=f"unsupported model version {version!r} "):
            load_model(p)


def loads_or_exits_1(blob: bytes) -> bool:
    """Whether a model file of these bytes loads; if not, ``load_model``
    raised a typed error and ``stats`` on it exited 1, else ``stats`` exited 0.
    Any other exception fails the caller."""
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "m.json"
        p.write_bytes(blob)
        try:
            load_model(p)
        except EForestError:
            loaded = False
        else:
            loaded = True
        assert cli.main(["stats", "--model", str(p)]) == (0 if loaded else 1)
    return loaded


class TestModelFuzz:
    @given(
        cut=st.integers(0, 3000),
        extra=st.binary(max_size=12),
        flips=st.lists(st.tuples(st.integers(0, 3000), st.integers(0, 255)), max_size=4),
    )
    @example(cut=0, extra=b"", flips=[])
    @example(cut=1, extra=b"", flips=[])
    @example(cut=0, extra=b" ", flips=[])
    @example(cut=0, extra=b"", flips=[(len('{"bounds":{"hi":['), ord("9"))])
    @settings(max_examples=200, deadline=None)
    def test_damaged_file_loads_or_raises_typed_error(self, cut, extra, flips):
        # truncate (cut bytes off the end), extend, then overwrite bytes
        blob = bytearray(small_mixed_model())
        blob = blob[: len(blob) - min(cut, len(blob))] + extra
        for pos, value in flips:
            if blob:
                blob[pos % len(blob)] = value
        loaded = loads_or_exits_1(bytes(blob))
        assert loaded == (blob == small_mixed_model())

    def test_nesting_past_the_parser_depth_is_a_format_error(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_bytes(b"[" * 100_000)
        with pytest.raises(FormatError, match="not valid JSON"):
            load_model(p)
        assert not loads_or_exits_1(p.read_bytes())

    @given(
        damage=st.sampled_from(["attr", "leaf-param", "category", "flags"]),
        tree=st.integers(0, 2),
        pick=st.integers(0, 2**16),
        value=st.integers(1, 2**40),
    )
    @example(damage="flags", tree=1, pick=0, value=1)
    @settings(max_examples=120, deadline=None)
    def test_restamped_tree_damage_names_the_tree(self, damage, tree, pick, value):
        # each edit is re-hashed, so it reaches the tree checks
        record = json.loads(small_mixed_model())
        record.pop("hash")
        sizes = np.array([len(k.get("values", ())) for k in record["schema"]["kinds"]])
        nodes = record["trees"][tree]["nodes"]
        attr, param = nodes["attr"], nodes["param"]
        if damage == "attr":
            i = pick % len(attr)
            attr[i] = len(sizes) + value - 1 if value % 2 else -1 - value
            want = f"node {i}: attribute out of range$"
        elif damage == "leaf-param":
            leaves = [i for i, a in enumerate(attr) if a < 0]
            i = leaves[pick % len(leaves)]
            param[i] = float(value) * (1 if value % 2 else -1)
            want = f"node {i}: a leaf must hold param 0.0$"
        elif damage == "category":
            tests = [i for i, a in enumerate(attr) if a >= 0 and sizes[a]]
            i = tests[pick % len(tests)]
            size = int(sizes[attr[i]])
            param[i] = [float(size + value - 1), -float(value), value % size + 0.5][value % 3]
            want = f"node {i}: category out of range$"
        else:
            # a leaf made a test, or a test a leaf: leaves no longer outnumber tests by one
            i = pick % len(attr)
            attr[i] = 1 if attr[i] < 0 else -1
            want = r"node \d+: (nodes after this leaf are unreachable|\d+ subtrees are missing)"
        record["hash"] = f"{fnv1a64(canonical_json_bytes(record)):016x}"
        blob = canonical_json_bytes(record) + b"\n"
        with tempfile.TemporaryDirectory() as tmp:
            p = Path(tmp) / "m.json"
            p.write_bytes(blob)
            with pytest.raises(InvalidModelError, match=f"^tree {tree}: {want}"):
                load_model(p)
        assert not loads_or_exits_1(blob)


MIXED = Schema(("a", "color"), (Numeric(), Categorical(("red", "green", "blue"))))


@st.composite
def hand_built_tree(draw):
    """A pre-order tree's ``(attr, param)`` lists on ``MIXED``: each test
    draws an attribute in [-2, 2], mostly 0 or 1, and a finite param around
    the three category indexes, and a leaf sometimes holds a param."""
    attr, param = [], []

    def grow(tests):
        if tests == 0:
            attr.append(-1)
            param.append(draw(st.sampled_from([0.0] * 5 + [1.0])))
            return
        attr.append(draw(st.sampled_from([0, 0, 0, 1, 1, 1, 1, -2, -1, 2])))
        param.append(draw(st.sampled_from([0.0, 1.0, 2.0, 0.0, 1.0, 2.0, -1.0, 0.5, 3.0, 7.0])))
        in_false = draw(st.integers(0, tests - 1))
        grow(in_false)
        grow(tests - 1 - in_false)

    grow(draw(st.integers(0, 4)))
    return attr, param


class TestOneGate:
    @given(st.lists(hand_built_tree(), min_size=1, max_size=2))
    @example([([1, -1, -1], [7.0, 0.0, 0.0])])  # a category the schema lacks
    @example([([0, -1, -1], [0.5, 0.0, 0.0]), ([1, -1, -1], [0.5, 0.0, 0.0])])
    @settings(max_examples=200, deadline=None)
    def test_a_model_file_holds_what_the_constructor_accepts(self, trees):
        # a forest the constructor accepts saves and loads back as itself; one
        # it refuses is refused, with the same message, from a file
        bounds = Bounds(np.zeros(2), np.ones(2))
        try:
            forest = Forest([(np.array(a), np.array(p)) for a, p in trees], MIXED, bounds,
                            "unsupervised", 0)
        except InvalidModelError as exc:
            refused = str(exc)
        else:
            refused = None
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.json"
            if refused is None:
                model_hash = save_model(forest, path)
                loaded = load_model(path)
                assert loaded.attr.tolist() == forest.attr.tolist()
                assert loaded.param.tolist() == forest.param.tolist()
                assert loaded.roots.tolist() == forest.roots.tolist()
                assert forest_hex_id(loaded) == model_hash
                loaded._hex_id = None
                assert forest_hex_id(loaded) == model_hash
                return
            leaf = Forest([([-1], [0.0])], MIXED, bounds, "unsupervised", 0)
            save_model(leaf, path)
            rewrite_with_fresh_hash(path, lambda r: r.update(
                trees=[{"nodes": {"attr": a, "param": p}} for a, p in trees]))
            with pytest.raises(InvalidModelError) as raised:
                load_model(path)
            assert str(raised.value) == refused


@functools.lru_cache(maxsize=1)
def small_encodings() -> bytes:
    """Saved bytes of a small forest's encodings file."""
    forest, ds = small_forest(seed=3)
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "enc"
        save_encodings(encode_batch(forest, ds), p)
        return p.read_bytes()


def v2_header(n, T, forest_id="a" * 16) -> bytes:
    return f"eforest-enc v2 n={n} T={T} forest={forest_id}\n".encode("ascii")


class TestEncodingsFile:
    def make_matrix(self):
        forest, ds = small_forest(seed=3)
        return encode_batch(forest, ds)

    def test_round_trip(self, tmp_path):
        matrix = self.make_matrix()
        p = tmp_path / "enc"
        save_encodings(matrix, p)
        back = load_encodings(p)
        assert back.forest_id == matrix.forest_id
        assert back.leaf_ids.dtype == np.int32
        assert np.array_equal(back.leaf_ids, matrix.leaf_ids)

    def test_header_format(self, tmp_path):
        matrix = self.make_matrix()
        p = tmp_path / "enc"
        save_encodings(matrix, p)
        header, body = p.read_bytes().split(b"\n", 1)
        assert header.decode("ascii") == (
            f"eforest-enc v2 n={matrix.n} T={matrix.T} forest={matrix.forest_id}"
        )
        # the body is the ordinals as little-endian int32, row by row
        assert body == matrix.leaf_ids.astype("<i4").tobytes()
        assert p.stat().st_size == len(header) + 1 + 4 * matrix.n * matrix.T

    def test_save_holds_no_copy_of_the_body(self, tmp_path):
        matrix = EncodingMatrix(np.arange(2000 * 1000, dtype=np.int32).reshape(2000, 1000),
                                "0" * 16)
        p = tmp_path / "enc"
        tracemalloc.start()
        try:
            save_encodings(matrix, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * matrix.leaf_ids.nbytes
        assert np.array_equal(load_encodings(p).leaf_ids, matrix.leaf_ids)

    def test_empty_matrix_round_trip(self, tmp_path):
        matrix = EncodingMatrix(np.zeros((0, 4), dtype=np.int32), "0" * 16)
        p = tmp_path / "enc"
        save_encodings(matrix, p)
        assert p.read_bytes() == v2_header(0, 4, "0" * 16)
        back = load_encodings(p)
        assert back.n == 0 and back.T == 4 and back.forest_id == "0" * 16

    def test_missing_file(self, tmp_path):
        with pytest.raises(FormatError):
            load_encodings(tmp_path / "absent.enc")

    def test_empty_file(self, tmp_path):
        p = tmp_path / "enc"
        p.write_bytes(b"")
        with pytest.raises(FormatError):
            load_encodings(p)

    def test_bad_header(self, tmp_path):
        p = tmp_path / "enc"
        body = b"\0" * 4
        for blob in [
            b"eforest-enc v3 n=1 T=1 forest=" + b"0" * 16 + b"\n" + body,
            b"eforest-enc v2 n=1 T=1 forest=" + b"0" * 15 + b"\n" + body,
            b"eforest-enc v2 n=1 T=1 forest=" + b"A" * 16 + b"\n" + body,
            b"eforest-enc v2 n=-1 T=1 forest=" + b"0" * 16 + b"\n" + body,
            b"eforest-enc v2 n=1 T=1 forest=" + b"0" * 16 + body,  # no line end
            b" eforest-enc v2 n=1 T=1 forest=" + b"0" * 16 + b"\n" + body,
            # a text file of earlier releases: re-encode with the model instead
            b"eforest-enc v1 n=2 T=2 forest=" + b"a" * 16 + b"\n0,1\n2,3\n",
        ]:
            p.write_bytes(blob)
            with pytest.raises(FormatError, match="bad encodings header"):
                load_encodings(p)

    def test_row_count_mismatch(self, tmp_path):
        matrix = self.make_matrix()
        p = tmp_path / "enc"
        save_encodings(matrix, p)
        p.write_bytes(p.read_bytes()[: -4 * matrix.T])
        with pytest.raises(FormatError,
                           match=r"header promises \d+x\d+ ordinals in \d+ bytes, the body has "):
            load_encodings(p)

    def test_row_width_mismatch(self, tmp_path):
        p = tmp_path / "enc"
        for extra in [b"\0", b"\0" * 4, b"\n"]:
            p.write_bytes(small_encodings() + extra)
            with pytest.raises(FormatError,
                               match=r"header promises \d+x\d+ ordinals in \d+ bytes, "
                                     "the body has "):
                load_encodings(p)

    @pytest.mark.parametrize(
        "header, body",
        [((1, 2**62), b"\0" * 4), ((0, 2**62), b"")],
        ids=["width-below-header", "empty-body"],
    )
    def test_oversized_header(self, tmp_path, header, body):
        # a header shape numpy cannot hold is a FormatError, never a ValueError
        p = tmp_path / "enc"
        p.write_bytes(v2_header(*header) + body)
        with pytest.raises(FormatError, match="header (promises|shape n=)"):
            load_encodings(p)

    def test_negative_ordinal(self, tmp_path):
        p = tmp_path / "enc"
        p.write_bytes(v2_header(1, 2) + np.array([0, -1], dtype="<i4").tobytes())
        with pytest.raises(FormatError):
            load_encodings(p)

    @given(
        cut=st.integers(0, 2000),
        extra=st.binary(max_size=12),
        flips=st.lists(st.tuples(st.integers(0, 2000), st.integers(0, 255)), max_size=4),
    )
    @example(cut=0, extra=b"", flips=[(13, ord("1"))])  # the version digit
    @example(cut=0, extra=b"", flips=[(17, ord("9"))])  # n=40 becomes n=90
    @settings(max_examples=300, deadline=None)
    def test_damaged_file_loads_or_raises_typed_error(self, cut, extra, flips):
        # truncate (cut bytes off the end), extend, then overwrite bytes
        blob = bytearray(small_encodings())
        blob = blob[: len(blob) - min(cut, len(blob))] + extra
        for pos, value in flips:
            if blob:
                blob[pos % len(blob)] = value
        with tempfile.TemporaryDirectory() as tmp:
            p = Path(tmp) / "enc"
            p.write_bytes(bytes(blob))
            try:
                matrix = load_encodings(p)
            except FormatError:
                return
        header = v2_header(matrix.n, matrix.T, matrix.forest_id)
        assert len(blob) == len(header) + 4 * matrix.n * matrix.T
        assert (matrix.leaf_ids >= 0).all()
