"""The package calls that the benchmark's traced replay (``perfbench/replay.py``)
makes on a saved model, with the meaning it relies on. A model-format change
that would break the replay fails here, in Tier-1, and not only when the
benchmark runs."""

import json

import numpy as np
import pytest

from eforest import codec, persistence, rules, training
from eforest import forest as forest_mod
from eforest.rng import tree_stream

from synthdata import random_mixed


@pytest.fixture(scope="module", params=["supervised", "unsupervised"])
def saved(request, tmp_path_factory):
    """(dataset, trained forest, model path, hash returned by save_model)."""
    ds = random_mixed(23, n=90, d=6)
    forest = training.train_forest(
        ds, training.TrainConfig(mode=request.param, n_trees=4, seed=2)
    )
    path = tmp_path_factory.mktemp("model") / "model.json"
    return ds, forest, path, persistence.save_model(forest, path)


def test_hash_parts_match_save_model(saved):
    # the replay's "hash.parts_match_save_model" check
    _, forest, _, model_hash = saved
    blob = persistence.canonical_json_bytes(persistence.forest_record(forest))
    assert f"{persistence.fnv1a64(blob):016x}" == model_hash
    assert json.loads(saved[2].read_bytes())["hash"] == model_hash


def test_from_records_rebuilds_every_tree_of_the_file(saved):
    _, forest, path, _ = saved
    parsed = json.loads(path.read_bytes())
    rebuilt = [forest_mod.Tree.from_records(t["nodes"], forest.schema) for t in parsed["trees"]]
    assert len(rebuilt) == forest.T
    for (attr, param), tree in zip(rebuilt, forest.trees):
        assert attr.dtype == tree.attr.dtype and np.array_equal(attr, tree.attr)
        assert param.dtype == tree.param.dtype and np.array_equal(param, tree.param)


def test_trees_are_views_of_read_only_forest_arrays(saved):
    # the content hash is cached on the forest, so nothing may write its arrays
    forest = saved[1]
    for t, tree in enumerate(forest.trees):
        assert np.shares_memory(tree.attr, forest.attr)
        assert np.shares_memory(tree.param, forest.param)
        assert tree.n_nodes == forest.roots[t + 1] - forest.roots[t]
    for arr in (forest.attr, forest.param, forest.true_child):
        assert not arr.flags.writeable


def test_node_builders_take_the_replay_arguments(saved):
    ds = saved[0]
    rows = np.arange(ds.n)
    sup = training.build_supervised_node(ds.X, rows, ds.labels, tree_stream(0, 0), ds.schema)
    unsup = training.build_unsupervised_node(ds.X, rows, tree_stream(0, 0), ds.schema)
    for test in (sup, unsup):
        attr, param = test
        assert 0 <= attr < ds.d and np.isfinite(param)


def test_path_rules_intersect_to_the_decoded_region(saved):
    ds, forest, _, _ = saved
    codes = codec.encode_batch(forest, ds).leaf_ids
    for i in range(5):
        path_rules = [
            forest_mod.path_to_rule(forest_mod.get_path(t, int(leaf)), forest.schema)
            for t, leaf in zip(forest.trees, codes[i])
        ]
        mcr = rules.calculate_mcr(path_rules, forest.bounds, forest.schema)
        assert mcr == codec.decode_region(forest, codes[i])
        assert rules.contains(mcr, ds.X[i])


def test_tree_counts(saved):
    forest = saved[1]
    for tree in forest.trees:
        assert tree.leaf_count == (tree.n_nodes + 1) // 2 == int((tree.attr < 0).sum())
    max_depth, mean_depth = forest_mod.depth_stats(forest)
    assert max_depth >= mean_depth > 0
