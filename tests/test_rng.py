"""Generator correctness: fixed output vectors, block/scalar equivalence,
and distribution-free structural properties of the sampling helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eforest.rng import (
    MASK64,
    SplitMix64,
    mix64,
    peek_words,
    permutation,
    skip_words,
    tree_stream,
)

from synthdata import sample_without_replacement

# Published output sequence for a zero-seeded splitmix64 generator.
SEED0_FIRST3 = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)


def _reference_next(state: int) -> tuple[int, int]:
    state = (state + 0x9E3779B97F4A7C15) & MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return state, z ^ (z >> 31)


def _sample_by_swaps(gen: SplitMix64, n: int, k: int) -> np.ndarray:
    """Partial Fisher-Yates on a materialised arange(n): the sampler's oracle."""
    pool = np.arange(n, dtype=np.int64)
    for i in range(k):
        j = i + gen.below(n - i)
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:k]


def _sample_by_calls(gen: SplitMix64, n: int, k: int) -> np.ndarray:
    """The sampler as it drew before block draws: one below(n - i) call per pick."""
    moved: dict[int, int] = {}
    picked = []
    for i in range(k):
        j = i + gen.below(n - i)
        picked.append(moved.get(j, j))
        moved[j] = moved.get(i, i)
    return np.array(picked, dtype=np.int64)


class TestU64:
    def test_seed0_known_vectors(self):
        gen = SplitMix64(0)
        assert tuple(gen.u64() for _ in range(3)) == SEED0_FIRST3

    @pytest.mark.parametrize("seed", [0, 1, 42, 2**63, MASK64])
    def test_matches_reference_loop(self, seed):
        gen = SplitMix64(seed)
        state = seed
        for _ in range(64):
            state, expect = _reference_next(state)
            assert gen.u64() == expect

    def test_outputs_in_range(self):
        gen = SplitMix64(7)
        for _ in range(100):
            v = gen.u64()
            assert 0 <= v <= MASK64


class TestBlocks:
    @given(seed=st.integers(0, MASK64), k=st.integers(0, 300))
    @settings(max_examples=60, deadline=None)
    def test_u64_block_equals_scalar_stream(self, seed, k):
        block = SplitMix64(seed).u64_block(k)
        scalar = SplitMix64(seed)
        assert block.dtype == np.uint64
        assert [int(v) for v in block] == [scalar.u64() for _ in range(k)]

    def test_block_advances_state(self):
        gen = SplitMix64(5)
        gen.u64_block(10)
        tail = SplitMix64(5)
        for _ in range(10):
            tail.u64()
        assert gen.u64() == tail.u64()

    @given(seed=st.integers(0, MASK64), bound=st.integers(1, 10_000), k=st.integers(0, 64))
    @settings(max_examples=30, deadline=None)
    def test_below_block_equals_scalar(self, seed, bound, k):
        block = SplitMix64(seed).below_block(k, bound)
        scalar = SplitMix64(seed)
        assert [int(v) for v in block] == [scalar.below(bound) for _ in range(k)]


class TestStreamArrays:
    @given(seeds=st.lists(st.integers(0, MASK64), min_size=0, max_size=6), k=st.integers(1, 20))
    @settings(max_examples=40, deadline=None)
    def test_peek_equals_blocks_and_moves_nothing(self, seeds, k):
        states = np.array(seeds, dtype=np.uint64)
        words = peek_words(states, k)
        assert words.shape == (len(seeds), k)
        assert states.tolist() == seeds
        for row, seed in zip(words, seeds):
            assert row.tolist() == SplitMix64(seed).u64_block(k).tolist()

    @given(seeds=st.lists(st.integers(0, MASK64), min_size=1, max_size=6), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_skip_equals_drawing(self, seeds, data):
        counts = data.draw(st.lists(st.integers(0, 40), min_size=len(seeds), max_size=len(seeds)))
        skipped = skip_words(np.array(seeds, dtype=np.uint64), counts)
        for state, seed, count in zip(skipped.tolist(), seeds, counts):
            gen = SplitMix64(seed)
            gen.u64_block(count)
            assert state == gen.state


class TestFloat01:
    def test_unit_interval(self):
        gen = SplitMix64(11)
        vals = [gen.f01() for _ in range(1000)]
        assert all(0.0 <= v < 1.0 for v in vals)

    def test_resolution_is_53_bits(self):
        # each output must be an integer multiple of 2**-53
        gen = SplitMix64(3)
        for _ in range(200):
            v = gen.f01() * (1 << 53)
            assert v == int(v)


class TestBelow:
    @given(seed=st.integers(0, MASK64), bound=st.integers(1, 1 << 40))
    @settings(max_examples=100, deadline=None)
    def test_in_range(self, seed, bound):
        gen = SplitMix64(seed)
        assert 0 <= gen.below(bound) < bound

    def test_bound_one_is_zero(self):
        gen = SplitMix64(9)
        assert all(gen.below(1) == 0 for _ in range(20))

    def test_small_bound_hits_every_value(self):
        gen = SplitMix64(13)
        seen = {gen.below(4) for _ in range(200)}
        assert seen == {0, 1, 2, 3}


class TestShuffleAndSample:
    @given(seed=st.integers(0, MASK64), n=st.integers(0, 80))
    @settings(max_examples=60, deadline=None)
    def test_shuffle_is_permutation(self, seed, n):
        items = np.arange(n)
        SplitMix64(seed).shuffle(items)
        assert sorted(items.tolist()) == list(range(n))

    def test_shuffle_deterministic(self):
        a = np.arange(50)
        b = np.arange(50)
        SplitMix64(77).shuffle(a)
        SplitMix64(77).shuffle(b)
        assert a.tolist() == b.tolist()

    @given(
        seed=st.integers(0, MASK64),
        n=st.integers(0, 60),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_sample_without_replacement(self, seed, n, data):
        k = data.draw(st.integers(0, n))
        picked = sample_without_replacement(SplitMix64(seed), n, k)
        assert len(picked) == k
        assert len(set(picked.tolist())) == k
        assert all(0 <= v < n for v in picked.tolist())

    @given(seed=st.integers(0, MASK64), n=st.integers(0, 500), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_sample_equals_swap_oracle(self, seed, n, data):
        # same picks in the same order, and the same draws: the streams stay in step
        k = data.draw(st.integers(0, n))
        gen, oracle = SplitMix64(seed), SplitMix64(seed)
        picked = sample_without_replacement(gen, n, k)
        assert picked.dtype == np.int64
        assert picked.tolist() == _sample_by_swaps(oracle, n, k).tolist()
        assert gen.state == oracle.state

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 16, 28, 500, 784])
    def test_sample_equals_per_call_draws(self, n):
        for k in sorted({0, 1, n // 3, n // 2, n - 1, n} & set(range(n + 1))):
            for seed in (0, 5, MASK64):
                gen, calls = SplitMix64(seed), SplitMix64(seed)
                assert sample_without_replacement(gen, n, k).tolist() == (
                    _sample_by_calls(calls, n, k).tolist())
                assert gen.state == calls.state

    def test_sample_full_is_permutation(self):
        picked = sample_without_replacement(SplitMix64(21), 30, 30)
        assert sorted(picked.tolist()) == list(range(30))

    def test_sample_prefix_stability(self):
        # drawing fewer items yields a prefix of the longer draw
        long = sample_without_replacement(SplitMix64(31), 40, 20)
        short = sample_without_replacement(SplitMix64(31), 40, 8)
        assert short.tolist() == long.tolist()[:8]


class TestDerivedStreams:
    def test_mix64_is_deterministic_and_nontrivial(self):
        assert mix64(0) == mix64(0)
        outs = {mix64(i) for i in range(100)}
        assert len(outs) == 100
        assert all(0 <= v <= MASK64 for v in outs)

    def test_tree_streams_differ_by_index(self):
        a = tree_stream(1234, 0).u64()
        b = tree_stream(1234, 1).u64()
        c = tree_stream(1234, 2).u64()
        assert len({a, b, c}) == 3

    def test_tree_stream_matches_definition(self):
        seed, t = 99, 7
        expect = SplitMix64(mix64((seed ^ t) & MASK64)).u64()
        assert tree_stream(seed, t).u64() == expect

    @given(seed=st.integers(0, MASK64), n=st.integers(0, 60))
    @settings(max_examples=60, deadline=None)
    def test_permutation_is_permutation(self, seed, n):
        perm = permutation(seed, n)
        assert sorted(perm.tolist()) == list(range(n))

    def test_permutation_deterministic(self):
        assert permutation(5, 25).tolist() == permutation(5, 25).tolist()
        assert permutation(5, 25).tolist() != permutation(6, 25).tolist()
