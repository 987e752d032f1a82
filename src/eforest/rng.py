"""Deterministic pseudo-random numbers built on the splitmix64 generator.

All stochastic choices in this package (bootstrap draws, attribute sampling,
threshold draws, damage masks) come through this module so that a seed fully
determines every output on every platform.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
MIX_1 = 0xBF58476D1CE4E5B9
MIX_2 = 0x94D049BB133111EB

_F53 = 1.0 / (1 << 53)


def mix64(z: int) -> int:
    """Finalizing mix of splitmix64 applied to a single 64-bit value."""
    z = (z + GOLDEN) & MASK64
    z = ((z ^ (z >> 30)) * MIX_1) & MASK64
    z = ((z ^ (z >> 27)) * MIX_2) & MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """Sequential splitmix64 stream.

    The stream for tree ``t`` of a forest seeded with ``seed`` is
    ``SplitMix64(mix64(seed ^ t))``; see :func:`tree_stream`.
    """

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def u64(self) -> int:
        """Next raw 64-bit output."""
        z = mix64(self.state)
        self.state = (self.state + GOLDEN) & MASK64
        return z

    def below(self, n: int) -> int:
        """Integer in [0, n) via modulo reduction."""
        if n <= 0:
            raise ValueError("below() requires n >= 1")
        return self.u64() % n

    def f01(self) -> float:
        """Float in [0, 1) with 53 random bits."""
        return (self.u64() >> 11) * _F53

    def u64_block(self, k: int) -> np.ndarray:
        """Next ``k`` outputs as a uint64 array, identical to ``k`` calls of u64()."""
        if k < 0:
            raise ValueError("block size must be >= 0")
        words = peek_words(np.array([self.state], dtype=np.uint64), k)[0]
        self.state = (self.state + k * GOLDEN) & MASK64
        return words

    def below_block(self, k: int, n: int) -> np.ndarray:
        """Next ``k`` integers in [0, n), identical to ``k`` calls of below(n)."""
        if n <= 0:
            raise ValueError("below_block() requires n >= 1")
        return (self.u64_block(k) % np.uint64(n)).astype(np.int64)

    def shuffle(self, arr: np.ndarray) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(arr) - 1, 0, -1):
            j = self.below(i + 1)
            arr[i], arr[j] = arr[j], arr[i]


def _mix(z: np.ndarray) -> np.ndarray:
    """splitmix64's output function, applied in place to an array of states."""
    z ^= z >> np.uint64(30)
    z *= np.uint64(MIX_1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(MIX_2)
    z ^= z >> np.uint64(31)
    return z


def peek_words(states: np.ndarray, k: int) -> np.ndarray:
    """The next ``k`` outputs of every stream whose state is in ``states``, one
    row per stream: row i equals ``SplitMix64(states[i]).u64_block(k)``. The
    states do not move; :func:`skip_words` moves them past what was used."""
    return _mix(states[:, None] + np.arange(1, k + 1, dtype=np.uint64) * np.uint64(GOLDEN))


def skip_words(states: np.ndarray, counts) -> np.ndarray:
    """The states of the streams ``states`` after ``counts`` more outputs each."""
    return states + np.asarray(counts, dtype=np.uint64) * np.uint64(GOLDEN)


def tree_stream(seed: int, tree_index: int) -> SplitMix64:
    """Independent stream for one tree of a forest."""
    return SplitMix64(mix64((seed ^ tree_index) & MASK64))


def permutation(seed: int, n: int) -> np.ndarray:
    """Seeded permutation of range(n), used for damage masks."""
    arr = np.arange(n, dtype=np.int64)
    SplitMix64(mix64(seed & MASK64)).shuffle(arr)
    return arr
