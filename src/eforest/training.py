"""Forest training: supervised (information gain) and completely random trees.

Both modes grow axis-aligned binary trees. Supervised trees draw a bootstrap
sample, inspect ceil(sqrt(d)) attributes per node, and take the candidate
split with the highest information gain. Unsupervised trees use all rows,
pick one attribute uniformly among those not constant in the node, and split
at a uniform random point inside the node's value range. All randomness comes
from one splitmix64 stream per tree, so a seed fixes the forest exactly.

Growth order: the trees of a group grow in lockstep, each in depth-first
pre-order with the false branch first. A node that draws no words (too few
rows, labels all one class, or at the depth cap) is known to be a leaf as soon
as its parent splits, and is stored without a kernel call. Each step decides
the next drawing node of every tree of the group not yet finished, and one
batched split kernel decides all of those nodes at once. Within a tree, nodes
draw from the tree's stream in pre-order, so neither the grouping nor the
thread count changes a tree. ``forest.budget_runs`` cuts groups so their row
buffers hold about ``_GROUP_ROWS`` rows, and kernel calls so their nodes'
rows, each weighted by the kernel's ``width``, add up to about
``_STEP_CELLS``. The best-gain kernel charges a row one sort key per sampled
attribute, and sweeps the class counts of the runs its sort finds over parts
of whole nodes that hold about ``_STEP_CELLS`` counts each. Rows are routed
by encoding's ``forest.node_test``, and each tree is built from its arrays
once.
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .data import Dataset, Schema, compute_bounds
from .errors import ConfigError, FormatError
from .forest import MODES, Forest, budget_runs, node_test, ranges
from .rng import SplitMix64, peek_words, skip_words, tree_stream


@dataclass
class TrainConfig:
    """Training parameters; an unset bootstrap becomes true only for supervised mode."""

    mode: str
    n_trees: int
    seed: int = 0
    min_node_size: int = 2
    max_depth_cap: int | None = None
    bootstrap: bool | None = None
    threads: int = 1

    def __post_init__(self):
        for name in ("n_trees", "seed", "min_node_size", "max_depth_cap", "threads"):
            value = getattr(self, name)
            if name == "max_depth_cap" and value is None:
                continue
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            setattr(self, name, int(value))  # numpy ints overflow the seed mix and fail JSON
        if self.bootstrap is not None and not isinstance(self.bootstrap, bool):
            raise ConfigError(f"bootstrap must be a boolean, got {self.bootstrap!r}")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not 1 <= self.n_trees < 2**31:  # a forest's node positions are int32
            raise ConfigError(f"n_trees must be >= 1 and < 2**31, got {self.n_trees}")
        if self.min_node_size < 1:
            raise ConfigError(f"min_node_size must be >= 1, got {self.min_node_size}")
        if self.max_depth_cap is not None and self.max_depth_cap < 0:
            raise ConfigError("max_depth_cap must be >= 0")
        if self.threads < 1:
            raise ConfigError(f"threads must be >= 1, got {self.threads}")
        if self.bootstrap is None:
            self.bootstrap = self.mode == "supervised"

    def to_meta(self) -> dict:
        """Training summary persisted with the model: every field but
        ``threads``, an execution detail that never changes the forest."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "threads"}


def _xlogx_table(n: int) -> np.ndarray:
    """table[m] = m * log2(m), table[0] = 0; lets gain sweeps stay in integer counts."""
    table = np.zeros(n + 1)
    if n >= 1:
        m = np.arange(1, n + 1, dtype=np.float64)
        table[1:] = m * np.log2(m)
    return table


def attribute_sample_size(d: int) -> int:
    """ceil(sqrt(d)) attributes inspected per supervised node."""
    return min(d, math.ceil(math.sqrt(d)))


def _numeric_threshold(lo, hi):
    """Midpoint between adjacent distinct values, nudged up if rounding hits the left."""
    mid = 0.5 * (lo + hi)
    return np.where(mid > lo, mid, hi)


# -- batched split kernels ----------------------------------------------------
#
# A kernel decides a batch of nodes at once. ``rows`` holds the nodes' rows
# node after node, node i's being rows[offsets[i]:offsets[i + 1]], and every
# node holds at least one row. Node i draws from the stream whose state is
# states[i]; the kernel advances each state exactly as deciding that node
# alone would. It returns (attr, param, goes_true): attr is -1 where the node
# is a leaf, and goes_true flags the rows of split nodes that take the true
# branch. A node that ``draws`` no words is a leaf decided without a draw.
# Kernels read every word as arrays ahead of use (``peek_words``), rare
# redraws too, and then skip every stream past the words its node used.

_REJECT_ROUNDS = 16
_THRESHOLD_ROUNDS = 8


class _Kernel:
    """The data both kernels split, one attribute per row of ``XT``. A
    kernel's ``width`` is the most values a node row costs one of its calls:
    the values it gathers for that row."""

    def __init__(self, XT: np.ndarray, schema: Schema, min_node_size: int):
        self.XT = np.ascontiguousarray(XT, dtype=np.float64)
        self.flat = self.XT.ravel()
        self.d, self.n = self.XT.shape
        self.is_cat = schema.category_sizes > 0
        self.min_node_size = min_node_size

    def draws(self, rows, lo, hi):
        """Which of the nodes whose rows are rows[lo[i]:hi[i]] draw words when
        decided: a node of at most ``min_node_size`` rows is a leaf without a
        draw. A kernel call is given only nodes that draw."""
        return hi - lo > self.min_node_size

    def _route(self, col, size, attr, param):
        """Which rows take the true branch, given each row's value of its
        node's attribute; a leaf sends none there."""
        p = np.where(attr < 0, np.inf, param).repeat(size)
        return node_test(col, attr.repeat(size), p, self.is_cat)


class _RandomSplits(_Kernel):
    """Completely random tests for a batch of nodes.

    The attribute is uniform over attributes not constant within the node:
    rejection sampling over all attributes, falling back to an exact scan of
    the node after repeated misses, keeps the choice uniform either way. The
    word after the chosen attribute's then picks a uniform value present in
    the node for a categorical test, or places a numeric threshold uniformly
    inside the node's open value range, redrawn while rounding lands it on an
    end, and the next double up from the low end after repeated misses.
    """

    width = _REJECT_ROUNDS  # a node that misses at first gathers a value per round

    def __call__(self, rows, offsets, states):
        size = offsets[1:] - offsets[:-1]
        # every node's first candidate attribute, and the word after it
        words = peek_words(states, 2)
        cand = (words[:, 0] % np.uint64(self.d)).astype(np.int64)
        col = self.flat[(cand * self.n).repeat(size) + rows]
        lo = np.minimum.reduceat(col, offsets[:-1])
        hi = np.maximum.reduceat(col, offsets[:-1])
        split = lo < hi
        attr = np.where(split, cand, -1)
        spare = words[:, 1]
        used = np.full(len(size), 2)
        missed = (~split).nonzero()[0]
        if len(missed):
            self._more_rounds(rows, offsets, missed, states, attr, lo, hi, col, spare, used)
            split = attr >= 0
        t = lo + ((spare >> np.uint64(11)) * 2.0**-53) * (hi - lo)
        param = np.where(split, t, 0.0)
        cat = split & self.is_cat[attr]
        if cat.any():
            param[cat] = _pick_present(col, offsets, cat.nonzero()[0], spare)
        off = ((split > cat) & ((t <= lo) | (t >= hi))).nonzero()[0]
        if len(off):
            a, b = lo[off, None], hi[off, None]
            words = peek_words(skip_words(states[off], used[off]), _THRESHOLD_ROUNDS - 1)
            redraw = a + ((words >> np.uint64(11)) * 2.0**-53) * (b - a)
            inside = (a < redraw) & (redraw < b)
            pick = np.arange(len(off)), inside.argmax(axis=1)
            hit = inside[pick]
            param[off] = np.where(hit, redraw[pick], np.nextafter(lo[off], hi[off]))
            used[off] += np.where(hit, pick[1] + 1, _THRESHOLD_ROUNDS - 1)
        states[:] = skip_words(states, used)
        return attr, param, self._route(col, size, attr, param)

    def _more_rounds(self, rows, offsets, nodes, states, attr, lo, hi, col, spare, used):
        """The other rejection rounds of nodes whose first candidate was
        constant, drawn at once with the word after each round; an exact
        scan of the node follows the last miss, its pick and spare the two
        words after the last round's."""
        size = offsets[nodes + 1] - offsets[nodes]
        cells = ranges(offsets[nodes], size)
        words = peek_words(skip_words(states[nodes], 1), _REJECT_ROUNDS + 1)
        cand = (words[:, :_REJECT_ROUNDS - 1] % np.uint64(self.d)).astype(np.int64)
        values = self.flat[(cand * self.n).repeat(size, axis=0) + rows[cells, None]]
        starts = size.cumsum() - size
        low = np.minimum.reduceat(values, starts)
        high = np.maximum.reduceat(values, starts)
        varies = low < high
        first = varies.argmax(axis=1)
        pick = np.arange(len(nodes)), first
        found = varies[pick]
        attr[nodes[found]] = cand[pick][found]
        lo[nodes], hi[nodes] = low[pick], high[pick]
        col[cells] = values[np.arange(len(cells)), first.repeat(size)]
        spare[nodes] = words[pick[0], first + 1]
        used[nodes] = np.where(found, first + 3, _REJECT_ROUNDS)
        for i, (word, after) in zip(nodes[~found], words[~found, -2:]):
            sub = self.XT[:, rows[offsets[i]:offsets[i + 1]]]
            varying = (sub.min(axis=1) < sub.max(axis=1)).nonzero()[0]
            if len(varying):
                attr[i] = j = varying[int(word) % len(varying)]
                spare[i] = after
                used[i] = _REJECT_ROUNDS + 2
                col[offsets[i]:offsets[i + 1]] = sub[j]
                lo[i], hi[i] = sub[j].min(), sub[j].max()


def _pick_present(col, offsets, nodes, words):
    """Per node, the distinct value of its ``col`` that its word picks."""
    size = offsets[nodes + 1] - offsets[nodes]
    values = col[ranges(offsets[nodes], size)]
    seg = np.arange(len(nodes)).repeat(size)
    order = np.lexsort((values, seg))
    values, seg = values[order], seg[order]
    new = np.ones(len(values), dtype=bool)
    new[1:] = (seg[1:] != seg[:-1]) | (values[1:] != values[:-1])
    count = np.bincount(seg[new], minlength=len(nodes))
    pick = words[nodes] % count.astype(np.uint64)
    return values[new][count.cumsum() - count + pick.astype(np.int64)]


def _sample_attributes(words: np.ndarray, d: int) -> np.ndarray:
    """Row i: ``k`` distinct attributes of ``range(d)`` in draw order, picked
    by a partial Fisher-Yates from the ``k`` words ``words[i]``, every row's
    draw j at once.

    Draw j of a row swaps slot j with slot ``j + word % (d - j)``, where
    ``word`` is the row's word j, on that row of an (m, d) permutation that
    starts as ``range(d)``; the first ``k`` slots are then the sample.
    """
    m, k = words.shape
    index = np.arange(k)
    slot = index + (words % (np.uint64(d) - index.astype(np.uint64))).astype(np.int64)
    perm = np.tile(np.arange(d), (m, 1))
    row = np.arange(m)
    for j in range(k):
        swap = slot[:, j]
        held = perm[row, swap]
        perm[row, swap] = perm[:, j]
        perm[:, j] = held
    return perm[:, :k]


def _column_ranks(XT: np.ndarray):
    """Every attribute's distinct values ascending, concatenated; where each
    attribute's values start; and each value's rank among its attribute's."""
    ranks = np.empty(XT.shape, dtype=np.int32)
    distinct = []
    for j, col in enumerate(XT):
        values, ranks[j] = np.unique(col, return_inverse=True)
        distinct.append(values)
    counts = np.array([len(v) for v in distinct], dtype=np.int64)
    return np.concatenate(distinct), counts.cumsum() - counts, ranks


class _GainSplits(_Kernel):
    """Best-gain tests over a random attribute sample, for a batch of nodes.

    A node whose labels are all equal draws nothing (``draws``). Any other
    draws ``sample`` = ceil(sqrt(d)) distinct attributes from its next
    ``sample`` words (``_sample_attributes``). One sort
    of (node, attribute, value rank, class) keys cuts every node's sampled
    attributes into runs of equal values and counts the classes of every run.
    A numeric candidate ends any run but its attribute's last; the rows below
    it form its attribute's runs so far. A categorical candidate is any run
    of an attribute with at least two; its rows take the true branch. Gains
    are computed at candidates only, in (attribute, value) order, so each
    node's first maximum breaks ties to the lowest attribute index, then the
    lowest threshold or category value. A node no candidate of which has a
    positive gain is a leaf.

    A node row costs a call one sort key per sampled attribute (``width``).
    The keys sort as int32 when every key of the call fits, else as int64.
    The class counts of the runs take C values a run, as do their running
    sums and the gains' gathers; a call sweeps them over consecutive parts of
    whole nodes whose runs times C add up to about ``_STEP_CELLS``, so its
    memory does not grow with the class count.
    """

    def __init__(self, XT, y: np.ndarray, n_classes: int, schema: Schema, min_node_size: int):
        super().__init__(XT, schema, min_node_size)
        self.y = y
        self.n_classes = n_classes
        self.sample = attribute_sample_size(self.d)
        # a node row gathers one sort key per sampled attribute
        self.width = self.sample
        self.xlogx = _xlogx_table(self.n)
        self.values, self.value_start, keys = _column_ranks(self.XT)
        self.n_ranks = R = int(keys.max(initial=0)) + 1
        # a call gathers at most _STEP_CELLS values plus its last node's, a
        # node holds at most n rows, and its segments number at most the
        # values it gathers: every key is below (_STEP_CELLS + n * sample) * R * C
        if (_STEP_CELLS + self.n * self.sample) * R * n_classes >= 2**63:
            raise FormatError("too many distinct values and classes for 64-bit split keys")
        # rank and class of every (attribute, row), the low part of a sort key
        keys = keys.astype(np.int64 if R * n_classes >= 2**31 else np.int32, copy=False)
        keys *= n_classes
        keys += y
        self.row_keys = keys.ravel()

    def draws(self, rows, lo, hi):
        """Which nodes draw words, as for ``_Kernel``; a node whose labels
        are all one class is a leaf without a draw too."""
        out = super().draws(rows, lo, hi)
        big = out.nonzero()[0]
        if len(big):
            size = hi[big] - lo[big]
            y = self.y[rows[ranges(lo[big], size)]]
            starts = size.cumsum() - size
            out[big] = np.minimum.reduceat(y, starts) < np.maximum.reduceat(y, starts)
        return out

    def __call__(self, rows, offsets, states):
        size = offsets[1:] - offsets[:-1]
        attr = np.full(len(size), -1, dtype=np.int64)
        param = np.zeros(len(size))
        words = peek_words(states, self.sample)
        states[:] = skip_words(states, self.sample)
        self._best(rows, offsets, words, attr, param)
        col = self.flat[(np.maximum(attr, 0) * self.n).repeat(size) + rows]
        return attr, param, self._route(col, size, attr, param)

    def _best(self, rows, offsets, words, attr, param):
        k, C, R = self.sample, self.n_classes, self.n_ranks
        nn = offsets[1:] - offsets[:-1]
        m = len(nn)
        attrs = np.sort(_sample_attributes(words, self.d), axis=1).ravel()
        # segment s holds the rows of node s // k under its (s % k)-th sampled
        # attribute; sorted keys put each segment's rows in runs of equal value
        seg_len = nn.repeat(k)
        cell = rows[ranges(offsets[:-1].repeat(k), seg_len)]
        cell += (attrs * self.n).repeat(seg_len)
        # every key is below m * k * R * C; int32 keys sort about twice as fast
        key = np.arange(m * k, dtype=np.int32 if m * k * R * C < 2**31 else np.int64)
        key = (key * (R * C)).repeat(seg_len)
        key += self.row_keys[cell]
        del cell
        key.sort()
        # the distinct keys are (run, class) pairs; a run is a segment and a rank
        edges = _changes(key).nonzero()[0]
        pair_key = key[edges[:-1]].astype(np.int64, copy=False)  # int64 indexes faster
        pair_count = np.diff(edges)
        del key, edges
        run_new = _changes(pair_key // C)
        run_pair = run_new.nonzero()[0]  # each run's first pair, then the pair count
        run_key = pair_key[run_pair[:-1]] // C
        # class counts cost C values a run: sweep them over parts of whole
        # nodes whose runs stay within the budget
        node_run = np.searchsorted(run_key, np.arange(m + 1) * (k * R))
        xlogx = self.xlogx
        for part in budget_runs(np.diff(node_run) * C, _STEP_CELLS):
            a, b = part.start, part.stop
            ra, rb = node_run[a], node_run[b]
            seg = run_key[ra:rb] // R
            node = seg // k - a
            cat = self.is_cat[attrs[seg]]
            # a numeric candidate ends any run but its segment's last; a
            # categorical one is any run of a segment with at least two
            seg_new = _changes(seg)
            cand = (~seg_new[1:] | (cat & ~seg_new[:-1])).nonzero()[0]
            if not len(cand):
                continue
            sub = nn[part]
            pairs = slice(run_pair[ra], run_pair[rb])
            counts = np.zeros((rb - ra, C), dtype=np.int64)
            counts[run_new[pairs].cumsum() - 1, pair_key[pairs] % C] = pair_count[pairs]
            total = np.bincount((np.arange(b - a) * C).repeat(sub)
                                + self.y[rows[offsets[a]:offsets[b]]],
                                minlength=(b - a) * C).reshape(-1, C)
            # every segment's runs hold all its node's rows, so a running sum
            # less the totals of the part's segments before gives the counts
            # below each run
            seg_total = total.repeat(k, axis=0)
            before = seg_total.cumsum(axis=0) - seg_total
            below = counts.cumsum(axis=0)[cand] - before[seg[cand] - a * k]
            left = np.where(cat[cand, None], counts[cand], below)
            del counts, below, before, seg_total  # few C-wide arrays live at once
            node = node[cand]
            nl = left.sum(axis=1)
            parent_term = xlogx[sub] - xlogx[total].sum(axis=1)
            left_term = xlogx[nl] - xlogx[left].sum(axis=1)
            right_term = xlogx[sub[node] - nl] - xlogx[total[node] - left].sum(axis=1)
            del left
            gains = parent_term[node] - left_term - right_term
            # each node's first maximum, taken only when positive
            new_node = _changes(node)[:-1]
            heads = new_node.nonzero()[0]
            best = np.maximum.reduceat(gains, heads)
            at_max = (gains == best[new_node.cumsum() - 1]).nonzero()[0]
            keep = best > 0.0
            r = ra + cand[at_max[np.searchsorted(at_max, heads[keep])]]
            chosen_attr = attrs[run_key[r] // R]
            value = self.values[self.value_start[chosen_attr] + run_key[r] % R]
            num = ~self.is_cat[chosen_attr]
            after = self.values[self.value_start[chosen_attr[num]] + run_key[r[num] + 1] % R]
            value[num] = _numeric_threshold(value[num], after)
            chosen = a + node[heads[keep]]
            attr[chosen] = chosen_attr
            param[chosen] = value


def _changes(a: np.ndarray) -> np.ndarray:
    """Where ``a`` differs from its previous element; true at 0, and one more
    true entry past the end."""
    new = np.empty(len(a) + 1, dtype=bool)
    new[0] = new[-1] = True
    np.not_equal(a[1:], a[:-1], out=new[1:-1])
    return new


def _decide_one(split, n: int, rng: SplitMix64) -> tuple[int, float] | None:
    """Run a kernel on a batch of one node that holds all ``n`` rows of its
    data, if that node draws; a node that does not is a leaf."""
    rows, offsets = np.arange(n), np.array([0, n])
    if n == 0 or not split.draws(rows, offsets[:1], offsets[1:])[0]:
        return None
    states = np.array([rng.state], dtype=np.uint64)
    attr, param, _ = split(rows, offsets, states)
    rng.state = int(states[0])
    return None if attr[0] < 0 else (int(attr[0]), float(param[0]))


def build_unsupervised_node(
    X: np.ndarray, rows: np.ndarray, rng: SplitMix64, schema: Schema, min_node_size: int = 2
) -> tuple[int, float] | None:
    """Completely random (attr, param) node test for a row subset, or None to
    declare a leaf."""
    rows = np.asarray(rows, dtype=np.int64)
    XT = np.asarray(X, dtype=np.float64)[rows].T
    return _decide_one(_RandomSplits(XT, schema, min_node_size), len(rows), rng)


def build_supervised_node(
    X: np.ndarray,
    rows: np.ndarray,
    labels: np.ndarray,
    rng: SplitMix64,
    schema: Schema,
    min_node_size: int = 2,
) -> tuple[int, float] | None:
    """Best-gain (attr, param) node test for a row subset, or None to declare
    a leaf.

    A leaf is declared when the node is label-pure, has at most
    ``min_node_size`` rows, or no sampled candidate achieves positive gain.
    """
    rows = np.asarray(rows, dtype=np.int64)
    classes, y = np.unique(np.asarray(labels, dtype=np.int64), return_inverse=True)
    XT = np.asarray(X, dtype=np.float64)[rows].T
    split = _GainSplits(XT, y[rows], len(classes), schema, min_node_size)
    return _decide_one(split, len(rows), rng)


# -- tree growth --------------------------------------------------------------

_GROUP_ROWS = 1 << 22
"""About the most rows in one lockstep group's buffer: a group grows trees of
``n`` root rows each, at least one."""

_STEP_CELLS = 1 << 17
"""About the most gathered values one kernel call holds at once, a node row
counting as the kernel's ``width`` of them; a step whose nodes would hold
more splits them in consecutive parts. The best-gain kernel sweeps the class
counts of a call's runs in parts of about as many counts."""


def _split_ranges(split, rows, states, trees, lo, hi):
    """Decide the nodes whose rows are rows[lo[i]:hi[i]], each drawing from
    its tree's stream in ``states``, with one kernel call; partition every
    range stably, false rows first. Returns attr, param and where each
    range's true rows start."""
    size = hi - lo
    offsets = np.concatenate([[0], size.cumsum()])
    cells = ranges(lo, size)
    node_rows = rows[cells]
    node_states = states[trees]
    attr, param, goes_true = split(node_rows, offsets, node_states)
    states[trees] = node_states
    key = np.arange(len(lo)).repeat(size) * 2 + goes_true
    rows[cells] = node_rows[np.argsort(key, kind="stable")]
    return attr, param, hi - np.add.reduceat(goes_true, offsets[:-1], dtype=np.int64)


def _grow(split, n: int, cfg: TrainConfig, trees: Sequence[int]) -> list[tuple]:
    """Grow the given trees in lockstep, each in depth-first pre-order with
    the false branch first; returns each tree's ``attr`` and ``param`` arrays,
    copied out of the group's buffers so that these can be freed.

    Each tree's rows live in its own slice of one buffer, and every node is a
    range of it. A node draws no words when ``split.draws`` says so or it sits
    at the depth cap; that is known when its parent splits, and the stack
    entry records it. A step stores the run of such nodes on top of every
    unfinished tree's stack as leaves, pops the drawing node below them,
    decides those nodes with one kernel call (or a few, for large nodes), and
    pushes each split node's true child, then its false one.
    """
    streams = [tree_stream(cfg.seed, t) for t in trees]
    g = len(streams)
    if cfg.bootstrap:
        rows = np.concatenate([s.below_block(n, n) for s in streams])
    else:
        rows = np.tile(np.arange(n, dtype=np.int64), g)
    states = np.array([s.state for s in streams], dtype=np.uint64)
    cap = math.inf if cfg.max_depth_cap is None else cfg.max_depth_cap

    def drawless(lo, hi, level):
        """Which nodes rows[lo[i]:hi[i]] at depth level[i] draw no words."""
        return ~split.draws(rows, lo, hi) | (level >= cap)

    # per tree, a stack of pending nodes: row range [start, end), depth, and
    # the length of the run of drawless entries that ends with this one; the
    # top entry is at column top[t], above a bottom entry that is no node and
    # ends no run, so an empty stack's top reads a run of 0
    start = np.zeros((g, 64), dtype=np.int64)
    end, depth, run = (np.zeros_like(start) for _ in range(3))
    start[:, 1] = np.arange(g) * n
    end[:, 1] = start[:, 1] + n
    run[:, 1] = drawless(start[:, 1], end[:, 1], depth[:, 1])
    top = np.ones(g, dtype=np.int64)
    # tree t's nodes so far are attr[t, :fill[t]]; a leaf keeps -1 and 0.0
    fill = np.zeros(g, dtype=np.int64)
    attr = np.full((g, 1024), -1, dtype=np.int32)
    param = np.zeros((g, 1024))
    live = np.arange(g)
    while True:
        leaves = run[live, top[live]]
        fill[live] += leaves
        top[live] -= leaves
        live = live[top[live] > 0]
        while fill.max() >= attr.shape[1]:
            attr = np.concatenate([attr, np.full_like(attr, -1)], axis=1)
            param = np.concatenate([param, np.zeros_like(param)], axis=1)
        if not len(live):
            break
        h = top[live]
        lo, hi, level = start[live, h], end[live, h], depth[live, h]
        if h.max() + 2 > start.shape[1]:
            start, end, depth, run = (np.concatenate([x, np.zeros_like(x)], axis=1)
                                      for x in (start, end, depth, run))
        a, p, mid = (np.concatenate(parts) for parts in zip(*(
            _split_ranges(split, rows, states, live[part], lo[part], hi[part])
            for part in budget_runs((hi - lo) * split.width, _STEP_CELLS))))
        attr[live, fill[live]], param[live, fill[live]] = a, p
        fill[live] += 1
        top[live] = h - 1
        inner = a >= 0
        t, h, lo, mid, hi = live[inner], h[inner], lo[inner], mid[inner], hi[inner]
        below = level[inner] + 1
        true_run, false_run = drawless(np.concatenate([mid, lo]), np.concatenate([hi, mid]),
                                       np.concatenate([below, below])).reshape(2, -1)
        start[t, h], end[t, h] = mid, hi
        start[t, h + 1], end[t, h + 1] = lo, mid
        depth[t, h] = depth[t, h + 1] = below
        run[t, h] = true_run * (run[t, h - 1] + 1)
        run[t, h + 1] = false_run * (run[t, h] + 1)
        top[t] = h + 1
    return [(a[:k].copy(), p[:k].copy()) for a, p, k in zip(attr, param, fill)]


_FORK_PAYLOAD: list = []  # the (split, n, cfg) arguments of _grow, inherited by fork


def _train_worker(trees: range) -> list[tuple]:
    return _grow(*_FORK_PAYLOAD, trees)


def _splitter(dataset: Dataset, config: TrainConfig):
    """The batched split kernel that grows ``config``'s trees on ``dataset``."""
    XT = dataset.X.T
    if config.mode == "unsupervised":
        return _RandomSplits(XT, dataset.schema, config.min_node_size)
    # dense class ids: class-count tables grow with the class count, not the largest label
    classes, y = np.unique(dataset.labels, return_inverse=True)
    return _GainSplits(XT, y, len(classes), dataset.schema, config.min_node_size)


def _usable_cpus() -> int:
    """How many CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def train_forest(dataset: Dataset, config: TrainConfig) -> Forest:
    """Train a forest on a dataset; identical seeds give identical forests.

    Tree ``t`` consumes only its own random stream, so results do not depend
    on the thread count or the grouping, and trees always come back ordered
    by index. The trees are cut into lockstep groups once, by rows alone when
    serial; with ``threads`` > 1 into at least one group per worker, and no
    more workers start than there are trees or CPUs this process may run on.
    """
    if dataset.n == 0:
        raise ConfigError("cannot train on an empty dataset")
    labels = dataset.labels
    if config.mode == "supervised":
        if labels is None:
            raise ConfigError("supervised training requires labels")
        if labels.min() < 0:
            raise FormatError(
                f"supervised training needs class labels >= 0, got {labels.min()}"
            )
    split = _splitter(dataset, config)
    args = (split, dataset.n, config)
    n_trees = config.n_trees
    workers = min(config.threads, n_trees, _usable_cpus()) if hasattr(os, "fork") else 1
    budget = min(_GROUP_ROWS, n_trees // workers * dataset.n)  # at least one group per worker
    groups = [range(n_trees)[run] for run in budget_runs(np.full(n_trees, dataset.n), budget)]

    if workers > 1:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        _FORK_PAYLOAD[:] = args
        try:
            ctx = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
                grown = list(pool.map(_train_worker, groups))
        finally:
            _FORK_PAYLOAD.clear()
    else:
        grown = [_grow(*args, trees) for trees in groups]
    return Forest(
        [arrays for group in grown for arrays in group],
        dataset.schema,
        compute_bounds(dataset.schema, dataset.X),
        kind=config.mode,
        seed=config.seed,
        config=config.to_meta(),
    )
