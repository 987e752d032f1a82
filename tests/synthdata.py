"""Deterministic synthetic datasets, hand-built trees and per-row reference
implementations for the test suite.

Image-shaped data stands in for downloadable corpora: class-templated glyph
images (28x28, 10 classes), smooth natural-looking fields, and sparse
tf-idf-style document vectors. All generators are pure functions of their
seeds.
"""

from __future__ import annotations

import operator
import struct
from pathlib import Path

import numpy as np

from eforest.codec import TreeMask, decode_region
from eforest.data import Bounds, Categorical, Dataset, Numeric, Schema
from eforest.forest import Forest, Tree
from eforest.rng import SplitMix64
from eforest.rules import representative

SIDE = 28


def _box_blur(img: np.ndarray) -> np.ndarray:
    padded = np.pad(img, 1, mode="edge")
    out = np.zeros_like(img)
    for dy in range(3):
        for dx in range(3):
            out += padded[dy : dy + img.shape[0], dx : dx + img.shape[1]]
    return out / 9.0


def _glyph_templates(side: int = SIDE, n_classes: int = 10) -> np.ndarray:
    """Fixed stroke-built glyph per class, shared by train and test splits."""
    trng = np.random.default_rng(123456789)
    mats = np.zeros((n_classes, side, side))
    for c in range(n_classes):
        img = np.zeros((side, side))
        for _ in range(4):
            style = trng.integers(0, 3)
            if style == 0:
                r = int(trng.integers(4, side - 4))
                c0, c1 = np.sort(trng.integers(3, side - 3, 2))
                img[r - 1 : r + 2, c0 : c1 + 3] = 255
            elif style == 1:
                col = int(trng.integers(4, side - 4))
                r0, r1 = np.sort(trng.integers(3, side - 3, 2))
                img[r0 : r1 + 3, col - 1 : col + 2] = 255
            else:
                r, c0 = trng.integers(3, side - 8, 2)
                h, w = trng.integers(3, 6, 2)
                img[r : r + h, c0 : c0 + w] = 200
        img = _box_blur(_box_blur(img))
        mats[c] = np.clip(img, 0, 255)
    return mats


_TEMPLATES = None


def _templates() -> np.ndarray:
    global _TEMPLATES
    if _TEMPLATES is None:
        _TEMPLATES = _glyph_templates()
    return _TEMPLATES


def _pixel_schema(side: int = SIDE) -> Schema:
    return Schema.numeric([f"p{i}" for i in range(side * side)])


def mnist_like(n: int, seed: int = 0, noise: float = 12.0) -> Dataset:
    """Digit-style glyph images: shifted class templates plus pixel noise."""
    rng = np.random.default_rng(seed)
    templates = _templates()
    labels = rng.integers(0, len(templates), n)
    X = np.empty((n, SIDE * SIDE))
    for i in range(n):
        img = templates[labels[i]]
        dy, dx = rng.integers(-3, 4, 2)
        img = np.roll(np.roll(img, dy, axis=0), dx, axis=1)
        img = img + rng.normal(0.0, noise, (SIDE, SIDE))
        X[i] = np.floor(np.clip(img, 0, 255)).ravel()
    return Dataset(_pixel_schema(), X, labels)


def cifar_gray_like(n: int, seed: int = 0) -> Dataset:
    """Grayscale photos of one bright textured object on dark ground per class.

    Each class places its object at a fixed location with a class-coded
    texture, so labels are cheap to separate, while jitter, exposure, phase,
    and sensor noise vary per sample. Every pixel is dark in at least one
    class, which keeps per-pixel minima near zero across a large sample.
    """
    rng = np.random.default_rng(seed)
    n_classes = 10
    labels = rng.integers(0, n_classes, n)
    grid = (5, 14, 23)
    centers = [(gy, gx) for gy in grid for gx in grid] + [(9, 18)]
    yy = np.arange(SIDE)[:, None]
    xx = np.arange(SIDE)[None, :]
    X = np.empty((n, SIDE * SIDE))
    for i in range(n):
        c = labels[i]
        cy = centers[c][0] + rng.integers(-2, 3)
        cx = centers[c][1] + rng.integers(-2, 3)
        window = np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / 50.0)
        fy = 1 + (c % 3)
        fx = 1 + (c // 3)
        texture = 0.65 + 0.35 * np.cos(
            2 * np.pi * (fy * yy / SIDE + rng.uniform())
        ) * np.cos(2 * np.pi * (fx * xx / SIDE + rng.uniform()))
        img = 255.0 * rng.uniform(0.7, 1.05) * window * texture
        img += rng.normal(0, 8.0, (SIDE, SIDE))
        X[i] = np.floor(np.clip(img, 0, 255)).ravel()
    return Dataset(_pixel_schema(), X, labels)


def tfidf_like(n: int = 2000, d: int = 500, seed: int = 0, n_topics: int = 10) -> Dataset:
    """Sparse tf-idf-style vectors: topic-local word supports plus background."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, n_topics, n)
    block = d // n_topics
    supports = [
        np.arange(t * block, min(t * block + block + 10, d)) for t in range(n_topics)
    ]
    idf = rng.uniform(1.0, 3.0, d)
    X = np.zeros((n, d))
    for i in range(n):
        sup = supports[labels[i]]
        k = int(rng.integers(18, 30))
        words = rng.choice(sup, size=min(k, len(sup)), replace=False)
        X[i, words] = rng.integers(1, 5, len(words)) * idf[words]
        bg = rng.choice(d, size=int(rng.integers(3, 7)), replace=False)
        X[i, bg] = rng.integers(1, 3, len(bg)) * idf[bg]
    return Dataset(Schema.numeric([f"w{i}" for i in range(d)]), X, labels)


def random_mixed(seed: int, n: int | None = None, d: int | None = None) -> Dataset:
    """Random mixed-schema dataset with labels; includes ties and constants."""
    rng = np.random.default_rng(seed)
    if d is None:
        d = int(rng.integers(2, 17))
    if n is None:
        n = int(rng.integers(80, 220))
    names = []
    kinds = []
    cols = []
    for j in range(d):
        roll = rng.uniform()
        if roll < 0.35:
            m = int(rng.integers(2, 6))
            kinds.append(Categorical(tuple(f"v{j}_{i}" for i in range(m))))
            cols.append(rng.integers(0, m, n).astype(float))
        else:
            kinds.append(Numeric())
            style = rng.integers(0, 4)
            if style == 0:
                cols.append(rng.uniform(-50, 50, n))
            elif style == 1:
                cols.append(rng.normal(0, 10, n))
            elif style == 2:
                cols.append(rng.integers(0, 8, n).astype(float))
            else:
                cols.append(np.full(n, float(rng.integers(-5, 6))))
        names.append(f"a{j}")
    X = np.column_stack(cols)
    labels = rng.integers(0, 4, n)
    return Dataset(Schema(tuple(names), tuple(kinds)), X, labels)


# -- idx writers ----------------------------------------------------------------


def write_idx_images(path, images: np.ndarray) -> None:
    """Write an (n, h, w) array as an idx3-ubyte file."""
    images = np.asarray(images)
    n, h, w = images.shape
    body = np.clip(images, 0, 255).astype(np.uint8).tobytes()
    header = struct.pack(">HBB", 0, 8, 3) + struct.pack(">III", n, h, w)
    Path(path).write_bytes(header + body)


def write_idx_labels(path, labels) -> None:
    labels = np.asarray(labels)
    header = struct.pack(">HBB", 0, 8, 1) + struct.pack(">I", len(labels))
    Path(path).write_bytes(header + labels.astype(np.uint8).tobytes())


# -- hand-built trees -----------------------------------------------------------


def walk_leaf(tree: Tree, x: np.ndarray, schema: Schema) -> int:
    """Leaf ordinal of one instance by a plain root-to-leaf walk.

    The reference that batch encoding is checked against: a node on a
    categorical attribute sends ``x[attr] == category`` to its true child, any
    other node ``x[attr] >= threshold``. Nodes are stored in pre-order, so the
    false child of node ``i`` is ``i + 1`` and a leaf's ordinal is the number
    of leaves stored before it.
    """
    i = 0
    while tree.attr[i] >= 0:
        a = tree.attr[i]
        v = x[a]
        go = v == tree.param[i] if schema.category_sizes[a] > 0 else v >= tree.param[i]
        i = int(tree.true_child[i]) if go else i + 1
    return int((tree.attr[:i] < 0).sum())


def walk_codes(forest: Forest, x: np.ndarray) -> np.ndarray:
    """Per-tree leaf ordinals of one instance by ``walk_leaf``."""
    return np.asarray([walk_leaf(t, x, forest.schema) for t in forest.trees], dtype=np.int32)


def decode(forest: Forest, encoding, strategy: str = "min", mask: TreeMask | None = None):
    """One instance's reconstruction by the rule algebra of ``rules.py``: the
    per-row reference that ``decode_batch`` is checked against."""
    return representative(decode_region(forest, encoding, mask), strategy)


def csv_bytes(dataset: Dataset, header: bool = True, label_name: str | None = None) -> bytes:
    """The bytes ``data.save_csv`` writes, rendered line by line and cell by
    cell: ``repr`` of every numeric cell, the value name of every categorical
    one, and the label last when ``label_name`` is given and labels exist. The
    reference that the block writer is checked against."""
    schema = dataset.schema
    with_labels = label_name is not None and dataset.labels is not None
    lines = []
    if header:
        lines.append(",".join(list(schema.names) + ([label_name] if with_labels else [])))
    cell_text = [
        (lambda v, names=kind.values: names[int(v)]) if isinstance(kind, Categorical) else repr
        for kind in schema.kinds
    ]
    for i in range(dataset.n):
        cells = list(map(operator.call, cell_text, dataset.X[i].tolist()))
        if with_labels:
            cells.append(str(int(dataset.labels[i])))
        lines.append(",".join(cells))
    return ("\n".join(lines) + "\n").encode("utf-8")


def sample_without_replacement(stream: SplitMix64, n: int, k: int) -> np.ndarray:
    """``k`` distinct integers from [0, n) by partial Fisher-Yates, in draw order.

    Draw ``i`` swaps slot ``i`` with slot ``i + below(n - i)``; the ``k`` words
    come from one block, in the order ``k`` calls of below() take them. The
    reference that the supervised kernel's attribute sampling is checked
    against.
    """
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    offsets = stream.u64_block(k) % (np.uint64(n) - np.arange(k, dtype=np.uint64))
    # a partial Fisher-Yates over a virtual arange(n): ``moved`` holds only
    # the slots a swap has changed, and slot i is never read after draw i
    moved: dict[int, int] = {}
    picked = []
    for i, offset in enumerate(offsets.tolist()):
        j = i + offset
        picked.append(moved.get(j, j))
        moved[j] = moved.get(i, i)
    return np.array(picked, dtype=np.int64)


def tree_from_path(steps: list[tuple[tuple, bool]], schema: Schema) -> tuple[Tree, int]:
    """Chain tree realizing one root-to-leaf path of ((attr, param), branch) steps.

    Every off-path branch ends in a leaf. Returns the tree and the ordinal of
    the leaf at the end of the path.
    """
    cols = {"attr": [], "param": []}

    def add(attr: int, param: float) -> int:
        cols["attr"].append(attr)
        cols["param"].append(param)
        return len(cols["attr"]) - 1

    def emit(i: int) -> int:
        """Append the subtree of step ``i`` in pre-order; return the path's end node."""
        if i == len(steps):
            return add(-1, 0.0)
        (attr, param), taken = steps[i]
        add(attr, float(param))
        if taken:
            add(-1, 0.0)
            return emit(i + 1)
        end = emit(i + 1)
        add(-1, 0.0)
        return end

    end = emit(0)
    return Tree.from_records(cols, schema), cols["attr"][:end].count(-1)


def worked_example() -> dict:
    """Three hand-built trees whose paths pin the documented MCR regression.

    Attributes: x1, x2 numeric; x3 in {RED, BLUE, GREEN}; x4 in {YES, NO}.
    The expected region is x1 in [0.5, 1.6), x2 in [1.5, 2), x3 = GREEN,
    x4 = YES.
    """
    schema = Schema(
        ("x1", "x2", "x3", "x4"),
        (
            Numeric(),
            Numeric(),
            Categorical(("RED", "BLUE", "GREEN")),
            Categorical(("YES", "NO")),
        ),
    )
    red, green = 0, 2
    yes, no = 0, 1
    paths = [
        [
            ((0, 0.0), True),
            ((1, 1.5), True),
            ((2, red), False),
            ((0, 2.7), False),
            ((3, no), False),
        ],
        [
            ((2, green), True),
            ((1, 5.0), False),
            ((0, 0.5), True),
            ((1, 2.0), False),
        ],
        [
            ((3, yes), True),
            ((1, 8.0), False),
            ((0, 1.6), False),
        ],
    ]
    trees = []
    leaf_ordinals = []
    for p in paths:
        tree, end = tree_from_path(p, schema)
        trees.append(tree)
        leaf_ordinals.append(end)
    bounds = Bounds(np.zeros(4), np.array([10.0, 10.0, 2.0, 1.0]))
    forest = Forest(trees, schema, bounds, kind="unsupervised", seed=0)
    instance = np.array([0.55, 1.75, float(green), float(yes)])
    return {
        "forest": forest,
        "paths": paths,
        "leaf_ordinals": np.asarray(leaf_ordinals, dtype=np.int64),
        "instance": instance,
    }


def grid_points(bounds: Bounds, per_axis: int = 20) -> np.ndarray:
    """Per-attribute axis grids spanning the bounds, as a (d, per_axis) array."""
    return np.stack(
        [np.linspace(bounds.lo[j], bounds.hi[j], per_axis) for j in range(bounds.d)]
    )


def rule_axis_masks(rule, axes: np.ndarray) -> list[np.ndarray]:
    """Per-attribute boolean masks of axis points satisfying a rule.

    The outer product of these masks is grid membership of the rule's region,
    since axis-aligned rules factor per attribute.
    """
    masks = []
    for j in range(axes.shape[0]):
        c = rule.get(j)
        if c is None:
            masks.append(np.ones(axes.shape[1], dtype=bool))
        else:
            masks.append(np.array([c.contains(float(v)) for v in axes[j]]))
    return masks
