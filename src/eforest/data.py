"""Schemas, datasets, and loaders for IDX and CSV inputs.

A dataset is its checked rows, its schema and optional integer labels. It
stores every attribute as float64. Categorical attributes hold the integer
index of the value within the attribute's declared value tuple, so a single
matrix carries mixed schemas without object arrays. The checks on the rows
read a schema's kinds from ``Schema.category_sizes``. A forest's bounds are
the observed ranges of its training rows; ``compute_bounds`` derives them,
and a dataset holds none.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import math
import operator
import os
import struct
from array import array
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterator, Sequence, Union

import numpy as np

from .errors import (
    EForestError,
    FormatError,
    ParseError,
    ShapeError,
    UnknownCategoryError,
)


@dataclass(frozen=True)
class Numeric:
    """Marker for a real-valued attribute."""

    def __repr__(self) -> str:
        return "Numeric()"


@dataclass(frozen=True)
class Categorical:
    """Finite unordered value set; cells are stored as indexes into ``values``."""

    values: tuple[str, ...]

    def __post_init__(self):
        if not self.values:
            raise ValueError("categorical attribute needs at least one value")
        if len(set(self.values)) != len(self.values):
            raise ValueError("categorical values must be unique")

    @property
    def size(self) -> int:
        return len(self.values)


AttributeKind = Union[Numeric, Categorical]


@dataclass(frozen=True)
class Schema:
    """Ordered attribute names and kinds shared by datasets and models."""

    names: tuple[str, ...]
    kinds: tuple[AttributeKind, ...]

    def __post_init__(self):
        if len(self.names) != len(self.kinds):
            raise ValueError("names and kinds must have equal length")
        if not self.names:
            raise ValueError("schema needs at least one attribute")
        if len(set(self.names)) != len(self.names):
            raise ValueError("attribute names must be unique")

    @property
    def d(self) -> int:
        return len(self.names)

    @property
    def all_numeric(self) -> bool:
        return not self.category_sizes.any()

    @cached_property
    def category_sizes(self) -> np.ndarray:
        """Category count of every attribute, 0 for numeric ones (read-only)."""
        sizes = np.array([k.size if isinstance(k, Categorical) else 0 for k in self.kinds])
        sizes.flags.writeable = False
        return sizes

    @classmethod
    def numeric(cls, names: Sequence[str]) -> "Schema":
        return cls(tuple(names), tuple(Numeric() for _ in names))


def _frozen_copy(values, dtype) -> np.ndarray:
    """A read-only C-ordered copy of ``values``, made in one conversion."""
    out = np.array(values, dtype=dtype, order="C")
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class Bounds:
    """Per-attribute closed value range observed in a training set."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = _frozen_copy(self.lo, np.float64)
        hi = _frozen_copy(self.hi, np.float64)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("bounds must be two 1-d arrays of equal length")
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ValueError("bounds must be finite")
        if (lo > hi).any():
            raise ValueError("bounds lower ends must not exceed upper ends")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def d(self) -> int:
        return len(self.lo)


def compute_bounds(schema: Schema, X: np.ndarray) -> Bounds:
    """Observed min/max per numeric attribute (0 when ``X`` has no rows); full
    index range per categorical one."""
    sizes = schema.category_sizes
    if len(X):
        lo, hi = X.min(axis=0), X.max(axis=0)
    else:
        lo = hi = np.zeros(schema.d)
    cat = sizes > 0
    return Bounds(np.where(cat, 0.0, lo), np.where(cat, sizes - 1.0, hi))


class Dataset:
    """Immutable instance matrix with schema and optional integer labels."""

    __slots__ = ("schema", "X", "labels")

    def __init__(
        self,
        schema: Schema,
        X: np.ndarray,
        labels: np.ndarray | None = None,
    ):
        self._hold(schema, _frozen_copy(X, np.float64), labels)

    def _hold(self, schema: Schema, X: np.ndarray, labels) -> None:
        """Check and keep ``X``, a read-only float64 matrix this dataset owns."""
        if X.ndim != 2 or X.shape[1] != schema.d:
            raise ShapeError(
                f"instance matrix must be (n, {schema.d}), got {X.shape}"
            )
        self.schema = schema
        self.X = X
        if labels is not None:
            labels = np.asarray(labels)
            if labels.shape != (len(X),):
                raise ShapeError(f"labels must be ({len(X)},), got {labels.shape}")
            labels = integer_array(labels, np.int64, UnknownCategoryError, "labels")
            labels = _frozen_copy(labels, np.int64)
        self.labels = labels
        # min or max is NaN or infinite exactly when some cell is; unlike an
        # isfinite mask, they allocate nothing
        if X.size and not np.isfinite([X.min(), X.max()]).all():
            raise ShapeError("instance matrix contains non-finite values")
        sizes = schema.category_sizes
        cat = np.flatnonzero(sizes)
        cells = X[:, cat]
        bad = (cells != np.floor(cells)) | (cells < 0) | (cells >= sizes[cat])
        if bad.any():
            j = cat[bad.any(axis=0).argmax()]
            raise UnknownCategoryError(
                f"attribute {schema.names[j]} holds a value outside "
                f"its {sizes[j]} declared categories"
            )

    @property
    def n(self) -> int:
        return len(self.X)

    @property
    def d(self) -> int:
        return self.schema.d

    def take(self, rows: np.ndarray) -> "Dataset":
        """Row subset as a new dataset; ``rows`` indexes rows, and gathering
        them is the one copy of the matrix made."""
        rows = np.asarray(rows)
        X = self.X[rows]
        X.flags.writeable = False
        subset = Dataset.__new__(Dataset)
        subset._hold(self.schema, X, None if self.labels is None else self.labels[rows])
        return subset


def integer_array(values, dtype, error: type[EForestError], what: str) -> np.ndarray:
    """``values`` as a ``dtype`` array; refuses any dtype but integers, and values
    beyond ``dtype``, with ``error`` rather than casting them to other values.
    An empty input (``[]`` is float64) holds no value a cast could change."""
    arr = np.asarray(values)
    if arr.size and arr.dtype.kind not in "iu":
        raise error(f"{what} must be integers, got dtype {arr.dtype}")
    out = arr.astype(dtype, copy=False)
    if out is not arr and (out != arr).any():
        raise error(f"{what} beyond {out.dtype}")
    return out


# IDX container layout (big-endian):
#   offset 0: 2 zero bytes, 1 type byte (0x08 = unsigned byte), 1 dimension byte
#   offset 4: one 4-byte size per dimension
#   then:     raw item bytes in row-major order
_IDX_UBYTE = 0x08


def _read_idx(path: Path, expect_ndim: int) -> tuple[tuple[int, ...], np.ndarray]:
    try:
        blob = path.read_bytes()
    except OSError as exc:
        raise FormatError(f"cannot read idx file {path}: {exc}") from None
    if len(blob) < 4:
        raise FormatError(f"{path}: too short for an idx header")
    zero, dtype, ndim = struct.unpack(">HBB", blob[:4])
    if zero != 0 or dtype != _IDX_UBYTE:
        raise FormatError(f"{path}: bad idx magic {blob[:4].hex()}")
    if ndim != expect_ndim:
        raise FormatError(f"{path}: expected {expect_ndim} dimensions, file has {ndim}")
    header_len = 4 + 4 * ndim
    if len(blob) < header_len:
        raise FormatError(f"{path}: truncated dimension table")
    dims = struct.unpack(f">{ndim}I", blob[4:header_len])
    count = math.prod(dims)
    body = np.frombuffer(blob, dtype=np.uint8, offset=header_len)
    if len(body) != count:
        raise FormatError(
            f"{path}: dimension table promises {count} bytes, file has {len(body)}"
        )
    return dims, body


def load_idx(images_path, labels_path=None) -> Dataset:
    """Load an idx3-ubyte image file, optionally paired with idx1-ubyte labels.

    Pixels become numeric attributes named p0..p{d-1} in row-major order, with
    values in [0, 255].
    """
    images_path = Path(images_path)
    dims, raw = _read_idx(images_path, expect_ndim=3)
    n, h, w = dims
    d = h * w
    if n == 0:  # an empty body bounds neither h nor w
        raise FormatError(f"{images_path}: no images")
    if d == 0:
        raise FormatError(f"{images_path}: zero-sized images")
    X = raw.reshape(n, d)
    labels = None
    if labels_path is not None:
        labels_path = Path(labels_path)
        (ln,), lraw = _read_idx(labels_path, expect_ndim=1)
        if ln != n:
            raise ShapeError(
                f"{labels_path}: {ln} labels for {n} images"
            )
        labels = lraw
    schema = Schema.numeric([f"p{i}" for i in range(d)])
    return Dataset(schema, X, labels)


def parse_kind_spec(spec: str, width: int) -> tuple[AttributeKind, ...]:
    """Parse a compact attribute-kind string that declares ``width`` columns.

    Comma-separated entries; ``num`` is numeric, ``cat:A|B|C`` is categorical
    with those values, and a ``*k`` suffix repeats an entry k times
    (e.g. ``num*784`` or ``num*2,cat:YES|NO``). The entries must add up to
    ``width``, which is checked before any repeat is expanded.
    """
    runs: list[tuple[AttributeKind, int]] = []
    for entry in spec.split(","):
        entry = entry.strip()
        if not entry:
            raise FormatError("empty entry in attribute kind spec")
        repeat = 1
        if "*" in entry:
            entry, _, count = entry.rpartition("*")
            try:
                repeat = int(count)
            except ValueError:
                raise FormatError(f"bad repeat count {count!r} in kind spec") from None
            if repeat < 1:
                raise FormatError("repeat count must be >= 1")
        if entry == "num":
            kind: AttributeKind = Numeric()
        elif entry.startswith("cat:"):
            values = tuple(v for v in entry[4:].split("|") if v)
            if not values:
                raise FormatError(f"categorical entry {entry!r} has no values")
            try:
                kind = Categorical(values)
            except ValueError as exc:
                raise FormatError(f"categorical entry {entry!r}: {exc}") from None
        else:
            raise FormatError(f"unknown attribute kind {entry!r}")
        runs.append((kind, repeat))
    total = sum(repeat for _, repeat in runs)
    if total != width:
        raise FormatError(f"kind spec declares {total} columns, the data has {width}")
    kinds: list[AttributeKind] = []
    for kind, repeat in runs:
        kinds += [kind] * repeat
    return tuple(kinds)


def _csv_rows(path: Path) -> Iterator[list[str]]:
    """The rows of a CSV file, read as they are consumed; a read error is a FormatError."""
    try:
        with path.open(newline="") as fh:
            yield from csv.reader(fh)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise FormatError(f"cannot read csv file {path}: {exc}") from None


_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1


def _parse_row(path, row, i, data_cols, cat_index, label_idx) -> tuple[list[float], int]:
    """One row's values and label, cell by cell: the error names the first bad cell."""
    values = []
    for a, c in enumerate(data_cols):
        cell = row[c].strip()
        lookup = cat_index[a]
        if lookup is None:
            try:
                value = float(cell)
            except ValueError:
                raise ParseError(f"{path}: bad numeric cell {cell!r}", i, c) from None
            if not math.isfinite(value):
                raise ParseError(f"{path}: non-finite cell {cell!r}", i, c)
        else:
            if cell not in lookup:
                raise UnknownCategoryError(
                    f"{path}: row {i} col {c}: unknown category {cell!r}"
                )
            value = lookup[cell]
        values.append(value)
    label = 0
    if label_idx is not None:
        cell = row[label_idx].strip()
        try:
            label = int(cell)
        except ValueError:
            raise ParseError(f"{path}: bad label {cell!r}", i, label_idx) from None
        if not _INT64_MIN <= label <= _INT64_MAX:
            raise ParseError(
                f"{path}: label {cell!r} does not fit in 64 bits", i, label_idx
            )
    return values, label


def load_csv(
    path,
    kinds: Sequence[AttributeKind] | str | None = None,
    label_column: int | str | None = None,
    has_header: bool = False,
) -> Dataset:
    """Load a CSV file against a declared attribute kind list.

    ``kinds`` covers the data columns in file order, excluding the label
    column if one is named. A string is a ``parse_kind_spec`` spec, which
    must declare as many columns as the first row has data columns; ``None``
    makes every data column of the first row numeric. ``label_column`` may be
    a column index, or a header name when ``has_header`` is true.

    Rows are parsed as they are read. A row that fails to parse is parsed
    again cell by cell, so the error names the first bad cell of the first
    bad row.
    """
    path = Path(path)
    with contextlib.closing(_csv_rows(path)) as rows:
        first = next(rows, None)
        if kinds is None or isinstance(kinds, str):
            ncols = max(len(first) - (label_column is not None), 0) if first else 0
            kinds = (Numeric(),) * ncols if kinds is None else parse_kind_spec(kinds, ncols)
        kinds = tuple(kinds)
        if not kinds:
            raise FormatError(f"{path}: no data columns")
        header: list[str] | None = None
        if has_header:
            if first is None:
                raise FormatError(f"{path}: missing header row")
            header = first
        elif first is not None:
            rows = itertools.chain((first,), rows)
        label_idx: int | None = None
        if label_column is not None:
            if isinstance(label_column, str):
                if header is None:
                    raise FormatError("label column by name requires a header")
                try:
                    label_idx = header.index(label_column)
                except ValueError:
                    raise FormatError(
                        f"{path}: no column named {label_column!r}"
                    ) from None
            else:
                label_idx = int(label_column)
        width = len(kinds) + (1 if label_idx is not None else 0)
        if label_idx is not None and not 0 <= label_idx < width:
            raise FormatError(f"label column {label_idx} out of range for width {width}")
        data_cols = [c for c in range(width) if c != label_idx]
        if header is not None:
            if len(header) != width:
                raise FormatError(
                    f"{path}: header has {len(header)} fields, expected {width}"
                )
            names = tuple(header[c] for c in data_cols)
            if len(set(names)) != len(names):
                names = tuple(f"c{c}" for c in data_cols)
        else:
            names = tuple(f"c{c}" for c in data_cols)
        schema = Schema(names, kinds)

        cat_index = [
            {v: i for i, v in enumerate(k.values)} if isinstance(k, Categorical) else None
            for k in kinds
        ]
        # float for a numeric cell, the value's index for a categorical one
        convert = [float if lookup is None else lookup.__getitem__ for lookup in cat_index]
        X = array("d")
        labels = array("q")
        for i, row in enumerate(rows):
            if len(row) != width:
                raise FormatError(
                    f"{path}: row {i} has {len(row)} fields, expected {width}"
                )
            cells = row if label_idx is None else row[:label_idx] + row[label_idx + 1:]
            try:
                values = list(map(operator.call, convert, cells))
                label = 0 if label_idx is None else int(row[label_idx])
                parsed = math.isfinite(sum(values)) and _INT64_MIN <= label <= _INT64_MAX
            except (ValueError, KeyError):
                parsed = False
            if not parsed:
                # raises at the first bad cell; returns when no cell is bad but a
                # categorical cell has surrounding spaces or the sum overflowed
                values, label = _parse_row(path, row, i, data_cols, cat_index, label_idx)
            X.extend(values)
            labels.append(label)
    return Dataset(
        schema,
        np.frombuffer(X, dtype=np.float64).reshape(-1, schema.d),
        np.frombuffer(labels, dtype=np.int64) if label_idx is not None else None,
    )


def atomic_write_bytes(path: Path, blob: bytes) -> None:
    """Write a file through a temporary sibling; an OSError becomes a FormatError.

    The file is created with mode 0o666, so the process umask decides its mode.
    """
    path = Path(path)
    tmp = path.parent / f".{path.name}.{os.urandom(8).hex()}"
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(blob)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise FormatError(f"cannot write {path}: {exc}") from exc


def save_csv(dataset: Dataset, path, header: bool = True, label_name: str | None = None) -> None:
    """Write a dataset as CSV; categorical cells use value names, floats use repr.

    With ``label_name`` and labels present, labels are appended as a final
    column under that name. The output reloads exactly with load_csv.
    """
    path = Path(path)
    schema = dataset.schema
    with_labels = label_name is not None and dataset.labels is not None
    lines = []
    if header:
        cols = list(schema.names) + ([label_name] if with_labels else [])
        lines.append(",".join(cols))
    # repr for a numeric cell, the value's name for a categorical one
    cell_text = [
        (lambda v, names=kind.values: names[int(v)]) if isinstance(kind, Categorical) else repr
        for kind in schema.kinds
    ]
    for i in range(dataset.n):
        cells = list(map(operator.call, cell_text, dataset.X[i].tolist()))
        if with_labels:
            cells.append(str(int(dataset.labels[i])))
        lines.append(",".join(cells))
    atomic_write_bytes(path, ("\n".join(lines) + "\n").encode("utf-8"))
