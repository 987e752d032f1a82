"""Schema, dataset, and loader behavior: validation, error paths, and exact
round-trips through the IDX and CSV formats."""

import csv
import math
import struct
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eforest import cli, data
from eforest.data import (
    Bounds,
    Categorical,
    Dataset,
    Numeric,
    Schema,
    compute_bounds,
    load_csv,
    load_idx,
    parse_kind_spec,
    save_csv,
)
from eforest.errors import EForestError, FormatError, ParseError

from synthdata import csv_bytes, mnist_like, write_idx_images, write_idx_labels


def mixed_schema() -> Schema:
    return Schema(
        ("height", "color", "weight"),
        (Numeric(), Categorical(("red", "green", "blue")), Numeric()),
    )


class TestKinds:
    def test_categorical_size(self):
        assert Categorical(("a", "b", "c")).size == 3

    def test_categorical_rejects_empty(self):
        with pytest.raises(ValueError):
            Categorical(())

    def test_categorical_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Categorical(("a", "a"))


class TestSchema:
    def test_properties(self):
        s = mixed_schema()
        assert s.d == 3
        assert not s.all_numeric
        assert s.category_sizes.tolist() == [0, 3, 0]

    def test_numeric_constructor(self):
        s = Schema.numeric(["a", "b"])
        assert s.all_numeric and s.d == 2

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            Schema(("a",), (Numeric(), Numeric()))

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError):
            Schema(("a", "a"), (Numeric(), Numeric()))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Schema((), ())


class TestBounds:
    def test_basic(self):
        b = Bounds(np.array([0.0, 1.0]), np.array([2.0, 1.0]))
        assert b.d == 2
        assert not b.lo.flags.writeable

    def test_rejects_inverted(self):
        with pytest.raises(ValueError):
            Bounds(np.array([2.0]), np.array([1.0]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Bounds(np.array([np.inf]), np.array([np.inf]))

    def test_compute_bounds_mixed(self):
        s = mixed_schema()
        X = np.array([[1.0, 0, 5.0], [3.0, 2, -1.0]])
        b = compute_bounds(s, X)
        assert b.lo.tolist() == [1.0, 0.0, -1.0]
        # categorical bounds span the declared values, not the observed ones
        assert b.hi.tolist() == [3.0, 2.0, 5.0]

    def test_compute_bounds_empty_numeric(self):
        b = compute_bounds(Schema.numeric(["a"]), np.empty((0, 1)))
        assert b.lo.tolist() == [0.0] and b.hi.tolist() == [0.0]

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_compute_bounds_equals_per_column_oracle(self, data):
        schema, X = data.draw(_mixed_rows(min_n=0))
        b = compute_bounds(schema, X)
        lo, hi = [], []
        for j, kind in enumerate(schema.kinds):
            if isinstance(kind, Categorical):
                lo.append(0.0)
                hi.append(float(kind.size - 1))
            elif len(X):
                lo.append(X[:, j].min())
                hi.append(X[:, j].max())
            else:
                lo.append(0.0)
                hi.append(0.0)
        assert b.lo.tolist() == lo and b.hi.tolist() == hi


class TestDataset:
    def test_matrix_is_float64_and_frozen(self):
        ds = Dataset(Schema.numeric(["a"]), np.array([[1], [2]], dtype=np.int32))
        assert ds.X.dtype == np.float64
        with pytest.raises(ValueError):
            ds.X[0, 0] = 9.0

    def test_cells_that_are_not_numbers(self):
        with pytest.raises(FormatError, match="^instance matrix must hold numbers: could not "
                           "convert string to float: 'a'$"):
            Dataset(Schema.numeric(["a", "b"]), [["a", "b"]])

    def test_shape_checks(self):
        with pytest.raises(FormatError, match=r"instance matrix must be \(n, 2\), got \(3, 1\)"):
            Dataset(Schema.numeric(["a", "b"]), np.zeros((3, 1)))
        with pytest.raises(FormatError, match=r"labels must be \(2,\), got \(3,\)"):
            Dataset(Schema.numeric(["a"]), np.zeros((2, 1)), labels=np.zeros(3))

    def test_rejects_non_finite(self):
        for bad in (np.nan, np.inf, -np.inf):
            X = np.zeros((3, 2))
            X[1, 1] = bad
            with pytest.raises(FormatError, match="instance matrix contains non-finite values"):
                Dataset(Schema.numeric(["a", "b"]), X)

    def test_rejects_out_of_range_category(self):
        s = mixed_schema()
        with pytest.raises(FormatError,
                           match="attribute color holds a value outside its 3 declared categories"):
            Dataset(s, np.array([[1.0, 3.0, 1.0]]))
        with pytest.raises(FormatError,
                           match="attribute color holds a value outside its 3 declared categories"):
            Dataset(s, np.array([[1.0, 0.5, 1.0]]))

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_refuses_exactly_the_cells_a_per_cell_oracle_refuses(self, data):
        schema, X = data.draw(_mixed_rows(min_n=0, any_cells=True))
        expected = None
        for j, kind in enumerate(schema.kinds):
            if isinstance(kind, Categorical) and any(
                v != math.floor(v) or not 0 <= v < kind.size for v in X[:, j].tolist()
            ):
                expected = (
                    f"attribute {schema.names[j]} holds a value outside "
                    f"its {kind.size} declared categories"
                )
                break
        if expected is None:
            assert Dataset(schema, X).X.tolist() == X.tolist()
        else:
            with pytest.raises(FormatError, match="declared categories") as info:
                Dataset(schema, X)
            assert str(info.value) == expected

    @pytest.mark.parametrize(
        "labels",
        [
            [0.5, 1.7],
            np.array([0.0, 1.0]),
            [True, False],
            np.array([2**63, 0], dtype=np.uint64),
            [2**64, 0],
            ["0", "1"],
        ],
        ids=["fractional", "integral-floats", "bools", "beyond-int64", "python-beyond-int64",
             "strings"],
    )
    def test_refuses_labels_a_cast_would_change(self, labels):
        with pytest.raises(FormatError, match="^labels (must be integers, got dtype|beyond int64)"):
            Dataset(Schema.numeric(["a"]), np.zeros((2, 1)), labels=labels)

    def test_keeps_integer_labels(self):
        X = np.zeros((2, 1))
        for labels in ([3, 0], np.array([3, 0], dtype=np.uint8), np.array([3, 0], dtype=np.uint64)):
            ds = Dataset(Schema.numeric(["a"]), X, labels=labels)
            assert ds.labels.dtype == np.int64 and ds.labels.tolist() == [3, 0]

    def test_take_subsets_rows_and_labels(self):
        ds = Dataset(
            Schema.numeric(["a"]),
            np.array([[1.0], [2.0], [3.0]]),
            labels=np.array([10, 20, 30]),
        )
        sub = ds.take(np.array([2, 0]))
        assert sub.X.tolist() == [[3.0], [1.0]]
        assert sub.labels.tolist() == [30, 10]
        assert not sub.X.flags.writeable and not sub.labels.flags.writeable

    def test_take_copies_the_rows_once(self):
        ds = mnist_like(2000)
        tracemalloc.start()
        try:
            sub = ds.take(np.arange(1000))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sub.X.shape == (1000, ds.d) and not sub.X.flags.writeable
        assert peak <= 1.25 * (sub.X.nbytes + sub.labels.nbytes)

    def test_take_still_checks_the_rows(self):
        ds = Dataset(Schema.numeric(["a"]), np.zeros((3, 1)))
        with pytest.raises(FormatError, match=r"instance matrix must be \(n, 1\), got \(1,\)"):
            ds.take(np.asarray(1))


class TestIdx:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        imgs = rng.integers(0, 256, (5, 4, 3)).astype(np.uint8)
        labels = np.array([0, 1, 2, 3, 9], dtype=np.uint8)
        ip = tmp_path / "imgs.idx3-ubyte"
        lp = tmp_path / "labels.idx1-ubyte"
        write_idx_images(ip, imgs)
        write_idx_labels(lp, labels)
        ds = load_idx(ip, lp)
        assert ds.n == 5 and ds.d == 12
        assert ds.X.tolist() == imgs.reshape(5, 12).astype(float).tolist()
        assert ds.labels.tolist() == labels.tolist()
        assert ds.schema.names[0] == "p0" and ds.schema.names[-1] == "p11"

    def test_load_peaks_at_the_file_and_one_float_matrix(self, tmp_path):
        # the pixels are converted to float64 once, straight from the file bytes
        n, side = 2000, 28
        ip = tmp_path / "imgs"
        write_idx_images(ip, np.zeros((n, side, side), dtype=np.uint8))
        file_bytes = ip.stat().st_size
        tracemalloc.start()
        try:
            ds = load_idx(ip)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ds.X.shape == (n, side * side)
        assert peak < file_bytes + 1.5 * ds.X.nbytes

    def test_images_without_labels(self, tmp_path):
        ip = tmp_path / "imgs"
        write_idx_images(ip, np.zeros((2, 2, 2), dtype=np.uint8))
        assert load_idx(ip).labels is None

    def test_label_count_mismatch(self, tmp_path):
        ip, lp = tmp_path / "i", tmp_path / "l"
        write_idx_images(ip, np.zeros((3, 2, 2), dtype=np.uint8))
        write_idx_labels(lp, np.zeros(4, dtype=np.uint8))
        with pytest.raises(FormatError, match="4 labels for 3 images"):
            load_idx(ip, lp)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad"
        p.write_bytes(b"\x00\x01\x08\x03" + b"\x00" * 12)
        with pytest.raises(FormatError):
            load_idx(p)

    def test_wrong_ndim(self, tmp_path):
        p = tmp_path / "bad"
        p.write_bytes(struct.pack(">HBB", 0, 8, 2) + struct.pack(">2I", 1, 1) + b"\x00")
        with pytest.raises(FormatError):
            load_idx(p)

    def test_truncated_body(self, tmp_path):
        p = tmp_path / "bad"
        p.write_bytes(struct.pack(">HBB", 0, 8, 3) + struct.pack(">3I", 2, 2, 2) + b"\x00" * 7)
        with pytest.raises(FormatError):
            load_idx(p)

    def test_truncated_header(self, tmp_path):
        p = tmp_path / "bad"
        p.write_bytes(b"\x00\x00")
        with pytest.raises(FormatError):
            load_idx(p)

    @pytest.mark.parametrize(
        "dims",
        [(2**31, 2**31, 4), (0, 2**32 - 1, 2**32 - 1)],
        ids=["count-wraps-int64", "no-images"],
    )
    def test_dimension_table_without_a_body(self, tmp_path, capsys, dims):
        # n*h*w is 2**64 (zero in int64), or zero images leave h*w unbounded
        p = tmp_path / "bad.idx"
        p.write_bytes(struct.pack(">HBB", 0, 8, 3) + struct.pack(">3I", *dims))
        with pytest.raises(FormatError):
            load_idx(p)
        argv = ["train", "--data", str(p), "--mode", "unsup", "--trees", "1",
                "--out", str(tmp_path / "m.json")]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err.startswith("error:")

    @given(
        damaged=st.sampled_from(["images", "labels"]),
        cut=st.integers(0, 40),
        extra=st.binary(max_size=8),
        flips=st.lists(st.tuples(st.integers(0, 200), st.integers(0, 255)), max_size=3),
        mode=st.sampled_from(["sup", "unsup"]),
    )
    @example(damaged="images", cut=0, extra=b"", flips=[(7, 5)], mode="sup")  # n=6 becomes 5
    @example(damaged="images", cut=0, extra=b"", flips=[(11, 1)], mode="unsup")  # h=3 becomes 1
    @example(damaged="labels", cut=0, extra=b"", flips=[(3, 3)], mode="sup")  # 1 dimension becomes 3
    @example(damaged="labels", cut=0, extra=b"\x07", flips=[(7, 7)], mode="sup")  # 7 labels, 6 images
    @settings(max_examples=120, deadline=None)
    def test_damaged_files_load_or_raise_typed_errors(self, damaged, cut, extra, flips, mode):
        # truncate (cut bytes off the end), extend, then overwrite bytes of
        # one file of a valid image/label pair; loading it and training on it
        # through the CLI either work or fail with a typed error, exit 1
        rng = np.random.default_rng(1)
        with tempfile.TemporaryDirectory() as tmp:
            ip, lp = Path(tmp) / "images.idx", Path(tmp) / "labels.idx"
            write_idx_images(ip, rng.integers(0, 256, (6, 3, 2)))
            write_idx_labels(lp, rng.integers(0, 3, 6))
            path = ip if damaged == "images" else lp
            blob = bytearray(path.read_bytes())
            blob = blob[: len(blob) - min(cut, len(blob))] + extra
            for pos, value in flips:
                if blob:
                    blob[pos % len(blob)] = value
            path.write_bytes(bytes(blob))
            try:
                ds = load_idx(ip, lp)
            except EForestError:
                loaded = False
            else:
                loaded = True
                n, h, w = struct.unpack(">3I", ip.read_bytes()[4:16])
                assert ds.X.shape == (n, h * w) and len(ds.labels) == n
                assert ((ds.X >= 0) & (ds.X <= 255)).all()
            argv = ["train", "--data", str(ip), "--labels", str(lp), "--format", "idx",
                    "--mode", mode, "--trees", "2", "--out", str(Path(tmp) / "m.json")]
            assert cli.main(argv) == (0 if loaded else 1)


class TestKindSpec:
    def test_basic(self):
        kinds = parse_kind_spec("num,cat:YES|NO,num", 3)
        assert kinds == (Numeric(), Categorical(("YES", "NO")), Numeric())

    def test_repeat(self):
        kinds = parse_kind_spec("num*3,cat:A|B*2", 5)
        assert kinds == (Numeric(),) * 3 + (Categorical(("A", "B")),) * 2

    def test_value_names_are_stripped(self, tmp_path):
        assert parse_kind_spec("cat:red| blue ,num", 2) == (Categorical(("red", "blue")), Numeric())
        path = tmp_path / "t.csv"
        path.write_text("blue,1\nred,2\n")
        assert load_csv(path, "cat:red| blue,num").X.tolist() == [[1.0, 1.0], [0.0, 2.0]]

    def test_names_that_collide_once_stripped_are_refused(self):
        with pytest.raises(FormatError, match="unique"):
            parse_kind_spec("cat:red|red ,num", 2)

    @pytest.mark.parametrize("spec", ["", "num,,num", "float", "cat:", "num*0", "num*x"])
    def test_rejects_malformed(self, spec):
        with pytest.raises(FormatError):
            parse_kind_spec(spec, 2)

    @pytest.mark.parametrize("spec", ["num", "num*3", "num,cat:A|B*2", "num*99999999999999"])
    def test_total_must_match_width(self, spec):
        # checked before the repeats are expanded, so a huge count allocates nothing
        with pytest.raises(FormatError, match="declares"):
            parse_kind_spec(spec, 2)


class TestCsv:
    def test_round_trip_mixed(self, tmp_path):
        schema = mixed_schema()
        ds = Dataset(
            schema,
            np.array([[1.5, 0.0, -2.25], [3.0, 2.0, 0.125]]),
            labels=np.array([1, 0]),
        )
        p = tmp_path / "data.csv"
        save_csv(ds, p, header=True, label_name="label")
        back = load_csv(p, schema.kinds, label_column="label", has_header=True)
        assert back.X.tolist() == ds.X.tolist()
        assert back.labels.tolist() == [1, 0]
        assert back.schema.names == schema.names

    def test_load_without_header_names_columns(self, tmp_path):
        p = tmp_path / "plain.csv"
        p.write_text("1.0,red\n2.0,blue\n")
        ds = load_csv(p, (Numeric(), Categorical(("red", "green", "blue"))))
        assert ds.schema.names == ("c0", "c1")
        assert ds.X.tolist() == [[1.0, 0.0], [2.0, 2.0]]
        assert ds.labels is None

    def test_label_by_index(self, tmp_path):
        p = tmp_path / "lab.csv"
        p.write_text("7,1.0\n8,2.0\n")
        ds = load_csv(p, (Numeric(),), label_column=0)
        assert ds.labels.tolist() == [7, 8]
        assert ds.X.tolist() == [[1.0], [2.0]]

    def test_bad_numeric_cell_reports_position(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1.0\nx\n")
        with pytest.raises(ParseError) as err:
            load_csv(p, (Numeric(),))
        assert err.value.row == 1 and err.value.col == 0

    def test_non_finite_cell_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("inf\n")
        with pytest.raises(ParseError):
            load_csv(p, (Numeric(),))

    def test_unknown_category(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("purple\n")
        with pytest.raises(FormatError, match="row 0 col 0: unknown category 'purple'"):
            load_csv(p, (Categorical(("red", "blue")),))

    def test_ragged_row_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(FormatError):
            load_csv(p, (Numeric(), Numeric()))

    def test_bad_label_cell(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1.0,notint\n")
        with pytest.raises(ParseError):
            load_csv(p, (Numeric(),), label_column=1)

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(FormatError):
            load_csv(tmp_path / "absent.csv", (Numeric(),))
        p = tmp_path / "binary.csv"
        p.write_bytes(b"\xff\xfe1.0\n")
        with pytest.raises(FormatError):
            load_csv(p, (Numeric(),))

    def test_label_name_requires_header(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("1.0,0\n")
        with pytest.raises(FormatError):
            load_csv(p, (Numeric(),), label_column="y")

    def test_missing_label_name(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("a,b\n1.0,0\n")
        with pytest.raises(FormatError):
            load_csv(p, (Numeric(),), label_column="nope", has_header=True)

    def test_label_index_out_of_range(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("1.0,0\n")
        with pytest.raises(FormatError):
            load_csv(p, (Numeric(),), label_column=5)

    def test_float_values_survive_exactly(self, tmp_path):
        # repr round-trips doubles bit for bit
        vals = [0.1, 1 / 3, 2**-40, 1e300, -0.0]
        ds = Dataset(Schema.numeric(["v"]), np.array(vals).reshape(-1, 1))
        p = tmp_path / "f.csv"
        save_csv(ds, p, header=False)
        back = load_csv(p, ds.schema.kinds)
        assert back.X.tobytes() == ds.X.tobytes()

    @given(
        cut=st.integers(0, 60),
        extra=st.binary(max_size=8) | st.sampled_from([b"\n", b"1,red,2,0\n", b",", b"\r\n\n"]),
        flips=st.lists(st.tuples(st.integers(0, 400), st.integers(0, 255)
                                 | st.sampled_from(b',\n\r" .-e0')), max_size=3),
        mode=st.sampled_from(["sup", "unsup"]),
    )
    @example(cut=0, extra=b"", flips=[(7, ord("\n"))], mode="sup")  # header splits in two
    @example(cut=0, extra=b"1,red,2\n", flips=[], mode="unsup")  # a row without its label
    @example(cut=0, extra=b"1,mauve,2,0\n", flips=[], mode="sup")  # unknown category
    @example(cut=0, extra=b"", flips=[(200, ord("e"))], mode="sup")  # a cell reads 73.2840e13037621
    @settings(max_examples=60, deadline=None)
    def test_damaged_files_train_and_encode_or_fail_typed(self, cut, extra, flips, mode):
        # truncate, extend, then overwrite bytes of a valid labelled CSV file;
        # training on it and encoding it through the CLI either work or fail
        # with a typed error, exit 1
        rng = np.random.default_rng(2)
        ds = Dataset(mixed_schema(), np.column_stack(
            [rng.normal(170, 10, 12).round(1), rng.integers(0, 3, 12), rng.normal(70, 8, 12)]),
            labels=rng.integers(0, 3, 12))
        flags = ["--format", "csv", "--csv-header", "--label-column", "label",
                 "--csv-kinds", "num,cat:red|green|blue,num"]
        with tempfile.TemporaryDirectory() as tmp:
            good, bad = Path(tmp) / "good.csv", Path(tmp) / "bad.csv"
            save_csv(ds, good, header=True, label_name="label")
            blob = bytearray(good.read_bytes())
            blob = blob[: len(blob) - min(cut, len(blob))] + extra
            for pos, value in flips:
                if blob:
                    blob[pos % len(blob)] = value
            bad.write_bytes(bytes(blob))
            models = {}
            for name, path in (("good", good), ("bad", bad)):
                models[name] = Path(tmp) / f"{name}.json"
                argv = ["train", "--data", str(path), *flags, "--mode", mode,
                        "--trees", "2", "--out", str(models[name])]
                code = cli.main(argv)
                assert code == 0 if name == "good" else code in (0, 1)
            for name, model in models.items():
                if model.exists():
                    argv = ["encode", "--data", str(bad), *flags, "--model", str(model),
                            "--out", str(Path(tmp) / f"{name}.enc")]
                    code = cli.main(argv)
                    # a file that trained a model encodes under it
                    assert code == 0 if name == "bad" else code in (0, 1)


# Reference implementation: the cell-by-cell reader that load_csv must match
# error for error (the writer's reference is synthdata.csv_bytes).


@st.composite
def _mixed_rows(draw, min_n=0, any_cells=False):
    """A random mixed schema and a matrix over it; with ``any_cells`` a
    categorical cell may also be fractional, negative or past its last index."""
    kinds = draw(st.lists(
        st.one_of(st.just(Numeric()), st.integers(1, 4).map(
            lambda m: Categorical(tuple(f"v{i}" for i in range(m))))),
        min_size=1, max_size=6,
    ))
    schema = Schema(tuple(f"a{j}" for j in range(len(kinds))), tuple(kinds))
    n = draw(st.integers(min_n, 8))
    numbers = st.floats(-1e6, 1e6, allow_nan=False)
    cols = []
    for kind in kinds:
        if isinstance(kind, Numeric):
            cell = numbers
        elif any_cells:
            cell = st.one_of(st.integers(-1, kind.size).map(float), numbers,
                             st.sampled_from([0.5, kind.size - 0.5, -0.0]))
        else:
            cell = st.integers(0, kind.size - 1).map(float)
        cols.append(draw(st.lists(cell, min_size=n, max_size=n)))
    return schema, np.array(cols, dtype=np.float64).T.reshape(n, len(kinds))


def _load_csv_by_cells(path, kinds, label_idx=None, has_header=False):
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise FormatError(f"cannot read csv file {path}: {exc}") from None
    if has_header:
        rows = rows[1:]
    width = len(kinds) + (label_idx is not None)
    data_cols = [c for c in range(width) if c != label_idx]
    X = np.zeros((len(rows), len(kinds)))
    labels = np.zeros(len(rows), dtype=np.int64)
    for i, row in enumerate(rows):
        if len(row) != width:
            raise FormatError(f"{path}: row {i} has {len(row)} fields, expected {width}")
        for a, c in enumerate(data_cols):
            cell = row[c].strip()
            if isinstance(kinds[a], Categorical):
                if cell not in kinds[a].values:
                    raise FormatError(
                        f"{path}: row {i} col {c}: unknown category {cell!r}"
                    )
                X[i, a] = kinds[a].values.index(cell)
            else:
                try:
                    value = float(cell)
                except ValueError:
                    raise ParseError(f"{path}: bad numeric cell {cell!r}", i, c) from None
                if not math.isfinite(value):
                    raise ParseError(f"{path}: non-finite cell {cell!r}", i, c)
                X[i, a] = value
        if label_idx is not None:
            cell = row[label_idx].strip()
            try:
                label = int(cell)
            except ValueError:
                raise ParseError(f"{path}: bad label {cell!r}", i, label_idx) from None
            if not -(2**63) <= label < 2**63:
                raise ParseError(f"{path}: label {cell!r} does not fit in 64 bits", i, label_idx)
            labels[i] = label
    return X, (labels if label_idx is not None else None)


COLORS = Categorical(("red", "green", "blue"))
SPECIAL_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1e16, 2.0**53 + 2, 0.1,
                  1e-5, 1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308, 1 / 3]
# names with spaces around them, as `cat:a| a|b ` gives: the cell reader strips
# a cell, so the cell " a" is the value "a" and no cell is the value "b "
PADDED = Categorical(("a", " a", "b "))
_kinds = st.lists(st.sampled_from([Numeric(), COLORS]), min_size=1, max_size=5).map(tuple)
_raw_floats = st.integers(0, 2**64 - 1).map(
    lambda bits: float(np.uint64(bits).view(np.float64))).filter(math.isfinite)
_floats = (st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(SPECIAL_FLOATS)
           | _raw_floats)
_labels = st.sampled_from([-(2**63), 2**63 - 1]) | st.integers(-(2**63), 2**63 - 1)


@st.composite
def _datasets(draw):
    kinds = draw(_kinds)
    n = draw(st.integers(0, 8))
    X = np.array(
        [[draw(st.integers(0, 2)) if isinstance(k, Categorical) else draw(_floats)
          for k in kinds] for _ in range(n)],
        dtype=np.float64,
    ).reshape(n, len(kinds))
    labels = draw(st.none() | st.lists(_labels, min_size=n, max_size=n))
    schema = Schema(tuple(f"a{j}" for j in range(len(kinds))), kinds)
    return Dataset(schema, X, labels)


_PADS = st.sampled_from(["", " ", "\t", "\x0b", "\x1f", " \u00a0"])
# one bad cell (or row) per kind of defect, by the column it lands in
_BAD_NUMBERS = st.sampled_from(["x1", "inf", "-inf", "nan", "1e999", "", "1.0.0", "0x10", "#1",
                                '"1,5"'])
_BAD_CATEGORIES = st.sampled_from(["purple", "RED", "", "0"])
_BAD_LABELS = st.sampled_from(["1.5", "abc", "", "99999999999999999999", "-9223372036854775809",
                               "0" * 4400 + "1"])


@st.composite
def _csv_files(draw):
    """(kinds, label index, has_header, file text) for a valid file or one
    with a single defect or oddity, with either line ending."""
    kinds = draw(st.lists(st.sampled_from([Numeric(), COLORS, PADDED]), min_size=1,
                          max_size=5).map(tuple))
    label_idx = draw(st.none() | st.integers(0, len(kinds)))
    width = len(kinds) + (label_idx is not None)
    data_kind = iter(kinds)
    column_kinds = ["label" if c == label_idx else next(data_kind) for c in range(width)]

    def cell(kind):
        if kind == "label":
            text = str(draw(st.integers(-(2**63), 2**63 - 1)))
        elif isinstance(kind, Categorical):
            text = draw(st.sampled_from(kind.values))
        else:
            text = repr(draw(_floats))
        return draw(_PADS) + text + draw(_PADS)

    rows = [[cell(k) for k in column_kinds] for _ in range(draw(st.integers(0, 6)))]
    defect = draw(st.sampled_from(["none", "cell", "short-row", "long-row", "quoted-cell",
                                   "underscore", "blank-line", "space-line"]))
    if rows and defect != "none":
        r = draw(st.integers(0, len(rows) - 1))
        c = draw(st.integers(0, width - 1))
        kind = column_kinds[c]
        if defect == "short-row":
            rows[r].pop(c)
        elif defect == "long-row":
            rows[r].append("1")
        elif defect == "quoted-cell":  # read as the cell within the quotes
            rows[r][c] = f'"{rows[r][c]}"'
        elif defect == "underscore":  # float and int read 1_0 as 10
            rows[r][c] = rows[r][c] if isinstance(kind, Categorical) else "1_0"
        elif defect.endswith("-line"):
            rows.insert(r, [] if defect == "blank-line" else [draw(_PADS) or " "])
        else:
            bad = (_BAD_LABELS if kind == "label"
                   else _BAD_CATEGORIES if isinstance(kind, Categorical) else _BAD_NUMBERS)
            rows[r][c] = draw(bad)
    has_header = draw(st.booleans())
    if has_header:
        rows.insert(0, [f"h{c}" for c in range(width)])
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    text = eol.join(map(",".join, rows))
    if rows and draw(st.booleans()):  # else the last line has no line ending
        text += eol
    return kinds, label_idx, has_header, text


def _outcome(read):
    """What a read returns, or the class and message of the error it raises."""
    try:
        X, labels = read()
    except EForestError as exc:
        return type(exc), str(exc)
    return X.shape, X.tobytes(), None if labels is None else labels.tolist()


class TestCsvAgainstReference:
    @given(ds=_datasets(), header=st.booleans(), label_name=st.none() | st.just("label"),
           block=st.integers(1, 4) | st.just(data._CSV_BLOCK_ROWS))
    @settings(max_examples=200, deadline=None)
    @example(ds=Dataset(Schema.numeric(["a"]), np.zeros((0, 1))), header=False,
             label_name=None, block=1)
    def test_save_csv_bytes_equal_cell_writer(self, tmp_path_factory, ds, header, label_name,
                                              block):
        # blocks of 1-4 rows split most datasets
        p = tmp_path_factory.mktemp("save") / "out.csv"
        with mock.patch.object(data, "_CSV_BLOCK_ROWS", block):
            save_csv(ds, p, header=header, label_name=label_name)
        assert p.read_bytes() == csv_bytes(ds, header=header, label_name=label_name)

    @given(case=_csv_files())
    @settings(max_examples=300, deadline=None)
    @example(case=((Numeric(), Numeric()), None, False, "1e308,1e308\n"))  # sum overflows
    @example(case=((COLORS,), 1, False, " red ,7\nblue,99999999999999999999\n"))
    @example(case=((Numeric(),), None, False, "1\n\n2\n"))  # blank line
    @example(case=((Numeric(),), None, False, "\n"))
    @example(case=((Numeric(),), None, False, "1\n \t\n2\n"))  # whitespace-only line
    @example(case=((Numeric(),), None, False, "1\r2\n"))
    @example(case=((Numeric(), Numeric()), None, False, "1,2\r\n3,4\r\n"))
    @example(case=((Numeric(), Numeric()), 2, False, "1,2,3\n4,5,6"))  # no final newline
    @example(case=((Numeric(), Numeric()), None, False, '1,"2.5"\n3,4\n'))  # quoted cell
    @example(case=((Categorical(('"a"', "b")),), None, False, '"a"\n'))  # read as a
    @example(case=((Numeric(),), 1, False, "1_0,1_0\n"))
    @example(case=((Numeric(), Numeric()), None, False, "1,2\n#3,4\n"))  # no comments
    @example(case=((COLORS, Numeric()), None, False, "red,1\n blue ,2\n"))
    @example(case=((Categorical(("a", " a")),), None, False, "a\n a\n"))  # both read as a
    @example(case=((Categorical(("red", " blue")),), None, False, "red\n blue\n"))  # unknown
    @example(case=((Numeric(), Numeric()), None, False, "1,2,3\n4,5,6\n"))  # one field too many
    @example(case=((Numeric(), Numeric()), 0, True, "y,a,b\n"))  # only a header
    @example(case=((Numeric(),), 1, False, "1," + "0" * 4400 + "1\n"))  # more digits than int reads
    @example(case=((Numeric(),), None, False, "1\n" + " " * 131072 + "2\n"))  # over the field limit
    def test_load_csv_equals_cell_reader(self, tmp_path_factory, case):
        kinds, label_idx, has_header, text = case
        p = tmp_path_factory.mktemp("load") / "in.csv"
        p.write_bytes(text.encode())

        def fast():
            ds = load_csv(p, kinds, label_column=label_idx, has_header=has_header)
            return ds.X, ds.labels

        assert _outcome(fast) == _outcome(
            lambda: _load_csv_by_cells(p, kinds, label_idx, has_header)
        )

    def test_plain_files_skip_the_cell_reader(self, tmp_path):
        # ASCII files of plain cells, as save_csv writes them, are parsed in one pass
        ds = Dataset(mixed_schema(), np.array([[1.5, 0.0, -0.0], [2e-300, 2.0, 7.0]]),
                     labels=np.array([3, -(2**63)]))
        p = tmp_path / "plain.csv"
        save_csv(ds, p, header=True, label_name="y")
        with mock.patch.object(data, "_parse_row", side_effect=AssertionError):
            back = load_csv(p, ds.schema.kinds, label_column="y", has_header=True)
        assert back.X.tobytes() == ds.X.tobytes()
        assert back.labels.tolist() == ds.labels.tolist()

    @pytest.mark.parametrize("label_name, matrices", [(None, 1.5), ("y", 2.2)])
    def test_load_peaks_at_the_file_and_the_parsed_table(self, tmp_path, label_name, matrices):
        # the file's bytes, loadtxt's table and, with a label column, X gathered
        # out of the table: a decoded copy of the text, or a mask over its
        # bytes, would not fit
        rng = np.random.default_rng(0)
        ds = Dataset(Schema.numeric([f"a{j}" for j in range(200)]), rng.random((2000, 200)),
                     labels=rng.integers(0, 5, 2000))
        p = tmp_path / "big.csv"
        save_csv(ds, p, header=False, label_name=label_name)
        label_column = None if label_name is None else 200
        tracemalloc.start()
        try:
            back = load_csv(p, ds.schema.kinds, label_column=label_column)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert back.X.tobytes() == ds.X.tobytes()
        assert peak <= p.stat().st_size + matrices * back.X.nbytes
