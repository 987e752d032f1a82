"""Command-line interface: flag parsing, JSON summaries, report files, and
exit codes, driven through main() so the tests see exactly what a shell would."""

import argparse
import json
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eforest import cli, codec, metrics, persistence
from eforest.data import Categorical, Dataset, Numeric, Schema, load_csv, load_idx, save_csv
from eforest.errors import ConfigError, EmptyMCRError, FormatError, InvalidModelError, ParseError

from synthdata import write_idx_images, write_idx_labels

D = 16  # 4x4 test images
HEADER = ",".join(f"c{i}" for i in range(D)) + "\n"


def run_cli(capsys, argv):
    """Run main(argv) and return (exit code, parsed stdout JSON, stderr)."""
    capsys.readouterr()
    code = cli.main(argv)
    out, err = capsys.readouterr()
    payload = json.loads(out.strip().splitlines()[-1]) if out.strip() else None
    return code, payload, err


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    rng = np.random.default_rng(5)
    write_idx_images(root / "images.idx", rng.integers(0, 256, (60, 4, 4)))
    write_idx_labels(root / "labels.idx", rng.integers(0, 3, 60))

    # The same width as the images but with csv column names (c0..c15).
    wide = Dataset(
        Schema.numeric([f"c{i}" for i in range(D)]),
        rng.integers(0, 256, (25, D)).astype(float),
    )
    save_csv(wide, root / "wide.csv", header=False)

    narrow = Dataset(
        Schema.numeric(["c0", "c1"]),
        rng.normal(0, 1, (30, 2)).round(3),
        labels=rng.integers(0, 2, 30),
    )
    save_csv(narrow, root / "narrow.csv", header=False, label_name="y")

    mixed = Dataset(
        Schema(("size", "color"), (Numeric(), Categorical(("RED", "BLUE")))),
        np.column_stack([rng.normal(0, 2, 40).round(2), rng.integers(0, 2, 40)]),
    )
    save_csv(mixed, root / "mixed.csv", header=False)
    return root


@pytest.fixture(scope="module")
def model_path(workdir):
    path = workdir / "model.json"
    code = cli.main(
        ["train", "--data", str(workdir / "images.idx"), "--mode", "unsup",
         "--trees", "5", "--seed", "3", "--out", str(path)]
    )
    assert code == 0
    return path


@pytest.fixture(scope="module")
def encodings_path(workdir, model_path):
    path = workdir / "codes.enc"
    code = cli.main(
        ["encode", "--data", str(workdir / "images.idx"), "--model",
         str(model_path), "--out", str(path)]
    )
    assert code == 0
    return path


# a valid --config file: every TrainConfig field, none large
CONFIG = {"mode": "unsupervised", "n_trees": 2, "seed": 3, "min_node_size": 2,
          "max_depth_cap": 4, "bootstrap": False, "threads": 1}


def train_on_config(workdir, text) -> list[str]:
    """``train`` arguments that read a config file holding ``text`` (str or bytes)."""
    blob = text.encode() if isinstance(text, str) else text
    fd, cfg = tempfile.mkstemp(suffix=".cfg.json", dir=workdir)
    with open(fd, "wb") as fh:
        fh.write(blob)
    return ["train", "--data", str(workdir / "images.idx"), "--config", cfg,
            "--out", str(Path(cfg).with_suffix(".model"))]


class TestTrain:
    def test_summary_fields(self, workdir, capsys):
        out = workdir / "t1.json"
        code, line, _ = run_cli(
            capsys,
            ["train", "--data", str(workdir / "images.idx"), "--mode", "unsup",
             "--trees", "4", "--seed", "8", "--out", str(out)],
        )
        assert code == 0
        forest = persistence.load_model(out)
        assert line["command"] == "train"
        assert line["mode"] == "unsupervised"
        assert line["trees"] == 4
        assert line["seed"] == 8
        assert line["n"] == 60 and line["d"] == D
        assert line["hash"] == persistence.forest_hex_id(forest)
        assert line["max_depth"] >= 1
        assert line["avg_depth"] > 0
        assert line["train_seconds"] >= 0

    def test_same_flags_same_model_bytes(self, workdir, capsys):
        argv = ["train", "--data", str(workdir / "images.idx"), "--mode", "unsup",
                "--trees", "4", "--seed", "8"]
        a, b = workdir / "rep_a.json", workdir / "rep_b.json"
        _, line_a, _ = run_cli(capsys, argv + ["--out", str(a)])
        _, line_b, _ = run_cli(capsys, argv + ["--out", str(b)])
        assert line_a["hash"] == line_b["hash"]
        assert a.read_bytes() == b.read_bytes()

    def test_supervised_uses_labels(self, workdir, capsys):
        out = workdir / "sup.json"
        code, line, _ = run_cli(
            capsys,
            ["train", "--data", str(workdir / "images.idx"), "--labels",
             str(workdir / "labels.idx"), "--mode", "supervised",
             "--trees", "3", "--seed", "1", "--out", str(out)],
        )
        assert code == 0
        assert line["mode"] == "supervised"
        assert persistence.load_model(out).kind == "supervised"

    def test_supervised_without_labels_fails(self, workdir, capsys):
        code, _, err = run_cli(
            capsys,
            ["train", "--data", str(workdir / "images.idx"), "--mode", "sup",
             "--trees", "3", "--out", str(workdir / "nope.json")],
        )
        assert code == 1
        assert err.startswith("error:")

    def test_zero_trees_fails(self, workdir, capsys):
        code, _, err = run_cli(
            capsys,
            ["train", "--data", str(workdir / "images.idx"), "--mode", "unsup",
             "--trees", "0", "--out", str(workdir / "nope.json")],
        )
        assert code == 1
        assert "error:" in err

    def test_missing_required_flag_exits_2(self, workdir, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["train", "--data", str(workdir / "images.idx"),
                      "--mode", "unsup", "--trees", "3"])
        assert exc.value.code == 2

    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["compress", "--model", "x"])
        assert exc.value.code == 2

    def test_csv_width_inference(self, workdir, capsys):
        out = workdir / "csv_model.json"
        code, line, _ = run_cli(
            capsys,
            ["train", "--data", str(workdir / "wide.csv"), "--format", "csv",
             "--mode", "unsup", "--trees", "3", "--seed", "2", "--out", str(out)],
        )
        assert code == 0
        assert line["d"] == D

    def test_csv_quoted_header_counts_csv_fields(self, workdir, capsys):
        src = workdir / "quoted.csv"
        src.write_text('"a,b",c\n1,2\n3,4\n5,6\n')
        code, line, _ = run_cli(
            capsys,
            ["train", "--data", str(src), "--format", "csv", "--csv-header",
             "--mode", "unsup", "--trees", "2", "--out", str(workdir / "quoted.json")],
        )
        assert code == 0
        assert line["d"] == 2

    @pytest.mark.parametrize(
        "text, flags, error",
        [
            ("", [], FormatError),
            ("0\n1\n", ["--label-column", "0"], FormatError),
            ("a,b\n1,2\n", ["--csv-header", "--csv-kinds", "num*3"], FormatError),
            ("A\n", ["--csv-kinds", "cat:A|A"], FormatError),
            ("1," + "2" * 200_000 + "\n", [], FormatError),
            ("1,2\n", ["--csv-kinds", "num*99999999999999"], FormatError),
            ("1.0,99999999999999999999\n", ["--label-column", "1"], ParseError),
        ],
        ids=["empty", "label-only", "short-header", "duplicate-category", "oversized-field",
             "huge-repeat-count", "huge-label"],
    )
    def test_malformed_csv_exits_1(self, workdir, capsys, text, flags, error):
        src = workdir / "malformed.csv"
        src.write_text(text)
        argv = ["train", "--data", str(src), "--format", "csv", *flags,
                "--mode", "unsup", "--trees", "2", "--out", str(workdir / "nope.json")]
        args = cli.build_parser().parse_args(argv)
        with pytest.raises(error):
            args.func(args)
        code, _, err = run_cli(capsys, argv)
        assert code == 1
        assert err.startswith("error:")

    def test_csv_label_column_by_index(self, workdir, capsys):
        out = workdir / "csv_sup.json"
        code, line, _ = run_cli(
            capsys,
            ["train", "--data", str(workdir / "narrow.csv"), "--format", "csv",
             "--label-column", "2", "--mode", "sup", "--trees", "3",
             "--seed", "2", "--out", str(out)],
        )
        assert code == 0
        assert line["d"] == 2
        assert persistence.load_model(out).kind == "supervised"

    def test_supervised_csv_with_a_huge_label(self, workdir, capsys):
        # class-count tables grow with the number of classes, not the largest label
        src = workdir / "huge_label.csv"
        src.write_text("0.5,99999999999\n1.5,99999999999\n2.5,0\n3.5,0\n")
        out = workdir / "huge_label.json"
        code, _, err = run_cli(
            capsys,
            ["train", "--data", str(src), "--format", "csv", "--label-column", "1",
             "--mode", "sup", "--trees", "2", "--min-node", "1", "--no-bootstrap",
             "--out", str(out)],
        )
        assert code == 0, err
        assert persistence.load_model(out).trees[0].n_nodes == 3

    def test_config_file_with_flag_override(self, workdir, capsys):
        cfg = workdir / "train.cfg.json"
        cfg.write_text(json.dumps(
            {"mode": "unsupervised", "n_trees": 5, "seed": 9, "min_node_size": 3}
        ))
        out = workdir / "cfg_model.json"
        code, line, _ = run_cli(
            capsys,
            ["train", "--data", str(workdir / "images.idx"), "--config",
             str(cfg), "--trees", "3", "--out", str(out)],
        )
        assert code == 0
        assert line["trees"] == 3  # flag wins
        assert line["seed"] == 9  # config fills the gap
        stored = persistence.load_model(out).config
        assert stored["n_trees"] == 3
        assert stored["seed"] == 9
        assert stored["min_node_size"] == 3
        assert stored["mode"] == "unsupervised"

    def test_flags_over_config_over_train_config_defaults(self, workdir):
        from eforest.training import TrainConfig

        cfg = workdir / "every-field.cfg.json"
        cfg.write_text(json.dumps({
            "mode": "supervised", "n_trees": 5, "seed": 9, "min_node_size": 3,
            "max_depth_cap": 4, "bootstrap": False, "threads": 2,
        }))

        def config(*argv):
            args = cli.build_parser().parse_args(["train", "--data", "x", "--out", "y", *argv])
            return cli._build_train_config(args)

        assert config("--config", str(cfg)) == TrainConfig(
            mode="supervised", n_trees=5, seed=9, min_node_size=3, max_depth_cap=4,
            bootstrap=False, threads=2,
        )
        assert config(
            "--config", str(cfg), "--mode", "unsup", "--trees", "2", "--seed", "0",
            "--min-node", "1", "--max-depth", "0", "--bootstrap", "--threads", "1",
        ) == TrainConfig(
            mode="unsupervised", n_trees=2, seed=0, min_node_size=1, max_depth_cap=0,
            bootstrap=True, threads=1,
        )
        # fields neither given nor in a config file take TrainConfig's defaults
        assert config("--mode", "sup", "--trees", "4") == TrainConfig(mode="supervised", n_trees=4)

    def test_config_missing_required_fields_fails(self, workdir, capsys):
        cfg = workdir / "empty.cfg.json"
        cfg.write_text("{}")
        code, _, err = run_cli(
            capsys,
            ["train", "--data", str(workdir / "images.idx"), "--config",
             str(cfg), "--out", str(workdir / "nope.json")],
        )
        assert code == 1
        assert "--mode and --trees" in err

    def test_config_must_be_object(self, workdir, capsys):
        cfg = workdir / "list.cfg.json"
        cfg.write_text("[1, 2]")
        code, _, err = run_cli(
            capsys,
            ["train", "--data", str(workdir / "images.idx"), "--config",
             str(cfg), "--out", str(workdir / "nope.json")],
        )
        assert code == 1
        assert "JSON object" in err

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--format", "csv", "--data", "wide.csv", "--labels", "absent.idx"],
             "--format csv does not take --labels; name the label column with --label-column"),
            (["--data", "images.idx", "--csv-kinds", "cat:A|B", "--csv-header",
              "--label-column", "7"],
             "--format idx does not take --csv-kinds, --csv-header, --label-column"),
            (["--data", "images.idx", "--csv-kinds", "num*16"],
             "--format idx does not take --csv-kinds"),
            (["--data", "images.idx", "--format", "idx", "--csv-header"],
             "--format idx does not take --csv-header"),
            (["--data", "images.idx", "--label-column", "0"],
             "--format idx does not take --label-column"),
        ],
        ids=["csv-labels", "idx-every-csv-flag", "idx-csv-kinds", "idx-csv-header",
             "idx-label-column"],
    )
    def test_data_flags_of_the_other_format_are_refused(self, workdir, capsys, flags, named):
        flags = [str(workdir / f) if f.endswith((".csv", ".idx")) else f for f in flags]
        argv = ["train", *flags, "--mode", "unsup", "--trees", "2",
                "--out", str(workdir / "nope.json")]
        args = cli.build_parser().parse_args(argv)
        with pytest.raises(ConfigError, match=f"^{re.escape(named)}$"):
            args.func(args)
        assert run_cli(capsys, argv) == (1, None, f"error: {named}\n")

    @pytest.mark.parametrize(
        "flags",
        [
            ["--data", "absent.idx"],
            ["--data", "absent.csv", "--format", "csv", "--csv-kinds", "num*2"],
            ["--data", "absent.csv", "--format", "csv"],  # no kinds: width from row 0
        ],
        ids=["idx", "csv", "csv-width-peek"],
    )
    def test_missing_data_file_exits_1(self, workdir, capsys, flags):
        flags = [str(workdir / f) if f.startswith("absent") else f for f in flags]
        code, _, err = run_cli(
            capsys,
            ["train", *flags, "--mode", "unsup", "--trees", "3",
             "--out", str(workdir / "nope.json")],
        )
        assert code == 1
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "text",
        [
            '{"mode": "unsupervised", "n_trees": 3',
            '{"mode": "unsupervised", "n_trees": "3"}',
            '{"mode": "unsupervised", "n_trees": 3, "min_node": 7}',
        ],
        ids=["malformed-json", "string-tree-count", "unknown-key"],
    )
    def test_bad_config_exits_1(self, workdir, capsys, text):
        cfg = workdir / "bad.cfg.json"
        cfg.write_text(text)
        code, _, err = run_cli(
            capsys,
            ["train", "--data", str(workdir / "images.idx"), "--config", str(cfg),
             "--out", str(workdir / "nope.json")],
        )
        assert code == 1
        assert err.startswith("error:")

    @pytest.mark.parametrize("field", sorted(CONFIG))
    @pytest.mark.parametrize("value", [1.5, True, [2], 2**70, -(2**70), None, "2", {}],
                             ids=["float", "bool", "list", "huge", "huge-negative", "null",
                                  "string", "object"])
    def test_config_field_of_any_json_type_exits_0_or_1(self, workdir, capsys, field, value):
        text = json.dumps({**CONFIG, field: value})
        code, _, err = run_cli(capsys, train_on_config(workdir, text))
        assert code in (0, 1)
        assert code == 0 or err.startswith("error:")

    @pytest.mark.parametrize("text", ["[]", "2", '"x"', "null", "true"])
    def test_config_that_is_no_object_exits_1(self, workdir, capsys, text):
        code, _, err = run_cli(capsys, train_on_config(workdir, text))
        assert code == 1 and "JSON object" in err

    def test_config_nested_past_the_parser_depth_exits_1(self, workdir, capsys):
        code, _, err = run_cli(capsys, train_on_config(workdir, "[" * 100_000))
        assert code == 1 and err.startswith("error: cannot read config file")

    @given(
        cut=st.integers(0, 80),
        extra=st.binary(max_size=8),
        flips=st.lists(st.tuples(st.integers(0, 200), st.integers(0, 255)), max_size=4),
    )
    @example(cut=0, extra=b"", flips=[])
    @example(cut=0, extra=b"", flips=[(0, 0xFF)])  # not UTF-8
    @settings(max_examples=100, deadline=None)
    def test_damaged_config_file_exits_0_or_1(self, workdir, cut, extra, flips):
        # truncate (cut bytes off the end), extend, then overwrite bytes
        blob = bytearray(json.dumps(CONFIG).encode())
        blob = blob[: len(blob) - min(cut, len(blob))] + extra
        for pos, value in flips:
            if blob:
                blob[pos % len(blob)] = value
        assert cli.main(train_on_config(workdir, bytes(blob))) in (0, 1)

    def test_thread_count_keeps_hash(self, workdir, capsys):
        argv = ["train", "--data", str(workdir / "images.idx"), "--mode",
                "unsup", "--trees", "5", "--seed", "3"]
        hashes = []
        for threads in ("2", "1"):
            out = workdir / f"threads_{threads}.json"
            code, line, _ = run_cli(capsys, argv + ["--threads", threads, "--out", str(out)])
            assert code == 0
            hashes.append(line["hash"])
        # Worker count changes scheduling only, never the model content.
        assert hashes[0] == hashes[1]

    def test_zero_threads_exits_1(self, workdir, capsys):
        code, _, err = run_cli(
            capsys,
            ["train", "--data", str(workdir / "images.idx"), "--mode", "unsup",
             "--trees", "2", "--threads", "0", "--out", str(workdir / "nope.json")],
        )
        assert code == 1
        assert "threads must be >= 1" in err


class TestEncodeDecode:
    def test_encode_summary(self, workdir, model_path, encodings_path, capsys):
        forest = persistence.load_model(model_path)
        matrix = persistence.load_encodings(encodings_path)
        assert matrix.n == 60 and matrix.T == 5
        assert matrix.forest_id == persistence.forest_hex_id(forest)

    def test_decode_matches_library_route(self, workdir, model_path,
                                          encodings_path, capsys):
        out = workdir / "recon.csv"
        code, line, _ = run_cli(
            capsys,
            ["decode", "--model", str(model_path), "--encodings",
             str(encodings_path), "--strategy", "min", "--out", str(out)],
        )
        assert code == 0
        assert line["n"] == 60
        assert line["kept_trees"] == 5
        forest = persistence.load_model(model_path)
        matrix = persistence.load_encodings(encodings_path)
        expected = codec.decode_batch(forest, matrix, strategy="min")
        reloaded = load_csv(out, [Numeric()] * D, has_header=True)
        assert reloaded.X.tobytes() == expected.X.tobytes()

    def test_decode_with_mask(self, workdir, model_path, encodings_path, capsys):
        out = workdir / "recon_masked.csv"
        code, line, _ = run_cli(
            capsys,
            ["decode", "--model", str(model_path), "--encodings",
             str(encodings_path), "--mask-keep", "0.5", "--mask-seed", "4",
             "--out", str(out)],
        )
        assert code == 0
        assert line["kept_trees"] == 3  # ceil(0.5 * 5)

    @pytest.mark.parametrize(
        "argv",
        [
            ["decode", "--model", "{model}", "--encodings", "{codes}",
             "--out", "{dir}/nodir/r.csv"],
            ["encode", "--data", "{dir}/images.idx", "--model", "{model}",
             "--out", "{dir}/nodir/e.enc"],
            ["reconstruct", "--data", "{dir}/images.idx", "--model", "{model}",
             "--report", "{dir}/nodir/report.json"],
        ],
        ids=["decode-out", "encode-out", "reconstruct-report"],
    )
    def test_output_into_missing_directory_exits_1(self, workdir, model_path,
                                                   encodings_path, capsys, argv):
        argv = [a.format(dir=workdir, model=model_path, codes=encodings_path) for a in argv]
        code, _, err = run_cli(capsys, argv)
        assert code == 1
        assert err.startswith("error:")
        assert not (workdir / "nodir").exists()

    @pytest.mark.parametrize(
        "header, body",
        [
            ("v2 n=1 T=4611686018427387904", b"\0" * 4),
            ("v2 n=2 T=5", b"\0" * 36),
            ("v2 n=1 T=5", np.array([0, 1, 0, -1, 0], dtype="<i4").tobytes()),
            ("v1 n=1 T=5", b"0,1,0,1,0\n"),
        ],
        ids=["oversized-header-width", "truncated-body", "negative-ordinal", "v1-text-file"],
    )
    def test_bad_encodings_file_exits_1(self, workdir, model_path, capsys, header, body):
        forest_id = persistence.forest_hex_id(persistence.load_model(model_path))
        codes = workdir / "bad_codes.enc"
        codes.write_bytes(f"eforest-enc {header} forest={forest_id}\n".encode("ascii") + body)
        code, _, err = run_cli(
            capsys,
            ["decode", "--model", str(model_path), "--encodings", str(codes),
             "--out", str(workdir / "nope.csv")],
        )
        assert code == 1
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "text, flags, expected",
        [("", [], 1), (HEADER, [], 1), (HEADER, ["--csv-header"], 0)],
        ids=["empty", "header-as-data", "header-only"],
    )
    def test_encode_on_a_csv_without_rows_warns_nothing(self, workdir, model_path, capsys,
                                                        text, flags, expected):
        # a header read as a header leaves a valid dataset of no rows
        src = workdir / "no_rows.csv"
        src.write_text(text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run_cli(
                capsys,
                ["encode", "--data", str(src), "--format", "csv", *flags,
                 "--model", str(model_path), "--reuse", "--out", str(workdir / "no_rows.enc")],
            )
        assert code == expected
        assert not caught and "Warning" not in err

    def test_encode_strict_rejects_renamed_schema(self, workdir, model_path, capsys):
        code, _, err = run_cli(
            capsys,
            ["encode", "--data", str(workdir / "wide.csv"), "--format", "csv",
             "--model", str(model_path), "--out", str(workdir / "nope.enc")],
        )
        assert code == 1
        assert "error:" in err

    def test_encode_reuse_accepts_renamed_schema(self, workdir, model_path, capsys):
        out = workdir / "wide_codes.enc"
        code, line, _ = run_cli(
            capsys,
            ["encode", "--data", str(workdir / "wide.csv"), "--format", "csv",
             "--model", str(model_path), "--reuse", "--out", str(out)],
        )
        assert code == 0
        assert line["n"] == 25

    def test_bad_strategy_exits_2(self, model_path, encodings_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["decode", "--model", str(model_path), "--encodings",
                      str(encodings_path), "--strategy", "middle",
                      "--out", "x.csv"])
        assert exc.value.code == 2


class TestReconstruct:
    def test_report_file_and_summary(self, workdir, model_path, capsys):
        report_path = workdir / "recon_report.json"
        code, line, _ = run_cli(
            capsys,
            ["reconstruct", "--data", str(workdir / "images.idx"), "--model",
             str(model_path), "--metric", "mse", "--strategy", "mean",
             "--report", str(report_path)],
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert line["mean"] == report["mean"]
        assert report["metric"] == "mse"
        assert report["n"] == 60
        assert len(report["values"]) == 60
        cfg = report["config"]
        assert cfg["command"] == "reconstruct"
        assert cfg["model_hash"] == persistence.forest_hex_id(
            persistence.load_model(model_path)
        )
        assert cfg["data"].endswith("images.idx")
        assert cfg["mask_keep"] is None and cfg["mask_seed"] is None
        assert cfg["strategy"] == "mean"
        assert cfg["reuse"] is False

        forest = persistence.load_model(model_path)
        from eforest.data import load_idx

        oracle, _ = metrics.reconstruction_report(
            forest, load_idx(workdir / "images.idx"), metric="mse",
            strategy="mean",
        )
        assert report["mean"] == oracle.mean

    def test_mask_echo_and_csv_dump(self, workdir, model_path, capsys):
        report_path = workdir / "masked_report.json"
        csv_path = workdir / "per_sample.csv"
        dump_path = workdir / "dumped.csv"
        code, _, _ = run_cli(
            capsys,
            ["reconstruct", "--data", str(workdir / "images.idx"), "--model",
             str(model_path), "--mask-keep", "0.6", "--mask-seed", "5",
             "--report", str(report_path), "--report-csv", str(csv_path),
             "--dump-recon", str(dump_path)],
        )
        assert code == 0
        cfg = json.loads(report_path.read_text())["config"]
        assert cfg["mask_keep"] == 0.6 and cfg["mask_seed"] == 5
        assert cfg["kept_trees"] == 3
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "sample_index,metric_value"
        assert len(lines) == 61
        dumped = load_csv(dump_path, [Numeric()] * D, has_header=True)
        assert dumped.n == 60

    @pytest.mark.parametrize("command", ["reconstruct", "reuse"])
    def test_mask_seed_defaults_to_0(self, workdir, model_path, capsys, command):
        data = "images.idx" if command == "reconstruct" else "wide.csv"
        base = [command, "--data", str(workdir / data), "--model", str(model_path),
                "--mask-keep", "0.6"]
        if command == "reuse":
            base += ["--format", "csv"]
        reports = []
        for i, seed in enumerate([[], ["--mask-seed", "0"]]):
            report_path = workdir / f"{command}-seed-{i}.json"
            code, _, err = run_cli(capsys, [*base, *seed, "--report", str(report_path)])
            assert code == 0, err
            reports.append(report_path.read_bytes())
        assert reports[0] == reports[1]
        assert json.loads(reports[0])["config"]["mask_seed"] == 0

    def test_cosine_on_categorical_fails(self, workdir, capsys):
        model = workdir / "mixed_model.json"
        code, _, _ = run_cli(
            capsys,
            ["train", "--data", str(workdir / "mixed.csv"), "--format", "csv",
             "--csv-kinds", "num,cat:RED|BLUE", "--mode", "unsup",
             "--trees", "3", "--seed", "6", "--out", str(model)],
        )
        assert code == 0
        code, _, err = run_cli(
            capsys,
            ["reconstruct", "--data", str(workdir / "mixed.csv"), "--format",
             "csv", "--csv-kinds", "num,cat:RED|BLUE", "--model", str(model),
             "--metric", "cosine", "--report", str(workdir / "nope.json")],
        )
        assert code == 1
        assert "error:" in err

    def test_reuse_command_echo(self, workdir, model_path, capsys):
        report_path = workdir / "reuse_report.json"
        code, line, _ = run_cli(
            capsys,
            ["reuse", "--data", str(workdir / "wide.csv"), "--format", "csv",
             "--model", str(model_path), "--report", str(report_path)],
        )
        assert code == 0
        assert line["command"] == "reuse"
        cfg = json.loads(report_path.read_text())["config"]
        assert cfg["command"] == "reuse"
        assert cfg["reuse"] is True

    def test_reuse_width_mismatch_fails(self, workdir, model_path, capsys):
        code, _, err = run_cli(
            capsys,
            ["reuse", "--data", str(workdir / "narrow.csv"), "--format", "csv",
             "--label-column", "2", "--model", str(model_path),
             "--report", str(workdir / "nope.json")],
        )
        assert code == 1
        assert "error:" in err


class TestDamage:
    def test_report_structure(self, workdir, model_path, capsys):
        report_path = workdir / "damage_report.json"
        code, line, _ = run_cli(
            capsys,
            ["damage", "--data", str(workdir / "images.idx"), "--model",
             str(model_path), "--keep", "0.4,1.0", "--seed", "7",
             "--report", str(report_path)],
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["keep_fractions"] == [0.4, 1.0]
        assert line["means"] == report["means"]
        assert [c["config"]["kept_trees"] for c in report["curve"]] == [2, 5]
        assert all("values" not in c for c in report["curve"])

        forest = persistence.load_model(model_path)
        from eforest.data import load_idx

        oracle = metrics.damage_curve(
            forest, load_idx(workdir / "images.idx"), [0.4, 1.0], seed=7
        )
        assert report["means"] == [r.mean for r in oracle]

    def test_bad_keep_list_fails(self, workdir, model_path, capsys):
        argv = ["damage", "--data", str(workdir / "images.idx"), "--model",
                str(model_path), "--keep", "a,b", "--report", str(workdir / "nope.json")]
        code, _, err = run_cli(capsys, argv)
        assert code == 1
        assert "comma-separated floats" in err
        with pytest.raises(ConfigError) as info:
            cli.cmd_damage(cli.build_parser().parse_args(argv))
        assert info.value.__suppress_context__

    def test_out_of_range_fraction_fails(self, workdir, model_path, capsys):
        code, _, err = run_cli(
            capsys,
            ["damage", "--data", str(workdir / "images.idx"), "--model",
             str(model_path), "--keep", "2.0",
             "--report", str(workdir / "nope.json")],
        )
        assert code == 1
        assert "error:" in err


class TestStats:
    def test_fields_match_model(self, workdir, model_path, capsys):
        code, line, _ = run_cli(capsys, ["stats", "--model", str(model_path)])
        assert code == 0
        forest = persistence.load_model(model_path)
        leaf_counts = [t.leaf_count for t in forest.trees]
        bits = max(1, (max(leaf_counts) - 1).bit_length())
        assert line["trees"] == 5 and line["d"] == D
        assert line["kind"] == "unsupervised"
        assert line["leaf_count_min"] == min(leaf_counts)
        assert line["leaf_count_max"] == max(leaf_counts)
        assert line["leaf_count_mean"] == pytest.approx(np.mean(leaf_counts))
        assert line["bits_per_tree"] == bits
        assert line["encoding_bits"] == 5 * bits
        assert line["input_bits"] == D * 32
        assert line["size_ratio"] == pytest.approx(5 * bits / (D * 32))

    def test_int_threshold_model_exits_1(self, workdir, model_path, capsys):
        # re-hashed, so only the type is wrong: save_model writes thresholds as floats
        record = json.loads(model_path.read_text())
        record.pop("hash")
        nodes = next(t["nodes"] for t in record["trees"] if t["nodes"]["attr"][0] >= 0)
        nodes["param"][0] = 1
        content = persistence.canonical_json_bytes(record)
        record["hash"] = f"{persistence.fnv1a64(content):016x}"
        bad = workdir / "int-threshold.json"
        bad.write_bytes(persistence.canonical_json_bytes(record) + b"\n")
        code, _, err = run_cli(capsys, ["stats", "--model", str(bad)])
        assert code == 1
        assert "error:" in err

    def test_version_1_model_exits_1(self, workdir, model_path, capsys):
        # a version-1 file, hashed as written: one {"t": ...} record per node
        record = json.loads(model_path.read_text())
        record.pop("hash")
        record.update(version=1, trees=[{"nodes": [{"t": "leaf", "id": 0}]}])
        content = persistence.canonical_json_bytes(record)
        record["hash"] = f"{persistence.fnv1a64(content):016x}"
        old = workdir / "version-1.json"
        old.write_bytes(persistence.canonical_json_bytes(record) + b"\n")
        args = cli.build_parser().parse_args(["stats", "--model", str(old)])
        with pytest.raises(InvalidModelError, match="unsupported model version 1 "):
            args.func(args)
        code, _, err = run_cli(capsys, ["stats", "--model", str(old)])
        assert code == 1
        assert "unsupported model version 1" in err

    def test_single_leaf_trees_use_one_bit(self, workdir, capsys):
        model = workdir / "stumps.json"
        code, _, _ = run_cli(
            capsys,
            ["train", "--data", str(workdir / "images.idx"), "--mode", "unsup",
             "--trees", "4", "--seed", "1", "--max-depth", "0",
             "--out", str(model)],
        )
        assert code == 0
        code, line, _ = run_cli(capsys, ["stats", "--model", str(model)])
        assert code == 0
        assert line["max_depth"] == 0
        assert line["bits_per_tree"] == 1
        assert line["encoding_bits"] == 4


# -- error lines -------------------------------------------------------------------


def _model_copy(workdir, model_path, name, edit, rehash=True):
    """A copy of the model file edited by ``edit``; returns (path, the hash of
    its content, the hash it states)."""
    record = json.loads(model_path.read_text())
    stated = record.pop("hash")
    edit(record)
    fresh = f"{persistence.fnv1a64(persistence.canonical_json_bytes(record)):016x}"
    record["hash"] = fresh if rehash else stated
    path = workdir / name
    path.write_bytes(persistence.canonical_json_bytes(record) + b"\n")
    return path, fresh, stated


def _encodings_file(workdir, name, leaf_ids, forest_id):
    path = workdir / name
    matrix = persistence.EncodingMatrix(np.asarray(leaf_ids, np.int32), forest_id)
    persistence.save_encodings(matrix, path)
    return path


def _train(workdir, *flags):
    return ["train", "--trees", "2", "--out", str(workdir / "nope.json"), *flags]


def _short_idx(workdir, model_path):
    p = workdir / "short.idx"
    p.write_bytes(b"\0\0")
    argv = _train(workdir, "--data", str(p), "--mode", "unsup")
    return argv, f"{p}: too short for an idx header"


def _label_count(workdir, model_path):
    lp = workdir / "four-labels.idx"
    write_idx_labels(lp, np.zeros(4, dtype=np.uint8))
    argv = _train(workdir, "--data", str(workdir / "images.idx"), "--labels", str(lp),
                  "--mode", "sup")
    return argv, f"{lp}: 4 labels for 60 images"


def _bad_cell(workdir, model_path):
    p = workdir / "bad-cell.csv"
    p.write_text("1,x\n2,3\n")
    argv = _train(workdir, "--data", str(p), "--format", "csv", "--mode", "unsup")
    return argv, f"{p}: bad numeric cell 'x' (row 0, col 1)"


def _unknown_category(workdir, model_path):
    p = workdir / "unknown-category.csv"
    p.write_text("C\n")
    argv = _train(workdir, "--data", str(p), "--format", "csv", "--csv-kinds", "cat:A|B",
                  "--mode", "unsup")
    return argv, f"{p}: row 0 col 0: unknown category 'C'"


def _zero_trees(workdir, model_path):
    argv = _train(workdir, "--data", str(workdir / "images.idx"), "--mode", "unsup",
                  "--trees", "0")
    return argv, "n_trees must be >= 1 and < 2**31, got 0"


def _no_labels(workdir, model_path):
    argv = _train(workdir, "--data", str(workdir / "images.idx"), "--mode", "sup")
    return argv, "supervised training requires labels"


def _no_rows(workdir, model_path):
    p = workdir / "header-only.csv"
    p.write_text("a,b\n")
    argv = _train(workdir, "--data", str(p), "--format", "csv", "--csv-header",
                  "--mode", "unsup")
    return argv, "cannot train on an empty dataset"


def _cosine_on_categories(workdir, model_path):
    argv = ["reconstruct", "--data", str(workdir / "mixed.csv"), "--format", "csv",
            "--csv-kinds", "num,cat:RED|BLUE", "--model", str(model_path), "--metric", "cosine",
            "--report", str(workdir / "nope.json")]
    return argv, "metric 'cosine' needs an all-numeric schema; this one has categorical attributes"


def _tampered_model(workdir, model_path):
    path, fresh, stated = _model_copy(
        workdir, model_path, "tampered.json", lambda r: r.update(seed=r["seed"] + 1), rehash=False)
    return ["stats", "--model", str(path)], (
        f"{path}: content hash {fresh} does not match stated {stated}")


def _future_version(workdir, model_path):
    path, _, _ = _model_copy(workdir, model_path, "future.json", lambda r: r.update(version=99))
    return ["stats", "--model", str(path)], (
        f"{path}: unsupported model version 99 (this release reads {persistence.MODEL_VERSION})")


def _text_seed(workdir, model_path):
    path, _, _ = _model_copy(workdir, model_path, "text-seed.json", lambda r: r.update(seed="x"))
    return ["stats", "--model", str(path)], f"{path}: seed must be an integer"


def _other_schema(workdir, model_path):
    argv = ["encode", "--data", str(workdir / "wide.csv"), "--format", "csv",
            "--model", str(model_path), "--out", str(workdir / "nope.enc")]
    return argv, "dataset schema differs from the model schema"


def _decode(workdir, model_path, encodings):
    return ["decode", "--model", str(model_path), "--encodings", str(encodings),
            "--out", str(workdir / "nope.csv")]


def _leaf_out_of_range(workdir, model_path):
    forest = persistence.load_model(model_path)
    leaves = int(forest.leaf_counts[0])
    ids = np.zeros((1, forest.T))
    ids[0, 0] = leaves
    path = _encodings_file(workdir, "out-of-range.enc", ids, persistence.forest_hex_id(forest))
    return _decode(workdir, model_path, path), (
        f"tree 0: leaf ordinal {leaves} out of range (tree has {leaves} leaves)")


def _other_model(workdir, model_path):
    forest = persistence.load_model(model_path)
    path = _encodings_file(workdir, "other-model.enc", np.zeros((1, forest.T)), "0" * 16)
    return _decode(workdir, model_path, path), (
        f"encodings were produced by model {'0' * 16}, "
        f"decoding with {persistence.forest_hex_id(forest)}")


def _empty_region(workdir, model_path):
    # row 0's leaves, with tree 0's leaf swapped for the first one whose
    # region misses the others'
    forest = persistence.load_model(model_path)
    ids = codec.encode_batch(forest, load_idx(workdir / "images.idx")).leaf_ids[:1].copy()
    for leaf in range(int(forest.leaf_counts[0])):
        ids[0, 0] = leaf
        try:
            codec.decode_region(forest, ids[0])
        except EmptyMCRError:
            break
    else:
        pytest.fail("no leaf of tree 0 empties row 0's region")
    path = _encodings_file(workdir, "empty-region.enc", ids, persistence.forest_hex_id(forest))
    return _decode(workdir, model_path, path), (
        re.compile(r"row 0, attribute p\d+: rule intersection is empty"))


def _mask_seed_alone(workdir, model_path):
    forest = persistence.load_model(model_path)
    path = _encodings_file(workdir, "mask-seed.enc", np.zeros((1, forest.T)),
                           persistence.forest_hex_id(forest))
    argv = _decode(workdir, model_path, path) + ["--mask-seed", "5"]
    return argv, "--mask-seed needs --mask-keep"


def _empty_csv_kinds(workdir, model_path):
    argv = _train(workdir, "--data", str(workdir / "wide.csv"), "--format", "csv",
                  "--csv-kinds", "", "--mode", "unsup")
    return argv, "--csv-kinds is empty; omit it to read every column as numeric"


def _keep_list_before_model(workdir, model_path):
    # flags that need no file are refused before the model is read
    argv = ["damage", "--data", str(workdir / "images.idx"), "--model",
            str(workdir / "absent.json"), "--keep", "a", "--report", str(workdir / "nope.json")]
    return argv, "--keep expects comma-separated floats, got 'a'"


def _damage_keep(workdir, keep):
    return ["damage", "--data", str(workdir / "images.idx"), "--model",
            str(workdir / "absent.json"), "--keep", keep, "--report", str(workdir / "nope.json")]


def _empty_keep_before_model(workdir, model_path):
    return _damage_keep(workdir, ","), "damage_curve needs at least one keep fraction"


def _keep_above_one_before_model(workdir, model_path):
    return _damage_keep(workdir, "0.5,1.5"), "keep fraction must be in (0, 1], got 1.5"


def _mask_keep_zero_before_model(workdir, model_path):
    argv = _decode(workdir, workdir / "absent.json", workdir / "absent.enc") + ["--mask-keep", "0"]
    return argv, "keep fraction must be in (0, 1], got 0.0"


def _mask_keep_nan_before_model(workdir, model_path):
    argv = ["reconstruct", "--data", str(workdir / "images.idx"), "--model",
            str(workdir / "absent.json"), "--mask-keep", "nan", "--report",
            str(workdir / "nope.json")]
    return argv, "keep fraction must be in (0, 1], got nan"


def _mask_seed_before_model(workdir, model_path):
    argv = _decode(workdir, workdir / "absent.json", workdir / "absent.enc") + ["--mask-seed", "3"]
    return argv, "--mask-seed needs --mask-keep"


def _csv_header_before_model(workdir, model_path):
    # data flags are checked before the model is read, and before train's --config
    argv = ["encode", "--data", str(workdir / "images.idx"), "--csv-header", "--model",
            str(workdir / "absent.json"), "--out", str(workdir / "nope.enc")]
    return argv, "--format idx does not take --csv-header"


def _labels_before_model(workdir, model_path):
    argv = ["reconstruct", "--data", str(workdir / "wide.csv"), "--format", "csv",
            "--labels", str(workdir / "labels.idx"), "--model", str(workdir / "absent.json"),
            "--report", str(workdir / "nope.json")]
    return argv, ("--format csv does not take --labels; name the label column "
                  "with --label-column")


def _empty_csv_kinds_before_model(workdir, model_path):
    argv = ["damage", "--data", str(workdir / "wide.csv"), "--format", "csv", "--csv-kinds", "",
            "--model", str(workdir / "absent.json"), "--report", str(workdir / "nope.json")]
    return argv, "--csv-kinds is empty; omit it to read every column as numeric"


def _label_column_before_config(workdir, model_path):
    argv = _train(workdir, "--data", str(workdir / "images.idx"), "--label-column", "0",
                  "--config", str(workdir / "absent-config.json"))
    return argv, "--format idx does not take --label-column"


# one case for each distinct error class the command line could hit before
# the classes were folded into one per remedy (see the README's Errors table),
# then the flags the parser alone would accept
ERROR_LINES = {
    "idx-too-short": _short_idx,
    "label-count": _label_count,
    "bad-cell": _bad_cell,
    "unknown-category": _unknown_category,
    "zero-trees": _zero_trees,
    "no-labels": _no_labels,
    "no-rows": _no_rows,
    "cosine-on-categories": _cosine_on_categories,
    "tampered-model": _tampered_model,
    "future-version": _future_version,
    "text-seed": _text_seed,
    "other-schema": _other_schema,
    "leaf-out-of-range": _leaf_out_of_range,
    "other-model": _other_model,
    "empty-region": _empty_region,
    "mask-seed-alone": _mask_seed_alone,
    "empty-csv-kinds": _empty_csv_kinds,
    "keep-list-before-model": _keep_list_before_model,
    "mask-seed-before-model": _mask_seed_before_model,
    "csv-header-before-model": _csv_header_before_model,
    "labels-before-model": _labels_before_model,
    "empty-csv-kinds-before-model": _empty_csv_kinds_before_model,
    "label-column-before-config": _label_column_before_config,
    "empty-keep-before-model": _empty_keep_before_model,
    "keep-above-one-before-model": _keep_above_one_before_model,
    "mask-keep-zero-before-model": _mask_keep_zero_before_model,
    "mask-keep-nan-before-model": _mask_keep_nan_before_model,
}


@pytest.mark.parametrize("case", ERROR_LINES.values(), ids=ERROR_LINES.keys())
def test_error_line_is_pinned(workdir, model_path, capsys, case):
    """Each error reaches the shell as exactly one stderr line and exit code 1."""
    argv, message = case(workdir, model_path)
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (1, None)
    if isinstance(message, str):
        assert err == f"error: {message}\n"
    else:
        assert message.fullmatch(err.removeprefix("error: ").removesuffix("\n")), err
        assert err.startswith("error: ") and err.count("\n") == 1


DATA_FLAGS = {"--data", "--format", "--labels", "--csv-kinds", "--csv-header", "--label-column"}
DECODE_FLAGS = {"--model", "--strategy", "--mask-keep", "--mask-seed"}
STUDY_FLAGS = {"--metric", "--report", "--report-csv", "--dump-recon"}
OPTIONS = {
    "train": DATA_FLAGS | {"--mode", "--trees", "--seed", "--min-node", "--max-depth",
                          "--bootstrap", "--no-bootstrap", "--threads", "--config", "--out"},
    "encode": DATA_FLAGS | {"--model", "--reuse", "--out"},
    "decode": DECODE_FLAGS | {"--encodings", "--out"},
    "reconstruct": DATA_FLAGS | DECODE_FLAGS | STUDY_FLAGS,
    "reuse": DATA_FLAGS | DECODE_FLAGS | STUDY_FLAGS,
    "damage": DATA_FLAGS | {"--model", "--keep", "--seed", "--metric", "--strategy", "--report"},
    "stats": {"--model"},
}


def _subparsers() -> dict:
    parser = cli.build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices


def test_every_subcommand_has_its_pinned_options():
    subparsers = _subparsers()
    assert subparsers.keys() == OPTIONS.keys()
    for name, p in subparsers.items():
        given = {s for a in p._actions for s in a.option_strings}
        assert given == OPTIONS[name] | {"-h", "--help"}, name


@pytest.mark.parametrize("command", OPTIONS)
def test_help_exits_0(capsys, command):
    with pytest.raises(SystemExit) as info:
        cli.main([command, "--help"])
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: eforest {command} ")


def test_choices_are_what_the_library_accepts():
    from eforest.forest import MODES
    from eforest.rules import STRATEGIES, normalize_strategy
    from eforest.training import TrainConfig

    choices = {}
    for p in _subparsers().values():
        for a in p._actions:
            if a.choices is not None:
                choices.setdefault(a.dest, set()).add(tuple(a.choices))
    assert choices["strategy"] == {tuple(STRATEGIES)}
    assert {normalize_strategy(s) for s in STRATEGIES} == {"min", "mean", "max"}
    assert choices["metric"] == {metrics.METRICS}
    (modes,) = choices["mode"]
    assert {cli.MODE_NAMES.get(m, m) for m in modes} == set(MODES)
    for mode in modes:
        assert TrainConfig(mode=cli.MODE_NAMES.get(mode, mode), n_trees=1).mode in MODES
    with pytest.raises(ConfigError, match=re.escape(f"mode must be one of {MODES}, got 'sup'")):
        TrainConfig(mode="sup", n_trees=1)  # the abbreviations are the command line's
