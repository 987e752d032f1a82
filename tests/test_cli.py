"""Command-line interface: flag parsing, JSON summaries, report files, and
exit codes, driven through main() so the tests see exactly what a shell would."""

import json
import warnings

import numpy as np
import pytest

from eforest import cli, codec, metrics, persistence
from eforest.data import Categorical, Dataset, Numeric, Schema, load_csv, save_csv
from eforest.errors import ConfigError, FormatError, ParseError, VersionError

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
        with pytest.raises(VersionError):
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
