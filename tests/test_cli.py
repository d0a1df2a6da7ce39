"""CLI contract: exit codes, file outputs, command round trips."""

from __future__ import annotations

import csv
import inspect
import io
import subprocess
import sys

import numpy as np
import pytest

from shadowprune import errors
from shadowprune.cli import main
from shadowprune.imgcore import GrayImage, decode_image, encode_pgm
from shadowprune.pipeline import FeatureTable, read_features_csv, write_features_csv
from shadowprune.svm import TrainConfig, TrainingSet, load_model, save_model, train


def bimodal_pgm(path, rate=0.3, edge=60):
    k = round(rate * edge * edge)
    px = np.full(edge * edge, 215, dtype=np.uint8)
    px[:k] = 40
    path.write_bytes(encode_pgm(GrayImage(px.reshape(edge, edge))))


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    """Shared synthetic dataset: 6 trees x 2 points."""
    root = tmp_path_factory.mktemp("data")
    assert main(["synth", "--out", str(root), "--trees", "6", "--points", "2"]) == 0
    return root


class TestExitCodes:
    def test_help_is_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "binarize" in capsys.readouterr().out

    def test_unknown_flag_usage_error(self, capsys):
        assert main(["binarize", "--bogus", "a", "b"]) == 1

    def test_missing_subcommand(self, capsys):
        assert main([]) == 1

    def test_missing_manifest_is_data_error(self, tmp_path, capsys):
        code = main(["extract", str(tmp_path / "none.csv"), str(tmp_path / "f.csv")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_flat_image_is_numeric_error(self, tmp_path, capsys):
        img = tmp_path / "flat.pgm"
        img.write_bytes(encode_pgm(GrayImage(np.full((20, 20), 99, dtype=np.uint8))))
        assert main(["binarize", str(img), str(tmp_path / "o.pgm")]) == 3

    @pytest.mark.parametrize("argv", [
        ["extract", "{manifest}", "{out}/f.csv", "--grid", "0"],
        ["extract", "{manifest}", "{out}/f.csv", "--pool-factor", "0"],
        ["evaluate", "{manifest}", "--train-fraction", "1.5"],
        ["evaluate", "{manifest}", "--c", "0"],
        ["train", "{out}/f.csv", "{out}/m.model", "--tol", "-1"],
        ["train", "{out}/f.csv", "{out}/m.model", "--max-iter", "0"],
    ], ids=lambda argv: " ".join(argv[:1] + argv[-2:]))
    def test_invalid_config_is_usage_error(self, argv, dataset, tmp_path, capsys):
        manifest = str(dataset / "manifest.csv")
        if argv[0] == "train":
            assert main(["extract", manifest, str(tmp_path / "f.csv")]) == 0
            capsys.readouterr()
        assert main([a.format(manifest=manifest, out=tmp_path) for a in argv]) == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and err.startswith("error: ")

    @pytest.mark.parametrize("command", [["evaluate", "{manifest}"],
                                         ["synth", "--out", "{out}/d"]])
    def test_negative_seed_is_usage_error(self, command, dataset, tmp_path, capsys):
        argv = [a.format(manifest=dataset / "manifest.csv", out=tmp_path) for a in command]
        assert main(["--seed", "-1", *argv]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "seed" in err[0]
        assert not (tmp_path / "d").exists()

    def test_invalid_coverage_is_usage_error(self, tmp_path, capsys):
        code = main(
            ["synth", "--out", str(tmp_path / "d"), "--coverage-good", "1.5"]
        )
        assert code == 1

    @pytest.mark.parametrize(
        "error",
        [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
         if issubclass(cls, errors.ShadowPruneError)] + [ValueError],
        ids=lambda cls: cls.__name__,
    )
    def test_exit_code_of_every_error_class(self, error, tmp_path, monkeypatch, capsys):
        if issubclass(error, (errors.InvalidConfig, ValueError)):
            expected = 1
        elif issubclass(error, errors.NumericError):
            expected = 3
        else:
            expected = 2

        def fail(args):
            raise error("boom")

        monkeypatch.setattr("shadowprune.cli.cmd_synth", fail)
        assert main(["synth", "--out", str(tmp_path)]) == expected
        assert capsys.readouterr().err == "error: boom\n"

    def test_command_patched_after_first_call_is_called(self, tmp_path, monkeypatch):
        # A command patched between two calls is the one the second runs.
        assert main(["synth", "--out", str(tmp_path / "d"), "--trees", "1",
                     "--points", "1"]) == 0
        seen = []
        monkeypatch.setattr("shadowprune.cli.cmd_synth", lambda args: seen.append(args) or 7)
        assert main(["synth", "--out", str(tmp_path / "e")]) == 7
        assert len(seen) == 1 and not (tmp_path / "e").exists()

    def test_flags_do_not_leak_into_the_next_call(self, monkeypatch):
        seen = []
        monkeypatch.setattr("shadowprune.cli.cmd_extract", lambda args: seen.append(args) or 0)
        assert main(["--verbose", "--seed", "5", "extract", "--per-tree", "--no-pool",
                     "--grid", "7", "m.csv", "a.csv"]) == 0
        assert main(["extract", "m.csv", "b.csv"]) == 0
        first, second = (vars(a) for a in seen)
        assert (first["verbose"], first["per_tree"], first["no_pool"], first["grid"],
                first["seed"]) == (True, True, True, 7, 5)
        assert (second["verbose"], second["per_tree"], second["no_pool"], second["grid"],
                second["seed"], second["output"]) == (False, False, False, 100, 0, "b.csv")

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "shadowprune.cli", "--help"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "shadowprune" in proc.stdout


class TestBinarize:
    def test_unpooled_output_is_black_white(self, tmp_path, capsys):
        src = tmp_path / "in.pgm"
        bimodal_pgm(src, rate=0.3)
        out = tmp_path / "out.pgm"
        assert main(["binarize", "--no-pool", str(src), str(out)]) == 0
        assert capsys.readouterr().out.startswith("otsu threshold=")
        img = decode_image(out.read_bytes())
        assert img.pixels.shape == (60, 60)
        assert set(np.unique(img.pixels)) <= {0, 255}

    def test_pooling_shrinks_by_factor(self, tmp_path, capsys):
        src = tmp_path / "in.pgm"
        bimodal_pgm(src, rate=0.3)
        out = tmp_path / "out.pgm"
        assert main(["binarize", str(src), str(out)]) == 0
        assert decode_image(out.read_bytes()).pixels.shape == (20, 20)

    def test_plain_writes_p2(self, tmp_path, capsys):
        src = tmp_path / "in.pgm"
        bimodal_pgm(src)
        out = tmp_path / "out.pgm"
        assert main(["binarize", "--plain", str(src), str(out)]) == 0
        assert out.read_bytes().startswith(b"P2")


class TestExtract:
    def test_per_photo_rows(self, dataset, tmp_path, capsys):
        out = tmp_path / "f.csv"
        code = main(["extract", str(dataset / "manifest.csv"), str(out)])
        assert code == 0
        table = read_features_csv(out)
        assert len(table) == 12
        assert set(table.y.tolist()) == {-1, 1}

    def test_per_tree_rows(self, dataset, tmp_path, capsys):
        out = tmp_path / "t.csv"
        code = main(
            ["extract", "--per-tree", str(dataset / "manifest.csv"), str(out)]
        )
        assert code == 0
        table = read_features_csv(out)
        assert len(table) == 6
        assert table.photo_ids == ("",) * 6

    def test_bad_tree_skipped_with_note(self, tmp_path, capsys):
        good = tmp_path / "good.pgm"
        bimodal_pgm(good)
        flat = tmp_path / "flat.pgm"
        flat.write_bytes(encode_pgm(GrayImage(np.full((20, 20), 5, dtype=np.uint8))))
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(
            "tree_id,photo_id,image_path,label\n"
            "t1,p1,good.pgm,1\n"
            "t2,p1,flat.pgm,0\n"
        )
        out = tmp_path / "f.csv"
        code = main(
            ["extract", "--no-pool", "--grid", "10", str(manifest), str(out)]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "skipped tree t2" in captured.err
        assert len(read_features_csv(out)) == 1

    def test_all_trees_failing_is_data_error(self, tmp_path, capsys):
        flat = tmp_path / "flat.pgm"
        flat.write_bytes(encode_pgm(GrayImage(np.full((20, 20), 5, dtype=np.uint8))))
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(
            "tree_id,photo_id,image_path,label\nt1,p1,flat.pgm,1\n"
        )
        assert main(["extract", str(manifest), str(tmp_path / "f.csv")]) == 2


class TestTrainPredict:
    @pytest.fixture()
    def tree_csv(self, dataset, tmp_path):
        out = tmp_path / "trees.csv"
        assert main(
            ["extract", "--per-tree", str(dataset / "manifest.csv"), str(out)]
        ) == 0
        return out

    def test_train_then_self_predict(self, tree_csv, tmp_path, capsys):
        model_path = tmp_path / "m.model"
        assert main(["train", str(tree_csv), str(model_path)]) == 0
        assert "trained linear model" in capsys.readouterr().out
        pred_path = tmp_path / "p.csv"
        code = main(
            ["predict", str(model_path), str(tree_csv), "--output", str(pred_path)]
        )
        assert code == 0
        lines = pred_path.read_text().strip().splitlines()
        assert lines[0] == "tree_id,photo_id,prediction,decision_value"
        table = read_features_csv(tree_csv)
        truth = dict(zip(table.tree_ids, table.y.tolist()))
        hits = 0
        for line in lines[1:]:
            tree_id, _, label, value = line.split(",")
            assert int(label) in (-1, 1)
            float(value)
            hits += int(label) == truth[tree_id]
        assert hits == len(truth)

    def test_predict_to_stdout(self, tree_csv, tmp_path, capsys):
        model_path = tmp_path / "m.model"
        main(["train", str(tree_csv), str(model_path)])
        capsys.readouterr()
        assert main(["predict", str(model_path), str(tree_csv)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("tree_id,photo_id,prediction,decision_value")

    def test_predict_quotes_ids_with_commas_and_quotes(self, tmp_path, capsys):
        tree_ids = ("t,000", 't"1', "t2", 'a,"b"')
        table = FeatureTable(
            tree_ids, ("p,1", "", 'p"2', ""),
            np.array([[0.1, 1.0], [0.2, 2.0], [0.8, 8.0], [0.9, 9.0]]), [1, 1, -1, -1],
        )
        features = tmp_path / "f.csv"
        write_features_csv(features, table)
        model_path = tmp_path / "m.model"
        assert main(["train", str(features), str(model_path)]) == 0
        capsys.readouterr()
        out = tmp_path / "p.csv"
        assert main(["predict", str(model_path), str(features), "--output", str(out)]) == 0
        capsys.readouterr()
        assert main(["predict", str(model_path), str(features)]) == 0
        text = out.read_text(encoding="utf-8")
        assert capsys.readouterr().out == text
        rows = list(csv.reader(io.StringIO(text, newline="")))
        assert all(len(row) == 4 for row in rows)
        assert [(r[0], r[1]) for r in rows[1:]] == list(zip(tree_ids, table.photo_ids))

    def test_predict_quotes_ids_with_carriage_returns(self, tmp_path, capsys):
        table = FeatureTable(
            ("t\r1", "t2", "t\n3", "t4"), ("p1", "p\r2", "", ""),
            np.array([[0.1, 1.0], [0.2, 2.0], [0.8, 8.0], [0.9, 9.0]]), [1, 1, -1, -1],
        )
        features = tmp_path / "f.csv"
        write_features_csv(features, table)
        model_path = tmp_path / "m.model"
        assert main(["train", str(features), str(model_path)]) == 0
        out = tmp_path / "p.csv"
        assert main(["predict", str(model_path), str(features), "--output", str(out)]) == 0
        capsys.readouterr()
        assert main(["predict", str(model_path), str(features)]) == 0
        text = out.read_bytes().decode("utf-8")
        assert capsys.readouterr().out == text
        # Plain ids stay unquoted on LF-terminated lines.
        assert text.startswith("tree_id,photo_id,prediction,decision_value\n")
        assert "\nt4,,-1," in text
        rows = list(csv.reader(io.StringIO(text, newline="")))
        assert all(len(row) == 4 for row in rows)
        assert [(r[0], r[1]) for r in rows[1:]] == list(zip(table.tree_ids, table.photo_ids))

    def test_predict_output_into_missing_directory(self, tree_csv, tmp_path, capsys):
        model_path = tmp_path / "m.model"
        assert main(["train", str(tree_csv), str(model_path)]) == 0
        missing = tmp_path / "no_such_dir" / "p.csv"
        code = main(
            ["predict", str(model_path), str(tree_csv), "--output", str(missing)]
        )
        assert code == 2
        assert "cannot write predictions" in capsys.readouterr().err

    def test_zero_span_normalizer_in_model_is_numeric_error(self, tree_csv, tmp_path):
        model_path = tmp_path / "m.model"
        assert main(["train", str(tree_csv), str(model_path)]) == 0
        lines = model_path.read_text().splitlines()
        mins = next(ln for ln in lines if ln.startswith("normalizer_mins ")).split()
        for i, line in enumerate(lines):
            if line.startswith("normalizer_maxs "):
                maxs = line.split()
                maxs[1] = mins[1]
                lines[i] = " ".join(maxs)
        model_path.write_text("\n".join(lines) + "\n")
        svg = tmp_path / "m.svg"
        # in a child process, so that a numpy warning would reach its stderr
        for argv in (["predict", str(model_path), str(tree_csv)],
                     ["plot", str(tree_csv), str(model_path), str(svg)]):
            proc = subprocess.run([sys.executable, "-m", "shadowprune.cli", *argv],
                                  capture_output=True, text=True)
            assert proc.returncode == 3
            assert proc.stderr == ("error: zero training span for feature(s): "
                                   "black_pixel_rate\n")
            assert "inf" not in proc.stdout and "nan" not in proc.stdout
        assert not svg.exists()

    def test_non_finite_bias_in_model_is_data_error(self, tree_csv, tmp_path, capsys):
        model_path = tmp_path / "m.model"
        assert main(["train", str(tree_csv), str(model_path)]) == 0
        text = model_path.read_text()
        bias = next(ln for ln in text.splitlines() if ln.startswith("b "))
        model_path.write_text(text.replace(bias, "b nan"))
        capsys.readouterr()
        assert main(["predict", str(model_path), str(tree_csv)]) == 2
        captured = capsys.readouterr()
        assert "must be finite" in captured.err and captured.out == ""

    def test_model_feature_count_mismatch_is_data_error(self, tree_csv, tmp_path, capsys):
        data = TrainingSet(np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]), [-1.0, 1.0])
        model_path = tmp_path / "m3.model"
        save_model(train(data, TrainConfig(C=10.0)), model_path)
        assert main(["predict", str(model_path), str(tree_csv)]) == 2
        assert "model expects (n, 3)" in capsys.readouterr().err

    def test_non_utf8_model_is_data_error(self, tree_csv, tmp_path, capsys):
        model_path = tmp_path / "m.model"
        model_path.write_bytes(b"shadowprune-model v1\nkernel \xff\nend\n")
        assert main(["predict", str(model_path), str(tree_csv)]) == 2
        assert "not UTF-8" in capsys.readouterr().err

    def test_non_utf8_features_is_data_error(self, tree_csv, tmp_path, capsys):
        model_path = tmp_path / "m.model"
        assert main(["train", str(tree_csv), str(model_path)]) == 0
        bad = tmp_path / "bad.csv"
        bad.write_bytes(tree_csv.read_bytes().replace(b"t000", b"t\xff00", 1))
        capsys.readouterr()
        assert main(["predict", str(model_path), str(bad)]) == 2
        assert "unreadable features CSV" in capsys.readouterr().err

    def test_rbf_train(self, tree_csv, tmp_path, capsys):
        model_path = tmp_path / "r.model"
        assert main(["train", "--kernel", "rbf", str(tree_csv), str(model_path)]) == 0
        model = load_model(model_path)
        assert model.kernel == "rbf" and model.gamma is not None

    @pytest.mark.parametrize("kernel", ["linear", "rbf"])
    def test_seed_does_not_change_the_model(self, tree_csv, tmp_path, capsys, kernel):
        paths = {seed: tmp_path / f"seed{seed}.model" for seed in (1, 2)}
        for seed, path in paths.items():
            code = main(["--seed", str(seed), "train", "--kernel", kernel,
                         str(tree_csv), str(path)])
            assert code == 0
        assert paths[1].read_bytes() == paths[2].read_bytes()

    def test_rbf_predict_on_huge_feature_is_quiet(self, tree_csv, tmp_path):
        model_path = tmp_path / "r.model"
        assert main(["train", "--kernel", "rbf", str(tree_csv), str(model_path)]) == 0
        huge = tmp_path / "huge.csv"
        header, row = tree_csv.read_text().splitlines()[:2]
        fields = row.split(",")
        fields[3] = "1e308"
        huge.write_text(header + "\n" + ",".join(fields) + "\n")
        proc = subprocess.run(
            [sys.executable, "-m", "shadowprune.cli", "predict", str(model_path), str(huge)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
        value = float(proc.stdout.splitlines()[1].split(",")[3])
        assert np.isfinite(value)


class TestEvaluate:
    def test_full_report_and_saved_model(self, dataset, tmp_path, capsys):
        report = tmp_path / "report.kv"
        model_path = tmp_path / "best.model"
        code = main(
            [
                "evaluate",
                str(dataset / "manifest.csv"),
                "--report",
                str(report),
                "--save-model",
                str(model_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "pruning evaluation report" in out
        assert "winner:" in out
        text = report.read_text()
        assert text.startswith("shadowprune-report v1")
        assert text.rstrip().endswith("end")
        assert load_model(model_path).normalizer is not None

    def test_report_into_missing_directory(self, dataset, tmp_path, capsys):
        missing = tmp_path / "no_such_dir" / "report.kv"
        code = main(
            ["evaluate", "--kernel", "linear", str(dataset / "manifest.csv"),
             "--report", str(missing)]
        )
        assert code == 2
        assert "cannot write report" in capsys.readouterr().err

    def test_non_utf8_manifest_is_data_error(self, dataset, tmp_path, capsys):
        manifest = tmp_path / "manifest.csv"
        manifest.write_bytes(
            (dataset / "manifest.csv").read_bytes().replace(b"t000", b"t\xff00", 1)
        )
        assert main(["evaluate", str(manifest)]) == 2
        assert "unreadable manifest" in capsys.readouterr().err

    def test_single_kernel_no_winner_line(self, dataset, capsys):
        code = main(
            ["evaluate", "--kernel", "linear", str(dataset / "manifest.csv")]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "linear: accuracy" in out
        assert "winner:" not in out

    def test_failed_split_names_the_skipped_trees(self, tmp_path, capsys):
        flat = tmp_path / "flat.pgm"
        flat.write_bytes(encode_pgm(GrayImage(np.full((20, 20), 5, dtype=np.uint8))))
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("tree_id,photo_id,image_path,label\n" + "".join(
            f"t{i},p1,flat.pgm,{i % 2}\n" for i in range(4)))
        assert main(["evaluate", str(manifest)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: stratified split needs >= 2 records per class, got 0 good / 0 poor;"
            " skipped trees: 4, first t0: histogram has fewer than two occupied"
            " intensity levels (photo_id=p1)\n")

    def test_report_deterministic(self, dataset, tmp_path, capsys):
        paths = [tmp_path / "r1.kv", tmp_path / "r2.kv"]
        for p in paths:
            assert main(
                ["evaluate", str(dataset / "manifest.csv"), "--report", str(p)]
            ) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestSynthCommand:
    def test_deterministic_across_directories(self, tmp_path, capsys):
        for name in ("a", "b"):
            code = main(
                ["synth", "--out", str(tmp_path / name), "--trees", "2",
                 "--points", "2", "--image-size", "80"]
            )
            assert code == 0
        assert (tmp_path / "a" / "manifest.csv").read_bytes() == (
            tmp_path / "b" / "manifest.csv"
        ).read_bytes()
        rel = "images/t001_p01.pgm"
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()

    def test_counts(self, tmp_path, capsys):
        out = tmp_path / "d"
        assert main(
            ["synth", "--out", str(out), "--trees", "4", "--points", "3",
             "--image-size", "80"]
        ) == 0
        assert len(list((out / "images").glob("*.pgm"))) == 12


class TestPlot:
    def test_plot_from_trained_model(self, dataset, tmp_path, capsys):
        features = tmp_path / "t.csv"
        model_path = tmp_path / "m.model"
        svg_path = tmp_path / "plot.svg"
        assert main(
            ["extract", "--per-tree", str(dataset / "manifest.csv"), str(features)]
        ) == 0
        assert main(["train", str(features), str(model_path)]) == 0
        assert main(["plot", str(features), str(model_path), str(svg_path)]) == 0
        assert svg_path.read_text().startswith("<?xml")

    def test_non_utf8_model_is_data_error(self, dataset, tmp_path, capsys):
        features = tmp_path / "t.csv"
        model_path = tmp_path / "m.model"
        assert main(
            ["extract", "--per-tree", str(dataset / "manifest.csv"), str(features)]
        ) == 0
        model_path.write_bytes(b"shadowprune-model v1\n\xfe\xff\nend\n")
        code = main(["plot", str(features), str(model_path), str(tmp_path / "p.svg")])
        assert code == 2
        assert "not UTF-8" in capsys.readouterr().err
