"""Manifest ingest, feature extraction over trees, split, experiment."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from shadowprune.errors import (
    DegenerateHistogram,
    DuplicatePhotoId,
    InsufficientData,
    InvalidConfig,
    InvalidLabel,
    LabelConflict,
    MalformedFile,
    MissingImage,
    ShadowPruneError,
)
from shadowprune.features import GridConfig
from shadowprune.imgcore import GrayImage, encode_pgm
from shadowprune.pipeline import (
    FEATURES_FIELDS,
    FeatureTable,
    SamplePoint,
    SplitSpec,
    TreeRecord,
    effective_grid,
    extract_dataset,
    extract_point_features,
    ingest,
    read_features_csv,
    run_experiment,
    split,
    write_features_csv,
)
from shadowprune.pooling import PoolConfig
from shadowprune.svm import TrainConfig

NO_POOL = PoolConfig(1)


def bimodal_image(rate: float, edge: int = 60) -> GrayImage:
    """First k pixels dark so the post-threshold black rate is exact."""
    k = round(rate * edge * edge)
    px = np.full(edge * edge, 215, dtype=np.uint8)
    px[:k] = 40
    return GrayImage(px.reshape(edge, edge))


def write_manifest(tmp_path: Path, rows, header="tree_id,photo_id,image_path,label"):
    lines = [header] + [",".join(r) for r in rows]
    path = tmp_path / "manifest.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


def put_image(tmp_path: Path, name: str, rate: float = 0.3) -> str:
    (tmp_path / name).write_bytes(encode_pgm(bimodal_image(rate)))
    return name


def feat_table(rows: list[tuple[str, int, float, float]]) -> FeatureTable:
    """One per-tree row for each (tree_id, label, rate, uniformity)."""
    return FeatureTable([r[0] for r in rows], [""] * len(rows),
                        np.reshape([r[2:] for r in rows], (-1, 2)), [r[1] for r in rows])


def flat_pgm(tmp_path: Path) -> str:
    flat = GrayImage(np.full((20, 20), 128, dtype=np.uint8))
    (tmp_path / "flat.pgm").write_bytes(encode_pgm(flat))
    return "flat.pgm"


class TestIngest:
    def test_non_utf8_is_malformed(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_bytes(b"tree_id,photo_id,image_path,label\nt\xff,p1,a.pgm,1\n")
        with pytest.raises(MalformedFile):
            ingest(path)

    def test_groups_and_labels(self, tmp_path):
        a = put_image(tmp_path, "a.pgm")
        b = put_image(tmp_path, "b.pgm")
        manifest = write_manifest(
            tmp_path,
            [
                ("tree1", "p1", a, "1"),
                ("tree1", "p2", b, "1"),
                ("tree2", "p1", b, "0"),
            ],
        )
        records = ingest(manifest)
        assert [r.tree_id for r in records] == ["tree1", "tree2"]
        assert records[0].label == 1 and records[1].label == -1
        assert len(records[0].points) == 2 and len(records[1].points) == 1
        assert records[0].points[0].image_path == tmp_path / "a.pgm"

    def test_signed_labels_accepted(self, tmp_path):
        a = put_image(tmp_path, "a.pgm")
        manifest = write_manifest(
            tmp_path, [("t1", "p1", a, "+1"), ("t2", "p1", a, "-1")]
        )
        records = ingest(manifest)
        assert [r.label for r in records] == [1, -1]

    def test_bad_header(self, tmp_path):
        manifest = write_manifest(tmp_path, [], header="tree,photo,path,label")
        with pytest.raises(MalformedFile):
            ingest(manifest)

    def test_no_rows(self, tmp_path):
        manifest = write_manifest(tmp_path, [])
        with pytest.raises(InsufficientData):
            ingest(manifest)

    def test_invalid_label(self, tmp_path):
        a = put_image(tmp_path, "a.pgm")
        with pytest.raises(InvalidLabel):
            ingest(write_manifest(tmp_path, [("t1", "p1", a, "2")]))

    def test_label_conflict(self, tmp_path):
        a = put_image(tmp_path, "a.pgm")
        rows = [("t1", "p1", a, "1"), ("t1", "p2", a, "0")]
        with pytest.raises(LabelConflict):
            ingest(write_manifest(tmp_path, rows))

    def test_duplicate_photo(self, tmp_path):
        a = put_image(tmp_path, "a.pgm")
        rows = [("t1", "p1", a, "1"), ("t1", "p1", a, "1")]
        with pytest.raises(DuplicatePhotoId):
            ingest(write_manifest(tmp_path, rows))

    def test_missing_image(self, tmp_path):
        with pytest.raises(MissingImage):
            ingest(write_manifest(tmp_path, [("t1", "p1", "ghost.pgm", "1")]))

    def test_short_row(self, tmp_path):
        put_image(tmp_path, "a.pgm")
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("tree_id,photo_id,image_path,label\nt1,p1,a.pgm\n")
        with pytest.raises(MalformedFile):
            ingest(manifest)

    @given(
        st.sampled_from(["tree_id,photo_id,image_path,label", "", "tree_id,photo_id",
                         "tree,photo,path,label", '"tree_id",photo_id,image_path,label',
                         "tree_id,photo_id,image_path,label,extra"]) | st.text(max_size=12),
        st.binary(max_size=200) | st.lists(
            st.lists(st.sampled_from(["t1", "p1", "p2", "a.pgm", "ghost.pgm", "sub", "sub/",
                                      "ABS", "x" * 300, "1", "0", "+1", "-1", "2", '"',
                                      "", " ", "\r", "\x00"])
                     | st.text(max_size=6), max_size=6).map(",".join),
            max_size=5).map(lambda rows: "\n".join(rows).encode("utf-8", "surrogatepass")),
    )
    @example("tree_id,photo_id,image_path,label", b"t1,p1," + b"x" * 300 + b",1")
    @example("tree_id,photo_id,image_path,label", b"t1,p1,sub,1")
    @example("tree_id,photo_id,image_path,label", b"t1,p1,ABS,1\nt1,p2,a.pgm,+1")
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_fuzz_only_library_errors_escape(self, tmp_path, header, body):
        put_image(tmp_path, "a.pgm")
        (tmp_path / "sub").mkdir(exist_ok=True)
        body = body.replace(b"ABS", str(tmp_path / "a.pgm").encode())
        manifest = tmp_path / "manifest.csv"
        manifest.write_bytes(header.encode("utf-8", "surrogatepass") + b"\n" + body)
        try:
            records = ingest(manifest)
        except ShadowPruneError:
            return
        assert all(p.image_path.is_file() for r in records for p in r.points)


class TestEffectiveGrid:
    def test_divides_by_pool_factor(self):
        assert effective_grid(GridConfig(100), PoolConfig(p=3)).grid_edge == 33

    def test_disabled_pooling_keeps_grid(self):
        assert effective_grid(GridConfig(100), NO_POOL).grid_edge == 100

    def test_never_below_one(self):
        assert effective_grid(GridConfig(2), PoolConfig(p=5)).grid_edge == 1


class TestExtraction:
    def test_point_rate_is_exact(self, tmp_path):
        name = put_image(tmp_path, "x.pgm", rate=0.25)
        pt = SamplePoint("t1", "p1", tmp_path / name)
        fv = extract_point_features(pt, NO_POOL, GridConfig(10))
        assert fv[0] == 0.25

    def test_tree_mean_of_two_points(self, tmp_path):
        a = put_image(tmp_path, "a.pgm", rate=0.2)
        b = put_image(tmp_path, "b.pgm", rate=0.8)
        rec = TreeRecord(
            "t1",
            1,
            (
                SamplePoint("t1", "p1", tmp_path / a),
                SamplePoint("t1", "p2", tmp_path / b),
            ),
        )
        photos, failures = extract_dataset([rec], NO_POOL, GridConfig(10))
        assert failures == [] and photos.photo_ids == ("p1", "p2")
        tree = photos.per_tree()
        assert tree.x[0, 0] == pytest.approx(0.5, abs=1e-12)
        assert tree.x[0].tolist() == np.mean(photos.x, axis=0).tolist()

    def test_identical_points_mean_is_point(self, tmp_path):
        a = put_image(tmp_path, "a.pgm", rate=0.4)
        pts = tuple(
            SamplePoint("t1", f"p{i}", tmp_path / a) for i in range(3)
        )
        photos, _ = extract_dataset([TreeRecord("t1", 1, pts)], NO_POOL, GridConfig(10))
        tree, first = photos.per_tree().x[0], photos.x[0]
        assert tree[0] == pytest.approx(first[0], rel=1e-12)
        assert tree[1] == pytest.approx(first[1], rel=1e-12)

    def test_degenerate_image_names_photo(self, tmp_path):
        pt = SamplePoint("t1", "p77", tmp_path / flat_pgm(tmp_path))
        with pytest.raises(DegenerateHistogram, match="p77"):
            extract_point_features(pt, NO_POOL, GridConfig(10))

    def test_tolerant_extraction_skips_bad_tree(self, tmp_path):
        good = put_image(tmp_path, "good.pgm", rate=0.3)
        flat = flat_pgm(tmp_path)
        records = [
            TreeRecord("ok", 1, (SamplePoint("ok", "p1", tmp_path / good),)),
            TreeRecord("bad", -1, (SamplePoint("bad", "p1", tmp_path / good),
                                   SamplePoint("bad", "p2", tmp_path / flat))),
        ]
        table, failures = extract_dataset(records, NO_POOL, GridConfig(10))
        # a tree with one failing photo contributes no row at all
        assert table.tree_ids == ("ok",) and table.y.tolist() == [1]
        assert len(failures) == 1 and failures[0][0] == "bad"

    def test_extract_dataset_reports_every_failure_in_order(self, tmp_path):
        good = put_image(tmp_path, "good.pgm", rate=0.3)
        flat = flat_pgm(tmp_path)
        records = [
            TreeRecord(tree_id, 1, (SamplePoint(tree_id, photo_id, tmp_path / name),))
            for tree_id, photo_id, name in (("ok", "p1", good), ("bad", "p2", flat),
                                            ("worse", "p3", flat))
        ]
        table, failures = extract_dataset(records, NO_POOL, GridConfig(10))
        assert table.tree_ids == ("ok",)
        assert [tree_id for tree_id, _ in failures] == ["bad", "worse"]
        assert "photo_id=p2" in failures[0][1] and "photo_id=p3" in failures[1][1]

    def test_no_usable_tree_gives_empty_table(self, tmp_path):
        flat = flat_pgm(tmp_path)
        records = [TreeRecord("bad", 1, (SamplePoint("bad", "p1", tmp_path / flat),))]
        table, failures = extract_dataset(records, NO_POOL, GridConfig(10))
        assert len(table) == 0 and table.x.shape == (0, 2) and table.y.shape == (0,)
        assert len(failures) == 1
        assert len(table.per_tree()) == 0

    def test_extract_dataset_preserves_order(self, tmp_path):
        a = put_image(tmp_path, "a.pgm", rate=0.2)
        records = [
            TreeRecord(f"t{i}", 1 if i % 2 else -1,
                       (SamplePoint(f"t{i}", "p1", tmp_path / a),
                        SamplePoint(f"t{i}", "p0", tmp_path / a)))
            for i in range(4)
        ]
        table, _ = extract_dataset(records, NO_POOL, GridConfig(10))
        assert table.tree_ids == ("t0", "t0", "t1", "t1", "t2", "t2", "t3", "t3")
        assert table.photo_ids == ("p1", "p0") * 4
        assert table.y.tolist() == [-1, -1, 1, 1, -1, -1, 1, 1]


class TestPerTree:
    @given(st.lists(st.tuples(st.sampled_from([-1, 1]),
                              st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1e3)),
                                       min_size=1, max_size=12)),
                    min_size=1, max_size=6),
           st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    def test_matches_stacked_mean(self, trees, random):
        # rows of all trees interleaved, not contiguous
        items = [(f"t{k}", f"p{j}", row, label)
                 for k, (label, rows) in enumerate(trees) for j, row in enumerate(rows)]
        random.shuffle(items)
        tree_ids, photo_ids, x, y = zip(*items)
        table = FeatureTable(tree_ids, photo_ids, np.array(x), y)
        out = table.per_tree()
        assert out.tree_ids == tuple(dict.fromkeys(tree_ids))
        assert out.photo_ids == ("",) * len(trees)
        for tree_id, got, label in zip(out.tree_ids, out.x, out.y.tolist()):
            label_of, rows = trees[int(tree_id[1:])]
            assert label == label_of
            stacked = [np.array(r) for t, _, r, _ in items if t == tree_id]
            assert got.tobytes() == np.mean(np.stack(stacked), axis=0).tobytes()
        again = out.per_tree()
        assert (again.tree_ids, again.photo_ids) == (out.tree_ids, out.photo_ids)
        assert again.x.tobytes() == out.x.tobytes() and again.y.tolist() == out.y.tolist()

    def test_rows_of_one_tree_labeled_both_ways(self):
        table = FeatureTable(("a", "a"), ("p1", "p2"), np.zeros((2, 2)), [1, -1])
        with pytest.raises(LabelConflict, match="tree a"):
            table.per_tree()

    def test_take_keeps_the_given_order(self):
        table = feat_table([("a", 1, 0.1, 1.0), ("b", -1, 0.2, 2.0), ("c", 1, 0.3, 3.0)])
        picked = table.take([2, 0])
        assert picked.tree_ids == ("c", "a") and picked.y.tolist() == [1, 1]
        assert picked.x.tolist() == [[0.3, 3.0], [0.1, 1.0]]
        assert len(table.take([])) == 0


class TestSplit:
    @staticmethod
    def table(n_good: int, n_poor: int) -> FeatureTable:
        return feat_table([(f"g{i}", 1, 0.1, 10.0) for i in range(n_good)]
                          + [(f"b{i}", -1, 0.5, 200.0) for i in range(n_poor)])

    def test_sixty_forty(self):
        train, test = split(self.table(50, 50), SplitSpec(0.6, seed=0))
        assert len(train) == 60 and len(test) == 40
        assert np.count_nonzero(train.y == 1) == 30
        assert np.count_nonzero(test.y == 1) == 20

    def test_partition_and_order(self):
        table = self.table(7, 5)
        train, test = split(table, SplitSpec(0.6, seed=3))
        ids = list(table.tree_ids)
        assert sorted(train.tree_ids + test.tree_ids) == sorted(ids)
        assert not set(train.tree_ids) & set(test.tree_ids)
        # outputs keep the original row order
        pos = {tid: i for i, tid in enumerate(ids)}
        for part in (train, test):
            order = [pos[tid] for tid in part.tree_ids]
            assert order == sorted(order)
            assert part.y.tolist() == [table.y[pos[tid]] for tid in part.tree_ids]

    def test_deterministic_and_seed_sensitive(self):
        table = self.table(20, 20)
        t1, _ = split(table, SplitSpec(0.6, seed=5))
        t2, _ = split(table, SplitSpec(0.6, seed=5))
        t3, _ = split(table, SplitSpec(0.6, seed=6))
        assert t1.tree_ids == t2.tree_ids
        assert t1.tree_ids != t3.tree_ids

    def test_single_class_rejected(self):
        with pytest.raises(InsufficientData):
            split(self.table(4, 0), SplitSpec(0.6))

    def test_tiny_class_rejected(self):
        with pytest.raises(InsufficientData):
            split(self.table(5, 1), SplitSpec(0.6))

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.5, float("nan")])
    def test_invalid_fraction(self, fraction):
        with pytest.raises(InvalidConfig):
            SplitSpec(fraction)

    @pytest.mark.parametrize("seed", [-1, -(2**70), (3, -1)])
    def test_negative_seed_rejected(self, seed):
        with pytest.raises(InvalidConfig, match="seed"):
            SplitSpec(0.6, seed=seed)

    @pytest.mark.parametrize("fraction", [0.05, 0.5, 0.95])
    def test_each_class_on_each_side(self, fraction):
        train, test = split(self.table(3, 3), SplitSpec(fraction, seed=1))
        for part in (train, test):
            assert set(part.y.tolist()) == {-1, 1}


class TestRunExperiment:
    @staticmethod
    def separable_table() -> FeatureTable:
        return feat_table([(f"g{i}", 1, 0.10 + 0.01 * i, 20.0 + i) for i in range(5)]
                          + [(f"b{i}", -1, 0.50 + 0.01 * i, 250.0 + i) for i in range(5)])

    def test_separable_scores_perfectly(self):
        result = run_experiment(
            self.separable_table(),
            [TrainConfig(kernel="linear"), TrainConfig(kernel="rbf")],
        )
        report = result.report
        assert report.n_train == 6 and report.n_test == 4
        assert len(result.test) == 4
        for e in report.entries:
            assert e.accuracy == 1.0
            assert e.tp + e.tn + e.fp + e.fn == report.n_test
        assert report.best().accuracy == 1.0
        assert "winner:" in report.to_text()

    def test_photo_rows_are_averaged_per_tree_first(self):
        trees = self.separable_table()
        # two photos per tree, interleaved, whose mean is the tree's row
        spread = np.array([0.01, 1.0])
        photos = FeatureTable(trees.tree_ids * 2, ("p1",) * 10 + ("p2",) * 10,
                              np.concatenate([trees.x - spread, trees.x + spread]),
                              np.concatenate([trees.y, trees.y]))
        configs = [TrainConfig(kernel="linear"), TrainConfig(kernel="rbf")]
        by_photo = run_experiment(photos, configs)
        by_tree = run_experiment(photos.per_tree(), configs)
        assert by_photo.report.to_kv() == by_tree.report.to_kv()
        assert by_photo.test.tree_ids == by_tree.test.tree_ids
        assert len(set(by_photo.test.tree_ids)) == by_photo.report.n_test == 4
        assert by_photo.predictions == by_tree.predictions

    def test_failed_config_is_isolated(self):
        result = run_experiment(
            self.separable_table(),
            [TrainConfig(kernel="linear"),
             TrainConfig(kernel="linear", max_iterations=1)],
        )
        ok, broken = result.report.entries
        assert ok.accuracy == 1.0
        assert broken.accuracy is None and broken.error is not None
        assert result.models[1] is None and result.predictions[1] is None
        assert "FAILED" in result.report.to_text()

    def test_normalizer_ignores_test_rows(self):
        table = self.separable_table()
        first = run_experiment(table, [TrainConfig(kernel="linear")])
        moved = table.tree_ids.index(first.test.tree_ids[0])
        x = table.x.copy()
        x[moved] = (0.99, 400.0)
        bumped = FeatureTable(table.tree_ids, table.photo_ids, x, table.y)
        second = run_experiment(bumped, [TrainConfig(kernel="linear")])
        assert first.models[0].normalizer.mins == second.models[0].normalizer.mins
        assert first.models[0].normalizer.maxs == second.models[0].normalizer.maxs

    def test_report_kv_shape(self):
        result = run_experiment(
            self.separable_table(),
            [TrainConfig(kernel="linear")],
            failed_trees=(("t9", "unreadable"),),
        )
        kv = result.report.to_kv()
        lines = kv.splitlines()
        assert lines[0] == "shadowprune-report v1"
        assert lines[-1] == "end"
        assert any(line.startswith("model 0 kernel linear") for line in lines)
        assert "failed t9 unreadable" in lines
        assert "skipped tree t9: unreadable" in result.report.to_text()

    def test_models_stamped_with_context(self):
        result = run_experiment(
            self.separable_table(),
            [TrainConfig(kernel="linear")],
            pool_cfg=PoolConfig(p=3),
            grid_cfg=GridConfig(100),
        )
        model = result.models[0]
        assert model.pool_factor == 3
        assert model.grid_edge == 33
        assert model.normalizer is not None

    def test_pool_factor_one_is_pooling_off(self):
        result = run_experiment(self.separable_table(), [TrainConfig(kernel="linear")],
                                pool_cfg=PoolConfig(1), grid_cfg=GridConfig(100))
        assert result.models[0].pool_factor is None
        assert result.report.pool_factor is None
        assert "pooling off, grid edge 100" in result.report.to_text()
        assert "pool_factor 0" in result.report.to_kv().splitlines()


HEADER = ",".join(FEATURES_FIELDS) + "\n"


class TestFeaturesCsv:
    def test_round_trip_exact(self, tmp_path):
        table = FeatureTable(("t1", "t2"), ("p1", ""),
                             np.array([[0.1, 1.0 / 3.0], [0.7777777777777777, 123.456]]),
                             [1, -1])
        path = tmp_path / "f.csv"
        write_features_csv(path, table)
        back = read_features_csv(path)
        assert (back.tree_ids, back.photo_ids) == (table.tree_ids, table.photo_ids)
        assert back.x.tolist() == table.x.tolist()
        assert back.y.tolist() == [1, -1]

    def test_floats_written_as_python_repr(self, tmp_path):
        table = FeatureTable(("t1",), ("p1",), np.array([[0.1, 2.0]]), [1])
        path = tmp_path / "f.csv"
        write_features_csv(path, table)
        assert path.read_text().splitlines()[1] == "t1,p1,0.1,2.0,1"

    def test_range_validation(self, tmp_path):
        path = tmp_path / "f.csv"
        bad = [("1.5", "0.0"), ("-0.1", "0.0"), ("0.5", "-1.0"),
               ("nan", "0.0"), ("0.5", "inf"), ("0.5", "x")]
        for rate, unif in bad:
            path.write_text(HEADER + "t1,p1,0.1,2.0,1\n" + f"t2,p1,{rate},{unif},1\n")
            with pytest.raises(MalformedFile, match="line 3"):
                read_features_csv(path)

    def test_non_utf8_is_malformed(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_bytes(HEADER.encode() + b"t\xff,p1,0.1,2.0,1\n")
        with pytest.raises(MalformedFile):
            read_features_csv(path)

    def test_per_photo_and_per_tree_rows(self, tmp_path):
        a = put_image(tmp_path, "a.pgm", rate=0.2)
        b = put_image(tmp_path, "b.pgm", rate=0.6)
        records = [TreeRecord("a", 1, (SamplePoint("a", "p00", tmp_path / a),)),
                   TreeRecord("b", -1, (SamplePoint("b", "p00", tmp_path / b),))]
        photos, _ = extract_dataset(records, NO_POOL, GridConfig(10))
        assert photos.photo_ids == ("p00", "p00")
        assert photos.x[:, 0].tolist() == [0.2, 0.6]
        trees = photos.per_tree()
        assert trees.tree_ids == ("a", "b") and trees.photo_ids == ("", "")
        assert trees.y.tolist() == [1, -1]
        assert trees.x.tolist() == photos.x.tolist()
        path = tmp_path / "trees.csv"
        write_features_csv(path, trees)
        assert path.read_text().splitlines()[1].startswith("a,,0.2,")

    @given(st.binary(max_size=300) | st.lists(
        st.lists(st.sampled_from(["t1", "", "0.5", "1e400", "nan", "-0.0", "2",
                                  "+1", "-1", "0", '"', "\r", "\x00"])
                 | st.text(max_size=6), max_size=6).map(",".join),
        max_size=5).map(lambda rows: "\n".join(rows).encode("utf-8", "surrogatepass")))
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_fuzz_only_library_errors_escape(self, tmp_path, body):
        path = tmp_path / "fuzz.csv"
        path.write_bytes(HEADER.encode() + body)
        try:
            read_features_csv(path)
        except ShadowPruneError:
            pass

    def test_header_enforced(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("a,b,c,d,e\nt1,p1,0.1,2.0,1\n")
        with pytest.raises(MalformedFile):
            read_features_csv(path)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("tree_id,photo_id,black_pixel_rate,uniformity,label\n")
        with pytest.raises(InsufficientData):
            read_features_csv(path)

    def test_bad_label(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text(
            "tree_id,photo_id,black_pixel_rate,uniformity,label\nt1,p1,0.1,2.0,9\n"
        )
        with pytest.raises(InvalidLabel):
            read_features_csv(path)

    def test_out_of_range_rate(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text(
            "tree_id,photo_id,black_pixel_rate,uniformity,label\nt1,p1,1.5,2.0,1\n"
        )
        with pytest.raises(MalformedFile):
            read_features_csv(path)
