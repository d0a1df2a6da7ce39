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
    extract_dataset_tolerant,
    extract_point_features,
    extract_tree_features,
    ingest,
    read_features_csv,
    run_experiment,
    split,
    write_features_csv,
)
from shadowprune.pooling import PoolConfig
from shadowprune.svm import TrainConfig

NO_POOL = PoolConfig(enabled=False)


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


def feat_record(tree_id: str, label: int, rate: float, unif: float) -> TreeRecord:
    fv = np.array([rate, unif])
    pt = SamplePoint(tree_id, "p00", Path("unused.pgm"), features=fv)
    return TreeRecord(tree_id, label, (pt,), features=fv)


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
        assert effective_grid(GridConfig(100), PoolConfig(p=1)).grid_edge == 100

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
        done = extract_tree_features(rec, NO_POOL, GridConfig(10))
        assert done.features[0] == pytest.approx(0.5, abs=1e-12)
        mean = np.mean([p.features for p in done.points], axis=0)
        assert done.features.tolist() == mean.tolist()

    def test_identical_points_mean_is_point(self, tmp_path):
        a = put_image(tmp_path, "a.pgm", rate=0.4)
        pts = tuple(
            SamplePoint("t1", f"p{i}", tmp_path / a) for i in range(3)
        )
        done = extract_tree_features(TreeRecord("t1", 1, pts), NO_POOL, GridConfig(10))
        first = done.points[0].features
        assert done.features[0] == pytest.approx(first[0], rel=1e-12)
        assert done.features[1] == pytest.approx(first[1], rel=1e-12)

    def test_degenerate_image_names_photo(self, tmp_path):
        flat = GrayImage(np.full((20, 20), 128, dtype=np.uint8))
        (tmp_path / "flat.pgm").write_bytes(encode_pgm(flat))
        pt = SamplePoint("t1", "p77", tmp_path / "flat.pgm")
        with pytest.raises(DegenerateHistogram, match="p77"):
            extract_point_features(pt, NO_POOL, GridConfig(10))

    def test_tolerant_extraction_skips_bad_tree(self, tmp_path):
        good = put_image(tmp_path, "good.pgm", rate=0.3)
        flat = GrayImage(np.full((20, 20), 128, dtype=np.uint8))
        (tmp_path / "flat.pgm").write_bytes(encode_pgm(flat))
        records = [
            TreeRecord("ok", 1, (SamplePoint("ok", "p1", tmp_path / good),)),
            TreeRecord("bad", -1, (SamplePoint("bad", "p1", tmp_path / "flat.pgm"),)),
        ]
        done, failures = extract_dataset_tolerant(records, NO_POOL, GridConfig(10))
        assert [r.tree_id for r in done] == ["ok"]
        assert len(failures) == 1 and failures[0][0] == "bad"

    def test_extract_dataset_raises_first_failure(self, tmp_path):
        good = put_image(tmp_path, "good.pgm", rate=0.3)
        flat = GrayImage(np.full((20, 20), 128, dtype=np.uint8))
        (tmp_path / "flat.pgm").write_bytes(encode_pgm(flat))
        records = [
            TreeRecord(tree_id, 1, (SamplePoint(tree_id, photo_id, tmp_path / name),))
            for tree_id, photo_id, name in (("ok", "p1", good), ("bad", "p2", "flat.pgm"),
                                            ("worse", "p3", "flat.pgm"))
        ]
        with pytest.raises(DegenerateHistogram, match="photo_id=p2"):
            extract_dataset(records, NO_POOL, GridConfig(10))

    def test_extract_dataset_preserves_order(self, tmp_path):
        a = put_image(tmp_path, "a.pgm", rate=0.2)
        records = [
            TreeRecord(f"t{i}", 1 if i % 2 else -1,
                       (SamplePoint(f"t{i}", "p1", tmp_path / a),))
            for i in range(4)
        ]
        done = extract_dataset(records, NO_POOL, GridConfig(10))
        assert [r.tree_id for r in done] == [r.tree_id for r in records]


class TestSplit:
    @staticmethod
    def records(n_good: int, n_poor: int) -> list[TreeRecord]:
        recs = [feat_record(f"g{i}", 1, 0.1, 10.0) for i in range(n_good)]
        recs += [feat_record(f"b{i}", -1, 0.5, 200.0) for i in range(n_poor)]
        return recs

    def test_sixty_forty(self):
        train, test = split(self.records(50, 50), SplitSpec(0.6, seed=0))
        assert len(train) == 60 and len(test) == 40
        assert sum(1 for r in train if r.label == 1) == 30
        assert sum(1 for r in test if r.label == 1) == 20

    def test_partition_and_order(self):
        recs = self.records(7, 5)
        train, test = split(recs, SplitSpec(0.6, seed=3))
        ids = [r.tree_id for r in recs]
        assert sorted(r.tree_id for r in train + test) == sorted(ids)
        assert not set(r.tree_id for r in train) & set(r.tree_id for r in test)
        # outputs keep the original record order
        pos = {tid: i for i, tid in enumerate(ids)}
        for part in (train, test):
            order = [pos[r.tree_id] for r in part]
            assert order == sorted(order)

    def test_deterministic_and_seed_sensitive(self):
        recs = self.records(20, 20)
        t1, _ = split(recs, SplitSpec(0.6, seed=5))
        t2, _ = split(recs, SplitSpec(0.6, seed=5))
        t3, _ = split(recs, SplitSpec(0.6, seed=6))
        assert [r.tree_id for r in t1] == [r.tree_id for r in t2]
        assert [r.tree_id for r in t1] != [r.tree_id for r in t3]

    def test_single_class_rejected(self):
        with pytest.raises(InsufficientData):
            split(self.records(4, 0), SplitSpec(0.6))

    def test_tiny_class_rejected(self):
        with pytest.raises(InsufficientData):
            split(self.records(5, 1), SplitSpec(0.6))

    @pytest.mark.parametrize("fraction", [0.05, 0.5, 0.95])
    def test_each_class_on_each_side(self, fraction):
        train, test = split(self.records(3, 3), SplitSpec(fraction, seed=1))
        for part in (train, test):
            labels = {r.label for r in part}
            assert labels == {-1, 1}


class TestRunExperiment:
    @staticmethod
    def separable_records() -> list[TreeRecord]:
        recs = [feat_record(f"g{i}", 1, 0.10 + 0.01 * i, 20.0 + i) for i in range(5)]
        recs += [feat_record(f"b{i}", -1, 0.50 + 0.01 * i, 250.0 + i) for i in range(5)]
        return recs

    def test_separable_scores_perfectly(self):
        result = run_experiment(
            self.separable_records(),
            [TrainConfig(kernel="linear"), TrainConfig(kernel="rbf")],
        )
        report = result.report
        assert report.n_train == 6 and report.n_test == 4
        for e in report.entries:
            assert e.accuracy == 1.0
            assert e.tp + e.tn + e.fp + e.fn == report.n_test
        assert report.best().accuracy == 1.0
        assert "winner:" in report.to_text()

    def test_failed_config_is_isolated(self):
        result = run_experiment(
            self.separable_records(),
            [TrainConfig(kernel="linear"),
             TrainConfig(kernel="linear", max_iterations=1)],
        )
        ok, broken = result.report.entries
        assert ok.accuracy == 1.0
        assert broken.accuracy is None and broken.error is not None
        assert result.models[1] is None and result.predictions[1] is None
        assert "FAILED" in result.report.to_text()

    def test_normalizer_ignores_test_rows(self):
        recs = self.separable_records()
        first = run_experiment(recs, [TrainConfig(kernel="linear")])
        moved_id = first.test_records[0].tree_id
        bumped = [
            feat_record(r.tree_id, r.label, 0.99, 400.0)
            if r.tree_id == moved_id
            else r
            for r in recs
        ]
        second = run_experiment(bumped, [TrainConfig(kernel="linear")])
        assert first.models[0].normalizer.mins == second.models[0].normalizer.mins
        assert first.models[0].normalizer.maxs == second.models[0].normalizer.maxs

    def test_report_kv_shape(self):
        result = run_experiment(
            self.separable_records(),
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
            self.separable_records(),
            [TrainConfig(kernel="linear")],
            pool_cfg=PoolConfig(p=3),
            grid_cfg=GridConfig(100),
        )
        model = result.models[0]
        assert model.pool_factor == 3
        assert model.grid_edge == 33
        assert model.normalizer is not None


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

    def test_from_records_per_photo_and_per_tree(self):
        recs = [feat_record("a", 1, 0.2, 3.0), feat_record("b", -1, 0.6, 5.0)]
        photos = FeatureTable.from_records(recs)
        assert photos.photo_ids == ("p00", "p00")
        assert photos.x.tolist() == [[0.2, 3.0], [0.6, 5.0]]
        trees = FeatureTable.from_records(recs, per_tree=True)
        assert trees.tree_ids == ("a", "b") and trees.photo_ids == ("", "")
        assert trees.y.tolist() == [1, -1]

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
