"""Manifest ingest, feature extraction over trees, split, experiment."""

from __future__ import annotations

import tracemalloc
from pathlib import Path
from unittest import mock

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
from shadowprune import pipeline
from shadowprune.features import GridConfig
from shadowprune.imgcore import GrayImage, RgbImage, decode_image, encode_pgm, encode_ppm
from shadowprune.pipeline import (
    FEATURES_FIELDS,
    FeatureTable,
    SamplePoint,
    SplitSpec,
    TreeRecord,
    effective_grid,
    extract_dataset,
    ingest,
    read_features_csv,
    run_experiment,
    split,
    write_features_csv,
)
from shadowprune.pooling import PoolConfig, binarize_pooled
from shadowprune.svm import TrainConfig, serialize_model

from oracles import photo_features

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
        table, _ = extract_dataset([TreeRecord("t1", 1, (pt,))], NO_POOL, GridConfig(10))
        assert table.x[0, 0] == 0.25

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
        with pytest.raises(DegenerateHistogram):
            binarize_pooled(pt.image_path, NO_POOL)
        _, failures = extract_dataset([TreeRecord("t1", 1, (pt,))], NO_POOL, GridConfig(10))
        assert failures == [("t1", "histogram has fewer than two occupied intensity"
                                   " levels (photo_id=p77)")]

    def test_every_skipped_tree_names_its_failing_photo(self, tmp_path):
        good = put_image(tmp_path, "good.pgm")
        (tmp_path / "header.pgm").write_bytes(b"P5\n60 x\n255\n" + bytes(3600))
        (tmp_path / "short.pgm").write_bytes(encode_pgm(bimodal_image(0.3))[:100])
        records = [
            TreeRecord(tree_id, 1, tuple(SamplePoint(tree_id, f"p{i}", tmp_path / name)
                                         for i, name in enumerate(names)))
            for tree_id, names in (("t1", (good, "header.pgm", good)),
                                   ("t2", (good, good, "short.pgm")))
        ]
        table, failures = extract_dataset(records, NO_POOL, GridConfig(10))
        assert len(table) == 0
        assert failures == [
            ("t1", "bad height token b'x' (photo_id=p1)"),
            ("t2", "raw raster truncated: expected 3600 bytes, found 87 (photo_id=p2)"),
        ]

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


# The library's text for each check the oracle names; see photo_features.
REFERENCE_ERRORS = {
    "degenerate": lambda h, w, p, e: "histogram has fewer than two occupied intensity levels",
    "pool": lambda h, w, p, e: f"{h}x{w} image has no full {p}x{p} patch",
    "grid": lambda h, w, p, e: f"{h // p}x{w // p} image holds no full {e}x{e} grid",
}


def reference_extraction(records, pool_cfg, grid_cfg):
    """extract_dataset photo by photo from the oracle chain: rows and failures.

    oracles.photo_features was added for this: batching must not change
    a single bit of any photo's row, so the reference takes each photo
    alone, through the definitions, with none of the library's gray,
    histogram, Otsu, pool or feature code; only decoding is shared.
    """
    edge = effective_grid(grid_cfg, pool_cfg).grid_edge
    rows, failures = [], []
    for rec in records:
        tree_rows = []
        for point in rec.points:
            try:
                img = decode_image(point.image_path.read_bytes())
                tree_rows.append((rec.tree_id, point.photo_id,
                                  photo_features(img.pixels, pool_cfg.p, edge), rec.label))
            except ShadowPruneError as exc:
                reason = str(exc)
            except ValueError as exc:
                reason = REFERENCE_ERRORS[str(exc)](img.height, img.width, pool_cfg.p, edge)
            else:
                continue
            failures.append((rec.tree_id, f"{reason} (photo_id={point.photo_id})"))
            break
        else:
            rows += tree_rows
    return rows, failures


def assert_matches_reference(records, pool_cfg, grid_cfg, batch_bytes):
    with mock.patch.object(pipeline, "_BATCH_BYTES", batch_bytes):
        table, failures = extract_dataset(records, pool_cfg, grid_cfg)
    rows, want_failures = reference_extraction(records, pool_cfg, grid_cfg)
    assert failures == want_failures
    assert table.tree_ids == tuple(r[0] for r in rows)
    assert table.photo_ids == tuple(r[1] for r in rows)
    assert table.x.tobytes() == np.reshape([r[2] for r in rows], (-1, 2)).tobytes()
    assert table.y.tolist() == [r[3] for r in rows]


PHOTO_KINDS = ("gray", "gray", "colour", "colour", "flat", "small", "broken")

# Bytes of about three photos in a batch: a histogram is 2048 bytes.
FEW_PHOTOS = 3 * 2048 + 300


def write_photo(path: Path, kind: str, shape: tuple[int, int], seed: int, plain: bool = False):
    """A photo file of one kind: gray or colour, or failing in the pixel phase."""
    rng = np.random.default_rng(seed)
    if kind == "small":
        shape = (int(rng.integers(1, 4)), int(rng.integers(1, 4)))
    levels = rng.integers(0, 256, (*shape, 3) if kind == "colour" else shape)
    if kind == "flat":
        levels[...] = 77
    elif kind != "colour":
        levels[0, 0], levels[-1, -1] = 0, 255
    data = (encode_ppm(RgbImage(levels), raw=not plain) if kind == "colour"
            else encode_pgm(GrayImage(levels), raw=not plain))
    path.write_bytes(data[:-3] if kind == "broken" else data)


@st.composite
def orchards(draw):
    """Trees of photos of a few sizes, some failing, with a pool factor and grid."""
    trees = draw(st.lists(st.lists(st.tuples(
        st.sampled_from(PHOTO_KINDS), st.sampled_from([(12, 12), (13, 14), (12, 18), (20, 7)]),
        st.integers(0, 2**32 - 1), st.booleans()), min_size=1, max_size=4),
        min_size=1, max_size=5))
    return trees, draw(st.sampled_from([1, 2, 3])), draw(st.sampled_from([1, 4, 9]))


def orchard_records(root: Path, trees) -> list[TreeRecord]:
    records = []
    for t, photos in enumerate(trees):
        points = []
        for i, (kind, shape, seed, plain) in enumerate(photos):
            path = root / f"t{t}p{i}.pnm"
            write_photo(path, kind, shape, seed, plain)
            points.append(SamplePoint(f"t{t}", f"p{i}", path))
        records.append(TreeRecord(f"t{t}", 1 if t % 2 else -1, tuple(points)))
    return records


class TestBatchedExtraction:
    @given(orchards(), st.sampled_from([1, FEW_PHOTOS, pipeline._BATCH_BYTES]))
    @settings(max_examples=60, deadline=None)
    def test_matches_the_photo_by_photo_reference(self, tmp_path_factory, orchard, batch_bytes):
        # A budget of 1 byte makes a batch of every photo.
        trees, p, grid = orchard
        records = orchard_records(tmp_path_factory.mktemp("orchard"), trees)
        assert_matches_reference(records, PoolConfig(p), GridConfig(grid), batch_bytes)

    @pytest.mark.parametrize("failing", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("p", [1, 3])
    def test_failure_around_a_batch_boundary(self, tmp_path, failing, p):
        # Photos 0-2 are tree t0 and 3-6 tree t1; batches of three photos
        # end after photos 2 and 5, so the failing photo sits inside a
        # batch, at either side of a boundary, or first in a tree.
        kinds = ["gray", "colour"] * 4
        kinds[failing] = "flat"
        photos = [(kind, (12, 12), seed, False) for seed, kind in enumerate(kinds[:7])]
        records = orchard_records(tmp_path, [photos[:3], photos[3:]])
        assert_matches_reference(records, PoolConfig(p), GridConfig(4), FEW_PHOTOS)

    def test_memory_does_not_grow_with_the_manifest(self, tmp_path):
        # 128 x 128 photos at p = 1: a batch of the default budget holds
        # 14, so 20 photos fill one already.  Beyond the batch, memory
        # grows by the table's ids and rows alone.
        write_photo(tmp_path / "photo.pgm", "gray", (128, 128), 5)

        def peak(n_trees):
            records = [TreeRecord(f"t{t}", 1, tuple(SamplePoint(f"t{t}", f"p{i}",
                                                                tmp_path / "photo.pgm")
                                                    for i in range(10)))
                       for t in range(n_trees)]
            tracemalloc.start()
            try:
                table, _ = extract_dataset(records, NO_POOL, GridConfig(32))
                return tracemalloc.get_traced_memory()[1], len(table)
            finally:
                tracemalloc.stop()

        (small, n_small), (large, n_large) = peak(2), peak(20)
        assert (n_small, n_large) == (20, 200)
        assert large < small + 64 * 1024


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
        report = run_experiment(
            self.separable_table(),
            [TrainConfig(kernel="linear"), TrainConfig(kernel="rbf")],
        )
        assert report.n_train == 6 and report.n_test == 4
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
        assert by_photo.to_kv() == by_tree.to_kv()
        assert by_photo.n_test == 4
        assert ([serialize_model(e.model) for e in by_photo.entries]
                == [serialize_model(e.model) for e in by_tree.entries])

    def test_failed_config_is_isolated(self):
        report = run_experiment(
            self.separable_table(),
            [TrainConfig(kernel="linear"),
             TrainConfig(kernel="linear", max_iterations=1)],
        )
        ok, broken = report.entries
        assert ok.accuracy == 1.0
        assert broken.accuracy is None and broken.error is not None
        assert broken.model is None and ok.model is not None
        assert report.best().model is ok.model
        assert "FAILED" in report.to_text()

    def test_normalizer_ignores_test_rows(self):
        table = self.separable_table()
        first = run_experiment(table, [TrainConfig(kernel="linear")]).entries[0].model
        _, test = split(table, SplitSpec())
        moved = table.tree_ids.index(test.tree_ids[0])
        x = table.x.copy()
        x[moved] = (0.99, 400.0)
        bumped = FeatureTable(table.tree_ids, table.photo_ids, x, table.y)
        second = run_experiment(bumped, [TrainConfig(kernel="linear")]).entries[0].model
        assert first.normalizer.mins == second.normalizer.mins
        assert first.normalizer.maxs == second.normalizer.maxs

    def test_report_kv_shape(self):
        report = run_experiment(
            self.separable_table(),
            [TrainConfig(kernel="linear")],
            failed_trees=(("t9", "unreadable"),),
        )
        kv = report.to_kv()
        lines = kv.splitlines()
        assert lines[0] == "shadowprune-report v1"
        assert lines[-1] == "end"
        assert any(line.startswith("model 0 kernel linear") for line in lines)
        assert "failed t9 unreadable" in lines
        assert "skipped tree t9: unreadable" in report.to_text()

    def test_failed_split_names_the_skipped_trees(self):
        two_trees = feat_table([("g0", 1, 0.1, 20.0), ("b0", -1, 0.5, 250.0)])
        skipped = (("t7", "unreadable (photo_id=p1)"), ("t8", "too small"))
        with pytest.raises(InsufficientData) as err:
            run_experiment(two_trees, [TrainConfig()], failed_trees=skipped)
        assert str(err.value) == (
            "stratified split needs >= 2 records per class, got 1 good / 1 poor;"
            " skipped trees: 2, first t7: unreadable (photo_id=p1)")
        with pytest.raises(InsufficientData, match="1 poor$"):
            run_experiment(two_trees, [TrainConfig()])

    def test_models_stamped_with_context(self):
        report = run_experiment(
            self.separable_table(),
            [TrainConfig(kernel="linear")],
            pool_cfg=PoolConfig(p=3),
            grid_cfg=GridConfig(100),
        )
        model = report.entries[0].model
        assert model.pool_factor == 3
        assert model.grid_edge == 33
        assert model.normalizer is not None

    def test_pool_factor_one_is_pooling_off(self):
        report = run_experiment(self.separable_table(), [TrainConfig(kernel="linear")],
                                pool_cfg=PoolConfig(1), grid_cfg=GridConfig(100))
        assert report.entries[0].model.pool_factor is None
        assert report.pool_factor is None
        assert "pooling off, grid edge 100" in report.to_text()
        assert "pool_factor 0" in report.to_kv().splitlines()


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
