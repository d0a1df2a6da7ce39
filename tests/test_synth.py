"""Synthetic image generator: determinism, coverage, regime separation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shadowprune.errors import DegenerateHistogram, InvalidConfig
from shadowprune.features import black_pixel_rate, extract_features
from shadowprune.pipeline import extract_dataset, ingest
from shadowprune.pooling import PoolConfig, binarize_pooled
from shadowprune.synth import (
    _MAX_BLOBS,
    LABEL_GOOD,
    LABEL_POOR,
    REGIME_GOOD,
    REGIME_POOR,
    GenResult,
    SynthConfig,
    default_config,
    ellipse_mask,
    generate,
    generate_dataset,
    render_image,
)
from shadowprune.threshold import binarize, otsu_threshold, histogram

from oracles import hard_margin_oracle


class TestConfigValidation:
    def test_coverage_one_rejected(self):
        with pytest.raises(InvalidConfig):
            SynthConfig(coverage=1.0)

    def test_coverage_zero_allowed(self):
        assert SynthConfig(coverage=0.0).coverage == 0.0

    def test_bad_radius(self):
        with pytest.raises(InvalidConfig):
            SynthConfig(radius_range=(0.0, 5.0))

    @pytest.mark.parametrize("radius_range", [(4.0, float("inf")), (float("nan"), 9.0)])
    def test_non_finite_radius(self, radius_range):
        # an infinite end used to pass the order check and overflow rng.uniform
        with pytest.raises(InvalidConfig):
            SynthConfig(radius_range=radius_range)

    def test_modes_must_not_merge(self):
        # 40+90 = 130 > 215-90 = 125: Otsu could no longer recover the mask
        with pytest.raises(InvalidConfig):
            SynthConfig(shadow_mean=40, background_mean=215, noise=90)

    def test_shadow_must_be_darker(self):
        with pytest.raises(InvalidConfig):
            SynthConfig(shadow_mean=200, background_mean=100)

    def test_unknown_regime(self):
        with pytest.raises(InvalidConfig):
            SynthConfig(regime="overgrown")

    @pytest.mark.parametrize("seed", [-2, (0, -2, 1), (-(2**70),)])
    def test_negative_seed_rejected(self, seed):
        # numpy's default_rng would fail later, without naming the seed
        with pytest.raises(InvalidConfig, match="seed"):
            SynthConfig(seed=seed)

    def test_labels_by_regime(self):
        assert SynthConfig(regime=REGIME_GOOD).label == LABEL_GOOD
        assert SynthConfig(regime=REGIME_POOR).label == LABEL_POOR


class TestEllipseMask:
    def test_centered_disk_area(self):
        r = 30.0
        mask = ellipse_mask(200, 200, 100.0, 100.0, r, r)
        rate = mask.sum() / mask.size
        assert rate == pytest.approx(np.pi * r * r / 40000.0, abs=0.002)

    def test_mask_respects_bounds(self):
        mask = ellipse_mask(50, 80, 0.0, 0.0, 10.0, 10.0)
        assert mask.shape == (50, 80)
        assert mask[0, 0]
        assert not mask[30, 30]


class TestRenderAndRecover:
    def test_disjoint_modes_recover_mask_exactly(self):
        rng = np.random.default_rng(3)
        mask = ellipse_mask(120, 120, 60.0, 60.0, 25.0, 40.0)
        img = render_image(mask, 40, 215, 20, rng)
        binary, _ = binarize_pooled(img, PoolConfig(1))
        recovered = binary.pixels == 0
        assert np.array_equal(recovered, mask)

    def test_noise_free_levels(self):
        rng = np.random.default_rng(0)
        mask = ellipse_mask(40, 40, 20.0, 20.0, 8.0, 8.0)
        img = render_image(mask, 40, 215, 0, rng)
        assert set(np.unique(img.pixels)) == {40, 215}


class TestGenerate:
    def test_deterministic_bytes(self):
        cfg = SynthConfig(seed=(9, 1, 2))
        a = generate(cfg)
        b = generate(cfg)
        assert np.array_equal(a.image.pixels, b.image.pixels)

    def test_distinct_seeds_differ(self):
        a = generate(SynthConfig(seed=(0, 0, 0)))
        b = generate(SynthConfig(seed=(0, 0, 1)))
        assert not np.array_equal(a.image.pixels, b.image.pixels)

    @pytest.mark.parametrize("regime", [REGIME_GOOD, REGIME_POOR])
    def test_binarized_rate_inside_declared_interval(self, regime):
        for seed in range(5):
            result = generate(default_config(regime, seed=(seed,)))
            binary, _ = binarize_pooled(result.image, PoolConfig(1))
            rate = black_pixel_rate(binary)
            assert result.coverage_low <= rate <= result.coverage_high

    def test_coverage_target_is_reached(self):
        cfg = default_config(REGIME_POOR, seed=(4,))
        result = generate(cfg)
        assert result.coverage_high > result.coverage_low
        assert result.coverage_low >= cfg.coverage - 1.0 / (cfg.height * cfg.width)

    def test_zero_coverage_no_noise_is_constant(self):
        cfg = SynthConfig(coverage=0.0, noise=0)
        result = generate(cfg)
        assert int(np.unique(result.image.pixels).size) == 1
        with pytest.raises(DegenerateHistogram):
            otsu_threshold(histogram(result.image))

    def test_result_carries_label(self):
        assert generate(default_config(REGIME_GOOD)).label == 1
        assert generate(default_config(REGIME_POOR)).label == -1


def reference_generate(cfg):
    """The full-frame loop: every blob is tested on, and re-sums, the whole mask."""
    rng = np.random.default_rng(cfg.seed)
    total = cfg.height * cfg.width
    mask = np.zeros((cfg.height, cfg.width), dtype=bool)
    ys = np.arange(cfg.height, dtype=np.float64)[:, None] + 0.5
    xs = np.arange(cfg.width, dtype=np.float64)[None, :] + 0.5
    lo, hi = cfg.radius_range
    blobs = 0
    while mask.sum() < cfg.coverage * total:
        if blobs >= _MAX_BLOBS:
            raise InvalidConfig(
                f"coverage {cfg.coverage} not reached after {_MAX_BLOBS} blobs"
            )
        cx = rng.uniform(0.0, cfg.width)
        cy = rng.uniform(0.0, cfg.height)
        rx = rng.uniform(lo, hi)
        ry = rng.uniform(lo, hi)
        mask |= ((xs - cx) / rx) ** 2 + ((ys - cy) / ry) ** 2 <= 1.0
        blobs += 1
    achieved = int(mask.sum()) / total
    slack = 1.0 / total
    image = render_image(mask, cfg.shadow_mean, cfg.background_mean, cfg.noise, rng)
    return GenResult(image, max(0.0, achieved - slack), min(1.0, achieved + slack),
                     cfg.label)


class _Scripted:
    """A seeded generator whose first uniform draws are given fractions
    of their range, so a blob can sit exactly on the frame's edge."""

    def __init__(self, seed, fractions):
        self._rng = _default_rng(seed)
        self._fractions = iter(fractions)

    def uniform(self, low, high):
        f = next(self._fractions, None)
        return self._rng.uniform(low, high) if f is None else low + f * (high - low)

    def integers(self, *args, **kwargs):
        return self._rng.integers(*args, **kwargs)


_default_rng = np.random.default_rng


def _outcome(fn, cfg):
    try:
        r = fn(cfg)
    except InvalidConfig as exc:
        return str(exc)
    return r.image.pixels.tobytes(), r.coverage_low, r.coverage_high, r.label


@st.composite
def synth_configs(draw):
    height, width = draw(st.integers(1, 64)), draw(st.integers(1, 64))
    edge = 2.0 * max(height, width)
    lo = draw(st.floats(0.5, edge))
    hi = draw(st.floats(lo, edge))
    return SynthConfig(
        height=height, width=width,
        regime=draw(st.sampled_from([REGIME_GOOD, REGIME_POOR])),
        coverage=draw(st.floats(0.0, 0.9, exclude_max=True)),
        radius_range=(lo, hi),
        seed=tuple(draw(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=3))),
    )


class TestWindowedBlobs:
    """generate draws each blob on its window; the full-frame loop is the oracle."""

    @given(synth_configs(),
           st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0), max_size=12))
    @example(SynthConfig(height=9, width=7, coverage=0.05, seed=(1,)), [0.0, 0.0, 0.5, 0.5])
    @example(SynthConfig(height=9, width=7, coverage=0.05, seed=(2,)), [1.0, 1.0, 0.0, 1.0])
    @example(SynthConfig(height=1, width=40, coverage=0.5, radius_range=(0.5, 3.0),
                         seed=(3,)), [])
    @example(SynthConfig(height=33, width=1, coverage=0.5, seed=(4,)), [])
    @example(SynthConfig(height=20, width=30, coverage=0.8, radius_range=(45.0, 60.0),
                         seed=(5,)), [])
    @example(SynthConfig(height=64, width=64, coverage=0.6, radius_range=(70.0, 128.0),
                         seed=(6,)), [0.5, 0.5])
    @settings(max_examples=150, deadline=None)
    def test_matches_full_frame_loop(self, cfg, fractions):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np.random, "default_rng", lambda seed: _Scripted(seed, fractions))
            assert _outcome(generate, cfg) == _outcome(reference_generate, cfg)

    def test_unreached_coverage_raises_the_same_error(self, monkeypatch):
        # Every blob sits on the corner, too thin to cover a pixel center.
        cfg = SynthConfig(height=4, width=4, coverage=0.5, radius_range=(0.01, 0.01))
        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed: _Scripted(seed, [0.0] * 4 * _MAX_BLOBS))
        message = _outcome(generate, cfg)
        assert message == f"coverage 0.5 not reached after {_MAX_BLOBS} blobs"
        assert message == _outcome(reference_generate, cfg)

    @pytest.mark.parametrize("regime", [REGIME_GOOD, REGIME_POOR])
    def test_stock_regimes_match_full_frame_loop(self, regime):
        for seed in range(3):
            cfg = default_config(regime, seed=(seed, 1, 2))
            assert _outcome(generate, cfg) == _outcome(reference_generate, cfg)


class TestGenerateDataset:
    def test_layout_counts_and_labels(self, tmp_path):
        manifest = generate_dataset(tmp_path, n_trees=6, points_per_tree=3, seed=1)
        assert manifest == tmp_path / "manifest.csv"
        images = sorted((tmp_path / "images").glob("*.pgm"))
        assert len(images) == 18
        lines = manifest.read_text().strip().splitlines()
        assert lines[0] == "tree_id,photo_id,image_path,label"
        assert len(lines) == 19
        labels = [line.split(",")[3] for line in lines[1:]]
        assert labels.count("1") == 9 and labels.count("0") == 9
        assert lines[1].split(",")[2] == "images/t000_p00.pgm"

    def test_dataset_deterministic(self, tmp_path):
        m1 = generate_dataset(tmp_path / "a", n_trees=2, points_per_tree=2, seed=5)
        m2 = generate_dataset(tmp_path / "b", n_trees=2, points_per_tree=2, seed=5)
        assert m1.read_text() == m2.read_text()
        for rel in ("images/t000_p00.pgm", "images/t001_p01.pgm"):
            assert (tmp_path / "a" / rel).read_bytes() == (
                tmp_path / "b" / rel
            ).read_bytes()

    def test_ingest_round_trip(self, tmp_path):
        manifest = generate_dataset(tmp_path, n_trees=10, points_per_tree=2, seed=0)
        records = ingest(manifest)
        assert len(records) == 10
        assert sum(1 for r in records if r.label == 1) == 5
        assert sum(1 for r in records if r.label == -1) == 5
        assert all(len(r.points) == 2 for r in records)

    def test_rejects_empty_plan(self, tmp_path):
        with pytest.raises(InvalidConfig):
            generate_dataset(tmp_path, n_trees=0)

    def test_negative_seed_writes_nothing(self, tmp_path):
        with pytest.raises(InvalidConfig, match="seed"):
            generate_dataset(tmp_path / "d", seed=-1)
        assert not (tmp_path / "d").exists()


class TestRegimeSeparation:
    def test_features_separate_and_are_linearly_separable(self, tmp_path):
        manifest = generate_dataset(tmp_path, n_trees=6, points_per_tree=3, seed=2)
        table, failures = extract_dataset(ingest(manifest))
        assert failures == []
        trees = table.per_tree()
        assert max(trees.x[trees.y == 1, 0]) < min(trees.x[trees.y == -1, 0])
        assert hard_margin_oracle(trees.x, trees.y.astype(float)) is not None
