"""Feature extraction and min-max normalization."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shadowprune.errors import (
    ConstantFeature,
    EmptyImage,
    EmptyList,
    ImageTooSmall,
    InsufficientData,
    InvalidConfig,
)
from shadowprune.features import (
    GridConfig,
    Normalizer,
    black_pixel_rate,
    extract_features,
    fit_normalizer,
    grid_white_counts,
    uniformity,
)
from shadowprune.imgcore import BinaryImage

from oracles import two_pass_std


def binary(arr) -> BinaryImage:
    return BinaryImage(np.array(arr, dtype=np.uint8))


def solid(h, w, value) -> BinaryImage:
    return binary(np.full((h, w), value))


class TestBlackPixelRate:
    def test_all_black(self):
        assert black_pixel_rate(solid(4, 4, 0)) == 1.0

    def test_all_white(self):
        assert black_pixel_rate(solid(4, 4, 255)) == 0.0

    def test_one_black_of_four(self):
        px = np.full((2, 2), 255)
        px[0, 0] = 0
        assert black_pixel_rate(binary(px)) == 0.25

    def test_empty_image(self):
        with pytest.raises(EmptyImage):
            black_pixel_rate(BinaryImage(np.zeros((0, 3), dtype=np.uint8)))


class TestGridCounts:
    def test_full_white_tiles(self):
        counts = grid_white_counts(solid(200, 200, 255), GridConfig(100))
        assert counts == [10000, 10000, 10000, 10000]

    def test_full_black_tiles(self):
        counts = grid_white_counts(solid(200, 200, 0), GridConfig(100))
        assert counts == [0, 0, 0, 0]

    def test_partial_tiles_dropped(self):
        counts = grid_white_counts(solid(150, 150, 255), GridConfig(100))
        assert counts == [10000]

    def test_row_major_order(self):
        px = np.zeros((4, 4))
        px[0:2, 2:4] = 255  # white only in the top-right tile
        counts = grid_white_counts(binary(px), GridConfig(2))
        assert counts == [0, 4, 0, 0]

    def test_too_small(self):
        with pytest.raises(ImageTooSmall):
            grid_white_counts(solid(99, 200, 0), GridConfig(100))

    @pytest.mark.parametrize("edge", [0, -3])
    def test_invalid_edge(self, edge):
        with pytest.raises(InvalidConfig):
            GridConfig(edge)


class TestUniformity:
    def test_constant_counts(self):
        assert uniformity([10000, 10000, 10000, 10000]) == 0.0

    def test_hand_evaluated(self):
        assert uniformity([0, 100, 0, 100]) == 50.0

    def test_empty_list(self):
        with pytest.raises(EmptyList):
            uniformity([])

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_two_pass_oracle(self, seed):
        rng = np.random.default_rng(seed)
        counts = rng.integers(0, 10001, size=int(rng.integers(1, 40))).tolist()
        got = uniformity(counts)
        want = two_pass_std(counts)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-12)

    @given(st.integers(0, 2**32 - 1), st.integers(0, 500))
    @settings(max_examples=40, deadline=None)
    def test_shift_invariance(self, seed, c):
        rng = np.random.default_rng(seed)
        counts = rng.integers(0, 5000, size=12).tolist()
        shifted = [v + c for v in counts]
        assert uniformity(shifted) == pytest.approx(uniformity(counts), abs=1e-9)

    @given(st.integers(0, 2**32 - 1), st.integers(0, 9))
    @settings(max_examples=40, deadline=None)
    def test_scale_law(self, seed, k):
        rng = np.random.default_rng(seed)
        counts = rng.integers(0, 5000, size=12).tolist()
        scaled = [v * k for v in counts]
        assert uniformity(scaled) == pytest.approx(
            k * uniformity(counts), rel=1e-9, abs=1e-12
        )


class TestExtractFeatures:
    def test_row_order(self):
        px = np.full((4, 4), 255)
        px[:1] = 0
        row = extract_features(binary(px), GridConfig(2))
        assert row.dtype == np.float64
        assert row.tolist() == [0.25, uniformity([2, 2, 4, 4])]


class TestNormalizer:
    def test_fit_min_max(self):
        nz = fit_normalizer([[0.2, 10], [0.8, 30]])
        assert nz.mins == (0.2, 10.0)
        assert nz.maxs == (0.8, 30.0)
        assert nz.constant_features == ()

    def test_single_row_insufficient(self):
        with pytest.raises(InsufficientData):
            fit_normalizer([[0.2, 10]])

    def test_constant_column_flagged(self):
        nz = fit_normalizer([[0.2, 10], [0.8, 10]])
        assert nz.constant_features == (1,)

    def test_apply_on_constant_column_raises(self):
        nz = fit_normalizer([[0.2, 10], [0.8, 10]])
        with pytest.raises(ConstantFeature):
            nz.transform(np.array([[0.5, 10.0]]))

    def test_extremes_and_midpoint(self):
        nz = fit_normalizer([[0.2, 10], [0.8, 30]])
        lo, hi, mid = nz.transform(np.array([[0.2, 10], [0.8, 30], [0.5, 20]]))
        assert lo.tolist() == [0.0, 0.0]
        assert hi.tolist() == [1.0, 1.0]
        assert mid.tolist() == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_out_of_range_not_clamped(self):
        nz = fit_normalizer([[0.2, 10], [0.8, 30]])
        out = nz.transform(np.array([0.9, 5.0]))
        assert out[0] > 1.0
        assert out[1] < 0.0

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            Normalizer(mins=(0.5, 0.0), maxs=(0.2, 1.0))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_refit_on_normalized_rows_is_unit(self, seed):
        rng = np.random.default_rng(seed)
        rows = np.column_stack([rng.random(8), rng.random(8) * 100])
        nz = fit_normalizer(rows)
        if nz.constant_features:
            return
        refit = fit_normalizer(nz.transform(rows))
        assert refit.mins == (0.0, 0.0)
        assert refit.maxs == (1.0, 1.0)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_rank_preserved(self, seed):
        rng = np.random.default_rng(seed)
        rows = np.column_stack([rng.random(10), rng.random(10) * 50])
        nz = fit_normalizer(rows)
        if nz.constant_features:
            return
        scaled = nz.transform(rows)
        for idx in range(2):
            raw_order = np.argsort(rows[:, idx], kind="stable")
            new_order = np.argsort(scaled[:, idx], kind="stable")
            assert raw_order.tolist() == new_order.tolist()
