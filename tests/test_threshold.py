"""Histogram, threshold selection, and binarization."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shadowprune.errors import DegenerateHistogram, EmptyImage
from shadowprune.threshold import (
    Histogram,
    binarize,
    histogram,
    otsu_threshold,
)
from shadowprune.imgcore import GrayImage
from shadowprune.pooling import PoolConfig, binarize_pooled

from oracles import global_variance, intra_class_variance, otsu_exhaustive


def gray_row(values) -> GrayImage:
    return GrayImage(np.array([values], dtype=np.uint8))


def hist_of(values) -> Histogram:
    return histogram(gray_row(values))


class TestHistogram:
    def test_direct_count(self):
        h = hist_of([0, 0, 255, 255])
        assert h.counts[0] == 2
        assert h.counts[255] == 2
        assert h.total == 4

    def test_constant_image(self):
        h = histogram(GrayImage(np.full((2, 2), 7, dtype=np.uint8)))
        assert h.counts[7] == 4
        assert int(h.counts.sum()) == 4

    def test_empty_image(self):
        with pytest.raises(EmptyImage):
            histogram(GrayImage(np.zeros((0, 0), dtype=np.uint8)))

    def test_probabilities_sum_to_one(self):
        h = hist_of([3, 9, 9, 17, 200])
        assert abs(float(h.probabilities.sum()) - 1.0) < 1e-12

    def test_total_must_match(self):
        with pytest.raises(ValueError):
            Histogram(np.zeros(256, dtype=np.int64), 5)


class TestOtsuExamples:
    def test_five_pixel_tie_break(self):
        # every t in [1, 255] yields the same objective; smallest wins
        r = otsu_threshold(hist_of([0, 0, 0, 255, 255]))
        assert r.threshold == 1

    def test_two_mode_split(self):
        values = [10, 10, 10, 200, 200]
        r = otsu_threshold(hist_of(values))
        t_oracle, _ = otsu_exhaustive(hist_of(values).counts)
        assert r.threshold == t_oracle
        assert 10 < r.threshold <= 200

    def test_constant_raises(self):
        with pytest.raises(DegenerateHistogram):
            otsu_threshold(histogram(GrayImage(np.full((3, 3), 128, np.uint8))))

    def test_result_class_stats(self):
        r = otsu_threshold(hist_of([0, 0, 0, 255, 255]))
        assert abs(r.w0 + r.w1 - 1.0) < 1e-12
        assert (r.w0, r.w1) == (0.6, 0.4)
        assert (r.mu0, r.mu1) == (0.0, 255.0)
        assert "threshold=1" in r.audit_line()


def random_histograms():
    return st.integers(0, 2**32 - 1).map(
        lambda seed: np.random.default_rng(seed).multinomial(
            200, np.ones(256) / 256
        )
    )


class TestOtsuProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_matches_exhaustive_oracle(self, seed):
        rng = np.random.default_rng(seed)
        img = GrayImage(rng.integers(0, 256, size=(16, 16)).astype(np.uint8))
        h = histogram(img)
        if np.count_nonzero(h.counts) < 2:
            return
        r = otsu_threshold(h)
        t_oracle, obj_oracle = otsu_exhaustive(h.counts)
        assert r.threshold == t_oracle
        assert r.max_objective == pytest.approx(obj_oracle, rel=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(random_histograms())
    def test_duality_with_intra_class_variance(self, counts):
        if np.count_nonzero(counts) < 2:
            return
        h = Histogram(counts.astype(np.int64), int(counts.sum()))
        r = otsu_threshold(h)
        g_var = global_variance(counts)
        best_intra, best_t = None, None
        for t in range(1, 256):
            n0 = int(counts[:t].sum())
            if n0 == 0 or n0 == h.total:
                continue
            intra = intra_class_variance(counts, t)
            # decomposition sigma_w^2 + sigma_b^2 = global variance
            assert intra + float(r.objective[t]) == pytest.approx(
                g_var, abs=1e-9 * max(1.0, g_var)
            )
            if best_intra is None or intra < best_intra - 1e-12:
                best_intra, best_t = intra, t
        assert best_t == r.threshold

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 100))
    def test_shift_moves_threshold_exactly(self, seed, shift):
        rng = np.random.default_rng(seed)
        base = rng.integers(0, 150, size=(8, 8)).astype(np.uint8)
        if len(np.unique(base)) < 2:
            return
        t0 = otsu_threshold(histogram(GrayImage(base))).threshold
        t1 = otsu_threshold(histogram(GrayImage(base + shift))).threshold
        assert t1 == t0 + shift

    def test_mean_decomposition_at_every_valid_t(self):
        rng = np.random.default_rng(7)
        img = GrayImage(rng.integers(0, 256, size=(16, 16)).astype(np.uint8))
        h = histogram(img)
        mu_t = float((np.arange(256) * h.probabilities).sum())
        p = h.probabilities
        for t in range(1, 256):
            w0 = float(p[:t].sum())
            if w0 == 0.0 or w0 == 1.0:
                continue
            m0 = float((np.arange(t) * p[:t]).sum()) / w0
            m1 = float((np.arange(t, 256) * p[t:]).sum()) / (1.0 - w0)
            assert w0 * m0 + (1 - w0) * m1 == pytest.approx(mu_t, abs=1e-9)


class TestBinarize:
    def test_direct_rule(self):
        out = binarize(gray_row([0, 100, 200]), 150)
        assert out.pixels.tolist() == [[0, 0, 255]]

    def test_threshold_zero_is_all_white(self):
        out = binarize(gray_row([0, 3, 255]), 0)
        assert np.all(out.pixels == 255)

    def test_two_mode_binarization(self):
        values = [10, 10, 10, 200, 200]
        t = otsu_threshold(hist_of(values)).threshold
        assert binarize(gray_row(values), t).pixels.tolist() == [[0, 0, 0, 255, 255]]

    def test_partition_is_exact(self):
        rng = np.random.default_rng(3)
        img = GrayImage(rng.integers(0, 256, size=(9, 9)).astype(np.uint8))
        t = 77
        out = binarize(img, t)
        assert np.array_equal(out.pixels == 0, img.pixels < t)
        assert np.array_equal(out.pixels == 255, img.pixels >= t)

    def test_out_of_range_threshold(self):
        with pytest.raises(ValueError):
            binarize(gray_row([1, 2]), 256)


class TestAutoBinarize:
    # Binarizing at the Otsu threshold is the unpooled path of binarize_pooled.
    def test_bimodal_modes_split(self):
        rng = np.random.default_rng(11)
        values = np.where(rng.random((20, 20)) < 0.5, 50, 200).astype(np.uint8)
        img = GrayImage(values)
        out, result = binarize_pooled(img, PoolConfig(1))
        assert 50 < result.threshold <= 200
        assert np.array_equal(out.pixels == 0, values == 50)

    def test_constant_black_raises(self):
        with pytest.raises(DegenerateHistogram):
            binarize_pooled(GrayImage(np.zeros((4, 4), dtype=np.uint8)),
                            PoolConfig(1))

    def test_already_binary_is_fixed_point(self):
        img = gray_row([0, 0, 255, 255])
        out, _ = binarize_pooled(img, PoolConfig(1))
        assert np.array_equal(out.pixels, img.pixels)
