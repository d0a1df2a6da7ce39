"""Histogram, threshold selection over a matrix of histograms, and binarization."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shadowprune.errors import DegenerateHistogram, EmptyImage
from shadowprune.threshold import _count_levels, binarize, otsu_threshold
from shadowprune.imgcore import GrayImage
from shadowprune.pooling import PoolConfig, binarize_pooled

# otsu_exact checks the exact tie rule: the float otsu_exhaustive can
# order two exactly tied splits either way.
from oracles import global_variance, intra_class_variance, otsu_exact, otsu_exhaustive


def gray_row(values) -> GrayImage:
    return GrayImage(np.array([values], dtype=np.uint8))


def hist_of(values) -> np.ndarray:
    """The 256 counts of uint8 pixels."""
    return np.bincount(np.asarray(values, dtype=np.uint8).ravel(), minlength=256)


def otsu_of(counts):
    """The Otsu result of one histogram, as a matrix of one row."""
    return otsu_threshold(np.asarray(counts)[None])


def threshold_of(counts) -> int:
    return int(otsu_of(counts).threshold[0])


class TestHistogram:
    def test_direct_count(self):
        counts = _count_levels(np.array([[0, 0, 255, 255]], dtype=np.uint8))
        assert counts.dtype == np.int64 and counts.shape == (256,)
        assert counts[0] == 2
        assert counts[255] == 2
        assert int(counts.sum()) == 4

    def test_constant_image(self):
        counts = _count_levels(np.full((2, 2), 7, dtype=np.uint8))
        assert counts[7] == 4
        assert int(counts.sum()) == 4

    def test_empty_image(self):
        with pytest.raises(EmptyImage):
            binarize_pooled(GrayImage(np.zeros((0, 0), dtype=np.uint8)))

    def test_counts_must_be_a_matrix_of_non_negative_integers(self):
        for counts in (np.zeros(256, dtype=np.int64), np.zeros((1, 255), dtype=np.int64),
                       np.ones((2, 256)), np.full((1, 256), -1)):
            with pytest.raises(ValueError):
                otsu_threshold(counts)

    def test_no_rows_give_no_thresholds(self):
        r = otsu_threshold(np.zeros((0, 256), dtype=np.int64))
        assert r.threshold.shape == (0,) and r.objective.shape == (0, 256)


class TestOtsuExamples:
    def test_five_pixel_tie_break(self):
        # every t in [1, 255] yields the same objective; smallest wins
        assert threshold_of(hist_of([0, 0, 0, 255, 255])) == 1

    def test_two_mode_split(self):
        values = [10, 10, 10, 200, 200]
        t = threshold_of(hist_of(values))
        t_oracle, _ = otsu_exhaustive(hist_of(values))
        assert t == t_oracle
        assert 10 < t <= 200

    def test_constant_raises(self):
        with pytest.raises(DegenerateHistogram):
            otsu_of(hist_of(np.full((3, 3), 128)))
        # one degenerate row fails the whole matrix
        with pytest.raises(DegenerateHistogram):
            otsu_threshold(np.stack([hist_of([1, 2]), hist_of([5, 5])]))

    def test_mirrored_splits_tie_to_smallest_t(self):
        # {1} | {108, 147, 254} mirrors {1, 108, 147} | {254}: the same
        # sigma_b2 exactly, which float rounding put on t = 148.
        r = otsu_of(hist_of([1, 108, 147, 254]))
        assert r.threshold.tolist() == [2]
        assert (r.w0.tolist(), r.mu0.tolist()) == ([0.25], [1.0])

    def test_result_class_stats(self):
        r = otsu_of(hist_of([0, 0, 0, 255, 255]))
        assert abs(r.w0[0] + r.w1[0] - 1.0) < 1e-12
        assert (r.w0.tolist(), r.w1.tolist()) == ([0.6], [0.4])
        assert (r.mu0.tolist(), r.mu1.tolist()) == ([0.0], [255.0])
        assert r.audit_line(0) == (
            "otsu threshold=1 w0=0.6 w1=0.4 mu0=0.0 mu1=255.0 sigma_b2=15606.0")

    def test_result_is_read_only(self):
        r = otsu_of(hist_of([0, 0, 0, 255, 255]))
        for name in ("threshold", "objective", "w0", "w1", "mu0", "mu1"):
            with pytest.raises(ValueError):
                getattr(r, name)[0] = 0


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
        counts = hist_of(img.pixels)
        if np.count_nonzero(counts) < 2:
            return
        r = otsu_of(counts)
        _, obj_oracle = otsu_exhaustive(counts)
        # The float oracle's t may differ from the exact one on a tie.
        assert r.threshold[0] == otsu_exact(counts)
        assert r.objective[0, r.threshold[0]] == pytest.approx(obj_oracle, rel=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 1 << 16), min_size=128, max_size=128))
    def test_mirror_symmetric_histogram_matches_exact_oracle(self, half):
        # counts[i] == counts[255 - i], so t and 256 - t tie exactly.
        counts = np.array(half + half[::-1], dtype=np.int64)
        if np.count_nonzero(counts) < 2:
            return
        assert threshold_of(counts) == otsu_exact(counts)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 255), min_size=2, max_size=2, unique=True),
           st.lists(st.integers(1, 12_000_000), min_size=2, max_size=2),
           st.lists(st.integers(0, 3), min_size=256, max_size=256))
    def test_two_spike_histogram_matches_exact_oracle(self, levels, spikes, floor):
        # Two spikes of up to 12-MP counts over a sparse floor, mirrored
        # or not: 12-MP sums overflow int64 in the exact comparison.
        counts = np.array(floor, dtype=np.int64)
        counts[levels] += spikes
        for c in (counts, counts + counts[::-1]):
            assert threshold_of(c) == otsu_exact(c)

    @settings(max_examples=40, deadline=None)
    @given(random_histograms())
    def test_duality_with_intra_class_variance(self, counts):
        if np.count_nonzero(counts) < 2:
            return
        r = otsu_of(counts)
        g_var = global_variance(counts)
        best_intra, best_t = None, None
        for t in range(1, 256):
            n0 = int(counts[:t].sum())
            if n0 == 0 or n0 == int(counts.sum()):
                continue
            intra = intra_class_variance(counts, t)
            # decomposition sigma_w^2 + sigma_b^2 = global variance
            assert intra + float(r.objective[0, t]) == pytest.approx(
                g_var, abs=1e-9 * max(1.0, g_var)
            )
            if best_intra is None or intra < best_intra - 1e-12:
                best_intra, best_t = intra, t
        assert best_t == r.threshold[0]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 100))
    def test_shift_moves_threshold_exactly(self, seed, shift):
        rng = np.random.default_rng(seed)
        base = rng.integers(0, 150, size=(8, 8)).astype(np.uint8)
        if len(np.unique(base)) < 2:
            return
        t0 = threshold_of(hist_of(base))
        t1 = threshold_of(hist_of(base + shift))
        assert t1 == t0 + shift

    def test_mean_decomposition_at_every_valid_t(self):
        rng = np.random.default_rng(7)
        img = GrayImage(rng.integers(0, 256, size=(16, 16)).astype(np.uint8))
        counts = hist_of(img.pixels)
        p = counts / counts.sum()
        mu_t = float((np.arange(256) * p).sum())
        for t in range(1, 256):
            w0 = float(p[:t].sum())
            if w0 == 0.0 or w0 == 1.0:
                continue
            m0 = float((np.arange(t) * p[:t]).sum()) / w0
            m1 = float((np.arange(t, 256) * p[t:]).sum()) / (1.0 - w0)
            assert w0 * m0 + (1 - w0) * m1 == pytest.approx(mu_t, abs=1e-9)


@st.composite
def tie_prone_histograms(draw):
    """Random, mirror-symmetric and two-spike histograms, tied or not."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", "mirror", "spikes", "few"]))
    if kind == "random":
        counts = rng.multinomial(int(rng.integers(2, 5000)), np.ones(256) / 256)
    elif kind == "mirror":
        half = rng.integers(0, 1 << 16, 128) * (rng.random(128) < 0.2)
        counts = np.concatenate([half, half[::-1]])
    elif kind == "spikes":
        counts = rng.integers(0, 4, 256)
        counts[rng.choice(256, 2, replace=False)] += rng.integers(1, 12_000_000, 2)
        if rng.random() < 0.5:
            counts = counts + counts[::-1]
    else:
        counts = np.bincount(rng.integers(0, 256, int(rng.integers(2, 6))), minlength=256)
    if np.count_nonzero(counts) < 2:
        counts[[1, 254]] += 1
    return counts.astype(np.int64)


def otsu_fields(r, row):
    return (int(r.threshold[row]), r.objective[row].tobytes(),
            *(getattr(r, name)[row].tobytes() for name in ("w0", "w1", "mu0", "mu1")),
            r.audit_line(row))


class TestOtsuMatrix:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(tie_prone_histograms(), min_size=1, max_size=12))
    def test_each_row_is_its_one_row_result(self, rows):
        # Bit for bit, ties included: a row's neighbours in the matrix
        # change nothing.
        together = otsu_threshold(np.stack(rows))
        for i, counts in enumerate(rows):
            alone = otsu_of(counts)
            assert otsu_fields(together, i) == otsu_fields(alone, 0)
            assert together.threshold[i] == otsu_exact(counts)

    def test_tied_rows_take_their_own_smallest_t(self):
        rows = [hist_of([1, 108, 147, 254]), hist_of([10, 10, 10, 200, 200]),
                hist_of([0, 0, 0, 255, 255])]
        assert otsu_threshold(np.stack(rows)).threshold.tolist() == [2, 11, 1]


class TestBinarize:
    def test_direct_rule(self):
        out = binarize(gray_row([0, 100, 200]), 150)
        assert out.pixels.tolist() == [[0, 0, 255]]

    def test_threshold_zero_is_all_white(self):
        out = binarize(gray_row([0, 3, 255]), 0)
        assert np.all(out.pixels == 255)

    def test_two_mode_binarization(self):
        values = [10, 10, 10, 200, 200]
        t = threshold_of(hist_of(values))
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
        assert 50 < result.threshold[0] <= 200
        assert np.array_equal(out.pixels == 0, values == 50)

    def test_constant_black_raises(self):
        with pytest.raises(DegenerateHistogram):
            binarize_pooled(GrayImage(np.zeros((4, 4), dtype=np.uint8)),
                            PoolConfig(1))

    def test_already_binary_is_fixed_point(self):
        img = gray_row([0, 0, 255, 255])
        out, _ = binarize_pooled(img, PoolConfig(1))
        assert np.array_equal(out.pixels, img.pixels)
