"""Patch pooling: the sum-cutoff rule, sizes, max-pool equivalence, and
the one-pass image path checked against the chain it replaces."""

from __future__ import annotations

import multiprocessing
import os
import sys
import threading
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shadowprune import pooling
from shadowprune.errors import ImageTooSmall, ShadowPruneError
from shadowprune.features import GridConfig, extract_features
from shadowprune.imgcore import BinaryImage, GrayImage, RgbImage, encode_pgm, encode_ppm, to_gray
from shadowprune.pipeline import SamplePoint, extract_point_features
from shadowprune.pooling import PoolConfig, binarize_pooled, pool
from shadowprune.threshold import binarize, histogram, otsu_threshold

from oracles import max_pool_reference


def binary(arr) -> BinaryImage:
    return BinaryImage(np.array(arr, dtype=np.uint8))


def random_binary(rng, h, w) -> BinaryImage:
    return BinaryImage((rng.random((h, w)) < 0.5).astype(np.uint8) * 255)


class TestPatchRule:
    def test_all_black_patch(self):
        out = pool(binary(np.zeros((3, 3))), PoolConfig(p=3))
        assert out.pixels.tolist() == [[0]]

    def test_single_white_pixel_wins(self):
        px = np.zeros((3, 3))
        px[1, 2] = 255
        out = pool(binary(px), PoolConfig(p=3))
        assert out.pixels.tolist() == [[255]]

    def test_half_and_half_six_by_six(self):
        px = np.zeros((6, 6))
        px[:, :3] = 255
        out = pool(binary(px), PoolConfig(p=3))
        assert out.pixels.tolist() == [[255, 0], [255, 0]]

    def test_p1_is_identity(self):
        rng = np.random.default_rng(5)
        img = random_binary(rng, 4, 7)
        assert np.array_equal(pool(img, PoolConfig(p=1)).pixels, img.pixels)

    def test_disabled_config_passes_through(self):
        rng = np.random.default_rng(6)
        img = random_binary(rng, 5, 5)
        out = pool(img, PoolConfig(p=3, enabled=False))
        assert out is img

    def test_too_small_image(self):
        with pytest.raises(ImageTooSmall):
            pool(binary(np.zeros((2, 9))), PoolConfig(p=3))

    def test_invalid_factor(self):
        with pytest.raises(ValueError):
            PoolConfig(p=0)


class TestSizeContract:
    @given(st.integers(1, 20), st.integers(1, 20), st.sampled_from([1, 2, 3, 5]))
    @settings(max_examples=60, deadline=None)
    def test_floor_dimensions(self, h, w, p):
        if h < p or w < p:
            return
        rng = np.random.default_rng(h * 100 + w * 10 + p)
        out = pool(random_binary(rng, h, w), PoolConfig(p=p))
        assert out.pixels.shape == (h // p, w // p)

    def test_area_one_ninth_on_multiples_of_three(self):
        rng = np.random.default_rng(9)
        out = pool(random_binary(rng, 9, 12), PoolConfig(p=3))
        assert out.pixel_count * 9 == 9 * 12


class TestMaxPoolEquivalence:
    @given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 3, 5]))
    @settings(max_examples=80, deadline=None)
    def test_equals_patch_max(self, seed, p):
        rng = np.random.default_rng(seed)
        h = int(rng.integers(p, 16))
        w = int(rng.integers(p, 16))
        img = random_binary(rng, h, w)
        out = pool(img, PoolConfig(p=p))
        assert np.array_equal(out.pixels, max_pool_reference(img.pixels, p))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_white_monotone(self, seed):
        # flipping one source pixel to white never turns output black
        rng = np.random.default_rng(seed)
        img = random_binary(rng, 9, 9)
        before = pool(img, PoolConfig(p=3)).pixels
        px = img.pixels.copy()
        i = int(rng.integers(9))
        j = int(rng.integers(9))
        px[i, j] = 255
        after = pool(BinaryImage(px), PoolConfig(p=3)).pixels
        assert np.all(after >= before)


def reference_path(img, cfg):
    """The chain binarize_pooled replaces: full-size gray, binarize, then pool."""
    gray = to_gray(img)
    result = otsu_threshold(histogram(gray))
    return pool(binarize(gray, result.threshold), cfg), result


def outcome(path, img, cfg):
    """Pooled bytes, Otsu fields and feature row, or the error raised."""
    try:
        binary, r = path(img, cfg)
    except ShadowPruneError as exc:
        return type(exc), str(exc)
    assert type(binary) is BinaryImage
    return (binary.pixels.shape, binary.pixels.tobytes(), r.threshold,
            r.objective.tobytes(), r.w0, r.w1, r.mu0, r.mu1,
            extract_features(binary, GridConfig(2)).tolist()
            if min(binary.pixels.shape) >= 2 else None)


@contextmanager
def fresh_executor(block_pixels=pooling._BLOCK_PIXELS, workers=None):
    """No executor yet, a block budget, and optionally a fixed thread count."""
    patches = [mock.patch.object(pooling, "_EXECUTOR", None),
               mock.patch.object(pooling, "_EXECUTOR_WORKERS", 0),
               mock.patch.object(pooling, "_BLOCK_PIXELS", block_pixels)]
    if workers is not None:
        patches.append(mock.patch.object(
            pooling, "_worker_count", lambda cpu_count, n_blocks: min(workers, n_blocks)))
    for patch in patches:
        patch.start()
    try:
        yield
    finally:
        if pooling._EXECUTOR is not None:
            pooling._EXECUTOR.shutdown()
        for patch in reversed(patches):
            patch.stop()


@st.composite
def photos(draw):
    """Gray or colour images of ragged sizes, some constant."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    h, w = draw(st.integers(1, 24)), draw(st.integers(1, 24))
    levels = draw(st.sampled_from([1, 2, 256]))
    colour = draw(st.booleans())
    px = rng.integers(0, levels, (h, w, 3) if colour else (h, w)) * (255 // max(1, levels - 1))
    return RgbImage(px) if colour else GrayImage(px)


class TestOnePassPath:
    @given(photos(), st.sampled_from([1, 2, 3, 5]), st.booleans(),
           st.sampled_from([1, 30, 1 << 18]), st.sampled_from([1, 2]))
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_chain(self, img, p, enabled, block_pixels, workers):
        # block_pixels 1 gives one patch row per block, 30 a few rows
        cfg = PoolConfig(p=p, enabled=enabled)
        with fresh_executor(block_pixels, workers):
            found = outcome(binarize_pooled, img, cfg)
        assert found == outcome(reference_path, img, cfg)

    @pytest.mark.parametrize("colour", [False, True])
    def test_threads_and_inline_give_the_same_bytes(self, colour):
        rng = np.random.default_rng(21)
        px = np.where(rng.random((601, 500)) < 0.3, 40, 215) + rng.integers(-20, 21, (601, 500))
        img = RgbImage(np.stack([px, px, px // 2], axis=2)) if colour else GrayImage(px)
        cfg = PoolConfig()
        with fresh_executor(workers=2):
            threaded = outcome(binarize_pooled, img, cfg)
            assert pooling._EXECUTOR is not None  # 601 x 500 makes 4 blocks
        with fresh_executor(workers=1):
            inline = outcome(binarize_pooled, img, cfg)
            assert pooling._EXECUTOR is None
        assert threaded == inline == outcome(reference_path, img, cfg)

    def test_more_threads_than_cores_switching_often(self):
        # 67 one-patch-row blocks on 8 threads that switch every microsecond:
        # a block writing outside its rows or a lost histogram count shows
        img = RgbImage(np.random.default_rng(22).integers(0, 256, (201, 97, 3)))
        expected = outcome(reference_path, img, PoolConfig())
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with fresh_executor(block_pixels=1, workers=8):
                for _ in range(5):
                    assert outcome(binarize_pooled, img, PoolConfig()) == expected
        finally:
            sys.setswitchinterval(interval)

    def test_error_order_matches_reference(self):
        # a constant 2x2 photo is both degenerate and too small to pool
        for img in (GrayImage(np.full((2, 2), 9)), RgbImage(np.full((2, 2, 3), 9)),
                    GrayImage(np.array([[0, 255], [9, 9]])),
                    GrayImage(np.zeros((0, 4), dtype=np.uint8))):
            found = outcome(binarize_pooled, img, PoolConfig())
            assert found == outcome(reference_path, img, PoolConfig())
            assert isinstance(found[0], type)


class TestThreadCap:
    @pytest.mark.parametrize("cpu_count, n_blocks, expected", [
        (None, 1, 1), (None, 46, 1), (1, 1, 1), (1, 46, 1), (2, 1, 1), (2, 46, 2),
        (10**6, 1, 1), (10**6, 46, 46),
    ])
    def test_one_thread_per_core_and_block_at_most(self, cpu_count, n_blocks, expected):
        assert pooling._worker_count(cpu_count, n_blocks) == expected

    @pytest.mark.parametrize("colour", [False, True])
    def test_small_photo_creates_no_executor(self, tmp_path, colour):
        px = np.random.default_rng(3).integers(0, 256, (200, 200, 3) if colour else (200, 200))
        if colour:
            (tmp_path / "photo").write_bytes(encode_ppm(RgbImage(px)))
        else:
            (tmp_path / "photo").write_bytes(encode_pgm(GrayImage(px)))
        with fresh_executor():
            before = threading.active_count()
            extract_point_features(SamplePoint("t", "p", tmp_path / "photo"),
                                   PoolConfig(), GridConfig())
            assert threading.active_count() == before
            assert pooling._EXECUTOR is None

    @pytest.mark.skipif(not hasattr(os, "register_at_fork"), reason="no fork")
    def test_forked_child_makes_its_own_executor(self):
        # A child inherits the executor object but none of its threads;
        # mapping onto it would wait for ever.
        img = GrayImage(np.random.default_rng(4).integers(0, 256, (40, 30)))
        with fresh_executor(block_pixels=100, workers=2):
            expected = outcome(binarize_pooled, img, PoolConfig())
            assert pooling._EXECUTOR is not None
            child = multiprocessing.get_context("fork").Process(
                target=_exit_zero_if_unchanged, args=(img, expected))
            child.start()
            child.join(timeout=30)
            if child.is_alive():
                child.kill()
                child.join()
            assert child.exitcode == 0


def _exit_zero_if_unchanged(img, expected):
    os._exit(0 if outcome(binarize_pooled, img, PoolConfig()) == expected else 1)
