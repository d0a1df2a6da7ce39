"""Patch pooling: the sum-cutoff rule, sizes, max-pool equivalence, and
the one-pass image path checked against its definition, built from
none of its kernels, on decoded images and on image files read by
rows."""

from __future__ import annotations

import multiprocessing
import os
import sys
import threading
import time
import tracemalloc
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shadowprune import imgcore, pooling
from shadowprune.cli import main
from shadowprune.errors import EmptyImage, ImageTooSmall, InvalidConfig, ShadowPruneError
from shadowprune.features import GridConfig, extract_features
from shadowprune.fileio import FileReader
from shadowprune.imgcore import (BinaryImage, GrayImage, RgbImage, decode_image, encode_pgm,
                                 encode_ppm)
from shadowprune.pipeline import SamplePoint, TreeRecord, extract_dataset
from shadowprune.pooling import PoolConfig, binarize_pooled
from shadowprune.threshold import _count_levels, binarize, otsu_threshold

from oracles import max_pool_reference


def binary(arr) -> np.ndarray:
    return BinaryImage(np.array(arr, dtype=np.uint8)).pixels


def random_binary(rng, h, w) -> BinaryImage:
    return BinaryImage((rng.random((h, w)) < 0.5).astype(np.uint8) * 255)


def max_pool(px: np.ndarray, p: int) -> np.ndarray:
    """The patch maxima binarize_pooled makes of px: its kernel for p >= 2,
    every pixel kept for p = 1."""
    if p == 1:
        return px
    out = np.empty((px.shape[0] // p, px.shape[1] // p), dtype=np.uint8)
    pooling._max_pool_rows(px, p, out)
    return out


class TestPatchRule:
    def test_all_black_patch(self):
        assert max_pool(binary(np.zeros((3, 3))), 3).tolist() == [[0]]

    def test_single_white_pixel_wins(self):
        px = np.zeros((3, 3))
        px[1, 2] = 255
        assert max_pool(binary(px), 3).tolist() == [[255]]

    def test_half_and_half_six_by_six(self):
        px = np.zeros((6, 6))
        px[:, :3] = 255
        assert max_pool(binary(px), 3).tolist() == [[255, 0], [255, 0]]

    def test_p1_is_identity(self):
        # a binary photo's own threshold gives its pixels back
        rng = np.random.default_rng(5)
        img = random_binary(rng, 4, 7)
        out, _ = binarize_pooled(img, PoolConfig(p=1))
        assert np.array_equal(out.pixels, img.pixels)

    def test_disabled_config_passes_through(self):
        # with pooling off every gray pixel is thresholded where it is
        rng = np.random.default_rng(6)
        img = GrayImage(rng.integers(0, 256, (5, 5)))
        out, result = binarize_pooled(img, PoolConfig(p=1))
        assert np.array_equal(out.pixels, np.where(img.pixels >= result.threshold, 255, 0))

    def test_too_small_image(self):
        px = np.zeros((2, 9), dtype=np.uint8)
        px[0, 0] = 255
        with pytest.raises(ImageTooSmall):
            binarize_pooled(BinaryImage(px), PoolConfig(p=3))

    def test_invalid_factor(self):
        with pytest.raises(InvalidConfig):
            PoolConfig(p=0)


class TestSizeContract:
    @given(st.integers(1, 20), st.integers(1, 20), st.sampled_from([1, 2, 3, 5]))
    @settings(max_examples=60, deadline=None)
    def test_floor_dimensions(self, h, w, p):
        if h < p or w < p or h * w < 2:
            return
        rng = np.random.default_rng(h * 100 + w * 10 + p)
        px = random_binary(rng, h, w).pixels.copy()
        px.flat[0], px.flat[-1] = 0, 255  # two levels, so Otsu has a threshold
        out, _ = binarize_pooled(BinaryImage(px), PoolConfig(p=p))
        assert out.pixels.shape == (h // p, w // p)

    def test_area_one_ninth_on_multiples_of_three(self):
        rng = np.random.default_rng(9)
        out, _ = binarize_pooled(random_binary(rng, 9, 12), PoolConfig(p=3))
        assert out.pixel_count * 9 == 9 * 12


class TestMaxPoolEquivalence:
    @given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 3, 5]))
    @settings(max_examples=80, deadline=None)
    def test_equals_patch_max(self, seed, p):
        rng = np.random.default_rng(seed)
        h = int(rng.integers(p, 16))
        w = int(rng.integers(p, 16))
        img = random_binary(rng, h, w)
        assert np.array_equal(max_pool(img.pixels, p), max_pool_reference(img.pixels, p))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_white_monotone(self, seed):
        # flipping one source pixel to white never turns output black
        rng = np.random.default_rng(seed)
        img = random_binary(rng, 9, 9)
        before = max_pool(img.pixels, 3)
        px = img.pixels.copy()
        i = int(rng.integers(9))
        j = int(rng.integers(9))
        px[i, j] = 255
        after = max_pool(BinaryImage(px).pixels, 3)
        assert np.all(after >= before)


def reference_path(img, cfg):
    """binarize_pooled by its definition, from none of its gray, histogram
    or pool kernels: the float64 gray formula and np.bincount at full size,
    Otsu and binarize, then the looped max-pool oracle; and its errors, in
    its order."""
    px = img.pixels.astype(np.float64)
    if px.ndim == 3:
        r, g, b = px[:, :, 0], px[:, :, 1], px[:, :, 2]
        px = np.floor(0.21 * r + 0.72 * g + 0.07 * b + 0.5)
    gray = px.astype(np.uint8)
    if gray.size == 0:
        raise EmptyImage("cannot histogram an empty image")
    result = otsu_threshold(np.bincount(gray.ravel(), minlength=256)[None])
    (h, w), p = gray.shape, cfg.p
    if h < p or w < p:
        raise ImageTooSmall(f"{h}x{w} image has no full {p}x{p} patch")
    binary = binarize(GrayImage(gray), int(result.threshold[0]))
    return BinaryImage(max_pool_reference(binary.pixels, p)), result


def outcome(path, img, cfg):
    """Pooled bytes, Otsu fields and feature row, or the error raised."""
    try:
        binary, r = path(img, cfg)
    except ShadowPruneError as exc:
        return type(exc), str(exc)
    assert type(binary) is BinaryImage
    return (binary.pixels.shape, binary.pixels.tobytes(), r.threshold.tolist(),
            *(getattr(r, name).tobytes() for name in ("objective", "w0", "w1", "mu0", "mu1")),
            extract_features(binary.pixels[None], [255], GridConfig(2)).tolist()
            if min(binary.pixels.shape) >= 2 else None)


@contextmanager
def split_blocks(block_pixels=pooling._BLOCK_PIXELS, workers=None):
    """A block budget, and optionally a fixed thread count."""
    count = pooling._worker_count if workers is None else (
        lambda cpu_count, n_blocks: min(workers, n_blocks))
    with mock.patch.object(pooling, "_BLOCK_PIXELS", block_pixels), \
            mock.patch.object(pooling, "_worker_count", count):
        yield


def block_threads():
    """Block threads alive now."""
    return [t.name for t in threading.enumerate() if t.name.startswith("shadowprune-block")]


@contextmanager
def counting_threads():
    """The name of the thread that counted each block, in a list."""
    names = []

    def count_levels(gray):
        names.append(threading.current_thread().name)
        return _count_levels(gray)

    with mock.patch.object(pooling, "_count_levels", count_levels):
        yield names


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
    @given(photos(), st.sampled_from([1, 2, 3, 5]),
           st.sampled_from([1, 30, 1 << 18]), st.sampled_from([1, 2]))
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_chain(self, img, p, block_pixels, workers):
        # block_pixels 1 gives one patch row per block, 30 a few rows
        cfg = PoolConfig(p=p)
        with split_blocks(block_pixels, workers):
            found = outcome(binarize_pooled, img, cfg)
        assert found == outcome(reference_path, img, cfg)

    @pytest.mark.parametrize("colour", [False, True])
    def test_threads_and_inline_give_the_same_bytes(self, colour):
        rng = np.random.default_rng(21)
        px = np.where(rng.random((601, 500)) < 0.3, 40, 215) + rng.integers(-20, 21, (601, 500))
        img = RgbImage(np.stack([px, px, px // 2], axis=2)) if colour else GrayImage(px)
        cfg = PoolConfig()
        before = threading.active_count()
        with split_blocks(workers=2), counting_threads() as ran_on:
            threaded = outcome(binarize_pooled, img, cfg)
        # 601 x 500 makes 2 blocks of 522 and 79 rows, each counted on a
        # block thread that is gone once the call returns
        assert len(ran_on) == 2 and all(n.startswith("shadowprune-block") for n in ran_on)
        assert threading.active_count() == before and block_threads() == []
        with split_blocks(workers=1):
            inline = outcome(binarize_pooled, img, cfg)
        assert threaded == inline == outcome(reference_path, img, cfg)

    def test_more_threads_than_cores_switching_often(self):
        # 67 one-patch-row blocks on 8 threads that switch every microsecond:
        # a block writing outside its rows or a lost histogram count shows
        img = RgbImage(np.random.default_rng(22).integers(0, 256, (201, 97, 3)))
        expected = outcome(reference_path, img, PoolConfig())
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with split_blocks(block_pixels=1, workers=8):
                for _ in range(5):
                    assert outcome(binarize_pooled, img, PoolConfig()) == expected
        finally:
            sys.setswitchinterval(interval)

    def test_tie_colours_gray_into_the_pooled_rows(self):
        # With p = 1 each block grays straight into its rows of the pooled
        # array.  Every pixel sits on a .5 tie of the gray formula, where
        # the float sum rounds some colours down: 7b = -(21r + 72g + 50)
        # mod 100, and 43 is 7's inverse mod 100.
        rng = np.random.default_rng(23)
        r, g = rng.integers(0, 256, (2, 601, 500))
        b = (-43 * (21 * r + 72 * g + 50)) % 100 + 100 * rng.integers(0, 2, (601, 500))
        rgb = RgbImage(np.stack([r, g, b], axis=-1))
        gray = np.floor(0.21 * r + 0.72 * g + 0.07 * b + 0.5).astype(np.uint8)
        assert 0 < np.count_nonzero(gray < (21 * r + 72 * g + 7 * b + 50) // 100) < gray.size
        with split_blocks(workers=2), counting_threads() as ran_on:
            found = outcome(binarize_pooled, rgb, PoolConfig(1))
        assert len(ran_on) == 2
        result = otsu_threshold(np.bincount(gray.ravel(), minlength=256)[None])
        assert found == outcome(lambda img, cfg: (binarize(GrayImage(gray),
                                                           int(result.threshold[0])),
                                                  result), rgb, PoolConfig(1))

    def test_error_order_matches_reference(self):
        # a constant 2x2 photo is both degenerate and too small to pool
        for img in (GrayImage(np.full((2, 2), 9)), RgbImage(np.full((2, 2, 3), 9)),
                    GrayImage(np.array([[0, 255], [9, 9]])),
                    GrayImage(np.zeros((0, 4), dtype=np.uint8))):
            found = outcome(binarize_pooled, img, PoolConfig())
            assert found == outcome(reference_path, img, PoolConfig())
            assert isinstance(found[0], type)


def decoded_file(path, cfg):
    """The file decoded whole, then walked as an image: what reading by rows replaces."""
    return binarize_pooled(decode_image(path.read_bytes()), cfg)


@st.composite
def raw_files(draw):
    """P5/P6 bytes, valid or nearly: comments, a header longer than the
    first read, a missing separator, a short raster, trailing whitespace
    or data, another maxval, a zero size, odd widths."""
    colour = draw(st.booleans())
    h, w = draw(st.integers(0, 24)), draw(st.integers(0, 24))
    levels = draw(st.sampled_from([1, 2, 256]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    samples = rng.integers(0, levels, h * w * (3 if colour else 1)) * (255 // max(1, levels - 1))
    raster = samples.astype(np.uint8).tobytes()
    sep = draw(st.sampled_from([b" ", b"\n", b"\r\n", b"\t"]))
    comment = draw(st.sampled_from([b"", b"# c\n", b"#" + b"x" * 5000 + b"\n"]))
    maxval = draw(st.sampled_from([b"255", b"255", b"255", b"65535", b"1"]))
    header = sep.join([b"P6" if colour else b"P5", comment + str(w).encode(), str(h).encode(),
                       comment + maxval])
    separator = draw(st.sampled_from([b"\n", b"\n", b" ", b"", b"#"]))
    cut = draw(st.sampled_from([0, 0, 0, 1, len(raster)]))
    tail = draw(st.sampled_from([b"", b"", b"\n", b" \n\t\r\v\f", b"x", b"\n\x00"]))
    return header + separator + raster[: len(raster) - cut] + tail


class TestFileSource:
    @given(raw_files(), st.sampled_from([2, 5, 4096]), st.sampled_from([1, 2, 3, 5]),
           st.sampled_from([1, 30, 1 << 18]), st.sampled_from([1, 2]))
    @settings(max_examples=200, deadline=None)
    def test_matches_decoded_file(self, tmp_path_factory, data, header_read, p,
                                  block_pixels, workers):
        # header_read 2 and 5 make every header longer than the first read
        path = tmp_path_factory.getbasetemp() / "parity.pnm"
        path.write_bytes(data)
        cfg = PoolConfig(p=p)
        with split_blocks(block_pixels, workers), \
                mock.patch.object(imgcore, "_HEADER_READ", header_read):
            found = outcome(binarize_pooled, path, cfg)
        assert found == outcome(decoded_file, path, cfg)

    def test_short_read_raises_first_error_and_closes_last(self, tmp_path, monkeypatch, capsys):
        # 60 x 50 gray in blocks of 3 rows.  Block 2 comes up short at once,
        # block 1 later; block 3 is still reading when both have failed.
        path = tmp_path / "photo.pgm"
        header = b"P5\n50 60\n255\n"
        path.write_bytes(header + np.random.default_rng(7).bytes(3000))
        start = len(header)
        events = []
        read_into, close = FileReader.read_into, FileReader.__exit__

        def short_read(reader, buf, offset):
            k = (offset - start) // 150
            if offset < start:
                return read_into(reader, buf, offset)
            events.append(("start", k))
            time.sleep({1: 0.2, 3: 0.4}.get(k, 0))
            view = memoryview(buf).cast("B")
            got = read_into(reader, view[:-1] if k in (1, 2) else view, offset)
            events.append(("end", k))
            return got

        def closing(reader, *exc_info):
            events.append(("close",))
            return close(reader, *exc_info)

        monkeypatch.setattr(FileReader, "read_into", short_read)
        monkeypatch.setattr(FileReader, "__exit__", closing)
        with split_blocks(block_pixels=150, workers=2):
            assert main(["binarize", str(path), str(tmp_path / "out.pgm")]) == 2
        assert capsys.readouterr().err == (
            "error: raw raster truncated: expected 3000 bytes, found 299\n")
        assert events[-1] == ("close",) and events.count(("close",)) == 1
        started = {e[1] for e in events if e[0] == "start"}
        assert {1, 2, 3} <= started == {e[1] for e in events if e[0] == "end"}
        assert not (tmp_path / "out.pgm").exists()

    def test_binarize_reads_a_fifo(self, tmp_path, capsys):
        px = np.random.default_rng(8).integers(0, 256, (601, 500, 3))
        data = encode_ppm(RgbImage(px))
        (tmp_path / "photo.ppm").write_bytes(data)
        assert main(["binarize", str(tmp_path / "photo.ppm"), str(tmp_path / "file.pgm")]) == 0
        expected = capsys.readouterr().out
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(data,), daemon=True)
        writer.start()
        assert main(["binarize", str(fifo), str(tmp_path / "fifo.pgm")]) == 0
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert capsys.readouterr().out == expected
        assert (tmp_path / "fifo.pgm").read_bytes() == (tmp_path / "file.pgm").read_bytes()

    def test_raw_file_is_never_held_whole(self, tmp_path):
        # A 3000 x 4000 P6 is 36 MB.  Two threads' row and float buffers,
        # the pooled and the binary images stay under 8 MB.
        path = tmp_path / "field.ppm"
        rng = np.random.default_rng(9)
        with path.open("wb") as fh:
            fh.write(b"P6\n4000 3000\n255\n")
            for _ in range(10):
                fh.write(rng.integers(0, 256, (300, 4000, 3), dtype=np.uint8).tobytes())
        with split_blocks(workers=2):
            tracemalloc.start()
            try:
                binary, _ = binarize_pooled(path)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert binary.pixels.shape == (1000, 1333)
        assert peak < 8 * 2**20


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
        before = threading.active_count()
        with split_blocks(), counting_threads() as ran_on:
            table, failures = extract_dataset(
                [TreeRecord("t", 1, (SamplePoint("t", "p", tmp_path / "photo"),))],
                PoolConfig(), GridConfig())
        assert failures == [] and len(table) == 1
        assert ran_on == [threading.current_thread().name]
        assert threading.active_count() == before and block_threads() == []

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork")
    def test_forked_child_makes_its_own_executor(self):
        # A child forked after a threaded call inherits none of its
        # threads; a pool kept from the parent would wait for ever.
        img = GrayImage(np.random.default_rng(4).integers(0, 256, (40, 30)))
        with split_blocks(block_pixels=100, workers=2):
            expected = outcome(binarize_pooled, img, PoolConfig())
            assert block_threads() == []
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
