"""Image types, the grayscale kernel, and the netpbm codec."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shadowprune import imgcore
from shadowprune.cli import main
from shadowprune.errors import IoError, MalformedFile, ShadowPruneError, UnsupportedFormat
from shadowprune.imgcore import (
    BinaryImage,
    GrayImage,
    RgbImage,
    decode_image,
    encode_pgm,
    encode_ppm,
    save_pgm,
)
from shadowprune.pooling import binarize_pooled

# gray_formula's docstring names the float rounding of the .5 ties, some
# of which round down; test_gray_rows_into_any_view puts half its pixels
# on them.
from oracles import gray_formula


_WHITESPACE = frozenset(b" \t\r\n\v\f")


def _reference_token(buf: bytes, pos: int) -> tuple[bytes, int]:
    """Next token, skipping whitespace and '#' comments, one byte at a time."""
    n = len(buf)
    while pos < n:
        c = buf[pos]
        if c in _WHITESPACE:
            pos += 1
        elif c == 0x23:  # '#'
            while pos < n and buf[pos] not in (0x0A, 0x0D):
                pos += 1
        else:
            break
    if pos >= n:
        raise MalformedFile("unexpected end of file in netpbm header")
    start = pos
    while pos < n and buf[pos] not in _WHITESPACE and buf[pos] != 0x23:
        pos += 1
    return buf[start:pos], pos


def reference_next_token(buf: bytes, pos: int, complete: bool) -> tuple[bytes, int]:
    """imgcore._next_token as it was, scanning one byte at a time."""
    n = len(buf)
    while pos < n:
        c = buf[pos]
        if c in _WHITESPACE:
            pos += 1
        elif c == 0x23:  # '#'
            while pos < n and buf[pos] not in (0x0A, 0x0D):
                pos += 1
        else:
            break
    start = pos
    while pos < n and buf[pos] not in _WHITESPACE and buf[pos] != 0x23:
        pos += 1
    if pos >= n and not complete:
        raise imgcore._ShortHeader
    if start >= n:
        raise MalformedFile("unexpected end of file in netpbm header")
    return bytes(buf[start:pos]), pos


def reference_plain_samples(buf: bytes, pos: int, count: int) -> np.ndarray:
    """The plain raster parser that imgcore._read_plain_samples replaced.

    One token per call; a sample beyond int64 escapes as OverflowError.
    """
    if count > (len(buf) - pos) // 2:
        raise MalformedFile(
            f"plain raster truncated: {count} samples cannot fit in "
            f"{len(buf) - pos} bytes"
        )
    values = np.empty(count, dtype=np.int64)
    for i in range(count):
        token, pos = _reference_token(buf, pos)
        try:
            values[i] = int(token)
        except ValueError:
            raise MalformedFile(f"bad sample token {token!r}") from None
    n = len(buf)
    while pos < n:
        c = buf[pos]
        if c in _WHITESPACE:
            pos += 1
        elif c == 0x23:
            while pos < n and buf[pos] not in (0x0A, 0x0D):
                pos += 1
        else:
            raise MalformedFile("trailing data after plain raster")
    if values.size and (values.min() < 0 or values.max() > 255):
        raise MalformedFile("sample value outside [0, 255]")
    return values.astype(np.uint8)


def decoded(data):
    """Class, shape and bytes of the decoded image, or the error class and message."""
    try:
        img = decode_image(data)
    except ShadowPruneError as exc:
        return type(exc), str(exc)
    assert img.pixels.dtype == np.uint8
    return type(img), img.pixels.shape, img.pixels.tobytes()


def rgb_of(*pixels, shape=None):
    arr = np.array(pixels, dtype=np.uint8)
    if shape is None:
        shape = (1, len(pixels), 3)
    return RgbImage(arr.reshape(shape))


class TestImageTypes:
    def test_rgb_requires_three_channels(self):
        with pytest.raises(ValueError):
            RgbImage(np.zeros((2, 2), dtype=np.uint8))

    def test_gray_requires_2d(self):
        with pytest.raises(ValueError):
            GrayImage(np.zeros((2, 2, 3), dtype=np.uint8))

    def test_channel_range_enforced(self):
        with pytest.raises(ValueError):
            GrayImage(np.array([[300]], dtype=np.int64))
        with pytest.raises(ValueError):
            GrayImage(np.array([[-1]], dtype=np.int64))

    def test_binary_rejects_intermediate_values(self):
        with pytest.raises(ValueError):
            BinaryImage(np.array([[0, 128]], dtype=np.uint8))

    def test_binary_accepts_zero_and_255(self):
        img = BinaryImage(np.array([[0, 255]], dtype=np.uint8))
        assert img.pixel_count == 2

    def test_pixels_are_read_only(self):
        img = GrayImage(np.array([[1, 2]], dtype=np.uint8))
        with pytest.raises(ValueError):
            img.pixels[0, 0] = 9

    def test_dimension_properties(self):
        img = GrayImage(np.zeros((3, 5), dtype=np.uint8))
        assert (img.height, img.width, img.pixel_count) == (3, 5, 15)


def gray_of(img: RgbImage) -> np.ndarray:
    """The gray levels the image path computes for a colour image."""
    out = np.empty((img.height, img.width), dtype=np.uint8)
    imgcore._gray_rows(img.pixels, out)
    return out


class TestToGray:
    def test_black_and_white_pixels(self):
        img = rgb_of((0, 0, 0), (255, 255, 255))
        assert gray_of(img).tolist() == [[0, 255]]

    def test_direct_substitution(self):
        # 0.21*100 + 0.72*50 + 0.07*200 = 21 + 36 + 14 = 71
        img = rgb_of((100, 50, 200))
        assert gray_of(img)[0, 0] == 71

    def test_gray_triples_fixed_for_all_levels(self):
        vals = np.arange(256, dtype=np.uint8)
        img = RgbImage(np.repeat(vals, 3).reshape(1, 256, 3))
        assert np.array_equal(gray_of(img)[0], vals)

    def test_matches_formula_on_random_triples(self):
        rng = np.random.default_rng(20240811)
        trip = rng.integers(0, 256, size=(1000, 3))
        img = RgbImage(trip.reshape(1, 1000, 3).astype(np.uint8))
        got = gray_of(img)[0]
        for k in range(1000):
            assert got[k] == gray_formula(*trip[k])

    @given(
        st.tuples(
            st.integers(0, 255), st.integers(0, 255), st.integers(0, 255)
        ),
        st.tuples(
            st.integers(0, 255), st.integers(0, 255), st.integers(0, 255)
        ),
    )
    def test_monotone_in_every_channel(self, a, b):
        hi = tuple(max(x, y) for x, y in zip(a, b))
        img = rgb_of(a, hi)
        g = gray_of(img)[0]
        assert g[1] >= g[0]

    def test_dimensions_preserved(self):
        img = RgbImage(np.zeros((4, 7, 3), dtype=np.uint8))
        assert gray_of(img).shape == (4, 7)

    @given(st.integers(1, 30), st.integers(1, 30), st.integers(0, 2**32 - 1),
           st.sampled_from(["rows", "strided", "transposed"]))
    @settings(max_examples=80, deadline=None)
    def test_gray_rows_into_any_view(self, h, w, seed, layout):
        # Half the pixels sit on a .5 tie: 7b = -(21r + 72g + 50) mod 100,
        # and 43 is 7's inverse mod 100.  `out` and `rgb` are views that a
        # reshape would copy, and the pixels around `out` keep their 7.
        rng = np.random.default_rng(seed)
        r, g, b = rng.integers(0, 256, (3, h, w))
        tie = (-43 * (21 * r + 72 * g + 50)) % 100 + 100 * rng.integers(0, 2, (h, w))
        b = np.where(rng.random((h, w)) < 0.5, tie, b)
        rgb = np.stack([r, g, b], axis=-1).astype(np.uint8)
        rgb = np.stack([rgb, rgb], axis=1)[:, 0]  # rows two apart
        big = np.full((2 * h + 1, 3 * w + 1), 7, dtype=np.uint8)
        out = {"rows": big[1 : h + 1, 1 : w + 1], "strided": big[1::2, 1::3],
               "transposed": big.T[1 : w + 1, 1 : h + 1].T}[layout]
        imgcore._gray_rows(rgb, out)
        for i in range(h):
            for j in range(w):
                assert out[i, j] == gray_formula(*(int(c) for c in rgb[i, j]))
        assert np.count_nonzero(big != 7) <= h * w
        out[...] = 7
        assert np.all(big == 7)

    def test_matches_formula_on_every_triple(self):
        # All 2^24 triples, 16 red levels at a time; the reference is
        # oracles.gray_formula vectorised with the same float64 operations
        # in the same order.
        gb = np.arange(1 << 16)
        g = (gb >> 8).astype(np.float64)
        b = (gb & 0xFF).astype(np.float64)
        for r0 in range(0, 256, 16):
            r = np.arange(r0, r0 + 16, dtype=np.float64)[:, np.newaxis]
            px = np.empty((16, 1 << 16, 3), dtype=np.uint8)
            px[:, :, 0] = r
            px[:, :, 1] = g
            px[:, :, 2] = b
            got = gray_of(RgbImage(px))
            want = np.clip(np.floor(0.21 * r + 0.72 * g + 0.07 * b + 0.5), 0, 255)
            assert np.array_equal(got, want), f"red levels {r0}..{r0 + 15}"


class TestDecode:
    def test_plain_ppm_all_white(self):
        data = b"P3\n2 2\n255\n" + b"255 " * 12
        img = decode_image(data)
        assert img.pixels.shape == (2, 2, 3)
        assert np.all(img.pixels == 255)

    def test_single_pixel_ppm(self):
        img = decode_image(b"P3\n1 1\n255\n10 20 30\n")
        assert img.pixels[0, 0].tolist() == [10, 20, 30]

    def test_truncated_plain_ppm(self):
        # header claims 4 pixels, body has 2
        with pytest.raises(MalformedFile):
            decode_image(b"P3\n2 2\n255\n1 2 3 4 5 6\n")

    def test_truncated_raw_pgm(self):
        with pytest.raises(MalformedFile):
            decode_image(b"P5\n2 2\n255\n\x00\x01")

    def test_trailing_junk_rejected(self):
        with pytest.raises(MalformedFile):
            decode_image(b"P3\n1 1\n255\n1 2 3 4\n")

    def test_sample_above_maxval_rejected(self):
        with pytest.raises(MalformedFile):
            decode_image(b"P2\n1 1\n255\n256\n")

    def test_maxval_other_than_255(self):
        with pytest.raises(UnsupportedFormat):
            decode_image(b"P2\n1 1\n65535\n0\n")

    def test_unknown_magic(self):
        with pytest.raises(UnsupportedFormat):
            decode_image(b"P7\n1 1\n255\n0\n")

    def test_header_comments_skipped(self):
        img = decode_image(b"P2\n# a comment\n1 2\n# another\n255\n5\n6\n")
        assert isinstance(img, GrayImage) and img.pixels.tolist() == [[5], [6]]

    def test_plain_samples_are_python_integers(self):
        # a comment ends a sample; a sign, an underscore and leading zeros
        # are read as int() reads them; beyond int64 is out of range
        img = decode_image(b"P2\n5 1\n255\n7#c\n+2 0_1 007 -0")
        assert img.pixels.tolist() == [[7, 2, 1, 7, 0]]
        with pytest.raises(MalformedFile, match=r"outside \[0, 255\]"):
            decode_image(b"P2 1 1 255 99999999999999999999")

    def test_pgm_decodes_to_gray(self):
        img = decode_image(b"P2\n2 1\n255\n9 200\n")
        assert isinstance(img, GrayImage)
        assert img.pixels.shape == (1, 2)
        assert img.pixels.tolist() == [[9, 200]]

    def test_raw_pgm_decodes_to_gray(self):
        img = decode_image(b"P5\n2 1\n255\n\x09\xc8")
        assert isinstance(img, GrayImage)
        assert img.pixels.dtype == np.uint8
        assert img.pixels.tolist() == [[9, 200]]

    @pytest.mark.parametrize("raw", [True, False])
    @pytest.mark.parametrize(
        "wrap", [bytearray, lambda b: memoryview(b).toreadonly()], ids=["bytearray", "memoryview"]
    )
    def test_bytearray_input_is_not_aliased(self, raw, wrap):
        data = bytearray(encode_pgm(GrayImage(np.array([[1, 2], [3, 4]], np.uint8)), raw=raw))
        img = decode_image(wrap(data))
        data[-2:] = b"99"
        assert img.pixels.tolist() == [[1, 2], [3, 4]]
        assert not img.pixels.flags.writeable

    def test_pixels_from_bytes_are_read_only(self):
        img = decode_image(encode_ppm(rgb_of((1, 2, 3), (4, 5, 6))))
        assert isinstance(img, RgbImage)
        with pytest.raises(ValueError):
            img.pixels[0, 0, 0] = 9

    @given(
        st.binary(max_size=300)
        | st.tuples(
            st.sampled_from([b"P2", b"P3", b"P5", b"P6"]),
            st.lists(st.sampled_from([b"0", b"1", b"2", b"3", b"-1", b"+2", b"1_0", b"255",
                                      b"256", b"99999999", b"9" * 5000, b"#c\n", b"#",
                                      b"\xff", b"\x00", b"\v", b"1e3", b"0x1",
                                      b"99999999999999999999", b"7#c", b"0_1", b"007"])
                     | st.binary(max_size=4), max_size=10),
            st.sampled_from([b" ", b"\n", b"\t", b"\r\n", b""]),
            st.binary(max_size=60),
        ).map(lambda t: t[0] + t[2] + t[2].join(t[1]) + t[2] + t[3]),
    )
    @example(b"P5 1 1 255 \x00")
    @example(b"P2 2 1 255 1 2 3")
    @example(b"P6 1 1 255\n\x00\x00")
    @example(b"P3 0 1 255 ")
    @example(b"P2 1 1 " + b"9" * 5000)
    @example(b"P2 3 1 255 7#c\n+2 0_1")
    @example(b"P2 2 1 255 99999999999999999999 x")
    @example(b"P2 2 1 255 1 2#c\n#d\r\n")
    @settings(max_examples=300, deadline=None)
    def test_fuzz_only_library_errors_escape(self, data):
        # The plain raster parser also matches the one it replaced, except
        # where that one let a sample beyond int64 escape as OverflowError.
        found = decoded(data)
        with mock.patch.object(imgcore, "_read_plain_samples", reference_plain_samples):
            try:
                expected = decoded(data)
            except OverflowError:
                assert found[0] is MalformedFile
                return
        assert found == expected

    @given(st.lists(st.sampled_from([b" ", b"\t", b"\r", b"\n", b"\v", b"\f", b"#", b"#c\n",
                                     b"#\r", b"1", b"255", b"x", b"\x00", b"\xff"])
                    | st.binary(max_size=3), max_size=12).map(b"".join),
           st.integers(0, 40), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_header_token_matches_byte_scan(self, buf, pos, complete):
        pos = min(pos, len(buf))

        def outcome(scan):
            try:
                return scan(buf, pos, complete)
            except (MalformedFile, imgcore._ShortHeader) as exc:
                return type(exc), str(exc)

        assert outcome(imgcore._next_token) == outcome(reference_next_token)

    @pytest.mark.parametrize("head,tail,message", [
        # a maxval that runs into a 12-MP raster of ASCII digits
        (b"P5\n4000 3000\n255", b"7" * 12_000_000,
         "error: bad maxval token b'255" + "7" * 29 + "'...\n"),
        # a maxval that int() reads, too long to quote whole
        (b"P5\n1 1\n" + b"9" * 4000, b"\n\x00",
         "error: maxval " + "9" * 32 + "... not supported (only 255)\n"),
        # a 4000-digit width, whose raster size is quoted short
        (b"P5\n" + b"9" * 4000 + b" 1\n255\n", b"\x00",
         "error: raw raster truncated: expected " + "9" * 32 + "... bytes, found 1\n"),
        (b"P2\n" + b"9" * 4000 + b" 1\n255\n", b"1 2",
         "error: plain raster truncated: " + "9" * 32 + "... samples cannot fit in 4 bytes\n"),
    ], ids=["digit-raster", "4000-digit-maxval", "4000-digit-width-raw",
            "4000-digit-width-plain"])
    def test_long_header_token_is_quoted_short(self, head, tail, message, tmp_path, capsys):
        path = tmp_path / "long.pgm"
        path.write_bytes(head + tail)
        assert main(["binarize", str(path), str(tmp_path / "out.pgm")]) == 2
        err = capsys.readouterr().err
        assert err == message
        assert len(err.encode()) < 200

    def test_plain_sample_count_bounded_by_body(self):
        # 10^10 samples cannot fit in a two-byte body: rejected before
        # any buffer is sized from the header.
        with pytest.raises(MalformedFile, match="cannot fit"):
            decode_image(b"P2\n100000 100000\n255\n0\n")


class TestRoundTrips:
    @given(st.integers(1, 6), st.integers(1, 6), st.booleans(), st.integers(0, 2**32 - 1))
    def test_pgm_round_trip(self, h, w, raw, seed):
        rng = np.random.default_rng(seed)
        img = GrayImage(rng.integers(0, 256, size=(h, w)).astype(np.uint8))
        back = decode_image(encode_pgm(img, raw=raw))
        assert isinstance(back, GrayImage) and np.array_equal(back.pixels, img.pixels)

    @given(st.integers(1, 6), st.integers(1, 6), st.booleans(), st.integers(0, 2**32 - 1))
    def test_ppm_round_trip(self, h, w, raw, seed):
        rng = np.random.default_rng(seed)
        img = RgbImage(rng.integers(0, 256, size=(h, w, 3)).astype(np.uint8))
        back = decode_image(encode_ppm(img, raw=raw))
        assert np.array_equal(back.pixels, img.pixels)


class TestFileIo:
    def test_save_and_load(self, tmp_path):
        img = GrayImage(np.array([[0, 128], [255, 7]], dtype=np.uint8))
        path = tmp_path / "x.pgm"
        save_pgm(path, img)
        assert np.array_equal(decode_image(path.read_bytes()).pixels, img.pixels)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoError):
            binarize_pooled(tmp_path / "nothing.pgm")
