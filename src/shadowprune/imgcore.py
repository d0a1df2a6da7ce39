"""Image containers, netpbm decoding, and RGB-to-grayscale conversion.

Images are thin wrappers around read-only numpy arrays: RGB as
(height, width, 3) uint8, grayscale as (height, width) uint8, and binary
as grayscale restricted to {0, 255} where 0 marks shadow and 255 light.
File I/O covers PPM (P3/P6) and PGM (P2/P5) with maxval 255 only; a PGM
decodes straight to a GrayImage and a PPM to an RgbImage.

Pixels are checked and frozen once, where they enter: in the public
constructors and in `decode_image`.  Arrays this package computes from
already-checked images are wrapped as they are, without a copy or a scan.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import MalformedFile, UnsupportedFormat
from .fileio import read_file, write_file

# Channel weights of the grayscale conversion, in (r, g, b) order.
GRAY_WEIGHTS = (0.21, 0.72, 0.07)

_WHITESPACE = frozenset(b" \t\r\n\v\f")

# Pixels per block of the colour grayscale, small enough for the float
# temporaries to stay in cache.
_GRAY_CHUNK = 1 << 16

# The two float64 buffers of the colour grayscale, kept between calls;
# one pair per thread, as worker threads convert blocks of one photo.
_FLOAT_BUFFERS = threading.local()


def _check_intensity(px: np.ndarray, what: str) -> None:
    if not np.issubdtype(px.dtype, np.integer):
        raise ValueError(f"{what} pixels must be integers, got dtype {px.dtype}")
    if px.dtype != np.uint8 and px.size and (int(px.min()) < 0 or int(px.max()) > 255):
        raise ValueError(f"{what} pixel values must lie in [0, 255]")


@dataclass(frozen=True)
class _Image:
    pixels: np.ndarray

    _NDIM = 2
    _KIND = "gray"

    def __post_init__(self):
        px = np.asarray(self.pixels)
        if px.ndim != self._NDIM or (px.ndim == 3 and px.shape[2] != 3):
            shape = "(h, w, 3)" if self._NDIM == 3 else "(h, w)"
            raise ValueError(f"{self._KIND} pixels must have shape {shape}, got {px.shape}")
        _check_intensity(px, self._KIND)
        self._validate(px)
        px = px.astype(np.uint8, copy=True)
        px.setflags(write=False)
        object.__setattr__(self, "pixels", px)

    @classmethod
    def _trusted(cls, px: np.ndarray):
        """Wrap uint8 pixels that are valid by construction, without a copy.

        The caller guarantees the shape and values and that no writable
        alias of `px` escapes.
        """
        img = object.__new__(cls)
        px.setflags(write=False)
        object.__setattr__(img, "pixels", px)
        return img

    def _validate(self, px: np.ndarray) -> None:
        pass

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def pixel_count(self) -> int:
        return self.pixels.shape[0] * self.pixels.shape[1]


class RgbImage(_Image):
    """Row-major (height, width, 3) color image, channels in [0, 255]."""

    _NDIM = 3
    _KIND = "RGB"


class GrayImage(_Image):
    """Row-major (height, width) intensity image, values in [0, 255]."""


class BinaryImage(GrayImage):
    """Gray image whose values are exactly 0 (shadow) or 255 (light)."""

    def _validate(self, px: np.ndarray) -> None:
        if px.size and bool(((px != 0) & (px != 255)).any()):
            raise ValueError("binary pixels must be exactly 0 or 255")


def to_gray(img: RgbImage | GrayImage) -> GrayImage:
    """Convert RGB to grayscale as 0.21 r + 0.72 g + 0.07 b per pixel.

    Results are rounded half-up so the output stays integral; equal-channel
    pixels (v, v, v) map back to v for every v in [0, 255].  A GrayImage is
    already gray and comes back unchanged.
    """
    if isinstance(img, GrayImage):
        return img
    out = np.empty((img.height, img.width), dtype=np.uint8)
    _gray_rows(img.pixels, out)
    return GrayImage._trusted(out)


def _gray_rows(rgb: np.ndarray, out: np.ndarray) -> None:
    """Write the grayscale of (h, w, 3) pixels into the (h, w) uint8 `out`.

    The float64 formula runs over blocks of rows through two buffers
    that each thread keeps between calls, with the same operations in
    the same order on every pixel.
    """
    wr, wg, wb = GRAY_WEIGHTS
    height, width = out.shape
    step = max(1, _GRAY_CHUNK // max(1, width))
    size = min(step, height) * width
    buffers = getattr(_FLOAT_BUFFERS, "pair", None)
    if buffers is None or buffers[0].size < size:
        buffers = _FLOAT_BUFFERS.pair = (np.empty(size), np.empty(size))
    for top in range(0, height, step):
        block = rgb[top : top + step]
        shape = block.shape[:2]
        gray = buffers[0][: shape[0] * width].reshape(shape)
        part = buffers[1][: shape[0] * width].reshape(shape)
        # dtype pins the float64 loop, which numpy 1.x would not pick
        # for uint8 times a Python float.
        np.multiply(block[:, :, 0], wr, out=gray, dtype=np.float64)
        gray += np.multiply(block[:, :, 1], wg, out=part, dtype=np.float64)
        gray += np.multiply(block[:, :, 2], wb, out=part, dtype=np.float64)
        gray += 0.5
        out[top : top + step] = np.floor(gray, out=gray)


# --- netpbm parsing -------------------------------------------------------


def _next_token(buf: bytes, pos: int) -> tuple[bytes, int]:
    """Next header token, skipping whitespace and '#' comments."""
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


def _parse_header_int(buf: bytes, pos: int, what: str) -> tuple[int, int]:
    token, pos = _next_token(buf, pos)
    try:
        value = int(token)
    except ValueError:
        raise MalformedFile(f"bad {what} token {token!r}") from None
    return value, pos


def _read_plain_samples(buf: bytes, pos: int, count: int) -> np.ndarray:
    # Every sample takes at least two bytes, a separator and a digit, so
    # a header asking for more than the body can hold is rejected before
    # anything is allocated from it.
    if count > (len(buf) - pos) // 2:
        raise MalformedFile(
            f"plain raster truncated: {count} samples cannot fit in "
            f"{len(buf) - pos} bytes"
        )
    values = np.empty(count, dtype=np.int64)
    for i in range(count):
        values[i], pos = _parse_header_int(buf, pos, "sample")
    # Only whitespace or comments may follow the raster.
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


def _read_raw_samples(buf: bytes, pos: int, count: int) -> np.ndarray:
    if pos >= len(buf) or buf[pos] not in _WHITESPACE:
        raise MalformedFile("missing whitespace before raw raster")
    pos += 1  # exactly one separator byte
    found = len(buf) - pos
    if found < count:
        raise MalformedFile(
            f"raw raster truncated: expected {count} bytes, found {found}"
        )
    if bytes(buf[pos + count :]).strip(b" \t\r\n\v\f"):
        raise MalformedFile("trailing data after raw raster")
    # A view of immutable bytes is read-only and safe to keep; any other
    # buffer (a bytearray, or a read-only memoryview of one) is copied so
    # the caller cannot change the pixels.
    samples = np.frombuffer(buf, dtype=np.uint8, count=count, offset=pos)
    return samples if isinstance(buf, bytes) else samples.copy()


def decode_image(data: bytes) -> RgbImage | GrayImage:
    """Decode PPM (P3/P6) bytes into an RgbImage, PGM (P2/P5) into a GrayImage.

    Only maxval 255 is accepted.  The pixels of a raw file read from
    immutable `bytes` are a read-only view of `data`, not a copy.
    """
    if len(data) < 2:
        raise MalformedFile("file too short for a netpbm header")
    magic = bytes(data[:2])
    if magic not in (b"P2", b"P3", b"P5", b"P6"):
        raise UnsupportedFormat(f"unsupported magic {magic!r} (want P2/P3/P5/P6)")
    channels = 3 if magic in (b"P3", b"P6") else 1
    raw = magic in (b"P5", b"P6")

    pos = 2
    width, pos = _parse_header_int(data, pos, "width")
    height, pos = _parse_header_int(data, pos, "height")
    maxval, pos = _parse_header_int(data, pos, "maxval")
    if width < 1 or height < 1:
        raise MalformedFile(f"non-positive dimensions {width}x{height}")
    if maxval != 255:
        raise UnsupportedFormat(f"maxval {maxval} not supported (only 255)")

    count = width * height * channels
    if raw:
        samples = _read_raw_samples(data, pos, count)
    else:
        samples = _read_plain_samples(data, pos, count)

    if channels == 3:
        return RgbImage._trusted(samples.reshape(height, width, 3))
    return GrayImage._trusted(samples.reshape(height, width))


def encode_pgm(img: GrayImage, raw: bool = True) -> bytes:
    """Serialize a gray (or binary) image as PGM, raw P5 or plain P2."""
    header = f"{'P5' if raw else 'P2'}\n{img.width} {img.height}\n255\n"
    if raw:
        return header.encode("ascii") + img.pixels.tobytes()
    rows = "\n".join(" ".join(str(v) for v in row) for row in img.pixels)
    return (header + rows + "\n").encode("ascii")


def encode_ppm(img: RgbImage, raw: bool = True) -> bytes:
    """Serialize a color image as PPM, raw P6 or plain P3."""
    header = f"{'P6' if raw else 'P3'}\n{img.width} {img.height}\n255\n"
    if raw:
        return header.encode("ascii") + img.pixels.tobytes()
    rows = "\n".join(
        " ".join(str(v) for v in row.reshape(-1)) for row in img.pixels
    )
    return (header + rows + "\n").encode("ascii")


def load_image(path: str | Path) -> RgbImage | GrayImage:
    """Read and decode an image file; filesystem errors raise IoError."""
    return decode_image(read_file(path, "image"))


def save_pgm(path: str | Path, img: GrayImage, raw: bool = True) -> None:
    write_file(path, encode_pgm(img, raw=raw), "image")
