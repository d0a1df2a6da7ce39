"""Image containers, netpbm decoding, row sources, and RGB-to-grayscale conversion.

Images are thin wrappers around read-only numpy arrays: RGB as
(height, width, 3) uint8, grayscale as (height, width) uint8, and binary
as grayscale restricted to {0, 255} where 0 marks shadow and 255 light.
File I/O covers PPM (P3/P6) and PGM (P2/P5) with maxval 255 only; a PGM
decodes straight to a GrayImage and a PPM to an RgbImage.

Pixels are checked and frozen once, where they enter: in the public
constructors, in `decode_image`, and for a raw (P5/P6) regular file read
by rows, in `_row_source`.  That one checks the file with decode_image's
own header parser and raster-size and trailing-data checks, before any
row is read; every byte value of a raw raster is a valid pixel.  Arrays
this package computes from already-checked images are wrapped as they
are, without a copy or a scan.

Nothing here is kept between calls: each conversion and each read of
rows allocates its own buffers, so any thread may call any function.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from .errors import MalformedFile, UnsupportedFormat
from .fileio import FileReader, read_file, write_file

# Channel weights of the grayscale conversion, in (r, g, b) order.
GRAY_WEIGHTS = (0.21, 0.72, 0.07)

_WHITESPACE = frozenset(b" \t\r\n\v\f")

# A '#' comment, which runs to the end of its line.
_COMMENT = re.compile(rb"#[^\r\n]*")

# Whitespace and comments before a header token, then the token (group 1).
_HEADER_TOKEN = re.compile(rb"(?:[ \t\r\n\v\f]|#[^\r\n]*)*([^ \t\r\n\v\f#]*)")

# Bytes of a bad header value quoted in an error message.
_SHOWN = 32

# Bytes first read of a raw file for its header, doubled while the
# header goes on; and bytes per read of what follows its raster.
_HEADER_READ = 4096
_TAIL_READ = 1 << 20

# Pixels per block of the colour grayscale, small enough for the float
# temporaries to stay in cache.
_GRAY_CHUNK = 1 << 16


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
    made for this call, with the same operations in the same order on
    every pixel.  Gray (h, w) pixels are copied.
    """
    if rgb.ndim == 2:
        out[...] = rgb
        return
    wr, wg, wb = GRAY_WEIGHTS
    height, width = out.shape
    step = max(1, _GRAY_CHUNK // max(1, width))
    size = min(step, height) * width
    buffers = np.empty(size), np.empty(size)
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


class _ShortHeader(Exception):
    """The bytes read so far end inside the header of a longer file."""


def _next_token(buf: bytes, pos: int, complete: bool) -> tuple[bytes, int]:
    """Next header token, skipping whitespace and '#' comments.

    `complete` says buf holds the whole file; if not, a scan that
    reaches its end raises _ShortHeader, as the token may go on.
    """
    n = len(buf)
    start, pos = _HEADER_TOKEN.match(buf, pos).span(1)
    if pos >= n and not complete:
        raise _ShortHeader
    if start >= n:
        raise MalformedFile("unexpected end of file in netpbm header")
    return bytes(buf[start:pos]), pos


def _shown(value: bytes | str) -> str:
    """A header value for a message: at most its first 32 bytes, then '...'."""
    text = repr(value[:_SHOWN]) if isinstance(value, bytes) else value[:_SHOWN]
    return text + "..." if len(value) > _SHOWN else text


def _parse_header_int(buf: bytes, pos: int, what: str, complete: bool) -> tuple[int, int]:
    token, pos = _next_token(buf, pos, complete)
    try:
        value = int(token)
    except ValueError:
        raise MalformedFile(f"bad {what} token {_shown(token)}") from None
    return value, pos


def _parse_header(buf: bytes, complete: bool) -> tuple[bool, int, int, int, int]:
    """(raw, height, width, channels, end) of the netpbm header starting buf.

    `end` is the offset just past the maxval token.  Unless `complete`,
    buf is a prefix of the file and _ShortHeader asks for more of it.
    """
    if len(buf) < 2:
        raise MalformedFile("file too short for a netpbm header")
    magic = bytes(buf[:2])
    if magic not in (b"P2", b"P3", b"P5", b"P6"):
        raise UnsupportedFormat(f"unsupported magic {magic!r} (want P2/P3/P5/P6)")
    width, pos = _parse_header_int(buf, 2, "width", complete)
    height, pos = _parse_header_int(buf, pos, "height", complete)
    maxval, pos = _parse_header_int(buf, pos, "maxval", complete)
    if width < 1 or height < 1:
        raise MalformedFile(f"non-positive dimensions {width}x{height}")
    if maxval != 255:
        raise UnsupportedFormat(f"maxval {_shown(str(maxval))} not supported (only 255)")
    return magic in (b"P5", b"P6"), height, width, 3 if magic in (b"P3", b"P6") else 1, pos


def _read_plain_samples(buf: bytes, pos: int, count: int) -> np.ndarray:
    # Every sample takes at least two bytes, a separator and a digit, so
    # a header asking for more than the body can hold is rejected before
    # anything is allocated from it.
    if count > (len(buf) - pos) // 2:
        raise MalformedFile(
            f"plain raster truncated: {_shown(str(count))} samples cannot fit in "
            f"{len(buf) - pos} bytes"
        )
    # A comment ends a token, as whitespace does; split() breaks on the
    # same six whitespace bytes as the header.
    tokens = _COMMENT.sub(b" ", bytes(buf[pos:])).split()
    head = tokens[:count]
    try:
        values = np.array(head, dtype=np.int64)  # int() of each token
    except (ValueError, OverflowError):
        for token in head:
            try:
                int(token)
            except ValueError:
                raise MalformedFile(f"bad sample token {token!r}") from None
        values = None  # every token is an integer, and one overflows int64
    if len(tokens) < count:
        raise MalformedFile("unexpected end of file in netpbm header")
    if len(tokens) > count:
        raise MalformedFile("trailing data after plain raster")
    if values is None or (values.size and (values.min() < 0 or values.max() > 255)):
        raise MalformedFile("sample value outside [0, 255]")
    return values.astype(np.uint8)


def _raw_raster_start(buf: bytes, end: int, size: int, count: int) -> int:
    """Offset of the raw raster of a `size`-byte file whose header ends at `end`."""
    if end >= len(buf) or buf[end] not in _WHITESPACE:
        raise MalformedFile("missing whitespace before raw raster")
    found = size - end - 1  # exactly one separator byte
    if found < count:
        raise MalformedFile(
            f"raw raster truncated: expected {_shown(str(count))} bytes, found {found}"
        )
    return end + 1


def _check_raw_tail(tail: bytes) -> None:
    """Only whitespace may follow a raw raster."""
    if tail.strip(b" \t\r\n\v\f"):
        raise MalformedFile("trailing data after raw raster")


def decode_image(data: bytes) -> RgbImage | GrayImage:
    """Decode PPM (P3/P6) bytes into an RgbImage, PGM (P2/P5) into a GrayImage.

    Only maxval 255 is accepted.  The pixels of a raw file read from
    immutable `bytes` are a read-only view of `data`, not a copy.
    """
    raw, height, width, channels, end = _parse_header(data, complete=True)
    count = width * height * channels
    if raw:
        start = _raw_raster_start(data, end, len(data), count)
        _check_raw_tail(bytes(data[start + count :]))
        # A view of immutable bytes is read-only and safe to keep; any other
        # buffer (a bytearray, or a read-only memoryview of one) is copied so
        # the caller cannot change the pixels.
        samples = np.frombuffer(data, dtype=np.uint8, count=count, offset=start)
        if not isinstance(data, bytes):
            samples = samples.copy()
    else:
        samples = _read_plain_samples(data, end, count)
    if channels == 3:
        return RgbImage._trusted(samples.reshape(height, width, 3))
    return GrayImage._trusted(samples.reshape(height, width))


# --- row sources ------------------------------------------------------------


@dataclass(frozen=True)
class RowSource:
    """The size and kind of an image, and `rows(top, n)`: its rows top..top+n-1.

    Rows come as a (n, width) or (n, width, 3) uint8 array that may be a
    read-only view of the image.
    """

    height: int
    width: int
    colour: bool
    rows: Callable[[int, int], np.ndarray]


def _image_rows(img: RgbImage | GrayImage) -> RowSource:
    return RowSource(img.height, img.width, isinstance(img, RgbImage),
                     lambda top, n: img.pixels[top : top + n])


@contextmanager
def _row_source(photo: RgbImage | GrayImage | str | Path) -> Iterator[RowSource]:
    """The rows of a decoded image, or of the image file at a path.

    A raw (P5/P6) regular file is checked as `decode_image` checks it,
    with the same errors, from its header and its size alone; its rows
    are then read from disk as they are asked for, so the whole raster
    is never held.  Any other file is read whole and decoded.  The file
    stays open until the `with` block ends.
    """
    if isinstance(photo, (RgbImage, GrayImage)):
        yield _image_rows(photo)
        return
    with FileReader(photo, "image") as reader:
        want = _HEADER_READ
        head = reader.read(0, want) if reader.size is not None else b""
        if head[:2] not in (b"P5", b"P6"):
            yield _image_rows(decode_image(reader.read_all()))
            return
        while True:
            try:
                # A read that comes up short has reached the end of the file.
                _, height, width, channels, end = _parse_header(head, len(head) < want)
                break
            except _ShortHeader:
                head += reader.read(len(head), want)
                want *= 2
        count = height * width * channels
        start = _raw_raster_start(head, end, reader.size, count)
        for offset in range(start + count, reader.size, _TAIL_READ):
            _check_raw_tail(reader.read(offset, _TAIL_READ))
        row_bytes = width * channels
        shape = (width, 3) if channels == 3 else (width,)

        def rows(top: int, n: int) -> np.ndarray:
            size = n * row_bytes
            buf = np.empty(size, dtype=np.uint8)
            got = reader.read_into(buf, start + top * row_bytes)
            if got < size:  # the file shrank after its size was taken
                raise MalformedFile(f"raw raster truncated: expected {_shown(str(count))} "
                                    f"bytes, found {top * row_bytes + got}")
            return buf.reshape(n, *shape)

        yield RowSource(height, width, channels == 3, rows)


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
