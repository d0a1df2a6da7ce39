"""Patch pooling, and the one image path from a photo to a pooled binary.

Each p x p patch collapses to one output pixel, its maximum.  Trailing
rows/columns that do not fill a whole patch are dropped (floor edges).
On a binary image a patch holding any white (255) pixel becomes white,
an all-black patch black (0).

Thresholding is monotone, so it commutes with the patch maximum:
pool(binarize(g, t)) == binarize(pool(g), t) for every gray image g,
threshold t and factor p (the threshold decomposition of stack
filters).  `binarize_pooled` therefore pools the gray image and
thresholds only the pooled pixels; a photo's BinaryImage exists only at
the pooled size.  Otsu's threshold still comes from the histogram of
every full-resolution pixel, the ragged edges the pool drops included.

Pixels enter `binarize_pooled` as a decoded image or as the path of an
image file.  The blocks of a raw (P5/P6) regular file read their own
rows from disk, so reading overlaps the gray, histogram and pool work
of other blocks and the raster is never held whole; any other file is
decoded whole first (see `imgcore._row_source`).  The blocks of a
photo with more than one share a pool of threads that lives for that
photo alone; no thread, buffer or lock persists between calls.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import EmptyImage, ImageTooSmall, InvalidConfig
from .imgcore import BinaryImage, GrayImage, RgbImage, _gray_rows, _row_source
from .threshold import Histogram, OtsuResult, _count_levels, binarize, otsu_threshold

DEFAULT_POOL_FACTOR = 3

# Pixels per row block of `binarize_pooled`.  Smaller blocks make worker
# threads queue on the GIL between numpy calls; larger ones fall out of
# the per-core cache.
_BLOCK_PIXELS = 1 << 18


@dataclass(frozen=True)
class PoolConfig:
    """Patch edge length p; p = 1 keeps every pixel, which is pooling off."""

    p: int = DEFAULT_POOL_FACTOR

    def __post_init__(self):
        if self.p < 1:
            raise InvalidConfig(f"pool factor must be >= 1, got {self.p}")


def pool(img: GrayImage, cfg: PoolConfig = PoolConfig()) -> GrayImage:
    """Downscale by cfg.p, keeping each patch's maximum.

    A binary image stays binary: a patch is white iff any pixel is.
    p = 1 passes the image through unchanged.  Raises ImageTooSmall
    when the image cannot supply one full patch.
    """
    factor = cfg.p
    out_h = img.height // factor
    out_w = img.width // factor
    if out_h == 0 or out_w == 0:
        raise ImageTooSmall(
            f"{img.height}x{img.width} image has no full {factor}x{factor} patch"
        )
    if factor == 1:
        return img
    out = np.empty((out_h, out_w), dtype=np.uint8)
    _max_pool_rows(img.pixels, factor, out)
    return type(img)._trusted(out)


def _max_pool_rows(src: np.ndarray, p: int, out: np.ndarray) -> None:
    """Write the maximum of each p x p patch of `src` into `out`.

    `out` fixes how many patches are taken; rows and columns of `src`
    past them are ignored.
    """
    out_h, out_w = out.shape
    trimmed = src[: out_h * p, : out_w * p]
    # Max over the k-th row of every patch, then over the k-th column.
    rows = np.maximum(trimmed[0::p], trimmed[1::p])
    for k in range(2, p):
        np.maximum(rows, trimmed[k::p], out=rows)
    np.maximum(rows[:, 0::p], rows[:, 1::p], out=out)
    for k in range(2, p):
        np.maximum(out, rows[:, k::p], out=out)


def binarize_pooled(
    photo: RgbImage | GrayImage | str | Path, cfg: PoolConfig = PoolConfig()
) -> tuple[BinaryImage, OtsuResult]:
    """Gray, Otsu-threshold and pool a photo, or the image file at a path, in one pass.

    Equal to pool(binarize(g, t), cfg) with g = to_gray(img) and t the
    Otsu threshold of histogram(g), for img the photo or
    load_image(path), and raises what that chain raises, in the same
    order.  The image is walked in blocks of whole patch rows; each
    block is converted to gray (colour only), counted into the
    histogram and max-pooled into its own rows of the pooled array.
    Neither the full-size gray image of a colour photo nor a full-size
    binary image is made.  The blocks of a raw (P5/P6) regular file are
    read from disk by the block that needs them; any other file is
    decoded whole first.  Blocks of an image with more than one go to
    at most one worker thread per core, started for this call and
    joined before it returns; the output does not depend on them.
    """
    with _row_source(photo) as source:
        height, width, colour = source.height, source.width, source.colour
        if height * width == 0:
            raise EmptyImage("cannot histogram an empty image")
        p = cfg.p
        pooled = np.empty((height // p, width // p), dtype=np.uint8)
        step = max(1, _BLOCK_PIXELS // (width * p)) * p

        def block(top: int) -> np.ndarray:
            rows = gray = source.rows(top, min(step, height - top))
            if colour or p == 1:
                gray = pooled[top : top + step] if p == 1 else np.empty(rows.shape[:2], np.uint8)
                _gray_rows(rows, gray)
            if p > 1:
                _max_pool_rows(gray, p, pooled[top // p : (top + len(gray)) // p])
            return _count_levels(gray)

        # Every block has returned, its file reads done, before the file closes.
        counts = sum(_map_blocks(block, range(0, height, step)))
    result = otsu_threshold(Histogram(counts, height * width))
    if pooled.size == 0:
        raise ImageTooSmall(f"{height}x{width} image has no full {p}x{p} patch")
    return binarize(GrayImage._trusted(pooled), result.threshold), result


def _worker_count(cpu_count: int | None, n_blocks: int) -> int:
    """Threads for an image of n_blocks blocks: at most one per core and per block."""
    return max(1, min(cpu_count or 1, n_blocks))


def _map_blocks(work, tops: range) -> list:
    """work(top) for every block; inline unless two threads can share them.

    The threads live for this one call: leaving the pool's `with` block
    joins them once every block has returned, and only then is the
    first error raised, in block order.  Workers call only private
    helpers: the public layer functions may be wrapped by a tracer that
    is not thread-safe.
    """
    # os.cpu_count() takes microseconds, a share of a small photo's time.
    workers = _worker_count(os.cpu_count(), len(tops)) if len(tops) > 1 else 1
    if workers == 1:
        return [work(top) for top in tops]
    # Imported only here: it costs about 4 ms and 0.6 MB, which runs on
    # small photos alone would not get back.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(workers, thread_name_prefix="shadowprune-block") as executor:
        futures = [executor.submit(work, top) for top in tops]
    return [future.result() for future in futures]
