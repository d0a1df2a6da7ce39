"""Patch pooling, and the image path from a photo to its pooled pixels and threshold.

A colour pixel (r, g, b) has the gray level
floor(0.21 r + 0.72 g + 0.07 b + 0.5) (see `imgcore._gray_rows`); a
gray photo's pixels are their own gray levels.  With t the Otsu
threshold of the histogram of every gray level, a pixel is white (255)
when its gray level is >= t and black (0) otherwise, and the pooled
binary image holds the maximum of each p x p patch of those pixels.
Trailing rows/columns that do not fill a whole patch are dropped (floor
edges): a patch holding any white pixel becomes white, an all-black
patch black.  p = 1 keeps every pixel, which is pooling off.

Thresholding is monotone, so it commutes with the patch maximum: a
patch is white exactly when its brightest gray level is >= t, for every
photo, threshold and factor (the threshold decomposition of stack
filters).  The image path therefore pools the gray image and
thresholds only the pooled pixels.  Otsu's threshold still comes from
the histogram of every full-resolution pixel, the ragged edges the
pool drops included.

The path has two phases.  The pixel phase, `pool`, runs once per
photo: it reads the photo, converts it to gray, counts its histogram
and max-pools it, and raises every error a photo can raise.  The tail
runs once per batch of photos: `threshold.otsu_threshold` scans their
stacked histograms in one set of array operations, and
`features.extract_features` compares each pooled image with its own
threshold (`pipeline.extract_dataset` makes the batches).
`binarize_pooled` is the same path for a batch of one photo, and ends
in the photo's pooled BinaryImage.

Pixels enter `pool` as a decoded image or as the path of an image
file.  The blocks of a raw (P5/P6) regular file read their own rows
from disk, so reading overlaps the gray, histogram and pool work of
other blocks and the raster is never held whole; any other file is
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
from .features import GridConfig, grid_shape
from .imgcore import BinaryImage, GrayImage, RgbImage, _gray_rows, _row_source
from .threshold import OtsuResult, _check_levels, _count_levels, binarize, otsu_threshold

DEFAULT_POOL_FACTOR = 3

# Pixels per row block of `pool`.  Smaller blocks make worker
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


def _max_pool_rows(src: np.ndarray, p: int, out: np.ndarray) -> None:
    """Write the maximum of each p x p patch of `src` into `out`, for p >= 2.

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


def pool(
    photo: RgbImage | GrayImage | str | Path,
    cfg: PoolConfig = PoolConfig(),
    grid: GridConfig = GridConfig(1),
) -> tuple[np.ndarray, np.ndarray]:
    """The pixel phase of the image path: a photo's histogram and pooled gray image.

    Returns the 256 int64 counts of every full-resolution gray level of
    the photo, or of the decoded image of the file at a path, and its
    (height // p, width // p) uint8 pooled gray image, p = cfg.p.
    Raises, in this order: what decoding raises, EmptyImage for an image
    without pixels, DegenerateHistogram for one of a single gray level,
    ImageTooSmall when no full p x p patch fits, and ImageTooSmall when
    the pooled image holds no full tile of `grid`.  The tail (Otsu and
    the features, or binarize) cannot fail on what this returns.

    The image is walked in blocks of whole patch rows; each block is
    converted to gray (colour only), counted into the histogram and
    max-pooled into its own rows of the pooled array, so the full-size
    gray image of a colour photo is never made.  The blocks of a raw
    (P5/P6) regular file are read from disk by the block that needs
    them; any other file is decoded whole first.  Blocks of an image
    with more than one go to at most one worker thread per core,
    started for this call and joined before it returns; the output does
    not depend on them.
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
    _check_levels(counts)
    if pooled.size == 0:
        raise ImageTooSmall(f"{height}x{width} image has no full {p}x{p} patch")
    grid_shape(*pooled.shape, grid)
    return counts, pooled


def binarize_pooled(
    photo: RgbImage | GrayImage | str | Path, cfg: PoolConfig = PoolConfig()
) -> tuple[BinaryImage, OtsuResult]:
    """Gray, Otsu-threshold and pool a photo, or the image file at a path.

    The pooled binary image of the module docstring, with cfg.p as p,
    and the one-row OtsuResult of its threshold: the image path for a
    batch of one photo.  Raises what `pool` raises.
    """
    counts, pooled = pool(photo, cfg)
    result = otsu_threshold(counts[None])
    return binarize(GrayImage._trusted(pooled), int(result.threshold[0])), result


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
