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
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import EmptyImage, ImageTooSmall
from .imgcore import BinaryImage, GrayImage, RgbImage, _gray_rows
from .threshold import Histogram, OtsuResult, _count_levels, binarize, otsu_threshold

if TYPE_CHECKING:
    from concurrent.futures import ThreadPoolExecutor

DEFAULT_POOL_FACTOR = 3

# Pixels per row block of `binarize_pooled`.  Smaller blocks make worker
# threads queue on the GIL between numpy calls; larger ones fall out of
# the per-core cache.
_BLOCK_PIXELS = 1 << 18

# Worker threads for images of more than one block, made on first use
# and replaced only by a larger pool.  concurrent.futures is imported
# only then: it costs about 4 ms and 0.6 MB, which runs on small photos
# alone would not get back.
_EXECUTOR: ThreadPoolExecutor | None = None
_EXECUTOR_WORKERS = 0
_EXECUTOR_LOCK = threading.Lock()


@dataclass(frozen=True)
class PoolConfig:
    """Patch edge length p, and a bypass flag for the optional stage."""

    p: int = DEFAULT_POOL_FACTOR
    enabled: bool = True

    def __post_init__(self):
        if self.p < 1:
            raise ValueError(f"pool factor must be >= 1, got {self.p}")


def pool(img: GrayImage, cfg: PoolConfig = PoolConfig()) -> GrayImage:
    """Downscale by cfg.p, keeping each patch's maximum.

    A binary image stays binary: a patch is white iff any pixel is.
    A disabled config (or p=1) passes the image through unchanged.
    Raises ImageTooSmall when the image cannot supply one full patch.
    """
    if not cfg.enabled:
        return img
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
    img: RgbImage | GrayImage, cfg: PoolConfig = PoolConfig()
) -> tuple[BinaryImage, OtsuResult]:
    """Gray, Otsu-threshold and pool a decoded photo in one pass.

    Equal to pool(binarize(g, t), cfg) with g = to_gray(img) and t the
    Otsu threshold of histogram(g), and raises what that chain raises,
    in the same order.  The image is walked in blocks of whole patch
    rows; each block is converted to gray (colour only), counted into
    the histogram and max-pooled into its own rows of the pooled array.
    Neither the full-size gray image of a colour photo nor a full-size
    binary image is made.  With pooling off, or p=1, the pooled array
    is the gray image itself.  Blocks of an image with more than one go
    to one worker thread per core; the output does not depend on it.
    """
    if img.pixel_count == 0:
        raise EmptyImage("cannot histogram an empty image")
    p = cfg.p if cfg.enabled else 1
    src = img.pixels
    height, width = img.height, img.width
    colour = isinstance(img, RgbImage)
    if p == 1 and not colour:
        pooled = src
    else:
        pooled = np.empty((height // p, width // p), dtype=np.uint8)
    step = max(1, _BLOCK_PIXELS // (width * p)) * p

    def block(top: int) -> np.ndarray:
        rows = gray = src[top : top + step]
        if colour:
            gray = pooled[top : top + step] if p == 1 else np.empty(rows.shape[:2], np.uint8)
            _gray_rows(rows, gray)
        if p > 1:
            _max_pool_rows(gray, p, pooled[top // p : (top + len(gray)) // p])
        return _count_levels(gray)

    counts = sum(_map_blocks(block, range(0, height, step)))
    result = otsu_threshold(Histogram(counts, img.pixel_count))
    if pooled.size == 0:
        raise ImageTooSmall(f"{height}x{width} image has no full {p}x{p} patch")
    return binarize(GrayImage._trusted(pooled), result.threshold), result


def _worker_count(cpu_count: int | None, n_blocks: int) -> int:
    """Threads for an image of n_blocks blocks: at most one per core and per block."""
    return max(1, min(cpu_count or 1, n_blocks))


def _forget_executor() -> None:
    """In a forked child, drop the executor, whose threads stay behind,
    and the lock, which another thread may have held at the fork."""
    global _EXECUTOR, _EXECUTOR_WORKERS, _EXECUTOR_LOCK
    _EXECUTOR, _EXECUTOR_WORKERS, _EXECUTOR_LOCK = None, 0, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_executor)


def _map_blocks(work, tops: range) -> list:
    """work(top) for every block; inline unless two threads can share them.

    Workers call only private helpers: the public layer functions may
    be wrapped by a tracer that is not thread-safe.
    """
    global _EXECUTOR, _EXECUTOR_WORKERS
    # os.cpu_count() takes microseconds, a share of a small photo's time.
    workers = _worker_count(os.cpu_count(), len(tops)) if len(tops) > 1 else 1
    if workers == 1:
        return [work(top) for top in tops]
    with _EXECUTOR_LOCK:
        if workers > _EXECUTOR_WORKERS:
            from concurrent.futures import ThreadPoolExecutor

            # The threads of a replaced pool exit once it is collected,
            # after any call still mapping on it.
            _EXECUTOR = ThreadPoolExecutor(workers, thread_name_prefix="shadowprune-block")
            _EXECUTOR_WORKERS = workers
        executor = _EXECUTOR
    return list(executor.map(work, tops))
