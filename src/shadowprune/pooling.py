"""Patch pooling that shrinks a binary image by an integer factor.

Each p x p patch collapses to one output pixel, its maximum: a patch
holding any white (255) pixel becomes white, an all-black patch black
(0).  Trailing rows/columns that do not fill a whole patch are dropped
(floor edges).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ImageTooSmall
from .imgcore import BinaryImage

DEFAULT_POOL_FACTOR = 3


@dataclass(frozen=True)
class PoolConfig:
    """Patch edge length p, and a bypass flag for the optional stage."""

    p: int = DEFAULT_POOL_FACTOR
    enabled: bool = True

    def __post_init__(self):
        if self.p < 1:
            raise ValueError(f"pool factor must be >= 1, got {self.p}")


def pool(img: BinaryImage, cfg: PoolConfig = PoolConfig()) -> BinaryImage:
    """Downscale by cfg.p, keeping a patch white iff any pixel is white.

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
    trimmed = img.pixels[: out_h * factor, : out_w * factor]
    # Max over the k-th row of every patch, then over the k-th column.
    rows = trimmed[0::factor]
    for k in range(1, factor):
        rows = np.maximum(rows, trimmed[k::factor])
    out = rows[:, 0::factor]
    for k in range(1, factor):
        out = np.maximum(out, rows[:, k::factor])
    return BinaryImage._trusted(out)
