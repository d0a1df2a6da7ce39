"""Per-image features and min-max normalization.

Two numbers summarize a binarized canopy shadow image:

* black_pixel_rate, the fraction of shadow pixels, a proxy for how much
  sunlight the canopy blocks;
* uniformity, the population standard deviation of white-pixel counts
  over disjoint square grids, low when light comes through evenly.

A set of photos or trees is an (n, 2) float64 array, one row each, with
fixed column order: 0 = black_pixel_rate, 1 = uniformity.  Columns are
min-max scaled onto the training range before classification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    ConstantFeature,
    EmptyImage,
    EmptyList,
    ImageTooSmall,
    InsufficientData,
    InvalidConfig,
)
from .imgcore import BinaryImage

DEFAULT_GRID_EDGE = 100

FEATURE_NAMES = ("black_pixel_rate", "uniformity")
N_FEATURES = 2


@dataclass(frozen=True)
class GridConfig:
    """Side length of the square counting grid, in pixels."""

    grid_edge: int = DEFAULT_GRID_EDGE

    def __post_init__(self):
        if self.grid_edge < 1:
            raise InvalidConfig(f"grid_edge must be >= 1, got {self.grid_edge}")


@dataclass(frozen=True)
class Normalizer:
    """Per-feature training range; maps x to (x - min) / (max - min).

    A zero-span column is tolerated at fit time (see constant_features)
    but rejected on application, where it would divide by zero.
    """

    mins: tuple[float, float]
    maxs: tuple[float, float]

    def __post_init__(self):
        if len(self.mins) != N_FEATURES or len(self.maxs) != N_FEATURES:
            raise ValueError("normalizer needs one min and one max per feature")
        for i, (lo, hi) in enumerate(zip(self.mins, self.maxs)):
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError("normalizer bounds must be finite")
            if hi < lo:
                raise ValueError(f"feature {FEATURE_NAMES[i]}: max {hi} < min {lo}")

    @property
    def constant_features(self) -> tuple[int, ...]:
        """Indices of features whose training column had zero span."""
        return tuple(i for i in range(N_FEATURES) if self.maxs[i] == self.mins[i])

    def transform(self, x: np.ndarray) -> np.ndarray:
        """Scale raw feature rows onto the training range, without clamping.

        The one normalization path: training, prediction and plotting all
        scale through here.  Raises ConstantFeature when a column has zero span.
        """
        constant = self.constant_features
        if constant:
            names = ", ".join(FEATURE_NAMES[i] for i in constant)
            raise ConstantFeature(f"zero training span for feature(s): {names}")
        lo = np.asarray(self.mins, dtype=np.float64)
        hi = np.asarray(self.maxs, dtype=np.float64)
        return (x - lo) / (hi - lo)


def black_pixel_rate(img: BinaryImage) -> float:
    """Fraction of pixels that are black (0)."""
    if img.pixel_count == 0:
        raise EmptyImage("cannot compute a pixel rate on an empty image")
    return (img.pixel_count - int(np.count_nonzero(img.pixels))) / img.pixel_count


def grid_white_counts(img: BinaryImage, cfg: GridConfig) -> list[int]:
    """White-pixel count per disjoint grid tile, row-major.

    Partial tiles at the right/bottom edges are dropped, mirroring the
    pooling module's floor semantics.
    """
    edge = cfg.grid_edge
    rows = img.height // edge
    cols = img.width // edge
    if rows == 0 or cols == 0:
        raise ImageTooSmall(
            f"{img.height}x{img.width} image holds no full {edge}x{edge} grid"
        )
    trimmed = img.pixels[: rows * edge, : cols * edge]
    tiles = trimmed.reshape(rows, edge, cols, edge)
    counts = np.count_nonzero(tiles, axis=(1, 3))
    return [int(c) for c in counts.reshape(-1)]


def uniformity(counts: Sequence[int]) -> float:
    """Population standard deviation of the per-grid white counts."""
    if len(counts) == 0:
        raise EmptyList("uniformity needs at least one grid count")
    return float(np.std(np.asarray(counts, dtype=np.float64)))


def extract_features(img: BinaryImage, cfg: GridConfig) -> np.ndarray:
    """The feature row (black_pixel_rate, uniformity) of one binarized image."""
    return np.array([black_pixel_rate(img), uniformity(grid_white_counts(img, cfg))])


def fit_normalizer(x: np.ndarray) -> Normalizer:
    """Learn per-feature min/max from the (n, 2) training feature rows.

    Needs at least two rows.  A constant column does not fail here; it
    is exposed via Normalizer.constant_features and only becomes an
    error if the normalizer is applied.
    """
    matrix = np.asarray(x, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[1] != N_FEATURES:
        raise ValueError(f"feature rows must be (n, {N_FEATURES}), got {matrix.shape}")
    if matrix.shape[0] < 2:
        raise InsufficientData(
            f"normalizer needs >= 2 rows, got {matrix.shape[0]}"
        )
    mins = matrix.min(axis=0)
    maxs = matrix.max(axis=0)
    return Normalizer(
        mins=(float(mins[0]), float(mins[1])),
        maxs=(float(maxs[0]), float(maxs[1])),
    )
