"""Per-image features and min-max normalization.

Two numbers summarize a binarized canopy shadow image:

* black_pixel_rate, the fraction of shadow pixels, a proxy for how much
  sunlight the canopy blocks;
* uniformity, the population standard deviation of white-pixel counts
  over disjoint square grids, low when light comes through evenly.

A set of photos or trees is an (n, 2) float64 array, one row each, with
fixed column order: 0 = black_pixel_rate, 1 = uniformity.  Columns are
min-max scaled onto the training range before classification.

The features are computed for a batch of photos at once, from a
(k, h, w) stack of their pooled gray images and their k Otsu
thresholds (the tail of the image path; see `pooling`): each count
compares pooled pixels with their photo's threshold directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConstantFeature,
    EmptyImage,
    EmptyList,
    ImageTooSmall,
    InsufficientData,
    InvalidConfig,
)

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


def grid_shape(height: int, width: int, cfg: GridConfig) -> tuple[int, int]:
    """(rows, cols) of the full grid tiles of a height x width image.

    Partial tiles at the right/bottom edges are dropped, mirroring the
    pooling module's floor semantics.  Raises ImageTooSmall when no full
    tile fits.
    """
    edge = cfg.grid_edge
    rows, cols = height // edge, width // edge
    if rows == 0 or cols == 0:
        raise ImageTooSmall(f"{height}x{width} image holds no full {edge}x{edge} grid")
    return rows, cols


def black_pixel_rate(light: np.ndarray) -> np.ndarray:
    """Per image of a (k, h, w) stack of light masks, the fraction of its pixels that are black."""
    k, h, w = light.shape
    n = h * w
    if n == 0:
        raise EmptyImage("cannot compute a pixel rate on an empty image")
    return (n - np.count_nonzero(light.reshape(k, n), axis=1)) / n


def grid_white_counts(light: np.ndarray, cfg: GridConfig) -> np.ndarray:
    """Per image of a (k, h, w) stack of light masks, its white count per grid tile.

    A (k, rows * cols) int64 array, tiles in row-major order; see
    grid_shape for the tiles.
    """
    k, h, w = light.shape
    rows, cols = grid_shape(h, w, cfg)
    edge = cfg.grid_edge
    tiles = light[:, : rows * edge, : cols * edge].view(np.uint8)
    # Sum each tile's rows, then its columns.  edge bools fit in uint16,
    # whose sums run faster than int64 ones, while edge < 2**16.
    strips = np.add.reduce(tiles.reshape(k, rows, edge, cols * edge), axis=2,
                           dtype=np.uint16 if edge < 1 << 16 else np.int64)
    counts = np.add.reduce(strips.reshape(k, rows, cols, edge), axis=3, dtype=np.int64)
    return counts.reshape(k, rows * cols)


def uniformity(counts) -> np.ndarray:
    """Population standard deviation of the per-grid white counts, over the last axis.

    One value for a list of counts, one per row for a (k, n) array; each
    row's value is bit for bit that of the row alone.
    """
    values = np.asarray(counts, dtype=np.float64)
    if values.shape[-1] == 0:
        raise EmptyList("uniformity needs at least one grid count")
    return np.std(values, axis=-1)


def extract_features(pooled: np.ndarray, thresholds, cfg: GridConfig) -> np.ndarray:
    """The (k, 2) feature rows (black_pixel_rate, uniformity) of k pooled gray images.

    pooled is a (k, h, w) uint8 stack and thresholds holds one Otsu
    threshold in [0, 255] per image.  A pixel is white (light) when its
    gray level is >= its image's threshold, and black otherwise; the
    counts come straight from that comparison, so no binary image is
    made.  Row i is bit for bit the row of image i alone.
    """
    t = np.asarray(thresholds)
    if t.shape != pooled.shape[:1] or (t.size and (t.min() < 0 or t.max() > 255)):
        raise ValueError(f"need one threshold in [0, 255] per image, got {t.tolist()}")
    light = pooled >= t.astype(np.uint8)[:, None, None]
    return np.column_stack((black_pixel_rate(light), uniformity(grid_white_counts(light, cfg))))


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
