"""Seeded synthetic canopy-shadow images with known ground truth.

Stands in for field photographs: dark elliptical blobs (shadow) on a
bright background, plus uniform intensity noise.  The two intensity
modes are kept disjoint (40 +- 20 vs 215 +- 20 by default) so Otsu
thresholding recovers the blob mask exactly, which lets the generator
declare a tight post-binarization coverage interval.

Regimes mimic the two pruning outcomes: well-pruned canopies scatter
many small shadow blobs with low total coverage, poorly pruned ones a
few large clumps with high coverage.  That makes both features (shadow
fraction, grid-count spread) separate the classes by construction.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InvalidConfig, IoError
from .fileio import csv_text, write_file
from .imgcore import GrayImage, encode_pgm
from .pipeline import MANIFEST_FIELDS

REGIME_GOOD = "pruned_good"
REGIME_POOR = "pruned_poor"
REGIMES = (REGIME_GOOD, REGIME_POOR)

LABEL_GOOD = 1
LABEL_POOR = -1

MANIFEST_NAME = "manifest.csv"

# Blob-placement attempts before giving up on a coverage target.
_MAX_BLOBS = 10_000


@dataclass(frozen=True)
class SynthConfig:
    """One image's recipe; seed may be an int or a tuple of ints."""

    height: int = 200
    width: int = 200
    regime: str = REGIME_GOOD
    coverage: float = 0.18
    radius_range: tuple[float, float] = (4.0, 9.0)
    shadow_mean: int = 40
    background_mean: int = 215
    noise: int = 20
    seed: int | tuple[int, ...] = 0

    def __post_init__(self):
        if self.height < 1 or self.width < 1:
            raise InvalidConfig(f"bad dimensions {self.height}x{self.width}")
        if self.regime not in REGIMES:
            raise InvalidConfig(f"regime must be one of {REGIMES}, got {self.regime!r}")
        # coverage 0 is allowed: it means "no blobs" and yields a
        # constant image when noise is off.
        if not 0.0 <= self.coverage < 1.0:
            raise InvalidConfig(f"coverage {self.coverage} outside [0, 1)")
        lo, hi = self.radius_range
        if not (math.isfinite(lo) and math.isfinite(hi) and 0 < lo <= hi):
            raise InvalidConfig(f"bad radius range {self.radius_range}")
        if not (0 <= self.shadow_mean <= 255 and 0 <= self.background_mean <= 255):
            raise InvalidConfig("intensity means must be in [0, 255]")
        if self.shadow_mean >= self.background_mean:
            raise InvalidConfig("shadow mean must be darker than background mean")
        if self.noise < 0:
            raise InvalidConfig(f"noise spread {self.noise} is negative")
        if self.shadow_mean + self.noise >= self.background_mean - self.noise:
            raise InvalidConfig("noise spread merges the shadow and background modes")
        if np.any(np.asarray(self.seed) < 0):
            raise InvalidConfig(f"synth seed must be non-negative, got {self.seed}")

    @property
    def label(self) -> int:
        return LABEL_GOOD if self.regime == REGIME_GOOD else LABEL_POOR


def default_config(regime: str, seed: int | tuple[int, ...] = 0) -> SynthConfig:
    """Stock recipe per regime: sparse small blobs vs dense large ones."""
    if regime == REGIME_GOOD:
        return SynthConfig(regime=regime, coverage=0.18, radius_range=(4.0, 9.0),
                           seed=seed)
    if regime == REGIME_POOR:
        return SynthConfig(regime=regime, coverage=0.50, radius_range=(35.0, 60.0),
                           seed=seed)
    raise InvalidConfig(f"regime must be one of {REGIMES}, got {regime!r}")


@dataclass(frozen=True)
class GenResult:
    """Rendered image plus the coverage the binarized image must show."""

    image: GrayImage
    coverage_low: float
    coverage_high: float
    label: int


def _inside(
    ys: np.ndarray, xs: np.ndarray, cx: float, cy: float, rx: float, ry: float
) -> np.ndarray:
    """Which pixel centers (ys column, xs row) lie inside the ellipse."""
    return ((xs - cx) / rx) ** 2 + ((ys - cy) / ry) ** 2 <= 1.0


def _centers(n: int) -> np.ndarray:
    return np.arange(n, dtype=np.float64) + 0.5


def _window(c: float, r: float, n: int) -> slice:
    """Pixels whose center lies within r + 1 of c, clipped to [0, n).

    The extra pixel on each side keeps a center that rounds onto the
    rim inside the window that is tested.
    """
    return slice(max(0, math.ceil(c - r - 1.5)), min(n, math.floor(c + r + 0.5) + 1))


def render_image(
    mask: np.ndarray,
    shadow_mean: int,
    background_mean: int,
    noise: int,
    rng: np.random.Generator,
) -> GrayImage:
    """Paint the mask dark on a bright field, then add uniform noise."""
    base = np.where(mask, shadow_mean, background_mean).astype(np.int64)
    base += rng.integers(-noise, noise + 1, size=mask.shape)
    return GrayImage(np.clip(base, 0, 255).astype(np.uint8))


def generate(cfg: SynthConfig) -> GenResult:
    """Render one image; deterministic for a fixed config.

    Blobs accumulate until the mask reaches the coverage target.  Each
    blob is tested only on its bounding window, padded by one pixel and
    clipped to the frame, which holds every pixel it can cover.  The
    returned interval is the achieved mask fraction with one pixel of
    slack on each side; Otsu binarization must land the black rate
    inside it whenever at least one blob was drawn.
    """
    rng = np.random.default_rng(cfg.seed)
    total = cfg.height * cfg.width
    mask = np.zeros((cfg.height, cfg.width), dtype=bool)
    ys = _centers(cfg.height)[:, None]
    xs = _centers(cfg.width)[None, :]
    lo, hi = cfg.radius_range
    blobs = 0
    covered = 0
    while covered < cfg.coverage * total:
        if blobs >= _MAX_BLOBS:
            raise InvalidConfig(
                f"coverage {cfg.coverage} not reached after {_MAX_BLOBS} blobs"
            )
        cx = rng.uniform(0.0, cfg.width)
        cy = rng.uniform(0.0, cfg.height)
        rx = rng.uniform(lo, hi)
        ry = rng.uniform(lo, hi)
        rows, cols = _window(cy, ry, cfg.height), _window(cx, rx, cfg.width)
        window = mask[rows, cols]
        fresh = _inside(ys[rows], xs[:, cols], cx, cy, rx, ry) & ~window
        covered += int(np.count_nonzero(fresh))
        window |= fresh
        blobs += 1
    achieved = covered / total
    slack = 1.0 / total
    image = render_image(mask, cfg.shadow_mean, cfg.background_mean, cfg.noise, rng)
    return GenResult(
        image=image,
        coverage_low=max(0.0, achieved - slack),
        coverage_high=min(1.0, achieved + slack),
        label=cfg.label,
    )


def _image_seed(base_seed: int, tree_idx: int, point_idx: int) -> tuple[int, ...]:
    # Each image's entropy comes from its indices alone, so one image
    # does not depend on how many were drawn before it.
    return (base_seed, tree_idx, point_idx)


def generate_dataset(
    out_dir: str | Path,
    n_trees: int = 10,
    points_per_tree: int = 10,
    good_cfg: SynthConfig | None = None,
    poor_cfg: SynthConfig | None = None,
    seed: int = 0,
) -> Path:
    """Write PGM images plus a manifest CSV; returns the manifest path.

    The first half of the trees (rounded up) use the good-pruning
    regime, the rest the poor one.  Labels are written in 1/0 form.
    """
    if n_trees < 1 or points_per_tree < 1:
        raise InvalidConfig("need at least one tree and one point per tree")
    if seed < 0:  # before any file is written
        raise InvalidConfig(f"synth seed must be non-negative, got {seed}")
    good = good_cfg if good_cfg is not None else default_config(REGIME_GOOD)
    poor = poor_cfg if poor_cfg is not None else default_config(REGIME_POOR)
    out = Path(out_dir)
    images = out / "images"
    try:
        images.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create output directory {images}: {exc}") from exc

    n_good = (n_trees + 1) // 2
    rows = []
    for tree_idx in range(n_trees):
        base = good if tree_idx < n_good else poor
        tree_id = f"t{tree_idx:03d}"
        csv_label = "1" if base.label == LABEL_GOOD else "0"
        for point_idx in range(points_per_tree):
            cfg = dataclasses.replace(
                base, seed=_image_seed(seed, tree_idx, point_idx)
            )
            result = generate(cfg)
            rel = f"images/{tree_id}_p{point_idx:02d}.pgm"
            write_file(out / rel, encode_pgm(result.image), "image")
            rows.append((tree_id, f"p{point_idx:02d}", rel, csv_label))

    manifest = out / MANIFEST_NAME
    write_file(manifest, csv_text((MANIFEST_FIELDS, *rows)), "manifest")
    return manifest
