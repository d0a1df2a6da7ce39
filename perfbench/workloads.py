"""Workload inputs: photos and a manifest, generated from a seed.

Each workload is a set of synthetic canopy-shadow photos written as
netpbm files, plus a manifest CSV in the format `shadowprune` reads.

The shadow geometry of every photo (where the blobs and sun flecks
are, and the fleck colours) and the label flips come from a fixed
structure seed; the benchmark's --seed draws the pixel noise and the
colour jitter.  Noise and jitter never cross the Otsu threshold, so the
features, the SVM training sets and the SMO work on them are the same
in every run, while every pixel the program decodes differs between
seeds.  SMO's running time varies two- to threefold between training
sets of the same make-up, so seed-dependent features would make
`train_*_s` measure the data rather than the program (see README.md).
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from shadowprune import imgcore, synth

# Fixed seed of the shadow geometry and the label flips.
STRUCTURE_SEED = 2207

MANIFEST_HEADER = ("tree_id", "photo_id", "image_path", "label")

# Colour photos: each channel is v + CAST + e with e drawn per pixel and
# channel from [-JITTER, JITTER].  The synth modes (40 +- 20, 215 +- 20)
# keep every channel inside [0, 255].  Independent channels make the
# grayscale conversion no identity and hit the exact .5 ties where the
# float formula and its integer form (21r + 72g + 7b + 50) // 100 differ.
CAST = (8, 0, -8)
JITTER = 7

# Colour photos also get sun flecks: a share of the shadow pixels takes
# a colour with each channel drawn from the gap between the synth modes.
# Otsu's threshold then falls among populated levels and a fleck decides
# its otherwise dark pooling patch, so moving pixels by one gray level
# changes the features, and the features check sees a change to the
# grayscale formula, down to the .5 ties.  On 12-MP photos the threshold
# does not move with the noise; on small ones it moves by a level or
# two, which would make the features depend on --seed.
FLECK_SHARE = 0.2
FLECK_LEVELS = (60, 196)


@dataclass(frozen=True)
class Photo:
    """One generated photo and the SHA-256 of the pixel array written."""

    tree_id: str
    photo_id: str
    rel_path: str
    label: int  # manifest label: 1 good, 0 poor
    kind: str  # netpbm magic: P5 gray or P6 colour
    shape: tuple[int, ...]  # (h, w) gray or (h, w, 3) colour
    sha256: str

    @property
    def megapixels(self) -> float:
        return self.shape[0] * self.shape[1] / 1e6


@dataclass(frozen=True)
class Spec:
    """Make-up of one workload."""

    trees: int
    points: int
    # Generated edge; the photo edge is this times `upscale`.
    height: int
    width: int
    upscale: int
    # Netpbm magic of point p of tree t: kinds[(t + p) % len(kinds)].
    kinds: tuple[str, ...]
    # Trees per regime whose manifest label is flipped.
    flips_per_regime: int
    # Train and predict calls per kernel after extract and again after
    # evaluate.  Repeats give calls of a few milliseconds enough samples
    # for their minimum.
    svm_repeats: int
    # A run makes round(--seconds / round_seconds) rounds, at least 2.
    # At --seconds 20 a run takes 20 to 45 s on the reference machine.
    round_seconds: float


SPECS = {
    # 36 trees x 10 photos, a sixth of each regime labelled against it.
    "orchard": Spec(trees=36, points=10, height=200, width=200, upscale=1,
                    kinds=("P5",), flips_per_regime=3,
                    svm_repeats=1, round_seconds=2.0),
    # 4 trees x 1 photo of 3000 x 4000, two per class, one gray and one
    # colour in each class.
    "field_12mp": Spec(trees=4, points=1, height=300, width=400, upscale=10,
                       kinds=("P5", "P6"), flips_per_regime=0,
                       svm_repeats=8, round_seconds=5.0),
}

WORKLOADS = tuple(SPECS)


@dataclass(frozen=True)
class Workload:
    name: str
    root: Path
    manifest: Path
    photos: tuple[Photo, ...]
    spec: Spec

    @property
    def megapixels(self) -> float:
        return sum(p.megapixels for p in self.photos)


def pixel_sha256(pixels: np.ndarray) -> str:
    """Digest of a uint8 pixel array in row-major order."""
    data = np.ascontiguousarray(pixels, dtype=np.uint8).tobytes()
    return hashlib.sha256(data).hexdigest()


def _flipped_trees(spec: Spec) -> set[int]:
    rng = np.random.default_rng([STRUCTURE_SEED, spec.trees])
    half = spec.trees // 2
    flips: set[int] = set()
    for first in (0, half):
        picks = rng.choice(half, spec.flips_per_regime, replace=False)
        flips.update(first + int(i) for i in picks)
    return flips


def _shadow_mask(regime: str, spec: Spec, tree: int, point: int) -> np.ndarray:
    """Blob mask of one photo, from the structure seed only."""
    cfg = dataclasses.replace(
        synth.default_config(regime, seed=(STRUCTURE_SEED, tree, point)),
        height=spec.height, width=spec.width,
    )
    gray = synth.generate(cfg).image.pixels
    mask = gray < (cfg.shadow_mean + cfg.background_mean) // 2
    if spec.upscale > 1:
        mask = mask.repeat(spec.upscale, axis=0).repeat(spec.upscale, axis=1)
    return mask


def _colour(gray: np.ndarray, mask: np.ndarray, rng: np.random.Generator,
            fleck_rng: np.random.Generator) -> np.ndarray:
    """Jittered RGB from rng, with sun flecks from fleck_rng inside the mask."""
    jitter = rng.integers(-JITTER, JITTER + 1, size=(*gray.shape, 3), dtype=np.int16)
    rgb = gray[..., None].astype(np.int16) + np.array(CAST, dtype=np.int16) + jitter
    fleck = mask & (fleck_rng.random(mask.shape) < FLECK_SHARE)
    rgb[fleck] = fleck_rng.integers(*FLECK_LEVELS, size=(int(fleck.sum()), 3),
                                    dtype=np.int16)
    return rgb.astype(np.uint8)


def _encode(kind: str, pixels: np.ndarray) -> bytes:
    if kind == "P5":
        return imgcore.encode_pgm(imgcore.GrayImage(pixels))
    return imgcore.encode_ppm(imgcore.RgbImage(pixels))


def build(name: str, seed: int, root: Path) -> Workload:
    """Write the photos and the manifest of workload `name` under root."""
    spec = SPECS[name]
    images = root / "images"
    images.mkdir(parents=True, exist_ok=True)
    flips = _flipped_trees(spec)
    half = spec.trees // 2
    photos = []
    for tree in range(spec.trees):
        regime = synth.REGIME_GOOD if tree < half else synth.REGIME_POOR
        good = (regime == synth.REGIME_GOOD) != (tree in flips)
        for point in range(spec.points):
            kind = spec.kinds[(tree + point) % len(spec.kinds)]
            cfg = synth.default_config(regime)
            key = [list(SPECS).index(name), tree, point]
            rng = np.random.default_rng([seed, *key])
            mask = _shadow_mask(regime, spec, tree, point)
            gray = synth.render_image(
                mask, cfg.shadow_mean, cfg.background_mean, cfg.noise, rng
            ).pixels
            if kind == "P6":
                fleck_rng = np.random.default_rng([STRUCTURE_SEED, *key])
                pixels = _colour(gray, mask, rng, fleck_rng)
            else:
                pixels = gray
            ext = "pgm" if kind == "P5" else "ppm"
            rel = f"images/t{tree:03d}_p{point:02d}.{ext}"
            (root / rel).write_bytes(_encode(kind, pixels))
            photos.append(Photo(
                tree_id=f"t{tree:03d}", photo_id=f"p{point:02d}", rel_path=rel,
                label=1 if good else 0, kind=kind, shape=pixels.shape,
                sha256=pixel_sha256(pixels),
            ))
    manifest = root / "manifest.csv"
    with manifest.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(MANIFEST_HEADER)
        for p in photos:
            writer.writerow((p.tree_id, p.photo_id, p.rel_path, str(p.label)))
    return Workload(name, root, manifest, tuple(photos), spec)
