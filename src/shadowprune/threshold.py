"""Histogram construction, Otsu threshold selection, and binarization.

The threshold t splits intensities into class 0 (below t) and class 1
(t and above).  Otsu's criterion picks the t maximizing the inter-class
variance w0(t) * w1(t) * (mu0(t) - mu1(t))^2, which is equivalent to
minimizing the weighted intra-class variance; candidates run over
t in [1, 255] and ties go to the smallest t.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateHistogram, EmptyImage
from .imgcore import BinaryImage, GrayImage

LEVELS = 256

_HISTOGRAM_CHUNK = 1 << 16


@dataclass(frozen=True)
class Histogram:
    """Pixel counts over the 256 intensity levels."""

    counts: np.ndarray
    total: int

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.shape != (LEVELS,):
            raise ValueError(f"histogram needs {LEVELS} bins, got shape {counts.shape}")
        if counts.size and int(counts.min()) < 0:
            raise ValueError("histogram counts must be non-negative")
        if int(counts.sum()) != self.total or self.total <= 0:
            raise ValueError("histogram total must equal the positive sum of counts")
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)

    @property
    def probabilities(self) -> np.ndarray:
        """p(i) = counts[i] / total."""
        return self.counts / self.total


@dataclass(frozen=True)
class OtsuResult:
    """Chosen threshold plus the full objective trace for auditability.

    `objective[t]` is the inter-class variance of candidate t; entries
    where either class would be empty are zero.  w0/w1/mu0/mu1 are the
    class probabilities and means at the chosen threshold.
    """

    threshold: int
    objective: np.ndarray
    w0: float
    w1: float
    mu0: float
    mu1: float

    def __post_init__(self):
        obj = np.asarray(self.objective, dtype=np.float64)
        obj.setflags(write=False)
        object.__setattr__(self, "objective", obj)

    @property
    def max_objective(self) -> float:
        return float(self.objective[self.threshold])

    def audit_line(self) -> str:
        """One-line text record for pipeline logs."""
        return (
            f"otsu threshold={self.threshold} w0={self.w0!r} w1={self.w1!r} "
            f"mu0={self.mu0!r} mu1={self.mu1!r} sigma_b2={self.max_objective!r}"
        )


def histogram(img: GrayImage) -> Histogram:
    """Count pixels per intensity level."""
    if img.pixel_count == 0:
        raise EmptyImage("cannot histogram an empty image")
    # bincount casts its input to intp; blocks keep that copy in cache.
    flat = img.pixels.reshape(-1)
    counts = np.zeros(LEVELS, dtype=np.int64)
    for start in range(0, flat.size, _HISTOGRAM_CHUNK):
        counts += np.bincount(flat[start : start + _HISTOGRAM_CHUNK], minlength=LEVELS)
    return Histogram(counts, img.pixel_count)


def otsu_threshold(h: Histogram) -> OtsuResult:
    """Pick the threshold with maximal inter-class variance.

    Cumulative moments from both ends give every candidate in a single
    pass over the 256 bins; the empty-class sides stay exactly zero so
    no spurious candidate can win on rounding noise.

    Raises DegenerateHistogram when fewer than two intensity levels are
    present (every split leaves a class empty and the objective is
    identically zero).
    """
    if int(np.count_nonzero(h.counts)) < 2:
        raise DegenerateHistogram(
            "histogram has fewer than two occupied intensity levels"
        )
    p = h.probabilities
    levels = np.arange(LEVELS, dtype=np.float64)
    ip = levels * p

    # w0(t) = sum_{i<t} p(i); w1(t) = sum_{i>=t} p(i), both by direct
    # accumulation so an empty class is exactly 0.0, never 1 - (1 - eps).
    w0 = np.concatenate(([0.0], np.cumsum(p)[:-1]))
    w1 = np.cumsum(p[::-1])[::-1]
    m0 = np.concatenate(([0.0], np.cumsum(ip)[:-1]))
    m1 = np.cumsum(ip[::-1])[::-1]

    valid = (w0 > 0.0) & (w1 > 0.0)
    mu0 = np.divide(m0, w0, out=np.zeros(LEVELS), where=valid)
    mu1 = np.divide(m1, w1, out=np.zeros(LEVELS), where=valid)
    objective = np.where(valid, w0 * w1 * (mu0 - mu1) ** 2, 0.0)

    t = int(np.argmax(objective))  # first maximum = smallest t on ties
    return OtsuResult(
        threshold=t,
        objective=objective,
        w0=float(w0[t]),
        w1=float(w1[t]),
        mu0=float(mu0[t]),
        mu1=float(mu1[t]),
    )


def binarize(img: GrayImage, t: int) -> BinaryImage:
    """Map intensities >= t to 255 (light) and the rest to 0 (shadow)."""
    if not 0 <= t <= 255:
        raise ValueError(f"threshold {t} outside [0, 255]")
    light = (img.pixels >= t).view(np.uint8)
    light *= 255
    return BinaryImage._trusted(light)


def auto_binarize(img: GrayImage) -> tuple[BinaryImage, OtsuResult]:
    """Binarize at the Otsu threshold; returns the result for audit logs."""
    result = otsu_threshold(histogram(img))
    return binarize(img, result.threshold), result
