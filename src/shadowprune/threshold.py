"""Histogram construction, Otsu threshold selection, and binarization.

The threshold t splits intensities into class 0 (below t) and class 1
(t and above).  Otsu's criterion picks the t maximizing the inter-class
variance w0(t) * w1(t) * (mu0(t) - mu1(t))^2, which is equivalent to
minimizing the weighted intra-class variance; candidates run over
t in [1, 255] and ties go to the smallest t.

A photo's threshold comes from the histogram of all its pixels, but
the image path thresholds only its pooled gray image (see `pooling`).
That path has two phases.  A photo's pixel phase (`pooling.pool`)
counts its histogram with `_count_levels`, the one histogram kernel,
and checks that it has two occupied levels.  The tail then runs once
for a batch of photos: `otsu_threshold` scans their stacked (k, 256)
histograms together, and the features (or `binarize`, for one photo)
compare each pooled image with its own threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import DegenerateHistogram
from .imgcore import BinaryImage, GrayImage

LEVELS = 256

_HISTOGRAM_CHUNK = 1 << 16

# Candidates whose float objective lies within this relative distance of
# the float maximum are ordered exactly.  The float error is some 1e-13.
_TIE_TOLERANCE = 1e-9


@dataclass(frozen=True)
class OtsuResult:
    """Each histogram's chosen threshold plus its full objective trace, for auditability.

    Row i describes row i of the counts matrix given to otsu_threshold.
    `objective[i, t]` is the inter-class variance of candidate t; entries
    where either class would be empty are zero.  w0/w1/mu0/mu1 hold each
    row's class probabilities and means at its chosen threshold.  The
    arrays are read-only.
    """

    threshold: np.ndarray
    objective: np.ndarray
    w0: np.ndarray
    w1: np.ndarray
    mu0: np.ndarray
    mu1: np.ndarray

    def __post_init__(self):
        for f in fields(self):
            getattr(self, f.name).setflags(write=False)

    def audit_line(self, row: int) -> str:
        """One-line text record of one row, for pipeline logs."""
        t = int(self.threshold[row])
        w0, w1, mu0, mu1, sigma_b2 = (float(v) for v in (
            self.w0[row], self.w1[row], self.mu0[row], self.mu1[row], self.objective[row, t]))
        return (
            f"otsu threshold={t} w0={w0!r} w1={w1!r} "
            f"mu0={mu0!r} mu1={mu1!r} sigma_b2={sigma_b2!r}"
        )


def _count_levels(pixels: np.ndarray) -> np.ndarray:
    """Per-level counts of uint8 pixels, as 256 int64: the one histogram kernel."""
    # bincount casts its input to intp; blocks keep that copy in cache.
    flat = pixels.reshape(-1)
    counts = np.zeros(LEVELS, dtype=np.int64)
    for start in range(0, flat.size, _HISTOGRAM_CHUNK):
        counts += np.bincount(flat[start : start + _HISTOGRAM_CHUNK], minlength=LEVELS)
    return counts


def _check_levels(counts: np.ndarray) -> None:
    """Raise DegenerateHistogram unless each histogram has two occupied levels.

    counts is one histogram of 256 counts, or a (k, 256) matrix of them.
    With fewer levels, every split leaves a class empty and the
    objective is identically zero.
    """
    # Without an axis, count_nonzero is some 8x faster on one histogram,
    # which the pixel phase checks for every photo.
    if counts.ndim == 1:
        occupied = np.count_nonzero(counts)
    else:
        occupied = np.count_nonzero(counts, axis=1).min(initial=2)
    if occupied < 2:
        raise DegenerateHistogram(
            "histogram has fewer than two occupied intensity levels"
        )


def otsu_threshold(counts: np.ndarray) -> OtsuResult:
    """Pick the threshold with maximal inter-class variance for each histogram.

    counts is a (k, 256) matrix of pixel counts, one histogram per row;
    row i of the result belongs to row i of counts, and a row comes out
    the same, bit for bit, whatever rows share its matrix.  Cumulative
    moments from both ends give every candidate of every row in one set
    of array operations; the empty-class sides stay exactly zero so no
    spurious candidate can win on rounding noise.  When two distinct
    splits of a row come within rounding of its float maximum, they are
    compared exactly, so ties go to the smallest t; the audit fields
    stay the float ones at that t.

    Raises ValueError for a matrix that is not (k, 256) non-negative
    integers, and DegenerateHistogram when a row has fewer than two
    occupied intensity levels.
    """
    counts = np.asarray(counts)
    if (counts.ndim != 2 or counts.shape[1] != LEVELS
            or not np.issubdtype(counts.dtype, np.integer)):
        raise ValueError(f"otsu needs (k, {LEVELS}) integer counts, got {counts.shape}")
    if counts.size and int(counts.min()) < 0:
        raise ValueError("histogram counts must be non-negative")
    counts = counts.astype(np.int64, copy=False)
    _check_levels(counts)
    p = counts / counts.sum(axis=1, keepdims=True)
    levels = np.arange(LEVELS, dtype=np.float64)
    ip = levels * p

    # w0(t) = sum_{i<t} p(i); w1(t) = sum_{i>=t} p(i), both by direct
    # accumulation so an empty class is exactly 0.0, never 1 - (1 - eps).
    # Each row accumulates left to right on its own, as a 1-D cumsum does.
    zero = np.zeros((len(counts), 1))
    w0 = np.concatenate((zero, np.cumsum(p[:, :-1], axis=1)), axis=1)
    w1 = np.cumsum(p[:, ::-1], axis=1)[:, ::-1]
    m0 = np.concatenate((zero, np.cumsum(ip[:, :-1], axis=1)), axis=1)
    m1 = np.cumsum(ip[:, ::-1], axis=1)[:, ::-1]

    valid = (w0 > 0.0) & (w1 > 0.0)
    mu0 = np.divide(m0, w0, out=np.zeros(w0.shape), where=valid)
    mu1 = np.divide(m1, w1, out=np.zeros(w1.shape), where=valid)
    objective = np.where(valid, w0 * w1 * (mu0 - mu1) ** 2, 0.0)

    # Every t of a run of empty bins makes the same split, and the float
    # maximum is the first t of its run; only the first t of each run is
    # a candidate.
    rows = np.arange(len(counts))
    t = np.argmax(objective, axis=1)
    near = objective >= (objective[rows, t] * (1.0 - _TIE_TOLERANCE))[:, None]
    near[:, 1:] &= counts[:, :-1] > 0
    for i in np.flatnonzero(np.count_nonzero(near, axis=1) > 1).tolist():
        t[i] = _exact_first_max(counts[i], np.flatnonzero(near[i]).tolist())
    return OtsuResult(
        threshold=t,
        objective=objective,
        w0=w0[rows, t],
        w1=w1[rows, t],
        mu0=mu0[rows, t],
        mu1=mu1[rows, t],
    )


def _exact_first_max(counts: np.ndarray, candidates: list[int]) -> int:
    """The candidate t of largest exact objective, the smallest on ties.

    With n0, n1 the pixel counts and s0, s1 the intensity sums of the two
    classes, the objective is (n1 s0 - n0 s1)^2 / (N^2 n0 n1).  The
    fractions are compared in Python ints: on a 12-MP photo the
    numerators reach about 1e33, past int64.
    """
    n = np.cumsum(counts).tolist()
    s = np.cumsum(counts * np.arange(LEVELS)).tolist()
    best, best_num, best_den = candidates[0], 0, 1
    for t in candidates:
        n0, s0 = n[t - 1], s[t - 1]
        n1, s1 = n[-1] - n0, s[-1] - s0
        num, den = (n1 * s0 - n0 * s1) ** 2, n0 * n1
        if num * best_den > best_num * den:
            best, best_num, best_den = t, num, den
    return best


def binarize(img: GrayImage, t: int) -> BinaryImage:
    """Map intensities >= t to 255 (light) and the rest to 0 (shadow)."""
    if not 0 <= t <= 255:
        raise ValueError(f"threshold {t} outside [0, 255]")
    light = (img.pixels >= t).view(np.uint8)
    light *= 255
    return BinaryImage._trusted(light)
