"""Independent reference implementations used only by the tests.

Everything here is written the slow, obvious way (explicit loops,
exhaustive search, math.fsum) so it shares no code path, and ideally no
failure mode, with the library under test.  Frozen: changes here need a
reason written in the test that consumes them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

import numpy as np

LEVELS = 256


def otsu_exhaustive(counts) -> tuple[int, float]:
    """Brute-force scan of every threshold; returns (t, sigma_b2).

    Class 0 holds intensities < t, class 1 the rest.  Thresholds whose
    classes are not both populated are skipped; ties keep the smallest
    t via strict > comparison.
    """
    counts = [int(c) for c in counts]
    total = sum(counts)
    best_t = None
    best_obj = -1.0
    for t in range(1, LEVELS):
        n0 = sum(counts[:t])
        n1 = total - n0
        if n0 == 0 or n1 == 0:
            continue
        w0 = n0 / total
        w1 = n1 / total
        mu0 = math.fsum(i * counts[i] for i in range(t)) / n0
        mu1 = math.fsum(i * counts[i] for i in range(t, LEVELS)) / n1
        obj = w0 * w1 * (mu0 - mu1) ** 2
        if obj > best_obj:
            best_obj = obj
            best_t = t
    if best_t is None:
        raise ValueError("histogram has a single occupied level")
    return best_t, best_obj


def otsu_exact(counts) -> int:
    """Exact scan of every threshold in Fractions; returns t.

    sigma_b2(t) = w0 w1 (mu0 - mu1)^2 with every term a Fraction of the
    integer counts, so two splits tie only when their values are equal.
    Thresholds whose classes are not both populated are skipped; ties
    keep the smallest t via strict > comparison.
    """
    counts = [int(c) for c in counts]
    total = sum(counts)
    best_t = None
    best_obj = Fraction(-1)
    for t in range(1, LEVELS):
        n0 = sum(counts[:t])
        n1 = total - n0
        if n0 == 0 or n1 == 0:
            continue
        mu0 = Fraction(sum(i * counts[i] for i in range(t)), n0)
        mu1 = Fraction(sum(i * counts[i] for i in range(t, LEVELS)), n1)
        obj = Fraction(n0, total) * Fraction(n1, total) * (mu0 - mu1) ** 2
        if obj > best_obj:
            best_obj = obj
            best_t = t
    if best_t is None:
        raise ValueError("histogram has a single occupied level")
    return best_t


def intra_class_variance(counts, t: int) -> float:
    """Weighted within-class variance of the split at t (two-pass)."""
    counts = [int(c) for c in counts]
    total = sum(counts)
    pieces = []
    for lo, hi in ((0, t), (t, LEVELS)):
        n = sum(counts[lo:hi])
        if n == 0:
            raise ValueError(f"empty class in [{lo}, {hi})")
        mu = math.fsum(i * counts[i] for i in range(lo, hi)) / n
        var = math.fsum(counts[i] * (i - mu) ** 2 for i in range(lo, hi)) / n
        pieces.append((n / total) * var)
    return math.fsum(pieces)


def global_variance(counts) -> float:
    counts = [int(c) for c in counts]
    total = sum(counts)
    mu = math.fsum(i * counts[i] for i in range(LEVELS)) / total
    return math.fsum(counts[i] * (i - mu) ** 2 for i in range(LEVELS)) / total


def two_pass_std(values) -> float:
    """Population standard deviation, textbook two-pass version."""
    vals = [float(v) for v in values]
    n = len(vals)
    mu = math.fsum(vals) / n
    return math.sqrt(math.fsum((v - mu) ** 2 for v in vals) / n)


def gray_formula(r: int, g: int, b: int) -> int:
    """Weighted channel mix plus 0.5, floored, in Python floats left to right.

    At the exact .5 ties the float rounding of the weights decides, so
    some of them round down.
    """
    v = 0.21 * r + 0.72 * g + 0.07 * b
    return min(255, max(0, math.floor(v + 0.5)))


def max_pool_reference(px: np.ndarray, p: int) -> np.ndarray:
    """Per-patch max over a {0, 255} array, explicit loops."""
    h, w = px.shape
    out = np.zeros((h // p, w // p), dtype=np.uint8)
    for i in range(out.shape[0]):
        for j in range(out.shape[1]):
            out[i, j] = px[i * p:(i + 1) * p, j * p:(j + 1) * p].max()
    return out


def photo_features(pixels, p: int, edge: int) -> tuple[float, float]:
    """(black_pixel_rate, uniformity) of one photo, one definition at a time.

    pixels is a (h, w) gray or (h, w, 3) colour array of levels in
    [0, 255].  Gray levels by gray_formula, the count of every level,
    the exact Otsu threshold (otsu_exact), a {0, 255} binary image at
    full size, the looped max-pool by p (max_pool_reference); then the
    fraction of black pooled pixels, and the population standard
    deviation of the white counts of the full edge x edge tiles,
    row-major, taken as np.std of their list.  Raises ValueError naming
    the first check that fails: "empty" (no pixel), "degenerate" (fewer
    than two gray levels), "pool" (no full p x p patch) or "grid" (no
    full tile in the pooled image).
    """
    px = np.asarray(pixels)
    h, w = px.shape[:2]
    if h * w == 0:
        raise ValueError("empty")
    if px.ndim == 3:
        gray = np.array([[gray_formula(*(int(c) for c in px[i, j])) for j in range(w)]
                         for i in range(h)])
    else:
        gray = px.astype(np.int64)
    counts = [0] * LEVELS
    for v in gray.ravel().tolist():
        counts[v] += 1
    if sum(1 for c in counts if c) < 2:
        raise ValueError("degenerate")
    t = otsu_exact(counts)
    if h < p or w < p:
        raise ValueError("pool")
    pooled = max_pool_reference(np.where(gray >= t, 255, 0), p)
    ph, pw = pooled.shape
    if ph < edge or pw < edge:
        raise ValueError("grid")
    white = [int(np.count_nonzero(pooled[i * edge:(i + 1) * edge, j * edge:(j + 1) * edge]))
             for i in range(ph // edge) for j in range(pw // edge)]
    black = ph * pw - int(np.count_nonzero(pooled))
    return black / (ph * pw), float(np.std(np.asarray(white, dtype=np.float64)))


def hard_margin_oracle(x: np.ndarray, y: np.ndarray):
    """Exact hard-margin SVM in R^2 by support-subset enumeration.

    The optimum of min ||w|| s.t. y_i (w.x_i - b) >= 1 is pinned by two
    or three active points.  An active pair with equal opposite duals
    forces w parallel to their difference (perpendicular-bisector
    geometry); an active triple is a 3x3 linear solve.  Every candidate
    is checked for feasibility on all points; the widest feasible
    margin wins.  Returns (w, b, margin) or None when no candidate is
    feasible (data not separable).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = x.shape[0]
    feas_tol = 1e-9
    best = None

    def consider(w, b):
        nonlocal best
        slack = y * (x @ w - b)
        if np.min(slack) < 1.0 - feas_tol:
            return
        m = 2.0 / np.linalg.norm(w)
        if best is None or m > best[2]:
            best = (w, b, m)

    for i, j in combinations(range(n), 2):
        if y[i] == y[j]:
            continue
        plus, minus = (i, j) if y[i] > 0 else (j, i)
        diff = x[plus] - x[minus]
        d2 = float(diff @ diff)
        if d2 == 0.0:
            continue
        w = 2.0 * diff / d2
        b = float(w @ (x[plus] + x[minus]) / 2.0)
        consider(w, b)

    for i, j, k in combinations(range(n), 3):
        if y[i] == y[j] == y[k]:
            continue
        rows = np.array(
            [[y[m] * x[m, 0], y[m] * x[m, 1], -y[m]] for m in (i, j, k)]
        )
        if abs(np.linalg.det(rows)) < 1e-12:
            continue
        w0, w1, b = np.linalg.solve(rows, np.ones(3))
        w = np.array([w0, w1])
        if np.linalg.norm(w) == 0.0:
            continue
        consider(w, b)

    return best
