"""Output checks written apart from the program.

Nothing here imports `shadowprune`.  Each check returns a list of
problems; an empty list means the output passed.

* Image path: a reference netpbm reader, the float grayscale formula
  evaluated per distinct colour in Python floats, an exact integer Otsu
  scan, a 3x3 max-pool, grid white counts from an integral image and a
  two-pass standard deviation.
* Models and predictions: properties of the soft-margin dual (box and
  equality constraints, w = sum coef * sv, KKT conditions on the
  training rows) and decision values recomputed from the model file.
* Evaluation report: confusion counts against the class sizes of the
  stratified split.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import re

import numpy as np

POOL_FACTOR = 3
GRID_EDGE = 100
# Grid edge on the pooled image: the edge shrinks with the pool factor.
POOLED_GRID_EDGE = GRID_EDGE // POOL_FACTOR

FEATURES_HEADER = ("tree_id", "photo_id", "black_pixel_rate", "uniformity", "label")
PREDICTIONS_HEADER = ("tree_id", "photo_id", "prediction", "decision_value")

# Relative tolerance for floats the program computes in another order
# (numpy pairwise sums against a two-pass fsum, vectorized RBF sums).
REL_TOL = 1e-9

_SEP = rb"(?:\s|#[^\r\n]*[\r\n])+"
_HEADER = re.compile(rb"P([2356])" + _SEP + rb"(\d+)" + _SEP + rb"(\d+)" + _SEP
                     + rb"(\d+)\s")
_COMMENT = re.compile(rb"#[^\r\n]*")


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


# --- image path --------------------------------------------------------------


def read_netpbm(data: bytes) -> np.ndarray:
    """Pixels of a P2/P3/P5/P6 file with maxval 255: (h, w) or (h, w, 3)."""
    m = _HEADER.match(data)
    if m is None:
        raise ValueError("not a netpbm file with a P2/P3/P5/P6 header")
    kind, width, height, maxval = (int(g) for g in m.groups())
    if maxval != 255:
        raise ValueError(f"maxval {maxval}")
    shape = (height, width, 3) if kind in (3, 6) else (height, width)
    count = math.prod(shape)
    body = data[m.end():]
    if kind in (5, 6):
        if len(body) != count:
            raise ValueError(f"raw raster has {len(body)} bytes, expected {count}")
        return np.frombuffer(body, dtype=np.uint8).reshape(shape)
    values = np.array(_COMMENT.sub(b"", body).split(), dtype=np.int64)
    if values.size != count or values.min() < 0 or values.max() > 255:
        raise ValueError("plain raster has a wrong sample count or range")
    return values.astype(np.uint8).reshape(shape)


def check_pixels(px: np.ndarray, sha256: str, shape: tuple[int, ...]) -> list[str]:
    """Decoded pixels are the array recorded at set-up."""
    if px.shape != shape:
        return [f"shape {px.shape}, generated {shape}"]
    if hashlib.sha256(np.ascontiguousarray(px).tobytes()).hexdigest() != sha256:
        return ["pixels differ from the generated array"]
    return []


def reference_gray(px: np.ndarray) -> np.ndarray:
    """0.21 r + 0.72 g + 0.07 b rounded half-up, in Python floats.

    Gray input passes through.  The formula is evaluated once per
    distinct colour present, left to right, like the written formula.
    """
    if px.ndim == 2:
        return px
    codes = (px[..., 0].astype(np.int32) << 16) | (px[..., 1].astype(np.int32) << 8) \
        | px[..., 2].astype(np.int32)
    present = np.flatnonzero(np.bincount(codes.ravel(), minlength=1 << 24))
    lut = np.zeros(1 << 24, dtype=np.uint8)
    lut[present] = [
        math.floor(0.21 * (c >> 16) + 0.72 * ((c >> 8) & 255) + 0.07 * (c & 255) + 0.5)
        for c in present.tolist()
    ]
    return lut[codes]


def exact_otsu(gray: np.ndarray) -> int:
    """Smallest t maximizing w0 w1 (mu0 - mu1)^2, compared as exact fractions.

    With n0, s0 the count and intensity sum below t and n1, s1 those at
    or above it, w0 w1 (mu0 - mu1)^2 = (n1 s0 - n0 s1)^2 / (N^2 n0 n1).
    """
    counts = np.bincount(gray.ravel(), minlength=256).tolist()
    total = sum(counts)
    moment = sum(i * c for i, c in enumerate(counts))
    best_t, best_num, best_den = -1, 0, 1
    n0 = s0 = 0
    for t in range(1, 256):
        n0 += counts[t - 1]
        s0 += (t - 1) * counts[t - 1]
        n1, s1 = total - n0, moment - s0
        if n0 == 0 or n1 == 0:
            continue
        num, den = (n1 * s0 - n0 * s1) ** 2, n0 * n1
        if num * best_den > best_num * den:
            best_t, best_num, best_den = t, num, den
    if best_t < 0:
        raise ValueError("fewer than two intensity levels")
    return best_t


def max_pool(light: np.ndarray, p: int = POOL_FACTOR) -> np.ndarray:
    """A p x p patch is light when any of its pixels is; partial patches drop."""
    h, w = light.shape[0] // p, light.shape[1] // p
    out = np.zeros((h, w), dtype=bool)
    for dy in range(p):
        for dx in range(p):
            out |= light[dy:h * p:p, dx:w * p:p]
    return out


def grid_counts(light: np.ndarray, edge: int = POOLED_GRID_EDGE) -> list[int]:
    """Light pixels per full edge x edge tile, row-major, via an integral image."""
    ii = np.zeros((light.shape[0] + 1, light.shape[1] + 1), dtype=np.int64)
    ii[1:, 1:] = light.cumsum(axis=0, dtype=np.int64).cumsum(axis=1)
    rows, cols = light.shape[0] // edge, light.shape[1] // edge
    ys = np.arange(rows + 1) * edge
    xs = np.arange(cols + 1) * edge
    corners = ii[np.ix_(ys, xs)]
    tiles = corners[1:, 1:] - corners[:-1, 1:] - corners[1:, :-1] + corners[:-1, :-1]
    return tiles.ravel().tolist()


def two_pass_std(values: list[int]) -> float:
    n = len(values)
    mean = math.fsum(values) / n
    return math.sqrt(math.fsum((v - mean) ** 2 for v in values) / n)


def reference_features(px: np.ndarray) -> tuple[float, float]:
    """(black_pixel_rate, uniformity) of one photo with pooling p=3, grid 100."""
    gray = reference_gray(px)
    pooled = max_pool(gray >= exact_otsu(gray))
    black = pooled.size - int(np.count_nonzero(pooled))
    return black / pooled.size, two_pass_std(grid_counts(pooled))


# --- CSV files -----------------------------------------------------------------


def read_features(text: str) -> list[tuple[str, str, float, float, int]]:
    """Rows of a features CSV: (tree_id, photo_id, rate, uniformity, label)."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or tuple(rows[0]) != FEATURES_HEADER:
        raise ValueError("features CSV header")
    return [(t, p, float(r), float(u), int(lab)) for t, p, r, u, lab in rows[1:]]


def check_features(rows: list, expected: dict[tuple[str, str], tuple[float, float, int]]
                   ) -> list[str]:
    """Per-photo CSV rows against reference (rate, uniformity, label +-1)."""
    problems = []
    got = {(t, p): (r, u, lab) for t, p, r, u, lab in rows}
    if len(got) != len(rows) or set(got) != set(expected):
        problems.append("features CSV: photo ids differ from the manifest")
    for key in sorted(set(got) & set(expected)):
        (r, u, lab), (rr, ru, rlab) = got[key], expected[key]
        if r != rr:
            problems.append(f"{key}: black_pixel_rate {r!r}, reference {rr!r}")
        if not _close(u, ru):
            problems.append(f"{key}: uniformity {u!r}, reference {ru!r}")
        if lab != rlab:
            problems.append(f"{key}: label {lab}, manifest {rlab}")
    return problems


# --- models and predictions ------------------------------------------------------


def parse_model(text: str) -> dict:
    """Fields of a `shadowprune-model v1` file."""
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    if lines[0] != ["shadowprune-model", "v1"] or lines[-1] != ["end"]:
        raise ValueError("model file framing")
    fields, sv = {}, []
    for key, *rest in lines[1:-1]:
        if key == "sv":
            sv.append([float(v) for v in rest])
        else:
            fields[key] = rest
    sv_arr = np.array(sv, dtype=np.float64).reshape(len(sv), -1)
    model = {
        "kernel": fields["kernel"][0],
        "C": float(fields["C"][0]),
        "tolerance": float(fields["tolerance"][0]),
        "b": float(fields["b"][0]),
        "sv_idx": [int(v) for v in fields.get("support_vector_indices", [])],
        "n_support": int(fields["n_support"][0]),
        "sv": sv_arr[:, :-1],
        "coef": sv_arr[:, -1],
        "mins": np.array([float(v) for v in fields["normalizer_mins"]]),
        "maxs": np.array([float(v) for v in fields["normalizer_maxs"]]),
    }
    if model["kernel"] == "linear":
        model["w"] = np.array([float(v) for v in fields["w"]])
    else:
        model["gamma"] = float(fields["gamma"][0])
    return model


def scale(model: dict, raw: np.ndarray) -> np.ndarray:
    """Min-max scale raw (n, 2) features by the model's normalizer."""
    return (raw - model["mins"]) / (model["maxs"] - model["mins"])


def decision(model: dict, z: np.ndarray) -> np.ndarray:
    """f(z) per row: w.z - b, or sum coef exp(-gamma |sv - z|^2) - b."""
    if model["kernel"] == "linear":
        return np.array([math.fsum(wi * zi for wi, zi in zip(model["w"], row))
                         for row in z]) - model["b"]
    out = []
    for row in z:
        sq = ((model["sv"] - row) ** 2).sum(axis=1)
        out.append(math.fsum(model["coef"] * np.exp(-model["gamma"] * sq)))
    return np.array(out) - model["b"]


def check_model(model: dict, raw: np.ndarray, y: np.ndarray) -> list[str]:
    """Dual constraints, normalizer, support rows and KKT on the training rows."""
    problems = []
    C, coef, tol = model["C"], model["coef"], model["tolerance"]
    if model["n_support"] != coef.size or len(model["sv_idx"]) != coef.size:
        problems.append("support vector count mismatch")
        return problems
    if not (np.array_equal(model["mins"], raw.min(axis=0))
            and np.array_equal(model["maxs"], raw.max(axis=0))):
        problems.append("normalizer is not the min/max of the training rows")
    if np.any(np.abs(coef) > C * (1 + 1e-12)):
        problems.append(f"|dual_coef| exceeds C={C}: max {np.abs(coef).max()!r}")
    if abs(math.fsum(coef)) > 1e-8 * max(1.0, C):
        problems.append(f"dual_coef sum {math.fsum(coef)!r} is not 0")
    z = scale(model, raw)
    idx = np.array(model["sv_idx"], dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= len(y)):
        problems.append("support vector index outside the training rows")
        return problems
    if not np.allclose(model["sv"], z[idx], rtol=0, atol=1e-12):
        problems.append("support rows differ from the scaled training rows")
    if np.any(np.sign(coef) != y[idx]):
        problems.append("dual_coef sign differs from the support row label")
    if model["kernel"] == "linear":
        w = np.array([math.fsum(coef * model["sv"][:, j]) for j in range(z.shape[1])])
        if not all(_close(a, b) for a, b in zip(model["w"], w)):
            problems.append(f"w {model['w'].tolist()} != sum coef*sv {w.tolist()}")
    alpha = np.zeros(len(y))
    alpha[idx] = np.abs(coef)
    margin = y * decision(model, z)
    at_zero = alpha == 0.0
    at_c = alpha >= C * (1 - 1e-12)
    free = ~at_zero & ~at_c
    worst = max(
        float(np.max(1 - tol - margin[at_zero], initial=0.0)),
        float(np.max(margin[at_c] - 1 - tol, initial=0.0)),
        float(np.max(np.abs(margin[free] - 1) - tol, initial=0.0)),
    )
    if worst > 0.0:
        problems.append(f"KKT violated by {worst!r} beyond tolerance {tol!r}")
    return problems


def check_predictions(text: str, model: dict, rows: list) -> list[str]:
    """Prediction rows against decision values recomputed from the model file."""
    lines = list(csv.reader(io.StringIO(text)))
    if not lines or tuple(lines[0]) != PREDICTIONS_HEADER:
        return ["predictions header"]
    if len(lines) - 1 != len(rows):
        return [f"{len(lines) - 1} predictions for {len(rows)} rows"]
    raw = np.array([[r[2], r[3]] for r in rows], dtype=np.float64)
    ref = decision(model, scale(model, raw))
    problems = []
    for (tree, photo, label, value), row, f in zip(lines[1:], rows, ref):
        value = float(value)
        if (tree, photo) != row[:2]:
            problems.append(f"prediction row {tree},{photo} out of order")
        elif not _close(value, f):
            problems.append(f"{tree},{photo}: decision value {value!r}, model gives {f!r}")
        elif int(label) != (1 if value >= 0.0 else -1) or (
                abs(f) > 1e-9 and int(label) != (1 if f >= 0.0 else -1)):
            problems.append(f"{tree},{photo}: prediction {label} for f={f!r}")
    return problems


# --- evaluation report -----------------------------------------------------------


def test_class_sizes(n_pos: int, n_neg: int, fraction: float) -> dict[int, int]:
    """Per-class test sizes of the stratified split.

    The training size is round-half-up(fraction * n), shared between the
    classes by largest remainder (ties to class -1), then clamped so each
    class keeps a record on each side.
    """
    sizes = {-1: n_neg, 1: n_pos}
    quota = {c: fraction * sizes[c] for c in sizes}
    take = {c: math.floor(quota[c]) for c in sizes}
    for _ in range(math.floor(fraction * (n_pos + n_neg) + 0.5) - sum(take.values())):
        c = max((-1, 1), key=lambda c: (quota[c] - take[c], c == -1))
        take[c] += 1
    return {c: sizes[c] - min(max(take[c], 1), sizes[c] - 1) for c in sizes}


_MODEL_LINE = re.compile(
    r"model \d+ kernel (\w+) C \S+(?: gamma \S+)? accuracy (\S+) "
    r"tp (\d+) tn (\d+) fp (\d+) fn (\d+)$"
)


def check_report(text: str, tree_labels: dict[str, int], fraction: float,
                 kernels: tuple[str, ...] = ("linear", "rbf")) -> list[str]:
    """Confusion counts of every model against the test trees' labels."""
    lines = text.splitlines()
    if not lines or lines[0] != "shadowprune-report v1" or lines[-1] != "end":
        return ["report framing"]
    kv = dict(ln.split(" ", 1) for ln in lines[1:-1] if not ln.startswith("model "))
    n_train, n_test = int(kv["n_train"]), int(kv["n_test"])
    n_pos = sum(1 for v in tree_labels.values() if v == 1)
    sizes = test_class_sizes(n_pos, len(tree_labels) - n_pos, fraction)
    problems = []
    if n_train + n_test != len(tree_labels) or n_test != sizes[1] + sizes[-1]:
        problems.append(f"split {n_train}/{n_test} of {len(tree_labels)} trees")
    found = []
    for ln in lines:
        if not ln.startswith("model "):
            continue
        m = _MODEL_LINE.match(ln)
        if m is None:
            problems.append(f"unscored model line: {ln}")
            continue
        kernel, acc = m.group(1), float(m.group(2))
        tp, tn, fp, fn = (int(g) for g in m.groups()[2:])
        found.append(kernel)
        if tp + tn + fp + fn != n_test:
            problems.append(f"{kernel}: tp+tn+fp+fn = {tp + tn + fp + fn}, n_test {n_test}")
        if tp + fn != sizes[1] or tn + fp != sizes[-1]:
            problems.append(f"{kernel}: class counts {tp + fn}/{tn + fp}, "
                            f"test trees {sizes[1]}/{sizes[-1]}")
        if n_test and acc != (tp + tn) / n_test:
            problems.append(f"{kernel}: accuracy {acc!r} != (tp+tn)/n_test")
    if tuple(found) != kernels:
        problems.append(f"report models {found}, expected {list(kernels)}")
    return problems
