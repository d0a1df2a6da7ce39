"""Soft-margin SVM trained by sequential minimal optimization.

The decision surface follows the w·x − b = 0 convention, so the decision
function is f(x) = w·x − b for the linear kernel and
f(x) = sum_i alpha_i y_i K(x_i, x) − b for the RBF kernel.  Training
solves the dual with two-coefficient analytic updates (Platt's SMO with
an error cache and the |E1 − E2| second-choice heuristic); any
randomized sweep order comes from a seeded generator, so training is
deterministic for a fixed (data, config, seed) triple.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    CorruptModel,
    DimensionMismatch,
    IoError,
    NonConvergence,
    NumericError,
    SchemaVersionMismatch,
    SingleClassData,
)
from .features import Normalizer

KERNEL_LINEAR = "linear"
KERNEL_RBF = "rbf"
KERNELS = (KERNEL_LINEAR, KERNEL_RBF)

DEFAULT_C = 1.0
DEFAULT_TOLERANCE = 1e-4

# Alphas below this are treated as exactly zero after training.  Small
# enough that zeroing them moves sum(alpha*y) by well under 1e-6.
_ALPHA_FLOOR = 1e-12

# Relative progress floor for accepting a two-coefficient step.
_STEP_EPS = 1e-12


@dataclass(frozen=True)
class TrainingSet:
    """Feature rows with labels in {-1, +1}, as parallel arrays."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=np.float64)
        y = np.asarray(self.y, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] == 0:
            raise ValueError(f"features must be a non-empty (n, d) array, got {x.shape}")
        if y.shape != (x.shape[0],):
            raise ValueError("one label per feature row required")
        if not np.all(np.isfinite(x)):
            raise ValueError("feature values must be finite")
        if not np.all(np.isin(y, (-1.0, 1.0))):
            raise ValueError("labels must be -1 or +1")
        x.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]

    @property
    def has_both_labels(self) -> bool:
        return bool(np.any(self.y > 0) and np.any(self.y < 0))


def _require_positive(obj, names: tuple[str, ...]) -> None:
    """ValueError unless each named field is None or a finite number > 0."""
    for name in names:
        v = getattr(obj, name)
        if v is not None and not (math.isfinite(v) and v > 0):
            raise ValueError(f"{name} must be finite and > 0, got {v}")


@dataclass(frozen=True)
class TrainConfig:
    """Solver knobs; gamma=None means 1 / (d * Var(X)) from the data."""

    kernel: str = KERNEL_LINEAR
    C: float = DEFAULT_C
    gamma: float | None = None
    tolerance: float = DEFAULT_TOLERANCE
    max_iterations: int | None = None
    rng_seed: int = 0

    def __post_init__(self):
        if self.kernel not in KERNELS:
            raise ValueError(f"kernel must be one of {KERNELS}, got {self.kernel!r}")
        _require_positive(self, ("C", "gamma", "tolerance"))
        if self.max_iterations is not None and self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass(frozen=True)
class SvmModel:
    """Trained classifier plus everything needed to apply it alone.

    support_x / dual_coef hold the support rows (model space) and their
    alpha_i * y_i; the linear kernel additionally collapses them into w.
    The embedded normalizer, when present, maps raw features into model
    space before evaluation.  pool_factor / grid_edge document how the
    training features were produced.
    """

    kernel: str
    C: float
    gamma: float | None
    w: np.ndarray | None
    b: float
    support_x: np.ndarray
    dual_coef: np.ndarray
    support_vector_indices: tuple[int, ...]
    tolerance: float
    rng_seed: int
    n_train_rows: int
    normalizer: Normalizer | None = None
    pool_factor: int | None = None
    grid_edge: int | None = None

    def __post_init__(self):
        sx = np.asarray(self.support_x, dtype=np.float64)
        dc = np.asarray(self.dual_coef, dtype=np.float64)
        if sx.ndim != 2 or dc.shape != (sx.shape[0],):
            raise ValueError("support_x must be (m, d) with one dual coefficient per row")
        _require_positive(self, ("C", "gamma", "tolerance"))
        arrays = (self.b, sx, dc) if self.w is None else (self.b, sx, dc, self.w)
        if not all(np.all(np.isfinite(a)) for a in arrays):
            raise ValueError("b, w, support vectors and dual coefficients must be finite")
        sx.setflags(write=False)
        dc.setflags(write=False)
        object.__setattr__(self, "support_x", sx)
        object.__setattr__(self, "dual_coef", dc)
        if self.w is not None:
            w = np.asarray(self.w, dtype=np.float64)
            w.setflags(write=False)
            object.__setattr__(self, "w", w)

    def with_context(
        self,
        normalizer: Normalizer | None = None,
        pool_factor: int | None = None,
        grid_edge: int | None = None,
    ) -> "SvmModel":
        """Attach pipeline provenance without retraining."""
        return dataclasses.replace(
            self, normalizer=normalizer, pool_factor=pool_factor, grid_edge=grid_edge
        )


def _decide(model: SvmModel, z: np.ndarray) -> float:
    """Decision function on an already model-space point."""
    if model.kernel == KERNEL_LINEAR:
        return float(model.w @ z - model.b)
    sq = np.sum((model.support_x - z) ** 2, axis=1)
    return float(model.dual_coef @ np.exp(-model.gamma * sq) - model.b)


def decision_values(model: SvmModel, x) -> np.ndarray:
    """f of each raw feature row of the (n, d) array x.

    The embedded normalizer, when present, scales the whole batch once;
    each row then goes through the same per-row evaluation, so a value
    does not depend on the batch it came in.
    """
    z = np.ascontiguousarray(x, dtype=np.float64)
    d = model.support_x.shape[1]
    if z.ndim != 2 or z.shape[1] != d:
        raise DimensionMismatch(f"query rows have shape {z.shape}, model expects (n, {d})")
    if model.normalizer is not None:
        z = model.normalizer.transform(z)
    return np.array([_decide(model, row) for row in z], dtype=np.float64)


def decision_value(model: SvmModel, x) -> float:
    """f(x) for one raw feature row, through decision_values.

    Its sign picks the class; |f|/||w|| is the linear-kernel distance.
    """
    return float(decision_values(model, [x])[0])


def decision_label(value: float) -> int:
    """Class of a decision value; the boundary itself (f = 0) counts as +1."""
    return 1 if value >= 0.0 else -1


def predict(model: SvmModel, x) -> int:
    """Class label of x, `decision_label` of its decision value."""
    return decision_label(decision_value(model, x))


def support_vectors(model: SvmModel, data: TrainingSet) -> tuple[int, ...]:
    """Indices of rows on or inside the margin: y·f(x) <= 1 + tolerance.

    `data` is taken to be in model space already, e.g. the set the model
    was trained on; no normalizer is applied here.
    """
    out = []
    for i in range(data.n):
        if data.y[i] * _decide(model, data.x[i]) <= 1.0 + model.tolerance:
            out.append(i)
    return tuple(out)


def _kernel_matrix(x: np.ndarray, kernel: str, gamma: float | None) -> np.ndarray:
    if kernel == KERNEL_LINEAR:
        return x @ x.T
    sq = np.sum(x**2, axis=1)
    dist2 = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
    np.maximum(dist2, 0.0, out=dist2)
    return np.exp(-gamma * dist2)


def _resolve_gamma(cfg: TrainConfig, x: np.ndarray) -> float | None:
    if cfg.kernel == KERNEL_LINEAR:
        return None
    if cfg.gamma is not None:
        return cfg.gamma
    var = float(x.var())
    return 1.0 / (x.shape[1] * var) if var > 0 else 1.0


class _Smo:
    """One training run; holds the mutable solver state."""

    def __init__(self, data: TrainingSet, cfg: TrainConfig, gamma: float | None):
        self.x = data.x
        self.y = data.y
        self.n = data.n
        self.C = cfg.C
        self.tol = cfg.tolerance
        self.K = _kernel_matrix(data.x, cfg.kernel, gamma)
        self.alpha = np.zeros(self.n)
        self.b = 0.0
        self.errors = -self.y.copy()  # f = 0 everywhere at the start
        self.rng = np.random.default_rng(cfg.rng_seed)
        self.steps = 0

    def refresh_errors(self) -> None:
        """Recompute the cache from scratch, clearing incremental drift."""
        f = (self.alpha * self.y) @ self.K - self.b
        self.errors = f - self.y

    def _objective_at(self, i1: int, i2: int, a1: float, a2: float) -> float:
        """Dual objective restricted to the pair, for the eta <= 0 branch."""
        y1, y2 = self.y[i1], self.y[i2]
        s = y1 * y2
        K11, K22, K12 = self.K[i1, i1], self.K[i2, i2], self.K[i1, i2]
        f1 = y1 * (self.errors[i1] + self.y[i1]) - self.alpha[i1] * K11 \
            - s * self.alpha[i2] * K12
        f2 = y2 * (self.errors[i2] + self.y[i2]) - s * self.alpha[i1] * K12 \
            - self.alpha[i2] * K22
        return (
            a1 * f1
            + a2 * f2
            + 0.5 * a1 * a1 * K11
            + 0.5 * a2 * a2 * K22
            + s * a1 * a2 * K12
        )

    def take_step(self, i1: int, i2: int) -> bool:
        if i1 == i2:
            return False
        a1_old, a2_old = self.alpha[i1], self.alpha[i2]
        y1, y2 = self.y[i1], self.y[i2]
        E1, E2 = self.errors[i1], self.errors[i2]
        s = y1 * y2
        if s < 0:
            L = max(0.0, a2_old - a1_old)
            H = min(self.C, self.C + a2_old - a1_old)
        else:
            L = max(0.0, a1_old + a2_old - self.C)
            H = min(self.C, a1_old + a2_old)
        if L >= H:
            return False
        K11, K22, K12 = self.K[i1, i1], self.K[i2, i2], self.K[i1, i2]
        eta = K11 + K22 - 2.0 * K12
        if eta > 0.0:
            a2 = a2_old + y2 * (E1 - E2) / eta
            a2 = min(max(a2, L), H)
        else:
            # Flat direction: the minimum sits at an interval end.
            l1 = a1_old + s * (a2_old - L)
            h1 = a1_old + s * (a2_old - H)
            l_obj = self._objective_at(i1, i2, l1, L)
            h_obj = self._objective_at(i1, i2, h1, H)
            if l_obj < h_obj - _STEP_EPS:
                a2 = L
            elif l_obj > h_obj + _STEP_EPS:
                a2 = H
            else:
                return False
        if abs(a2 - a2_old) < _STEP_EPS * (a2 + a2_old + _STEP_EPS):
            return False
        a1 = a1_old + s * (a2_old - a2)
        if a1 < 0.0:
            a2 += s * a1
            a1 = 0.0
        elif a1 > self.C:
            a2 += s * (a1 - self.C)
            a1 = self.C

        d1 = y1 * (a1 - a1_old)
        d2 = y2 * (a2 - a2_old)
        b1 = E1 + d1 * K11 + d2 * K12 + self.b
        b2 = E2 + d1 * K12 + d2 * K22 + self.b
        if 0.0 < a1 < self.C:
            b_new = b1
        elif 0.0 < a2 < self.C:
            b_new = b2
        else:
            b_new = 0.5 * (b1 + b2)

        self.errors += d1 * self.K[i1] + d2 * self.K[i2] - (b_new - self.b)
        self.alpha[i1] = a1
        self.alpha[i2] = a2
        self.b = b_new
        self.steps += 1
        return True

    def examine(self, i2: int) -> bool:
        y2, a2, E2 = self.y[i2], self.alpha[i2], self.errors[i2]
        r2 = E2 * y2
        if not ((r2 < -self.tol and a2 < self.C) or (r2 > self.tol and a2 > 0.0)):
            return False
        non_bound = np.flatnonzero((self.alpha > 0.0) & (self.alpha < self.C))
        if non_bound.size > 1:
            i1 = int(non_bound[np.argmax(np.abs(self.errors[non_bound] - E2))])
            if self.take_step(i1, i2):
                return True
        if non_bound.size:
            start = int(self.rng.integers(non_bound.size))
            for k in range(non_bound.size):
                if self.take_step(int(non_bound[(start + k) % non_bound.size]), i2):
                    return True
        start = int(self.rng.integers(self.n))
        for k in range(self.n):
            if self.take_step((start + k) % self.n, i2):
                return True
        return False


def _build_model(
    smo: _Smo, data: TrainingSet, cfg: TrainConfig, gamma: float | None
) -> SvmModel:
    alpha = smo.alpha.copy()
    alpha[alpha < _ALPHA_FLOOR] = 0.0
    sv = np.flatnonzero(alpha > 0.0)
    w = None
    if cfg.kernel == KERNEL_LINEAR:
        w = (alpha * data.y) @ data.x
        if not np.any(w != 0.0):
            raise NumericError("linear fit collapsed to a zero weight vector")
    return SvmModel(
        kernel=cfg.kernel,
        C=cfg.C,
        gamma=gamma,
        w=w,
        b=smo.b,
        support_x=data.x[sv],
        dual_coef=alpha[sv] * data.y[sv],
        support_vector_indices=tuple(int(i) for i in sv),
        tolerance=cfg.tolerance,
        rng_seed=cfg.rng_seed,
        n_train_rows=data.n,
    )


def train(data: TrainingSet, cfg: TrainConfig = TrainConfig()) -> SvmModel:
    """Fit the soft-margin dual to tolerance.

    Rows are expected in model space already (the pipeline normalizes
    before calling).  Raises SingleClassData when only one label is
    present and NonConvergence, carrying the best iterate, when the
    iteration budget runs out first.
    """
    if not data.has_both_labels:
        raise SingleClassData("training requires at least one row of each class")
    gamma = _resolve_gamma(cfg, data.x)
    budget = cfg.max_iterations if cfg.max_iterations is not None else 10 * data.n * 1000
    smo = _Smo(data, cfg, gamma)

    examined = 0
    num_changed = 0
    examine_all = True
    while num_changed > 0 or examine_all:
        num_changed = 0
        if examine_all:
            smo.refresh_errors()
            targets = list(range(smo.n))
        else:
            targets = [int(i) for i in
                       np.flatnonzero((smo.alpha > 0.0) & (smo.alpha < smo.C))]
        for i in targets:
            if examined >= budget:
                raise NonConvergence(
                    f"SMO used its budget of {budget} examinations before "
                    f"meeting tolerance {cfg.tolerance}",
                    partial_model=_build_model(smo, data, cfg, gamma),
                )
            examined += 1
            if smo.examine(i):
                num_changed += 1
        if examine_all:
            examine_all = False
        elif num_changed == 0:
            examine_all = True
    return _build_model(smo, data, cfg, gamma)


def margin(model: SvmModel) -> float:
    """Geometric margin 2/||w|| of a linear model."""
    if model.kernel != KERNEL_LINEAR:
        raise ValueError("margin is defined for the linear kernel only")
    norm = float(np.linalg.norm(model.w))
    if norm == 0.0:
        raise NumericError("zero weight vector has no margin")
    return 2.0 / norm


# --- persistence ------------------------------------------------------------
#
# Versioned plain-text key-value format, one record per line, closed by an
# "end" sentinel so truncation is always detectable.  Floats go through
# repr() and come back bit-for-bit.

MODEL_MAGIC = "shadowprune-model"
MODEL_VERSION = "v1"


def _fmt(v: float) -> str:
    return repr(float(v))


def serialize_model(model: SvmModel) -> str:
    lines = [f"{MODEL_MAGIC} {MODEL_VERSION}"]
    lines.append(f"kernel {model.kernel}")
    lines.append(f"C {_fmt(model.C)}")
    lines.append(f"tolerance {_fmt(model.tolerance)}")
    lines.append(f"rng_seed {model.rng_seed}")
    lines.append(f"n_train_rows {model.n_train_rows}")
    lines.append(f"b {_fmt(model.b)}")
    if model.kernel == KERNEL_LINEAR:
        lines.append("w " + " ".join(_fmt(v) for v in model.w))
    else:
        lines.append(f"gamma {_fmt(model.gamma)}")
    lines.append(
        ("support_vector_indices "
         + " ".join(str(i) for i in model.support_vector_indices)).rstrip()
    )
    lines.append(f"n_support {model.support_x.shape[0]}")
    lines.append(f"n_features {model.support_x.shape[1]}")
    for row, coef in zip(model.support_x, model.dual_coef):
        lines.append("sv " + " ".join(_fmt(v) for v in row) + " " + _fmt(coef))
    if model.normalizer is not None:
        lines.append("normalizer_mins " + " ".join(_fmt(v) for v in model.normalizer.mins))
        lines.append("normalizer_maxs " + " ".join(_fmt(v) for v in model.normalizer.maxs))
    if model.pool_factor is not None:
        lines.append(f"pool_factor {model.pool_factor}")
    if model.grid_edge is not None:
        lines.append(f"grid_edge {model.grid_edge}")
    lines.append("end")
    return "\n".join(lines) + "\n"


def deserialize_model(text: str) -> SvmModel:
    lines = [ln for ln in text.split("\n") if ln.strip()]
    if not lines:
        raise CorruptModel("empty model file")
    head = lines[0].split()
    if len(head) != 2 or head[0] != MODEL_MAGIC:
        raise CorruptModel(f"not a model file (first line {lines[0]!r})")
    if head[1] != MODEL_VERSION:
        raise SchemaVersionMismatch(
            f"model version {head[1]!r} not supported (expected {MODEL_VERSION})"
        )
    if lines[-1].strip() != "end":
        raise CorruptModel("model file is truncated (missing end sentinel)")

    fields: dict[str, str] = {}
    sv_lines: list[str] = []
    for ln in lines[1:-1]:
        key, _, rest = ln.partition(" ")
        if key == "sv":
            sv_lines.append(rest)
        elif key in fields:
            raise CorruptModel(f"duplicate field {key!r}")
        else:
            fields[key] = rest

    try:
        kernel = fields["kernel"]
        if kernel not in KERNELS:
            raise CorruptModel(f"unknown kernel {kernel!r}")
        n_support = int(fields["n_support"])
        n_features = int(fields["n_features"])
        if n_features < 1:
            raise CorruptModel(f"n_features {n_features} is not positive")
        if len(sv_lines) != n_support:
            raise CorruptModel(
                f"expected {n_support} support rows, found {len(sv_lines)}"
            )
        # Size the arrays from the parsed rows, never from the header.
        sv_rows = []
        for r, rest in enumerate(sv_lines):
            vals = [float(tok) for tok in rest.split()]
            if len(vals) != n_features + 1:
                raise CorruptModel(f"support row {r} has {len(vals)} values")
            sv_rows.append(vals)
        table = np.array(sv_rows, dtype=np.float64).reshape(n_support, n_features + 1)
        support = np.ascontiguousarray(table[:, :n_features])
        coefs = np.ascontiguousarray(table[:, n_features])
        w = None
        gamma = None
        if kernel == KERNEL_LINEAR:
            w = np.array([float(tok) for tok in fields["w"].split()])
            if w.shape != (n_features,):
                raise CorruptModel("weight vector length mismatch")
        else:
            gamma = float(fields["gamma"])
        normalizer = None
        if "normalizer_mins" in fields or "normalizer_maxs" in fields:
            mins = tuple(float(tok) for tok in fields["normalizer_mins"].split())
            maxs = tuple(float(tok) for tok in fields["normalizer_maxs"].split())
            normalizer = Normalizer(mins=mins, maxs=maxs)
        sv_idx = tuple(
            int(tok) for tok in fields.get("support_vector_indices", "").split()
        )
        return SvmModel(
            kernel=kernel,
            C=float(fields["C"]),
            gamma=gamma,
            w=w,
            b=float(fields["b"]),
            support_x=support,
            dual_coef=coefs,
            support_vector_indices=sv_idx,
            tolerance=float(fields["tolerance"]),
            rng_seed=int(fields["rng_seed"]),
            n_train_rows=int(fields["n_train_rows"]),
            normalizer=normalizer,
            pool_factor=int(fields["pool_factor"]) if "pool_factor" in fields else None,
            grid_edge=int(fields["grid_edge"]) if "grid_edge" in fields else None,
        )
    except CorruptModel:
        raise
    except (KeyError, ValueError) as exc:
        raise CorruptModel(f"unreadable model file: {exc}") from exc


def save_model(model: SvmModel, path: str | Path) -> None:
    try:
        Path(path).write_text(serialize_model(model), encoding="utf-8")
    except OSError as exc:
        raise IoError(f"cannot write model file {path}: {exc}") from exc


def load_model(path: str | Path) -> SvmModel:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise IoError(f"cannot read model file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise CorruptModel(f"model file {path} is not UTF-8 text: {exc}") from exc
    return deserialize_model(text)
