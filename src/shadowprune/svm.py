"""Soft-margin SVM trained by sequential minimal optimization.

The decision surface follows the w·x − b = 0 convention, so the decision
function is f(x) = w·x − b for the linear kernel and
f(x) = sum_i alpha_i y_i K(x_i, x) − b for the RBF kernel.  Training
solves the dual by sequential minimal optimization: each step makes the
exact, clipped two-coefficient update on the pair that LIBSVM's
second-order working-set selection picks (Fan, Chen & Lin, JMLR 2005),
and training stops once the KKT gap is within the tolerance.  The
solver keeps its per-row state between steps and changes only what a
step's two rows change (see `_Smo`), which gives bit for bit the result
of rebuilding that state at every step.  It draws no random numbers, so
it is deterministic for fixed data and config.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    CorruptModel,
    DimensionMismatch,
    InvalidConfig,
    NonConvergence,
    NumericError,
    SchemaVersionMismatch,
    SingleClassData,
)
from .features import Normalizer
from .fileio import read_file, write_file

KERNEL_LINEAR = "linear"
KERNEL_RBF = "rbf"
KERNELS = (KERNEL_LINEAR, KERNEL_RBF)

DEFAULT_C = 1.0
DEFAULT_TOLERANCE = 1e-4

# Alphas below this times min(1, C) are treated as exactly zero after
# training.  Small enough that zeroing them moves sum(alpha*y) by well
# under 1e-6; scaled with a C below 1, where every alpha is at most C.
_ALPHA_FLOOR = 1e-12

# Curvature used for a pair whose kernel curvature is not positive.
_TAU = 1e-12


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
    def has_both_labels(self) -> bool:
        return bool(np.any(self.y > 0) and np.any(self.y < 0))


def _require_positive(obj, names: tuple[str, ...], error: type[Exception]) -> None:
    """`error` unless each named field is None or a finite number > 0."""
    for name in names:
        v = getattr(obj, name)
        if v is not None and not (math.isfinite(v) and v > 0):
            raise error(f"{name} must be finite and > 0, got {v}")


@dataclass(frozen=True)
class TrainConfig:
    """Solver knobs; gamma=None means 1 / (d * Var(X)) from the data."""

    kernel: str = KERNEL_LINEAR
    C: float = DEFAULT_C
    gamma: float | None = None
    tolerance: float = DEFAULT_TOLERANCE
    max_iterations: int | None = None

    def __post_init__(self):
        if self.kernel not in KERNELS:
            raise InvalidConfig(f"kernel must be one of {KERNELS}, got {self.kernel!r}")
        _require_positive(self, ("C", "gamma", "tolerance"), InvalidConfig)
        if self.max_iterations is not None and self.max_iterations < 1:
            raise InvalidConfig("max_iterations must be >= 1")


@dataclass(frozen=True)
class SvmModel:
    """Trained classifier plus everything needed to apply it alone.

    support_x / dual_coef hold the support rows (model space) and their
    alpha_i * y_i; the linear kernel additionally collapses them into w.
    The embedded normalizer, when present, maps raw features into model
    space before evaluation.  pool_factor / grid_edge document how the
    training features were produced.  train leaves these three None, and
    callers that know them set them with dataclasses.replace.
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
    n_train_rows: int
    normalizer: Normalizer | None = None
    pool_factor: int | None = None
    grid_edge: int | None = None

    def __post_init__(self):
        sx = np.asarray(self.support_x, dtype=np.float64)
        dc = np.asarray(self.dual_coef, dtype=np.float64)
        if sx.ndim != 2 or dc.shape != (sx.shape[0],):
            raise ValueError("support_x must be (m, d) with one dual coefficient per row")
        # ValueError, which deserialize_model reports as CorruptModel
        _require_positive(self, ("C", "gamma", "tolerance"), ValueError)
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
    # A huge feature value overflows the RBF square to inf; exp(-inf) = 0
    # is then the right kernel value, so that overflow is not reported.
    with np.errstate(over="ignore" if model.kernel == KERNEL_RBF else None):
        return np.array([_decide(model, row) for row in z], dtype=np.float64)


def decision_label(value: float) -> int:
    """Class of a decision value; the boundary itself (f = 0) counts as +1."""
    return 1 if value >= 0.0 else -1


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
    gamma = 1.0 / (x.shape[1] * var) if var > 0 else 1.0
    if not math.isfinite(gamma):
        raise NumericError(f"feature variance {var:.3g} is too small for a finite rbf gamma")
    return gamma


@dataclass(frozen=True)
class SolverStats:
    """Counters of one SMO run.

    steps: pair updates made; kkt_gap: the KKT gap when the run stopped;
    n_free: rows with 0 < alpha < C in the model built from the run.
    """

    steps: int
    kkt_gap: float
    n_free: int


class _Smo:
    """One training run; holds the mutable solver state between steps.

    Write v_t = y_t − g_t, g_t = sum_s alpha_s y_s K(x_s, x_t) being the
    decision value without the bias.  The KKT conditions hold for a bias
    b when −b >= v_t on the "up" rows, whose y_t·alpha_t can still grow,
    and −b <= v_t on the "low" rows, whose y_t·alpha_t can still shrink,
    so max v over the first set minus min v over the second is the KKT
    gap that training drives to within the tolerance.

    A step rebuilds none of its state; it keeps:

    - `v_up`, v on the up rows and −inf elsewhere, and `v_low`, v on the
      low rows and +inf elsewhere.  Every row is in one set or both, so
      v itself is not kept.  A step subtracts the same update from both
      arrays, and ±inf minus a finite number stays ±inf.  Only the step's
      rows i and j can change sets, so only their entries are reset.
    - the clipped curvature row of each i picked so far: at most n rows,
      as many as K itself has.
    - y and alpha as lists of Python floats, for the scalar work.

    Each kept value comes from the same IEEE-754 double operations, in
    the same order, as rebuilding the state from alpha at every step, so
    steps, alphas, KKT gap and model are bit for bit the same as that
    gives.  This holds while the updates stay finite, as they do unless
    a product of K and C overflows a double.
    """

    def __init__(self, data: TrainingSet, cfg: TrainConfig, gamma: float | None):
        self.C = cfg.C
        self.tol = cfg.tolerance
        self.K = _kernel_matrix(data.x, cfg.kernel, gamma)
        self.K_diag = np.diagonal(self.K).copy()
        self.y = data.y.tolist()
        self.alpha = [0.0] * data.n
        # alpha = 0 and so v = y; the up rows are those with y > 0, the low
        # rows the others.
        self.v_up = np.where(data.y > 0.0, data.y, -np.inf)
        self.v_low = np.where(data.y > 0.0, np.inf, data.y)
        self._curv: dict[int, np.ndarray] = {}
        self.kkt_gap = math.inf
        self.steps = 0

    def _place(self, k: int, v: float) -> None:
        """Enter v_k into v_up and v_low after row k's alpha changed."""
        a, C = self.alpha[k], self.C
        up, low = (a < C, a > 0.0) if self.y[k] > 0.0 else (a > 0.0, a < C)
        self.v_up[k] = v if up else -math.inf
        self.v_low[k] = v if low else math.inf

    def select_pair(self) -> tuple[int, int, float, float] | None:
        """(i, j, gap, curvature) of the next step, or None at tolerance.

        i is the row that violates KKT most; j, among the rows that form
        a violating pair with i, the one whose exact step lowers the dual
        objective most (LIBSVM's second-order rule).  Along the pair's
        feasible direction the objective falls at rate gap and curves by
        K_ii + K_jj − 2K_ij.  Records the KKT gap in `kkt_gap`.
        """
        i = int(self.v_up.argmax())
        gap = self.v_up[i] - self.v_low
        # gap's max, by argmax: it is the same value and a cheaper call.
        self.kkt_gap = float(gap[gap.argmax()])
        if self.kkt_gap <= self.tol:
            return None
        curv = self._curv.get(i)
        if curv is None:
            curv = self.K_diag[i] + self.K_diag - 2.0 * self.K[i]
            curv = self._curv[i] = np.where(curv > 0.0, curv, _TAU)
        j = int(np.where(gap > 0.0, gap * gap / curv, -1.0).argmax())
        return i, j, float(gap[j]), float(curv[j])

    def take_step(self, i: int, j: int, gap: float, curv: float) -> None:
        """Move y_i·alpha_i up and y_j·alpha_j down by the same t.

        This keeps sum(alpha·y) fixed; t is the exact minimizer gap/curv,
        cut where either coefficient reaches its bound.  A row whose room
        cut the step lands exactly on that bound; any other new alpha is
        clamped into [0, C], which rounding could leave.
        """
        yi, yj, C = self.y[i], self.y[j], self.C
        ai, aj = self.alpha[i], self.alpha[j]
        room_i = C - ai if yi > 0.0 else ai
        room_j = aj if yj > 0.0 else C - aj
        t = min(gap / curv, room_i, room_j)
        new_i = (C if yi > 0.0 else 0.0) if t == room_i else ai + yi * t
        new_j = (0.0 if yj > 0.0 else C) if t == room_j else aj - yj * t
        self.alpha[i] = new_i = 0.0 if new_i < 0.0 else C if new_i > C else new_i
        self.alpha[j] = new_j = 0.0 if new_j < 0.0 else C if new_j > C else new_j
        d = (yi * (new_i - ai)) * self.K[i] + (yj * (new_j - aj)) * self.K[j]
        self.v_up -= d
        self.v_low -= d
        # i was an up row and j a low row, so these entries hold their new v.
        vi, vj = float(self.v_up[i]), float(self.v_low[j])
        self._place(i, vi)
        self._place(j, vj)
        self.steps += 1

    def alphas(self) -> np.ndarray:
        return np.array(self.alpha)

    def bias(self) -> float:
        """b from KKT at the current alphas, by LIBSVM's rule.

        The mean of −v over the free rows, or, with none free, the middle
        of the interval that the rows at a bound leave open.  v is
        recomputed here, so the incremental updates leave no drift in b.
        """
        y, alpha, C = np.array(self.y), self.alphas(), self.C
        v = y - (alpha * y) @ self.K
        free = (alpha > 0.0) & (alpha < C)
        if free.any():
            return -float(np.mean(v[free]))
        up = np.where(y > 0.0, alpha < C, alpha > 0.0)
        low = np.where(y > 0.0, alpha > 0.0, alpha < C)
        return -0.5 * (float(v[up].max()) + float(v[low].min()))


def _build_model(
    smo: _Smo, data: TrainingSet, cfg: TrainConfig, gamma: float | None
) -> SvmModel:
    alpha = smo.alphas()
    alpha[alpha < _ALPHA_FLOOR * min(1.0, cfg.C)] = 0.0
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
        b=smo.bias(),
        support_x=data.x[sv],
        dual_coef=alpha[sv] * data.y[sv],
        support_vector_indices=tuple(int(i) for i in sv),
        tolerance=cfg.tolerance,
        n_train_rows=data.n,
    )


def train(data: TrainingSet, cfg: TrainConfig = TrainConfig()) -> SvmModel:
    """Fit the soft-margin dual until its KKT gap is within tolerance.

    Rows are expected in model space already (the pipeline normalizes
    before calling).  cfg.max_iterations caps the number of steps
    (default 10 * n * 1000).  Raises SingleClassData when only one label
    is present and NonConvergence, carrying the last iterate and its
    SolverStats, when the step budget runs out first.
    """
    if not data.has_both_labels:
        raise SingleClassData("training requires at least one row of each class")
    gamma = _resolve_gamma(cfg, data.x)
    budget = cfg.max_iterations if cfg.max_iterations is not None else 10 * data.n * 1000
    smo = _Smo(data, cfg, gamma)
    while (pair := smo.select_pair()) is not None:
        if smo.steps >= budget:
            partial = _build_model(smo, data, cfg, gamma)
            # every support row has alpha > 0
            n_free = int(np.count_nonzero(np.abs(partial.dual_coef) < cfg.C))
            raise NonConvergence(
                f"SMO used its budget of {budget} steps with KKT gap "
                f"{smo.kkt_gap:.3g} above tolerance {cfg.tolerance}",
                partial_model=partial,
                stats=SolverStats(smo.steps, smo.kkt_gap, n_free),
            )
        smo.take_step(*pair)
    return _build_model(smo, data, cfg, gamma)


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
    lines = [ln for ln in text.splitlines() if ln.strip()]
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
    write_file(path, serialize_model(model), "model file")


def load_model(path: str | Path) -> SvmModel:
    try:
        text = read_file(path, "model file").decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CorruptModel(f"model file {path} is not UTF-8 text: {exc}") from exc
    return deserialize_model(text)
