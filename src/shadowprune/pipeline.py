"""Dataset schema, feature extraction over trees, splitting, evaluation.

A dataset is a manifest CSV whose rows are sample-point photographs
taken under individual trees; rows group into per-tree records carrying
one expert pruning label each.  The records are the manifest only:
extraction turns them into a FeatureTable of one row per photo, and a
tree's row is the arithmetic mean of its photos' rows
(FeatureTable.per_tree).  Experiments split per-tree rows, fit the
normalizer on the training side only, train one model per requested
config on identical splits, and report accuracies side by side.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DegenerateHistogram,
    DuplicatePhotoId,
    InsufficientData,
    InvalidConfig,
    InvalidLabel,
    LabelConflict,
    MalformedFile,
    MissingImage,
    ShadowPruneError,
)
from .features import N_FEATURES, GridConfig, extract_features, fit_normalizer
from .fileio import csv_text, read_csv, write_file
from .pooling import PoolConfig, binarize_pooled
from .svm import (
    SvmModel,
    TrainConfig,
    TrainingSet,
    decision_label,
    decision_values,
    train,
)

MANIFEST_FIELDS = ("tree_id", "photo_id", "image_path", "label")
FEATURES_FIELDS = ("tree_id", "photo_id", "black_pixel_rate", "uniformity", "label")

_LABEL_MAP = {"1": 1, "+1": 1, "0": -1, "-1": -1}


@dataclass(frozen=True)
class SamplePoint:
    """One photograph taken at a point under a tree."""

    tree_id: str
    photo_id: str
    image_path: Path


@dataclass(frozen=True)
class TreeRecord:
    """All sample points of one tree plus its pruning label."""

    tree_id: str
    label: int
    points: tuple[SamplePoint, ...]

    def __post_init__(self):
        if self.label not in (-1, 1):
            raise ValueError(f"label must be -1 or +1, got {self.label}")
        if not self.points:
            raise ValueError(f"tree {self.tree_id} has no sample points")


@dataclass(frozen=True)
class SplitSpec:
    """Training fraction plus the shuffle seed."""

    train_fraction: float = 0.6
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise InvalidConfig(f"train fraction {self.train_fraction} outside (0, 1)")
        if np.any(np.asarray(self.seed) < 0):
            raise InvalidConfig(f"split seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class FeatureTable:
    """Feature rows with their ids and labels, the one form extracted features take.

    x is (n, 2), one row per photo or tree (see features); y holds the
    labels in {-1, +1}; photo_id is empty on per-tree rows.
    """

    tree_ids: tuple[str, ...]
    photo_ids: tuple[str, ...]
    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=np.float64)
        y = np.asarray(self.y, dtype=np.int64)
        if x.ndim != 2 or x.shape[1] != N_FEATURES:
            raise ValueError(f"feature rows must be (n, {N_FEATURES}), got {x.shape}")
        n = x.shape[0]
        if y.shape != (n,) or len(self.tree_ids) != n or len(self.photo_ids) != n:
            raise ValueError("one tree id, photo id and label per feature row required")
        if not np.all(np.isin(y, (-1, 1))):
            raise ValueError("labels must be -1 or +1")
        x.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "tree_ids", tuple(self.tree_ids))
        object.__setattr__(self, "photo_ids", tuple(self.photo_ids))
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    def __len__(self) -> int:
        return len(self.tree_ids)

    def take(self, rows: Sequence[int] | np.ndarray) -> FeatureTable:
        """The rows at these indices, in this order."""
        rows = np.asarray(rows, dtype=np.intp)
        return FeatureTable([self.tree_ids[i] for i in rows],
                            [self.photo_ids[i] for i in rows], self.x[rows], self.y[rows])

    def per_tree(self) -> FeatureTable:
        """One row per tree id, in first-seen order: the mean of its rows.

        A table that already has one row per tree comes back with the same
        values, since the mean of one row is that row.
        """
        groups: dict[str, list[int]] = {}
        for i, tree_id in enumerate(self.tree_ids):
            groups.setdefault(tree_id, []).append(i)
        x, y = [], []
        for tree_id, rows in groups.items():
            labels = self.y[rows]
            if np.any(labels != labels[0]):
                raise LabelConflict(f"tree {tree_id} has rows labeled both ways")
            x.append(self.x[rows].mean(axis=0))
            y.append(labels[0])
        return FeatureTable(list(groups), [""] * len(groups), np.reshape(x, (-1, N_FEATURES)), y)


def ingest(manifest_path: str | Path) -> list[TreeRecord]:
    """Read a manifest CSV into per-tree records.

    Relative image paths resolve against the manifest's directory.
    Labels accept 1/0 as well as +1/-1 and are stored as +-1.  Every
    referenced image must exist; (tree_id, photo_id) pairs must be
    unique; one tree must not carry two different labels.
    """
    rows = read_csv(manifest_path, MANIFEST_FIELDS, "manifest")
    base = Path(manifest_path).parent
    seen: set[tuple[str, str]] = set()
    labels: dict[str, int] = {}
    points: dict[str, list[SamplePoint]] = {}
    for lineno, (tree_id, photo_id, image_path, raw_label) in enumerate(rows, start=2):
        if raw_label not in _LABEL_MAP:
            raise InvalidLabel(
                f"manifest line {lineno}: label {raw_label!r} not in {{0, 1, -1, +1}}"
            )
        label = _LABEL_MAP[raw_label]
        key = (tree_id, photo_id)
        if key in seen:
            raise DuplicatePhotoId(f"duplicate (tree_id, photo_id) = {key}")
        seen.add(key)
        if tree_id in labels and labels[tree_id] != label:
            raise LabelConflict(f"tree {tree_id} labeled both ways in the manifest")
        labels[tree_id] = label
        resolved = Path(image_path)
        if not resolved.is_absolute():
            resolved = base / resolved
        if not os.path.isfile(resolved):  # Path.is_file raises on an overlong name
            raise MissingImage(f"manifest line {lineno}: no image at {resolved}")
        points.setdefault(tree_id, []).append(
            SamplePoint(tree_id=tree_id, photo_id=photo_id, image_path=resolved)
        )
    return [
        TreeRecord(tree_id=tid, label=labels[tid], points=tuple(pts))
        for tid, pts in points.items()
    ]


def effective_grid(grid: GridConfig, pool_cfg: PoolConfig) -> GridConfig:
    """Shrink the grid edge with the pooling factor.

    A pooled pixel stands for a p x p source patch, so dividing the
    edge by p keeps a grid covering the same physical extent.
    """
    return GridConfig(max(1, grid.grid_edge // pool_cfg.p))


def extract_point_features(
    point: SamplePoint, pool_cfg: PoolConfig, grid_cfg: GridConfig
) -> np.ndarray:
    """decode -> gray -> threshold -> pool -> features for one photo."""
    try:
        binary, _ = binarize_pooled(point.image_path, pool_cfg)
    except DegenerateHistogram as exc:
        raise DegenerateHistogram(f"{exc} (photo_id={point.photo_id})") from exc
    return extract_features(binary, effective_grid(grid_cfg, pool_cfg))


def extract_dataset(
    records: Iterable[TreeRecord],
    pool_cfg: PoolConfig = PoolConfig(),
    grid_cfg: GridConfig = GridConfig(),
) -> tuple[FeatureTable, list[tuple[str, str]]]:
    """One feature row per photo, for every tree whose photos all extract.

    Rows come tree by tree in record order, each under its tree's label.
    A failing image fails only its tree: the (tree_id, reason) pairs of
    the skipped trees come back beside the table, so reports can list
    them.  With no tree left, the table is empty.
    """
    tree_ids: list[str] = []
    photo_ids: list[str] = []
    x: list[np.ndarray] = []
    y: list[int] = []
    failures: list[tuple[str, str]] = []
    for rec in records:
        try:
            rows = [extract_point_features(p, pool_cfg, grid_cfg) for p in rec.points]
        except ShadowPruneError as exc:
            failures.append((rec.tree_id, str(exc)))
            continue
        tree_ids += [rec.tree_id] * len(rows)
        photo_ids += [p.photo_id for p in rec.points]
        x += rows
        y += [rec.label] * len(rows)
    return FeatureTable(tree_ids, photo_ids, np.reshape(x, (-1, N_FEATURES)), y), failures


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def split(table: FeatureTable, spec: SplitSpec) -> tuple[FeatureTable, FeatureTable]:
    """Stratified seeded split of the rows into (train, test), table order kept.

    The overall training size is round-half-up(fraction * n), allocated
    per class by largest remainder, then clamped so each class keeps at
    least one row on each side.  Needs >= 2 rows per class.
    """
    by_class = {c: np.flatnonzero(table.y == c) for c in (-1, 1)}
    if len(by_class[-1]) < 2 or len(by_class[1]) < 2:
        raise InsufficientData(
            "stratified split needs >= 2 records per class, got "
            f"{len(by_class[1])} good / {len(by_class[-1])} poor"
        )
    n = len(table)
    target = _round_half_up(spec.train_fraction * n)

    class_order = (-1, 1)
    quota = {c: spec.train_fraction * len(by_class[c]) for c in class_order}
    take = {c: math.floor(quota[c]) for c in class_order}
    deficit = target - sum(take.values())
    while deficit > 0:
        # hand out leftovers by largest fractional remainder
        c = max(class_order, key=lambda c: (quota[c] - take[c], c == -1))
        take[c] += 1
        deficit -= 1
    for c in class_order:
        take[c] = min(max(take[c], 1), len(by_class[c]) - 1)

    rng = np.random.default_rng(spec.seed)
    in_train = np.zeros(n, dtype=bool)
    for c in class_order:
        in_train[rng.permutation(by_class[c])[: take[c]]] = True
    return table.take(np.flatnonzero(in_train)), table.take(np.flatnonzero(~in_train))


@dataclass(frozen=True)
class ModelEval:
    """One trained config's test-set outcome (or its failure)."""

    kernel: str
    C: float
    gamma: float | None
    accuracy: float | None
    tp: int = 0
    tn: int = 0
    fp: int = 0
    fn: int = 0
    error: str | None = None


@dataclass(frozen=True)
class EvalReport:
    """Side-by-side accuracies with the configuration that produced them."""

    n_train: int
    n_test: int
    seed: int
    train_fraction: float
    pool_factor: int | None
    grid_edge: int
    entries: tuple[ModelEval, ...]
    failed_trees: tuple[tuple[str, str], ...] = ()

    def best(self) -> ModelEval | None:
        scored = [e for e in self.entries if e.accuracy is not None]
        if not scored:
            return None
        return max(scored, key=lambda e: e.accuracy)

    def to_text(self) -> str:
        pool_note = (
            f"pooling p={self.pool_factor}" if self.pool_factor else "pooling off"
        )
        lines = [
            "pruning evaluation report",
            f"trees: {self.n_train} train / {self.n_test} test "
            f"(fraction {self.train_fraction}, seed {self.seed})",
            f"{pool_note}, grid edge {self.grid_edge}",
        ]
        for e in self.entries:
            if e.error is not None:
                lines.append(f"{e.kernel}: FAILED ({e.error})")
            else:
                lines.append(
                    f"{e.kernel}: accuracy {e.accuracy:.3f} "
                    f"(tp {e.tp} tn {e.tn} fp {e.fp} fn {e.fn})"
                )
        best = self.best()
        if best is not None and len(self.entries) > 1:
            lines.append(f"winner: {best.kernel} ({best.accuracy:.3f})")
        for tree_id, reason in self.failed_trees:
            lines.append(f"skipped tree {tree_id}: {reason}")
        return "\n".join(lines) + "\n"

    def to_kv(self) -> str:
        lines = [
            "shadowprune-report v1",
            f"n_train {self.n_train}",
            f"n_test {self.n_test}",
            f"seed {self.seed}",
            f"train_fraction {self.train_fraction!r}",
            f"pool_factor {self.pool_factor if self.pool_factor else 0}",
            f"grid_edge {self.grid_edge}",
            f"n_models {len(self.entries)}",
        ]
        for i, e in enumerate(self.entries):
            prefix = f"model {i} kernel {e.kernel} C {e.C!r}"
            if e.gamma is not None:
                prefix += f" gamma {e.gamma!r}"
            if e.error is not None:
                lines.append(f"{prefix} error {e.error}")
            else:
                lines.append(
                    f"{prefix} accuracy {e.accuracy!r} "
                    f"tp {e.tp} tn {e.tn} fp {e.fp} fn {e.fn}"
                )
        for tree_id, reason in self.failed_trees:
            lines.append(f"failed {tree_id} {reason}")
        lines.append("end")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ExperimentResult:
    """Report plus the trained models and raw predictions on the test trees."""

    report: EvalReport
    models: tuple[SvmModel | None, ...]
    test: FeatureTable
    predictions: tuple[tuple[int, ...] | None, ...]


def run_experiment(
    table: FeatureTable,
    configs: Sequence[TrainConfig],
    split_spec: SplitSpec = SplitSpec(),
    pool_cfg: PoolConfig = PoolConfig(),
    grid_cfg: GridConfig = GridConfig(),
    failed_trees: Sequence[tuple[str, str]] = (),
) -> ExperimentResult:
    """Average per tree, split, normalize on train only, fit every config, score on test.

    The split is over per-tree rows (table.per_tree()), so the photos of
    one tree never land on both sides.  One config failing to train
    records its error in the report without aborting the others.
    pool_cfg/grid_cfg describe how the features were extracted and are
    stamped into the report and models (p = 1 as pooling off);
    failed_trees lists trees dropped upstream, for the report only.
    """
    train_rows, test = split(table.per_tree(), split_spec)
    nz = fit_normalizer(train_rows.x)
    tset = TrainingSet(nz.transform(train_rows.x), train_rows.y)
    labels = test.y.tolist()

    eff_edge = effective_grid(grid_cfg, pool_cfg).grid_edge
    pool_factor = pool_cfg.p if pool_cfg.p > 1 else None

    entries: list[ModelEval] = []
    models: list[SvmModel | None] = []
    predictions: list[tuple[int, ...] | None] = []
    for cfg in configs:
        try:
            model = train(tset, cfg).with_context(
                normalizer=nz, pool_factor=pool_factor, grid_edge=eff_edge
            )
        except ShadowPruneError as exc:
            entries.append(
                ModelEval(kernel=cfg.kernel, C=cfg.C, gamma=cfg.gamma,
                          accuracy=None, error=str(exc))
            )
            models.append(None)
            predictions.append(None)
            continue
        preds = tuple(decision_label(v) for v in decision_values(model, test.x).tolist())
        tp = sum(1 for p, y in zip(preds, labels) if p == 1 and y == 1)
        tn = sum(1 for p, y in zip(preds, labels) if p == -1 and y == -1)
        fp = sum(1 for p, y in zip(preds, labels) if p == 1 and y == -1)
        fn = sum(1 for p, y in zip(preds, labels) if p == -1 and y == 1)
        entries.append(
            ModelEval(
                kernel=cfg.kernel,
                C=cfg.C,
                gamma=model.gamma,
                accuracy=(tp + tn) / len(test),
                tp=tp,
                tn=tn,
                fp=fp,
                fn=fn,
            )
        )
        models.append(model)
        predictions.append(preds)

    report = EvalReport(
        n_train=len(train_rows),
        n_test=len(test),
        seed=split_spec.seed,
        train_fraction=split_spec.train_fraction,
        pool_factor=pool_factor,
        grid_edge=eff_edge,
        entries=tuple(entries),
        failed_trees=tuple(failed_trees),
    )
    return ExperimentResult(
        report=report,
        models=tuple(models),
        test=test,
        predictions=tuple(predictions),
    )


def write_features_csv(path: str | Path, table: FeatureTable) -> None:
    rows = [(tree_id, photo_id, repr(rate), repr(unif), str(label))
            for tree_id, photo_id, (rate, unif), label
            in zip(table.tree_ids, table.photo_ids, table.x.tolist(), table.y.tolist())]
    write_file(path, csv_text((FEATURES_FIELDS, *rows)), "features CSV")


def _feature_row(rate: str, unif: str) -> tuple[float, float]:
    """Parse and range-check one CSV row's features; ValueError if invalid."""
    r, u = float(rate), float(unif)
    if not (math.isfinite(r) and math.isfinite(u)):
        raise ValueError("features must be finite")
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"black_pixel_rate {r} outside [0, 1]")
    if u < 0.0:
        raise ValueError(f"uniformity {u} is negative")
    return r, u


def read_features_csv(path: str | Path) -> FeatureTable:
    rows = read_csv(path, FEATURES_FIELDS, "features CSV")
    tree_ids, photo_ids, x, y = [], [], [], []
    for lineno, (tree_id, photo_id, rate, unif, raw_label) in enumerate(rows, start=2):
        if raw_label not in _LABEL_MAP:
            raise InvalidLabel(f"features CSV line {lineno}: label {raw_label!r}")
        try:
            x.append(_feature_row(rate, unif))
        except ValueError as exc:
            raise MalformedFile(f"features CSV line {lineno}: {exc}") from exc
        tree_ids.append(tree_id)
        photo_ids.append(photo_id)
        y.append(_LABEL_MAP[raw_label])
    return FeatureTable(tree_ids, photo_ids, np.array(x), y)
