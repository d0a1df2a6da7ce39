"""Command-line surface: binarize, extract, train, predict, evaluate,
synth, plot.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric or
convergence error.  Every command is deterministic given its flags and
--seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .errors import DataError, InvalidConfig, NumericError, ShadowPruneError
from .features import GridConfig, fit_normalizer
from .fileio import csv_text, write_file
from .imgcore import save_pgm
from .pipeline import (
    SplitSpec,
    extract_dataset,
    ingest,
    read_features_csv,
    run_experiment,
    write_features_csv,
)
from .pooling import PoolConfig, binarize_pooled
from .plotting import write_svg
from .svm import (
    KERNELS,
    TrainConfig,
    TrainingSet,
    decision_label,
    decision_values,
    load_model,
    save_model,
    train,
)
from .synth import REGIME_GOOD, REGIME_POOR, default_config, generate_dataset

PREDICTIONS_FIELDS = ("tree_id", "photo_id", "prediction", "decision_value")


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad flags; the contract here is exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_pool_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--pool-factor", type=int, default=3, metavar="P",
                   help="patch edge for pooling (default 3)")
    p.add_argument("--no-pool", action="store_true",
                   help="skip the pooling stage (the same as --pool-factor 1)")


def _pool_cfg(args: argparse.Namespace) -> PoolConfig:
    return PoolConfig(1 if args.no_pool else args.pool_factor)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="shadowprune",
        description="Rate tree pruning from canopy shadow photos: "
        "threshold, extract features, train and evaluate SVMs.",
    )
    parser.add_argument("--seed", type=int, default=0,
                        help="seed of the evaluate split and of synth (default 0)")
    parser.add_argument("--verbose", "-v", action="store_true",
                        help="extra progress output on stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("binarize", help="threshold one image to black/white")
    p.add_argument("input", help="PGM/PPM image")
    p.add_argument("output", help="output PGM path")
    _add_pool_flags(p)
    p.add_argument("--plain", action="store_true",
                   help="write text P2 instead of raw P5")
    p.set_defaults(func=cmd_binarize)

    p = sub.add_parser("extract", help="manifest -> features CSV")
    p.add_argument("manifest", help="dataset manifest CSV")
    p.add_argument("output", help="features CSV path")
    _add_pool_flags(p)
    p.add_argument("--grid", type=int, default=100, metavar="EDGE",
                   help="counting grid edge before pooling (default 100)")
    p.add_argument("--per-tree", action="store_true",
                   help="one aggregated row per tree instead of per photo")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("train", help="features CSV -> model file")
    p.add_argument("features", help="features CSV (typically per-tree rows)")
    p.add_argument("output", help="model file path")
    p.add_argument("--kernel", choices=KERNELS, default="linear")
    p.add_argument("--c", type=float, default=1.0, metavar="C",
                   help="soft-margin penalty (default 1.0)")
    p.add_argument("--gamma", type=float, default=None,
                   help="RBF width (default: 1/(n_features*Var))")
    p.add_argument("--tol", type=float, default=1e-4,
                   help="solver stopping tolerance (default 1e-4)")
    p.add_argument("--max-iter", type=int, default=None,
                   help="solver step budget (default 10*n*1000)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="model + features CSV -> labels")
    p.add_argument("model", help="model file")
    p.add_argument("features", help="features CSV")
    p.add_argument("--output", help="predictions CSV (default: stdout)")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate",
                       help="manifest -> split, train, test accuracy report")
    p.add_argument("manifest", help="dataset manifest CSV")
    _add_pool_flags(p)
    p.add_argument("--grid", type=int, default=100, metavar="EDGE")
    p.add_argument("--kernel", choices=KERNELS + ("both",), default="both",
                   help="kernel(s) to fit (default both)")
    p.add_argument("--train-fraction", type=float, default=0.6)
    p.add_argument("--c", type=float, default=1.0, metavar="C")
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--report", help="also write the key-value report here")
    p.add_argument("--save-model", help="save the winning model here")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("synth", help="write a labeled synthetic dataset")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--trees", type=int, default=10)
    p.add_argument("--points", type=int, default=10,
                   help="sample points per tree (default 10)")
    p.add_argument("--image-size", type=int, default=200, metavar="EDGE")
    p.add_argument("--coverage-good", type=float, default=None,
                   help="shadow fraction for the well-pruned regime")
    p.add_argument("--coverage-poor", type=float, default=None,
                   help="shadow fraction for the poorly pruned regime")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("plot", help="features CSV + model -> SVG scatter")
    p.add_argument("features", help="features CSV")
    p.add_argument("model", help="model file")
    p.add_argument("output", help="SVG path")
    p.set_defaults(func=cmd_plot)

    return parser


def _note(args: argparse.Namespace, message: str) -> None:
    if args.verbose:
        print(message, file=sys.stderr)


def cmd_binarize(args: argparse.Namespace) -> int:
    binary, result = binarize_pooled(args.input, _pool_cfg(args))
    save_pgm(args.output, binary, raw=not args.plain)
    print(result.audit_line())
    _note(args, f"wrote {binary.height}x{binary.width} binary image to {args.output}")
    return 0


def cmd_extract(args: argparse.Namespace) -> int:
    pool_cfg = _pool_cfg(args)
    grid_cfg = GridConfig(args.grid)
    table, failures = extract_dataset(ingest(args.manifest), pool_cfg, grid_cfg)
    for tree_id, reason in failures:
        print(f"skipped tree {tree_id}: {reason}", file=sys.stderr)
    if not len(table):
        raise DataError("no tree could be extracted")
    if args.per_tree:
        table = table.per_tree()
    write_features_csv(args.output, table)
    print(f"wrote {len(table)} feature rows to {args.output}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    table = read_features_csv(args.features)
    nz = fit_normalizer(table.x)
    cfg = TrainConfig(
        kernel=args.kernel,
        C=args.c,
        gamma=args.gamma,
        tolerance=args.tol,
        max_iterations=args.max_iter,
    )
    tset = TrainingSet(nz.transform(table.x), table.y)
    model = train(tset, cfg).with_context(normalizer=nz)
    save_model(model, args.output)
    print(
        f"trained {args.kernel} model on {len(table)} rows "
        f"({len(model.support_vector_indices)} support vectors) -> {args.output}"
    )
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    table = read_features_csv(args.features)
    values = decision_values(model, table.x).tolist()
    rows = [(tree_id, photo_id, str(decision_label(v)), repr(v))
            for tree_id, photo_id, v in zip(table.tree_ids, table.photo_ids, values)]
    text = csv_text((PREDICTIONS_FIELDS, *rows), lineterminator="\n")
    if args.output:
        write_file(args.output, text, "predictions")
        print(f"wrote {len(table)} predictions to {args.output}")
    else:
        print(text, end="")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    pool_cfg = _pool_cfg(args)
    grid_cfg = GridConfig(args.grid)
    split_spec = SplitSpec(train_fraction=args.train_fraction, seed=args.seed)
    table, failures = extract_dataset(ingest(args.manifest), pool_cfg, grid_cfg)
    kernels = KERNELS if args.kernel == "both" else (args.kernel,)
    configs = [
        TrainConfig(kernel=k, C=args.c, tolerance=args.tol) for k in kernels
    ]
    result = run_experiment(
        table, configs, split_spec, pool_cfg, grid_cfg, failed_trees=failures
    )
    print(result.report.to_text(), end="")
    if args.report:
        write_file(args.report, result.report.to_kv(), "report")
        _note(args, f"wrote report to {args.report}")
    if args.save_model:
        best = result.report.best()
        if best is None:
            raise DataError("no model trained successfully; nothing to save")
        idx = next(
            i for i, e in enumerate(result.report.entries) if e is best
        )
        save_model(result.models[idx], args.save_model)
        _note(args, f"saved {best.kernel} model to {args.save_model}")
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    good = default_config(REGIME_GOOD)
    poor = default_config(REGIME_POOR)
    size = {"height": args.image_size, "width": args.image_size}
    good = dataclasses.replace(good, **size)
    poor = dataclasses.replace(poor, **size)
    if args.coverage_good is not None:
        good = dataclasses.replace(good, coverage=args.coverage_good)
    if args.coverage_poor is not None:
        poor = dataclasses.replace(poor, coverage=args.coverage_poor)
    manifest = generate_dataset(
        args.out,
        n_trees=args.trees,
        points_per_tree=args.points,
        good_cfg=good,
        poor_cfg=poor,
        seed=args.seed,
    )
    print(
        f"wrote {args.trees} trees x {args.points} points "
        f"({args.trees * args.points} images), manifest {manifest}"
    )
    return 0


def cmd_plot(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    write_svg(args.output, read_features_csv(args.features), model)
    print(f"wrote plot to {args.output}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.func(args)
    except (ShadowPruneError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, (InvalidConfig, ValueError)):
            return 1
        return 3 if isinstance(exc, NumericError) else 2


if __name__ == "__main__":
    raise SystemExit(main())
