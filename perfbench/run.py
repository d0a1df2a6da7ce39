"""Fixed-work benchmark of the shadowprune CLI on one workload.

    python3 perfbench/run.py --workload orchard --seed 1 --seconds 30 --trace 0

Set-up writes the workload's photos and manifest from --seed.  A run
then makes `rounds` rounds of the same CLI calls in-process through
`shadowprune.cli.main` (extract, train and predict with each kernel,
evaluate), one `extract` in a fresh child process for peak memory, and
finally checks every output against computations made apart from the
program.  The number of rounds depends on --seconds and the workload
only, never on elapsed time, so every run does the same work.

The last line of stdout is one JSON object: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SOLVER_SEED = 0
SPLIT_SEED = 0
TRAIN_FRACTION = 0.6
KERNELS = ("linear", "rbf")
POOL_FLAGS = ("--pool-factor", str(checks.POOL_FACTOR), "--grid", str(checks.GRID_EDGE))
CHILD_TIMEOUT_S = 150


def metric_units(trace: bool) -> dict[str, str]:
    """Name -> unit of the metrics a run prints, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def seconds_since_process_start() -> float:
    """Wall time since this process started, from its /proc start tick."""
    with open("/proc/self/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    start = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start


def import_program():
    """The checkout's own shadowprune, or None when src/ does not hold it."""
    sys.path.insert(0, str(SRC))
    try:
        import shadowprune.cli
    except ImportError:
        return None
    if Path(shadowprune.cli.__file__).resolve().parent.parent != SRC:
        return None
    return shadowprune.cli


def calls(manifest: Path, out: Path, svm_repeats: int
          ) -> list[tuple[str, list[str], list[Path]]]:
    """One round: (metric key, argv, output files), interleaving the commands."""
    photos = out / "photos.csv"
    svm = []
    for kernel in KERNELS * svm_repeats:
        model, preds = out / f"{kernel}.model", out / f"pred_{kernel}.csv"
        svm += [
            (f"train_{kernel}", ["--seed", str(SOLVER_SEED), "train", "--kernel", kernel,
                                 str(photos), str(model)], [model]),
            (f"predict_{kernel}", ["predict", str(model), str(photos),
                                   "--output", str(preds)], [preds]),
        ]
    report = out / "report.kv"
    evaluate = ("evaluate", ["--seed", str(SPLIT_SEED), "evaluate", str(manifest),
                             *POOL_FLAGS, "--kernel", "both",
                             "--train-fraction", str(TRAIN_FRACTION),
                             "--report", str(report)], [report])
    extract = ("extract", ["extract", str(manifest), str(photos), *POOL_FLAGS], [photos])
    return [extract, *svm, evaluate, *svm]


def run_call(cli, argv: list[str]) -> tuple[float, int, str]:
    """(seconds, exit code, stderr) of one in-process CLI call."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:  # an escaped exception is a failed operation
            code = -1
            traceback.print_exc(file=err)
        elapsed = time.perf_counter() - start
    return elapsed, code, err.getvalue()


def digest(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.read_bytes() if p.is_file() else b"<missing>")
    return h.hexdigest()


def child_peak_rss_mb(manifest: Path, out: Path) -> tuple[float | None, str]:
    """Peak RSS of one `extract` of the manifest in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    code = "import sys\nfrom shadowprune.cli import main\nsys.exit(main(sys.argv[1:]))"
    argv = [sys.executable, "-c", code, "extract", str(manifest),
            str(out / "photos_child.csv"), *POOL_FLAGS]
    with open(out / "child.err", "wb") as err:
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=err)
        try:
            rc = proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return None, "child extract timed out"
    if rc != 0:
        return None, f"child extract exited {rc}: {(out / 'child.err').read_text()[-500:]}"
    # The child is the only process this benchmark starts and waits for.
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, ""


def run_checks(workload, out: Path) -> tuple[list[str], dict[str, int]]:
    """Every output against the reference computations; also n_support per kernel.

    Raises OSError, ValueError, KeyError or IndexError on an unreadable file.
    """
    import numpy as np

    problems: list[str] = []
    expected = {}
    for photo in workload.photos:
        path = workload.root / photo.rel_path
        px = checks.read_netpbm(path.read_bytes())
        found = checks.check_pixels(px, photo.sha256, photo.shape)
        problems += [f"{path}: {p}" for p in found]
        if not found:
            rate, unif = checks.reference_features(px)
            label = 1 if photo.label else -1
            expected[(photo.tree_id, photo.photo_id)] = (rate, unif, label)
    rows = checks.read_features((out / "photos.csv").read_text(encoding="utf-8"))
    problems += checks.check_features(rows, expected)
    if (out / "photos_child.csv").read_bytes() != (out / "photos.csv").read_bytes():
        problems.append("child extract wrote a different features CSV")
    raw = np.array([[r[2], r[3]] for r in rows], dtype=np.float64)
    y = np.array([r[4] for r in rows], dtype=np.float64)
    n_support = {}
    for kernel in KERNELS:
        model = checks.parse_model((out / f"{kernel}.model").read_text(encoding="utf-8"))
        n_support[kernel] = model["n_support"]
        problems += [f"{kernel} model: {p}" for p in checks.check_model(model, raw, y)]
        pred = (out / f"pred_{kernel}.csv").read_text(encoding="utf-8")
        problems += [f"{kernel} predict: {p}"
                     for p in checks.check_predictions(pred, model, rows)]
    labels = {p.tree_id: 1 if p.label else -1 for p in workload.photos}
    report = (out / "report.kv").read_text(encoding="utf-8")
    problems += [f"report: {p}" for p in checks.check_report(report, labels, TRAIN_FRACTION)]
    return problems, n_support


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = import_program()
    if cli is None:
        print(f"error: no shadowprune package under {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: workload must be one of {workloads.WORKLOADS}", file=sys.stderr)
        return 2
    work = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    out = work / "out"
    out.mkdir(parents=True)
    try:
        return measure(args, cli, tracing, workloads, work, out)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            (HERE / "_work").rmdir()


def measure(args, cli, tracing, workloads, work: Path, out: Path) -> int:
    setup_tracer = tracing.Tracer()
    if args.trace:
        setup_tracer.install()
    workload = workloads.build(args.workload, args.seed, work / "inputs")
    setup_s = seconds_since_process_start()
    setup_tracer.uninstall()

    attempted = failed = 0
    rss_mb, err = child_peak_rss_mb(workload.manifest, out)
    attempted += 1
    if rss_mb is None:
        failed += 1
        print(err, file=sys.stderr)

    rounds = max(2, round(args.seconds / workload.spec.round_seconds))
    tracer = tracing.Tracer()
    times: dict[str, list[float]] = {}
    round_times: dict[bool, list[float]] = {False: [], True: []}
    digests: dict[str, str] = {}
    problems: list[str] = []
    for r in range(rounds):
        traced = bool(args.trace) and r % 2 == 1
        if traced:
            tracer.install()
        round_s = 0.0
        for key, call_argv, outputs in calls(workload.manifest, out,
                                             workload.spec.svm_repeats):
            elapsed, code, err = run_call(cli, call_argv)
            attempted += 1
            round_s += elapsed
            if code != 0:
                failed += 1
                print(f"{key} exited {code}: {err[-500:]}", file=sys.stderr)
                continue
            times.setdefault(key, []).append(elapsed)
            found = digest(outputs)
            if digests.setdefault(key, found) != found:
                problems.append(f"{key} output differs between rounds")
        tracer.uninstall()
        round_times[traced].append(round_s)

    n_support: dict[str, int] = {}
    if failed:
        problems.append(f"outputs not checked: {failed} operations failed")
    else:
        try:
            found, n_support = run_checks(workload, out)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            found = [f"unreadable output: {exc!r}"]
        problems += found
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)

    units = metric_units(bool(args.trace))
    if args.trace:
        metrics = per_layer(units, setup_tracer, tracer, len(round_times[True]), n_support,
                            min(round_times[True]) - min(round_times[False]))
    else:
        metrics = end_to_end(workload, times, setup_s, rss_mb)
    complete = all(name in metrics for name in units)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }))
    return 0 if complete else 1


def end_to_end(workload, times, setup_s, rss_mb) -> dict[str, float]:
    """Each call's minimum over the rounds; see README.md for why."""
    best = {key: min(ts) for key, ts in times.items()}
    metrics = {"setup_s": setup_s}
    if rss_mb is not None:
        metrics["peak_rss_mb"] = rss_mb
    if "extract" in best:
        metrics["extract_mpix_per_s"] = workload.megapixels / best["extract"]
    for key in ("evaluate", "train_linear", "train_rbf"):
        if key in best:
            metrics[f"{key}_s"] = best[key]
    if "predict_linear" in best and "predict_rbf" in best:
        rows = len(KERNELS) * len(workload.photos)
        metrics["predict_rows_per_s"] = rows / (best["predict_linear"] + best["predict_rbf"])
    return metrics


def per_layer(names, setup_tracer, tracer, traced_rounds, n_support,
              overhead_s) -> dict[str, float]:
    """Per traced round, except synth.* which is the traced set-up."""
    metrics = {
        "imgcore.mpix_decoded": tracer.counts["imgcore.mpix_decoded"] / traced_rounds,
        "imgcore.to_gray_peak_mb": tracer.to_gray_peak_mb,
        "trace.overhead_s": overhead_s,
        **{f"svm.n_support_{kernel}": n for kernel, n in n_support.items()},
    }
    for name in names:
        if name in metrics:
            continue
        source, per = ((setup_tracer, 1) if name.startswith("synth.")
                       else (tracer, traced_rounds))
        if name.endswith("_calls"):
            metrics[name] = source.counts[name] / per
        elif name.endswith("_s"):
            metrics[name] = source.seconds[name[:-2]] / per
    return metrics


if __name__ == "__main__":
    sys.exit(main())
