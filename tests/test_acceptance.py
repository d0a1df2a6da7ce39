"""Acceptance gate: the checks this package must pass before release.

One criterion per test, in a fixed order; each prints a single
"ACCEPTANCE nn <name>: PASS" (or FAIL) line, so running

    pytest tests/test_acceptance.py -v -s

reads as a checklist.  Tolerances are asserted exactly as stated in
the inline comments; reference values come from tests/oracles.py.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from shadowprune.features import uniformity
from shadowprune.imgcore import _gray_rows
from shadowprune.pipeline import (
    FeatureTable,
    SplitSpec,
    extract_dataset,
    ingest,
    run_experiment,
)
from shadowprune.svm import (
    TrainConfig,
    TrainingSet,
    decision_values,
    serialize_model,
    train,
)
from shadowprune.synth import generate_dataset
from shadowprune.threshold import otsu_threshold

from oracles import (
    gray_formula,
    hard_margin_oracle,
    intra_class_variance,
    max_pool_reference,
    otsu_exhaustive,
    two_pass_std,
)
from test_plotting import line_endpoints_data, render_svg, slope, toy_model, toy_rows
from test_pooling import max_pool


def verdict(num: int, name: str, problems: list[str], note: str = "") -> None:
    status = "PASS" if not problems else "FAIL"
    line = f"ACCEPTANCE {num:02d} {name}: {status}"
    if note:
        line += f" ({note})"
    print(line)
    assert not problems, line + " :: " + "; ".join(problems[:5])


def test_01_otsu_matches_exhaustive_oracle():
    # >= 200 random 16x16 images, integer-exact threshold match, < 5 s
    rng = np.random.default_rng(101)
    problems = []
    start = time.perf_counter()
    for i in range(200):
        px = rng.integers(0, 256, size=(16, 16), dtype=np.uint8)
        t = int(otsu_threshold(np.bincount(px.ravel(), minlength=256)[None]).threshold[0])
        t_ref, _ = otsu_exhaustive(np.bincount(px.ravel(), minlength=256))
        if t != t_ref:
            problems.append(f"image {i}: {t} != oracle {t_ref}")
    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        problems.append(f"runtime {elapsed:.2f}s, budget 5s")
    verdict(1, "otsu-exhaustive-oracle", problems)


def test_02_objective_duality():
    # 100 random histograms: between-class + within-class variance must
    # rebuild the global variance within 1e-9 at every two-sided
    # threshold, and the two optimizers must pick the same threshold.
    rng = np.random.default_rng(202)
    problems = []
    for i in range(100):
        counts = rng.integers(0, 30, size=256)
        counts[rng.random(256) < rng.uniform(0.3, 0.95)] = 0
        if np.count_nonzero(counts) < 2:
            counts[10], counts[200] = 5, 7
        result = otsu_threshold(counts[None])
        mu = float(np.sum(np.arange(256) * counts) / counts.sum())
        var_total = float(
            np.sum(counts * (np.arange(256) - mu) ** 2) / counts.sum()
        )
        nonzero = np.flatnonzero(counts)
        valid = range(int(nonzero[0]) + 1, int(nonzero[-1]) + 1)
        best_t = min(valid, key=lambda t: (intra_class_variance(counts, t), t))
        if best_t != result.threshold[0]:
            problems.append(
                f"hist {i}: argmin sigma_w {best_t} != argmax sigma_b "
                f"{result.threshold[0]}"
            )
        for t in valid:
            gap = abs(
                intra_class_variance(counts, t)
                + float(result.objective[0, t])
                - var_total
            )
            if gap > 1e-9:
                problems.append(f"hist {i} t={t}: duality gap {gap:.3e}")
                break
    verdict(2, "variance-duality", problems)


def test_03_grayscale_fidelity():
    # all 256 gray triples exact, then 1000 random RGB triples exact
    problems = []
    vals = np.arange(256, dtype=np.uint8)
    stack = np.repeat(vals, 3).reshape(256, 1, 3)
    gray = np.empty((256, 1), dtype=np.uint8)
    _gray_rows(stack, gray)
    if not np.array_equal(gray[:, 0], vals):
        problems.append("gray triples (v,v,v) must map to v")
    rng = np.random.default_rng(303)
    rgb = rng.integers(0, 256, size=(1000, 1, 3), dtype=np.uint8)
    got = np.empty((1000, 1), dtype=np.uint8)
    _gray_rows(rgb, got)
    got = got[:, 0]
    for i in range(1000):
        want = gray_formula(*(int(c) for c in rgb[i, 0]))
        if int(got[i]) != want:
            problems.append(f"triple {tuple(rgb[i, 0])}: {got[i]} != {want}")
    verdict(3, "grayscale-formula", problems)


def test_04_pooling_is_max_pool():
    # 500 random binary images across p in {1,2,3,5}: exact equivalence
    # with the reference max-pool and floored output sizes; p=3 cuts the
    # area to 1/9 on multiples of 3.
    rng = np.random.default_rng(404)
    problems = []
    factors = (1, 2, 3, 5)
    for i in range(500):
        p = factors[i % len(factors)]
        h = int(rng.integers(p, 6 * p + 5))
        w = int(rng.integers(p, 6 * p + 5))
        px = rng.choice([0, 255], size=(h, w)).astype(np.uint8)
        out = max_pool(px, p)
        if out.shape != (h // p, w // p):
            problems.append(f"image {i}: shape {out.shape}")
        if not np.array_equal(out, max_pool_reference(px, p)):
            problems.append(f"image {i}: patch rule diverges from max-pool")
    for m, n in ((3, 3), (9, 12), (30, 60)):
        px = rng.choice([0, 255], size=(m, n)).astype(np.uint8)
        out = max_pool(px, 3)
        if out.size * 9 != m * n:
            problems.append(f"{m}x{n}: area not 1/9")
    verdict(4, "pooling-max-pool", problems)


def test_05_uniformity_oracle():
    problems = []
    for const in ([7, 7, 7, 7], [0], [10000] * 9):
        if uniformity(const) != 0.0:
            problems.append(f"constant {const[:1]}x{len(const)} not exactly 0")
    if uniformity([0, 100, 0, 100]) != 50.0:
        problems.append("[0,100,0,100] must give exactly 50.0")
    rng = np.random.default_rng(505)
    for i in range(300):
        counts = rng.integers(0, 10001, size=int(rng.integers(1, 40))).tolist()
        got = uniformity(counts)
        want = two_pass_std(counts)
        scale = max(abs(want), 1.0)
        if abs(got - want) > 1e-9 * scale:
            problems.append(f"list {i}: {got!r} vs two-pass {want!r}")
    verdict(5, "uniformity-two-pass", problems)


def _separable_set(seed: int, n_cap: int = 50, gap: float = 0.1) -> TrainingSet:
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, n_cap + 1))
    theta = float(rng.uniform(0.0, 2.0 * np.pi))
    u = np.array([np.cos(theta), np.sin(theta)])
    v = np.array([-u[1], u[0]])
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    y[0], y[1] = 1.0, -1.0
    r = rng.uniform(-1.0, 1.0, n)
    t = rng.uniform(0.0, 0.8, n)
    offset = rng.uniform(-0.5, 0.5, 2)
    x = np.outer(r, v) + np.outer(y * (gap / 2.0 + t), u) + offset
    return TrainingSet(x, y)


def test_06_svm_against_hard_margin_oracle():
    # 50 seeded separable sets (<= 50 points), C = 1e6: margin within
    # 1e-4 relative of the enumeration oracle, KKT residuals within the
    # solver tolerance (1e-8 float slack) on every fit.
    cfg = TrainConfig(kernel="linear", C=1e6, tolerance=1e-6)
    problems = []
    for seed in range(50):
        data = _separable_set(seed)
        oracle = hard_margin_oracle(data.x, data.y)
        if oracle is None:
            problems.append(f"set {seed}: oracle found no separator")
            continue
        model = train(data, cfg)
        rel = abs(2 / np.linalg.norm(model.w) - oracle[2]) / oracle[2]
        if rel > 1e-4:
            problems.append(f"set {seed}: margin off by {rel:.2e} relative")
        alpha = np.zeros(data.n)
        for k, i in enumerate(model.support_vector_indices):
            alpha[i] = model.dual_coef[k] * data.y[i]
        values = decision_values(model, data.x)
        for i in range(data.n):
            yf = data.y[i] * values[i]
            if alpha[i] <= 1e-9:
                resid = max(0.0, 1.0 - yf)
            elif alpha[i] >= cfg.C * (1.0 - 1e-9):
                resid = max(0.0, yf - 1.0)
            else:
                resid = abs(yf - 1.0)
            if resid > cfg.tolerance + 1e-8:
                problems.append(f"set {seed} point {i}: KKT residual {resid:.2e}")
    verdict(6, "svm-hard-margin-oracle", problems)


@pytest.fixture(scope="module")
def synthetic_experiment(tmp_path_factory):
    """100 trees x 10 points, extracted and evaluated once, timed."""
    out = tmp_path_factory.mktemp("acceptance-data")
    start = time.perf_counter()
    manifest = generate_dataset(out, n_trees=100, points_per_tree=10, seed=0)
    table, failures = extract_dataset(ingest(manifest))
    assert failures == []
    report = run_experiment(
        table,
        [TrainConfig(kernel="linear"), TrainConfig(kernel="rbf")],
        SplitSpec(train_fraction=0.6, seed=0),
    )
    elapsed = time.perf_counter() - start
    return manifest, table, report, elapsed


def test_07_end_to_end_synthetic_run(synthetic_experiment):
    # 100 trees, 60/40 stratified split, linear accuracy >= 0.90, < 60 s
    _, _, report, elapsed = synthetic_experiment
    problems = []
    if (report.n_train, report.n_test) != (60, 40):
        problems.append(f"split {report.n_train}/{report.n_test}, wanted 60/40")
    by_kernel = {e.kernel: e for e in report.entries}
    linear = by_kernel.get("linear")
    if linear is None or linear.accuracy is None:
        problems.append("linear model missing from the report")
    elif linear.accuracy < 0.90:
        problems.append(f"linear accuracy {linear.accuracy:.3f} < 0.90")
    if "rbf" not in by_kernel:
        problems.append("rbf model missing from the report")
    if elapsed >= 60.0:
        problems.append(f"runtime {elapsed:.1f}s, budget 60s")
    note = f"linear {linear.accuracy:.3f}, {elapsed:.1f}s" if linear else ""
    verdict(7, "end-to-end-synthetic", problems, note)


def test_08_shuffled_label_null(synthetic_experiment):
    # No field-collected pruning dataset is publicly available, so
    # end-to-end accuracy cannot be compared against real-world
    # measurements here.  Checks 1-7 validate the pipeline on synthetic
    # data; this one adds a leakage guard: with labels shuffled, mean
    # test accuracy over 20 seeds must sit at chance, 0.5 +- 0.15.
    _, table, _, _ = synthetic_experiment
    trees = table.per_tree()
    accuracies = []
    for seed in range(20):
        rng = np.random.default_rng(800 + seed)
        shuffled = FeatureTable(trees.tree_ids, trees.photo_ids, trees.x,
                                rng.permutation(trees.y))
        report = run_experiment(
            shuffled,
            [TrainConfig(kernel="linear")],
            SplitSpec(train_fraction=0.6, seed=seed),
        )
        accuracies.append(report.entries[0].accuracy)
    mean = float(np.mean(accuracies))
    problems = []
    if not 0.35 <= mean <= 0.65:
        problems.append(f"null accuracy {mean:.3f} outside 0.5 +- 0.15")
    verdict(
        8,
        "shuffled-label-null",
        problems,
        f"mean {mean:.3f}; no public field dataset to compare against, "
        "substituted by checks 1-7 plus this chance-level null",
    )


def test_09_deterministic_reruns(synthetic_experiment, tmp_path):
    # repeating the end-to-end run must reproduce the report and the
    # model files byte for byte
    manifest, _, first, _ = synthetic_experiment
    table, _ = extract_dataset(ingest(manifest))
    second = run_experiment(
        table,
        [TrainConfig(kernel="linear"), TrainConfig(kernel="rbf")],
        SplitSpec(train_fraction=0.6, seed=0),
    )
    problems = []
    for tag, run in (("first", first), ("second", second)):
        (tmp_path / f"{tag}.kv").write_text(run.to_kv(), encoding="utf-8")
        for i, entry in enumerate(run.entries):
            (tmp_path / f"{tag}-{i}.model").write_text(
                serialize_model(entry.model), encoding="utf-8"
            )
    if (tmp_path / "first.kv").read_bytes() != (tmp_path / "second.kv").read_bytes():
        problems.append("evaluation reports differ between runs")
    for i in range(2):
        a = (tmp_path / f"first-{i}.model").read_bytes()
        b = (tmp_path / f"second-{i}.model").read_bytes()
        if a != b:
            problems.append(f"model file {i} differs between runs")
    verdict(9, "byte-identical-reruns", problems)


def test_10_plot_geometry():
    # toy-model SVG: boundary through (0.5, 0.5), margin lines parallel
    # (slope difference < 1e-9 in data coordinates)
    svg = render_svg(toy_rows(), toy_model())
    problems = []
    p1, p2 = line_endpoints_data(svg, "boundary")
    d = np.array(p2) - np.array(p1)
    to_center = np.array([0.5, 0.5]) - np.array(p1)
    dist = abs(d[0] * to_center[1] - d[1] * to_center[0]) / np.hypot(*d)
    if dist >= 1e-9:
        problems.append(f"boundary misses (0.5, 0.5) by {dist:.2e}")
    s0 = slope(*line_endpoints_data(svg, "boundary"))
    for line_id in ("margin-plus", "margin-minus"):
        s = slope(*line_endpoints_data(svg, line_id))
        if abs(s - s0) >= 1e-9:
            problems.append(f"{line_id} slope differs by {abs(s - s0):.2e}")
    verdict(10, "svg-boundary-geometry", problems)
