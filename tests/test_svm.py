"""SMO solver: toy geometries, oracle agreement, KKT, the kept solver
state checked against a loop that rebuilds it, persistence."""

from __future__ import annotations

import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shadowprune import svm
from shadowprune.errors import (
    CorruptModel,
    DimensionMismatch,
    InvalidConfig,
    IoError,
    NonConvergence,
    NumericError,
    SchemaVersionMismatch,
    ShadowPruneError,
    SingleClassData,
)
from shadowprune.features import Normalizer
from shadowprune.svm import (
    SolverStats,
    SvmModel,
    TrainConfig,
    TrainingSet,
    decision_value,
    decision_values,
    deserialize_model,
    load_model,
    margin,
    predict,
    save_model,
    serialize_model,
    train,
)

from oracles import hard_margin_oracle

HARD = TrainConfig(kernel="linear", C=1e6, tolerance=1e-6)


def two_point_set() -> TrainingSet:
    return TrainingSet(np.array([[0.0, 0.0], [1.0, 1.0]]), np.array([-1.0, 1.0]))


def four_point_set() -> TrainingSet:
    return TrainingSet(
        np.array([[0.0, 0.0], [0.0, 1.0], [2.0, 0.0], [2.0, 1.0]]),
        np.array([-1.0, -1.0, 1.0, 1.0]),
    )


def separable_set(seed: int, n_cap: int = 50, gap: float = 0.1) -> TrainingSet:
    """Random set separable with functional margin >= gap by construction."""
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


def margin_rows(model: SvmModel, data: TrainingSet) -> list[int]:
    """Rows on or inside the margin: y·f(x) <= 1 + tolerance."""
    yf = data.y * decision_values(model, data.x)
    return np.flatnonzero(yf <= 1.0 + model.tolerance).tolist()


def alphas_of(model: SvmModel, data: TrainingSet) -> np.ndarray:
    full = np.zeros(data.n)
    for k, i in enumerate(model.support_vector_indices):
        full[i] = model.dual_coef[k] * data.y[i]
    return full


class TestToyGeometry:
    def test_two_point_bisector(self):
        m = train(two_point_set(), HARD)
        w = m.w / np.linalg.norm(m.w)
        assert w == pytest.approx([np.sqrt(0.5), np.sqrt(0.5)], abs=1e-6)
        assert decision_value(m, [0.5, 0.5]) == pytest.approx(0.0, abs=1e-9)
        assert margin(m) == pytest.approx(np.sqrt(2.0), rel=1e-6)

    def test_four_point_axis_aligned(self):
        m = train(four_point_set(), HARD)
        assert m.w[1] == pytest.approx(0.0, abs=1e-6)
        # boundary at x1 = 1: f(1, anything) = 0
        assert decision_value(m, [1.0, 0.3]) == pytest.approx(0.0, abs=1e-6)
        assert margin(m) == pytest.approx(2.0, rel=1e-6)

    def test_two_point_predictions(self):
        m = train(two_point_set(), HARD)
        assert predict(m, [0.0, 0.0]) == -1
        assert predict(m, [1.0, 1.0]) == 1
        # exactly on the boundary: documented sign(0) = +1 rule
        assert predict(m, [0.5, 0.5]) == 1

    def test_two_point_support_vectors(self):
        data = two_point_set()
        assert margin_rows(train(data, HARD), data) == [0, 1]

    def test_four_point_all_support(self):
        data = four_point_set()
        assert margin_rows(train(data, HARD), data) == [0, 1, 2, 3]

    def test_support_vector_decision_is_unit(self):
        data = four_point_set()
        m = train(data, HARD)
        for i in range(data.n):
            assert abs(decision_value(m, data.x[i])) == pytest.approx(1.0, abs=1e-4)

    def test_single_class_rejected(self):
        data = TrainingSet(np.array([[0.0, 0.0], [1.0, 1.0]]), np.array([1.0, 1.0]))
        with pytest.raises(SingleClassData):
            train(data, HARD)


class TestOracleAgreement:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_margin_matches_subset_oracle(self, seed):
        data = separable_set(seed, n_cap=40)
        oracle = hard_margin_oracle(data.x, data.y)
        assert oracle is not None
        m = train(data, HARD)
        assert margin(m) == pytest.approx(oracle[2], rel=1e-4)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    @example(6438)
    def test_oracle_support_vectors_are_found(self, seed):
        data = separable_set(seed, n_cap=30)
        oracle = hard_margin_oracle(data.x, data.y)
        m = train(data, HARD)
        found = set(margin_rows(m, data))
        w, b, _ = oracle
        slack = data.y * (data.x @ w - b)
        for i in np.flatnonzero(slack <= 1.0 + 1e-6):
            assert int(i) in found


class TestKktAndDual:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([0.5, 1.0, 10.0]))
    @example(16355, 0.5)
    @example(1771, 0.5)
    @example(14476, 1.0)
    @example(88868, 0.5)
    @example(1165671, 0.5)
    @example(68119705, 10.0)
    def test_kkt_residuals_within_tolerance(self, seed, c):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 30))
        x = rng.normal(size=(n, 2))
        y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        y[0], y[1] = 1.0, -1.0
        cfg = TrainConfig(kernel="linear", C=c, tolerance=1e-4)
        model = train(TrainingSet(x, y), cfg)
        data = TrainingSet(x, y)
        alpha = alphas_of(model, data)
        slack = 1e-9 + 1e-6 * c
        for i in range(n):
            yf = y[i] * decision_value(model, x[i])
            if alpha[i] <= slack:
                assert yf >= 1.0 - cfg.tolerance - 1e-7
            elif alpha[i] >= c - slack:
                assert yf <= 1.0 + cfg.tolerance + 1e-7
            else:
                assert yf == pytest.approx(1.0, abs=cfg.tolerance + 1e-7)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(["linear", "rbf"]))
    def test_dual_feasibility(self, seed, kernel):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(6, 25))
        x = rng.normal(size=(n, 2))
        y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        y[0], y[1] = 1.0, -1.0
        c = 2.5
        model = train(TrainingSet(x, y), TrainConfig(kernel=kernel, C=c))
        data = TrainingSet(x, y)
        alpha = alphas_of(model, data)
        assert np.all(alpha >= 0.0)
        assert np.all(alpha <= c + 1e-9)
        # dual_coef holds alpha_i * y_i, so its sum is sum(alpha*y)
        assert abs(float(model.dual_coef.sum())) < 1e-6


class TestSymmetries:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_label_flip_antisymmetry(self, seed):
        data = separable_set(seed, n_cap=25)
        flipped = TrainingSet(data.x, -data.y)
        m1 = train(data, TrainConfig(kernel="linear", C=5.0))
        m2 = train(flipped, TrainConfig(kernel="linear", C=5.0))
        probes = np.random.default_rng(seed + 1).normal(size=(20, 2))
        for p in probes:
            assert predict(m1, p) == -predict(m2, p)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(["linear", "rbf"]))
    @example(16355, "linear")
    @example(11262, "linear")
    @example(4696, "linear")
    def test_feature_swap_equivariance(self, seed, kernel):
        data = separable_set(seed, n_cap=25)
        swapped = TrainingSet(data.x[:, ::-1], data.y)
        cfg = TrainConfig(kernel=kernel, C=3.0, tolerance=1e-6)
        m1 = train(data, cfg)
        m2 = train(swapped, cfg)
        probes = np.random.default_rng(seed + 9).normal(size=(20, 2))
        for p in probes:
            assert decision_value(m1, p) == pytest.approx(
                decision_value(m2, p[::-1]), abs=1e-4
            )

    def test_doubling_c_keeps_separable_signs(self):
        data = separable_set(77)
        m1 = train(data, TrainConfig(kernel="linear", C=100.0))
        m2 = train(data, TrainConfig(kernel="linear", C=200.0))
        for i in range(data.n):
            s1 = np.sign(decision_value(m1, data.x[i]))
            s2 = np.sign(decision_value(m2, data.x[i]))
            assert s1 == s2

    def test_rbf_small_gamma_approaches_linear(self):
        # flat-kernel limit: rescale C by 1/gamma so the fit stays expressive
        rng = np.random.default_rng(42)
        u = np.array([np.cos(0.7), np.sin(0.7)])
        v = np.array([-u[1], u[0]])
        n = 30
        y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        y[0], y[1] = 1.0, -1.0
        x = np.outer(rng.uniform(-1, 1, n), v)
        x += np.outer(y * (0.05 + rng.uniform(0, 0.8, n)), u)
        x -= x.mean(axis=0)
        data = TrainingSet(x, y)
        lin = train(data, TrainConfig(kernel="linear", C=10.0))
        rbf = train(data, TrainConfig(kernel="rbf", C=1e3, gamma=1e-2))
        agree = sum(predict(lin, x[i]) == predict(rbf, x[i]) for i in range(n))
        assert agree / n >= 0.95


class TestDeterminism:
    def test_identical_bytes_across_runs(self):
        data = separable_set(1234)
        cfg = TrainConfig(kernel="linear", C=2.0)
        assert serialize_model(train(data, cfg)) == serialize_model(train(data, cfg))

    def test_rbf_identical_bytes(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(18, 2))
        y = np.where(rng.random(18) < 0.5, 1.0, -1.0)
        y[0], y[1] = 1.0, -1.0
        data = TrainingSet(x, y)
        cfg = TrainConfig(kernel="rbf", C=1.0)
        assert serialize_model(train(data, cfg)) == serialize_model(train(data, cfg))


class TestConvergenceBudget:
    def test_budget_exhaustion_raises_with_partial_model(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(30, 2))
        y = np.where(rng.random(30) < 0.5, 1.0, -1.0)  # noisy labels
        y[0], y[1] = 1.0, -1.0
        cfg = TrainConfig(kernel="linear", C=1e6, max_iterations=10)
        with pytest.raises(NonConvergence) as err:
            train(TrainingSet(x, y), cfg)
        assert isinstance(err.value.partial_model, SvmModel)

    @pytest.mark.parametrize("kernel,c,budget", [
        ("linear", 1e6, 10), ("linear", 0.05, 10), ("rbf", 10.0, 20), ("rbf", 1e6, 1),
    ])
    def test_stats_of_a_capped_run(self, kernel, c, budget):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(30, 2))
        y = np.where(rng.random(30) < 0.5, 1.0, -1.0)
        y[0], y[1] = 1.0, -1.0
        cfg = TrainConfig(kernel=kernel, C=c, max_iterations=budget)
        with pytest.raises(NonConvergence) as err:
            train(TrainingSet(x, y), cfg)
        stats, partial = err.value.stats, err.value.partial_model
        assert isinstance(stats, SolverStats)
        assert stats.steps == budget
        assert stats.kkt_gap > cfg.tolerance
        coef = np.abs(partial.dual_coef)
        assert stats.n_free == int(np.count_nonzero((coef > 0.0) & (coef < c)))
        # the counters stay out of the message and the model file
        assert str(err.value) == (f"SMO used its budget of {budget} steps with KKT gap "
                                  f"{stats.kkt_gap:.3g} above tolerance {cfg.tolerance}")
        assert not any(ln.split(" ", 1)[0] in ("steps", "kkt_gap", "n_free")
                       for ln in serialize_model(partial).splitlines())

    def test_stats_are_frozen(self):
        stats = SolverStats(steps=3, kkt_gap=0.5, n_free=1)
        with pytest.raises(AttributeError):
            stats.steps = 4


class ReferenceSmo:
    """The solver as it was before it kept its state between steps.

    Every step rebuilds the _up/_low masks, v over each set and the
    clipped curvature row from alpha and v, in numpy scalars.  It offers
    the `alphas()` and `bias()` that svm._build_model reads.
    """

    def __init__(self, data, cfg, gamma):
        self.y = data.y
        self.C = cfg.C
        self.tol = cfg.tolerance
        self.K = svm._kernel_matrix(data.x, cfg.kernel, gamma)
        self.K_diag = np.diagonal(self.K).copy()
        self.alpha = np.zeros(data.n)
        self.v = self.y.copy()
        self.kkt_gap = math.inf
        self.steps = 0

    def _up(self):
        return np.where(self.y > 0.0, self.alpha < self.C, self.alpha > 0.0)

    def _low(self):
        return np.where(self.y > 0.0, self.alpha > 0.0, self.alpha < self.C)

    def _snap(self, a):
        if a < svm._BOUND_EPS * self.C:
            return 0.0
        if a > (1.0 - svm._BOUND_EPS) * self.C:
            return self.C
        return a

    def select_pair(self):
        v_up = np.where(self._up(), self.v, -np.inf)
        i = int(np.argmax(v_up))
        gap = v_up[i] - np.where(self._low(), self.v, np.inf)
        self.kkt_gap = float(gap.max())
        if self.kkt_gap <= self.tol:
            return None
        curv = self.K_diag[i] + self.K_diag - 2.0 * self.K[i]
        curv = np.where(curv > 0.0, curv, svm._TAU)
        j = int(np.argmax(np.where(gap > 0.0, gap * gap / curv, -1.0)))
        return i, j, float(gap[j]), float(curv[j])

    def take_step(self, i, j, gap, curv):
        yi, yj = self.y[i], self.y[j]
        ai, aj = self.alpha[i], self.alpha[j]
        room_i = self.C - ai if yi > 0.0 else ai
        room_j = aj if yj > 0.0 else self.C - aj
        t = min(gap / curv, room_i, room_j)
        self.alpha[i] = self._snap(ai + yi * t)
        self.alpha[j] = self._snap(aj - yj * t)
        self.v -= (yi * (self.alpha[i] - ai)) * self.K[i] \
            + (yj * (self.alpha[j] - aj)) * self.K[j]
        self.steps += 1

    def alphas(self):
        return self.alpha.copy()

    def bias(self):
        v = self.y - (self.alpha * self.y) @ self.K
        free = (self.alpha > 0.0) & (self.alpha < self.C)
        if free.any():
            return -float(np.mean(v[free]))
        return -0.5 * (float(v[self._up()].max()) + float(v[self._low()].min()))


def reference_train(data, cfg):
    """(model, steps, kkt_gap) of train's loop on ReferenceSmo.

    A budget that runs out raises NonConvergence with train's message,
    the partial model and SolverStats, n_free counted from the alphas.
    """
    gamma = svm._resolve_gamma(cfg, data.x)
    budget = cfg.max_iterations if cfg.max_iterations is not None else 10 * data.n * 1000
    smo = ReferenceSmo(data, cfg, gamma)
    while (pair := smo.select_pair()) is not None:
        if smo.steps >= budget:
            alpha = np.where(smo.alpha < svm._ALPHA_FLOOR, 0.0, smo.alpha)
            n_free = int(np.count_nonzero((alpha > 0.0) & (alpha < cfg.C)))
            raise NonConvergence(
                f"SMO used its budget of {budget} steps with KKT gap "
                f"{smo.kkt_gap:.3g} above tolerance {cfg.tolerance}",
                partial_model=svm._build_model(smo, data, cfg, gamma),
                stats=SolverStats(smo.steps, smo.kkt_gap, n_free),
            )
        smo.take_step(*pair)
    return svm._build_model(smo, data, cfg, gamma), smo.steps, smo.kkt_gap


def kept_state_train(data, cfg):
    """(model, steps, kkt_gap) of svm.train, read from its _Smo."""
    runs = []

    class Watched(svm._Smo):
        def __init__(self, *args):
            super().__init__(*args)
            runs.append(self)

    with mock.patch.object(svm, "_Smo", Watched):
        model = train(data, cfg)
    return model, runs[0].steps, runs[0].kkt_gap


def solver_outcome(run, data, cfg):
    """Model text, steps and KKT gap, or the error with what it carries."""
    try:
        model, steps, gap = run(data, cfg)
    except NonConvergence as exc:
        return (str(exc), serialize_model(exc.partial_model), exc.stats)
    except NumericError as exc:
        return type(exc), str(exc)
    return serialize_model(model), steps, gap


@st.composite
def solver_problems(draw):
    """Training sets of 2-60 rows in 1-3 dimensions, drawn from fewer
    distinct rows so that duplicates occur, on a coarse grid (argmax
    ties) or of arbitrary finite values."""
    n, d = draw(st.integers(2, 60)), draw(st.integers(1, 3))
    if draw(st.booleans()):
        values = st.integers(-8, 8).map(lambda k: k / 4.0)
    else:
        values = st.floats(-5.0, 5.0).filter(lambda v: v == 0.0 or abs(v) > 1e-6)
    k = draw(st.integers(1, n))
    rows = draw(st.lists(st.lists(values, min_size=d, max_size=d), min_size=k, max_size=k))
    picks = list(range(k)) + draw(st.lists(st.integers(0, k - 1), min_size=n - k,
                                           max_size=n - k))
    y = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n))
    if len(set(y)) == 1:
        y[draw(st.integers(0, n - 1))] = -y[0]
    return TrainingSet(np.array([rows[k] for k in picks]), np.array(y))


class TestKeptSolverState:
    @given(solver_problems(), st.sampled_from(["linear", "rbf"]),
           st.sampled_from([1e-3, 1.0, 1e6]), st.sampled_from([None, 0.5, 20.0]),
           st.sampled_from([1e-4, 1e-7]), st.integers(1, 400))
    @settings(max_examples=150, deadline=None)
    @example(TrainingSet(np.array([[0.0], [0.0], [1.0], [1.0]]), np.array([1.0, -1.0, 1.0, -1.0])),
             "linear", 1.0, None, 1e-4, 400)
    @example(TrainingSet(np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]),
                         np.array([1.0, 1.0, -1.0, -1.0])), "rbf", 1e6, None, 1e-7, 3)
    def test_matches_the_rebuilding_loop(self, data, kernel, c, gamma, tol, budget):
        cfg = TrainConfig(kernel=kernel, C=c, gamma=gamma if kernel == "rbf" else None,
                          tolerance=tol, max_iterations=budget)
        assert (solver_outcome(kept_state_train, data, cfg)
                == solver_outcome(reference_train, data, cfg))

    def test_curvature_cache_holds_one_row_per_picked_row(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(40, 2))
        y = np.where(rng.random(40) < 0.5, 1.0, -1.0)
        y[0], y[1] = 1.0, -1.0
        data, cfg = TrainingSet(x, y), TrainConfig(kernel="rbf", C=10.0)
        smo = svm._Smo(data, cfg, svm._resolve_gamma(cfg, data.x))
        picked = set()
        while (pair := smo.select_pair()) is not None:
            picked.add(pair[0])
            smo.take_step(*pair)
        assert set(smo._curv) == picked
        assert len(picked) <= data.n


class TestConfigValidation:
    def test_bad_kernel(self):
        with pytest.raises(InvalidConfig):
            TrainConfig(kernel="poly")

    def test_bad_c(self):
        with pytest.raises(InvalidConfig):
            TrainConfig(C=0.0)
        with pytest.raises(InvalidConfig):
            TrainConfig(C=float("inf"))

    def test_bad_gamma(self):
        with pytest.raises(InvalidConfig):
            TrainConfig(kernel="rbf", gamma=-1.0)

    def test_default_gamma_must_be_finite(self):
        # variance 2.5e-311: 1 / (d * var) overflows to inf
        data = TrainingSet(np.array([[0.0], [1e-155], [0.0], [1e-155]]),
                           np.array([-1.0, 1.0, -1.0, 1.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="too small for a finite rbf gamma"):
                train(data, TrainConfig(kernel="rbf"))

    @pytest.mark.parametrize("field,value", [("tolerance", 0.0), ("tolerance", float("nan")),
                                             ("max_iterations", 0)])
    def test_bad_tolerance_and_budget(self, field, value):
        with pytest.raises(InvalidConfig):
            TrainConfig(**{field: value})

    def test_labels_must_be_pm_one(self):
        with pytest.raises(ValueError):
            TrainingSet(np.zeros((2, 2)), np.array([0.0, 1.0]))


class TestPersistence:
    def test_round_trip_decision_values_bitwise(self, tmp_path):
        m = train(two_point_set(), HARD)
        path = tmp_path / "toy.model"
        save_model(m, path)
        back = load_model(path)
        grid = [
            (a / 9.0, b / 9.0) for a in range(10) for b in range(10)
        ]
        for p in grid:
            assert decision_value(back, list(p)) == decision_value(m, list(p))

    def test_rbf_round_trip(self, tmp_path):
        data = separable_set(321, n_cap=20)
        m = train(data, TrainConfig(kernel="rbf", C=4.0))
        save_model(m, tmp_path / "r.model")
        back = load_model(tmp_path / "r.model")
        for i in range(data.n):
            assert decision_value(back, data.x[i]) == decision_value(m, data.x[i])

    def test_unknown_version(self):
        text = serialize_model(train(two_point_set(), HARD))
        bumped = text.replace("shadowprune-model v1", "shadowprune-model v9", 1)
        with pytest.raises(SchemaVersionMismatch):
            deserialize_model(bumped)

    def test_old_rng_seed_line_is_ignored(self):
        text = serialize_model(train(four_point_set(), TrainConfig(kernel="rbf")))
        assert "rng_seed" not in text
        old = text.replace("\nn_train_rows ", "\nrng_seed 7\nn_train_rows ", 1)
        assert "rng_seed 7" in old
        assert serialize_model(deserialize_model(old)) == text

    def test_truncated_file(self):
        text = serialize_model(train(two_point_set(), HARD))
        with pytest.raises(CorruptModel):
            deserialize_model(text[: len(text) // 2])

    def test_not_a_model_file(self):
        with pytest.raises(CorruptModel):
            deserialize_model("P5\n2 2\n255\n")

    def test_mangled_number(self):
        text = serialize_model(train(two_point_set(), HARD))
        with pytest.raises(CorruptModel):
            deserialize_model(text.replace("b ", "b zz", 1))

    def test_unwritable_path(self, tmp_path):
        m = train(two_point_set(), HARD)
        with pytest.raises(IoError):
            save_model(m, tmp_path / "no" / "dir" / "x.model")

    def test_header_sized_support_block_is_not_allocated(self):
        text = serialize_model(train(two_point_set(), HARD))
        lines = [ln for ln in text.splitlines() if not ln.startswith("sv ")]
        at = lines.index("end")
        lines[at:at] = ["sv 0.1 0.2 0.3"]
        lines = [ln.replace("n_support 2", "n_support 1")
                 .replace("n_features 2", "n_features 10000000") for ln in lines]
        tracemalloc.start()
        try:
            with pytest.raises(CorruptModel):
                deserialize_model("\n".join(lines) + "\n")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("n_features", ["0", "-1"])
    def test_non_positive_feature_count(self, n_features):
        text = serialize_model(train(two_point_set(), HARD))
        lines = [ln.replace("n_support 2", "n_support 0")
                 .replace("n_features 2", f"n_features {n_features}")
                 for ln in text.splitlines() if not ln.startswith("sv ")]
        with pytest.raises(CorruptModel):
            deserialize_model("\n".join(lines) + "\n")

    @given(st.text(max_size=400) | st.lists(
        st.sampled_from(["shadowprune-model v1", "kernel linear", "kernel rbf", "C 1.0",
                         "C -5", "tolerance 0.0001", "rng_seed 0", "n_train_rows 2",
                         "b 0.5", "b nan", "w 1.0 2.0", "w inf 1", "gamma 0.5",
                         "gamma inf", "support_vector_indices 0 1", "n_support 1",
                         "n_support 0", "n_features 2", "n_features 0", "n_features -1",
                         "sv 0.1 0.2 0.3", "sv 1 2", "normalizer_mins 0 0",
                         "normalizer_maxs 1 1", "normalizer_maxs 0 0", "pool_factor x",
                         "grid_edge 3", "end"]) | st.text(max_size=20),
        max_size=20).map("\n".join))
    @settings(max_examples=300, deadline=None)
    def test_fuzz_only_library_errors_escape(self, text):
        try:
            deserialize_model(text)
        except ShadowPruneError:
            pass


def edit_field(text: str, key: str, index: int, value: str) -> str:
    """Replace token `index` (after the key) of the first line starting with key."""
    lines = text.split("\n")
    at = next(i for i, ln in enumerate(lines) if ln.split(" ", 1)[0] == key)
    values = lines[at].split()[1:]
    values[index] = value
    lines[at] = " ".join([key] + values)
    return "\n".join(lines)


class TestModelValidation:
    @pytest.mark.parametrize("kernel,key,index,value", [
        ("linear", "b", 0, "nan"),
        ("linear", "b", 0, "inf"),
        ("linear", "w", 1, "nan"),
        ("linear", "sv", 0, "inf"),
        ("rbf", "sv", 1, "nan"),
        ("rbf", "sv", -1, "-inf"),
        ("linear", "C", 0, "-5"),
        ("linear", "C", 0, "inf"),
        ("rbf", "C", 0, "0.0"),
        ("linear", "tolerance", 0, "0.0"),
        ("rbf", "tolerance", 0, "nan"),
        ("rbf", "gamma", 0, "inf"),
        ("rbf", "gamma", 0, "-1.0"),
        ("rbf", "gamma", 0, "nan"),
    ])
    def test_bad_field_is_corrupt(self, kernel, key, index, value):
        model = train(four_point_set(), TrainConfig(kernel=kernel, C=10.0))
        text = serialize_model(model)
        deserialize_model(text)
        with pytest.raises(CorruptModel):
            deserialize_model(edit_field(text, key, index, value))


class TestDecisionValues:
    @pytest.mark.parametrize("kernel", ["linear", "rbf"])
    def test_batch_equals_rows_bitwise(self, kernel):
        data = separable_set(77, n_cap=30)
        nz = Normalizer(mins=(-1.0, -2.0), maxs=(1.5, 3.0))
        model = train(data, TrainConfig(kernel=kernel, C=4.0)).with_context(normalizer=nz)
        rng = np.random.default_rng(1)
        queries = rng.uniform(-2.0, 3.0, size=(40, 2))
        batch = decision_values(model, queries)
        assert batch.shape == (40,)
        assert batch.tolist() == [decision_value(model, q) for q in queries]
        labels = [1 if v >= 0 else -1 for v in batch]
        assert [predict(model, q) for q in queries] == labels

    def test_wrong_width_rejected(self):
        model = train(two_point_set(), HARD)
        with pytest.raises(DimensionMismatch):
            decision_values(model, np.zeros((3, 3)))
        with pytest.raises(DimensionMismatch):
            decision_value(model, [0.5, 0.5, 0.5])
