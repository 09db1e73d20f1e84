import math

import numpy as np
import pytest

from ssae import core, data
from ssae.data import NoiseSpec, generate_synthetic
from ssae.trainer import (
    TrainingConfig,
    evaluate_rmse,
    fit,
    gamma_for_eta,
    init_params,
    minimize,
    train,
)


class TestGammaForEta:
    def test_endpoint(self):
        assert gamma_for_eta(1.0) == 0.0

    def test_table_operating_point(self):
        g = gamma_for_eta(5.0 / 23.0)
        assert 0.195 <= g <= 0.21

    def test_half(self):
        np.testing.assert_allclose(gamma_for_eta(0.5), 0.13, rtol=1e-12)

    def test_domain(self):
        for bad in (0.0, -0.1, 1.0001):
            with pytest.raises(ValueError):
                gamma_for_eta(bad)


class TestInitParams:
    def test_biases_zero(self):
        p = init_params(23, 25, seed=1)
        assert np.all(p.b1 == 0.0) and np.all(p.b2 == 0.0)

    def test_determinism(self):
        a = init_params(5, 9, seed=42)
        b = init_params(5, 9, seed=42)
        np.testing.assert_array_equal(a.w1, b.w1)
        np.testing.assert_array_equal(a.w2, b.w2)

    def test_weight_bound(self):
        p = init_params(23, 25, seed=3)
        r = math.sqrt(6.0 / 48.0)
        assert np.abs(p.w1).max() <= r and np.abs(p.w2).max() <= r


class TestMinimize:
    def test_convex_quadratic(self):
        target = np.array([1.0, -2.0, 0.5, 3.0])

        def objective(x):
            return 0.5 * np.sum((x - target) ** 2), x - target

        res = minimize(objective, np.zeros(4), max_iterations=50,
                       convergence_tol=1e-14)
        assert np.abs(res.x - target).max() <= 1e-8
        assert len(res.curve) - 1 <= target.size + 5

    def test_stationary_start(self):
        def objective(x):
            return 1.0, np.zeros_like(x)

        res = minimize(objective, np.array([2.0, 3.0]), max_iterations=10)
        np.testing.assert_array_equal(res.x, [2.0, 3.0])
        assert res.converged
        assert len(res.curve) == 1

    def test_rosenbrock(self):
        def objective(v):
            x, y = v
            f = (1 - x) ** 2 + 100 * (y - x * x) ** 2
            g = np.array([-2 * (1 - x) - 400 * x * (y - x * x),
                          200 * (y - x * x)])
            return f, g

        res = minimize(objective, np.array([-1.2, 1.0]), max_iterations=300,
                       convergence_tol=1e-16)
        assert np.abs(res.x - 1.0).max() < 1e-5

    def test_trace_monotone_non_increasing(self):
        rng = np.random.default_rng(0)
        A = rng.normal(size=(6, 6))
        A = A @ A.T + np.eye(6)
        b = rng.normal(size=6)

        def objective(x):
            return 0.5 * x @ A @ x - b @ x, A @ x - b

        res = minimize(objective, rng.normal(size=6), max_iterations=100)
        costs = [c for _, c in res.curve]
        assert all(c2 <= c1 + 1e-10 for c1, c2 in zip(costs, costs[1:]))

    def test_non_finite_objective_raises_with_iteration(self):
        def objective(x):
            return float("nan"), np.zeros_like(x)

        with pytest.raises(FloatingPointError, match="iteration 0"):
            minimize(objective, np.zeros(2), max_iterations=5)


class TestTrainingConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainingConfig(n_hidden=5, k_max=6)
        with pytest.raises(ValueError):
            TrainingConfig(n_hidden=5, k_max=2, folds=1)
        with pytest.raises(ValueError):
            TrainingConfig(n_hidden=5, k_max=2, gamma="bogus")

    def test_auto_gamma(self):
        cfg = TrainingConfig(n_hidden=10, k_max=5)
        np.testing.assert_allclose(cfg.resolve_gamma(), 0.13, rtol=1e-12)

    def test_from_file_with_overrides(self, tmp_path):
        path = tmp_path / "train.cfg"
        path.write_text(
            "n_hidden = 8\nk_max = 3\ngamma = 0.2  # fixed penalty\nfolds = 4\n"
        )
        cfg = TrainingConfig.from_file(path, seed=7)
        assert cfg.n_hidden == 8 and cfg.k_max == 3 and cfg.folds == 4
        assert cfg.gamma == 0.2 and cfg.seed == 7

    def test_from_file_unknown_key(self, tmp_path):
        path = tmp_path / "train.cfg"
        path.write_text("momentum = 0.9\n")
        with pytest.raises(ValueError, match="momentum"):
            TrainingConfig.from_file(path)


def tiny_dataset(seed=0, n_sensors=6, n_samples=60):
    return generate_synthetic(n_sensors, n_samples, correlation_length=2.0,
                              noise=NoiseSpec(variance=0.05, seed=seed))


class TestTrain:
    def test_fold_accounting(self):
        X = tiny_dataset(n_samples=100)
        cfg = TrainingConfig(n_hidden=6, k_max=3, folds=2, max_iterations=15, seed=1)
        report = train(X, cfg)
        assert len(report.fold_rmse) == 2
        np.testing.assert_allclose(report.mean_rmse, np.mean(report.fold_rmse))

    def test_deterministic(self):
        X = tiny_dataset(n_samples=40)
        cfg = TrainingConfig(n_hidden=6, k_max=2, folds=2, max_iterations=10, seed=5)
        a = train(X, cfg)
        b = train(X, cfg)
        assert a.fold_rmse == b.fold_rmse
        np.testing.assert_array_equal(a.params.to_vector(), b.params.to_vector())

    def test_memorizes_repeated_pattern(self):
        rng = np.random.default_rng(2)
        row = rng.uniform(18.0, 24.0, 8)
        X = np.tile(row, (40, 1)) + rng.normal(scale=1e-3, size=(40, 8))
        cfg = TrainingConfig(n_hidden=8, k_max=8, gamma=0.0, folds=2,
                             max_iterations=150, seed=3)
        report = train(X, cfg)
        assert report.mean_rmse < 0.05

    def test_beats_mean_predictor(self):
        X = generate_synthetic(23, 300, correlation_length=2.5,
                               noise=NoiseSpec(variance=0.05, seed=4))
        cfg = TrainingConfig(n_hidden=23, k_max=5, gamma=0.2, folds=2,
                             max_iterations=80, seed=4)
        report = train(X, cfg)
        # Oracle baseline: predict each frame by its own mean.
        rng = np.random.default_rng(4)
        shuffled = X[rng.permutation(X.shape[0])]
        baseline = math.sqrt(np.mean((shuffled - shuffled.mean(axis=1, keepdims=True)) ** 2))
        assert report.mean_rmse < baseline

    def test_too_few_rows(self):
        X = tiny_dataset(n_samples=5)
        cfg = TrainingConfig(n_hidden=4, k_max=2, folds=10)
        with pytest.raises(ValueError, match="folds"):
            train(X, cfg)

    def test_curve_decreases(self):
        X = tiny_dataset(n_samples=80)
        cfg = TrainingConfig(n_hidden=6, k_max=3, folds=2, max_iterations=60, seed=6)
        report = train(X, cfg)
        costs = [c for _, c in report.curve]
        assert costs[-1] <= costs[0]
        assert all(c2 <= c1 + 1e-10 for c1, c2 in zip(costs, costs[1:]))

    def test_penalty_only_adds_cost(self):
        X = tiny_dataset(seed=8, n_samples=50)
        base = TrainingConfig(n_hidden=6, k_max=6, gamma=0.0, folds=2,
                              max_iterations=40, seed=8)
        penalized = TrainingConfig(n_hidden=6, k_max=6, gamma=0.3, folds=2,
                                   max_iterations=40, seed=8)
        final_plain = train(X, base).curve[-1][1]
        final_pen = train(X, penalized).curve[-1][1]
        assert final_plain <= final_pen


class TestFit:
    def test_returns_consistent_pieces(self):
        X = tiny_dataset(n_samples=50)
        cfg = TrainingConfig(n_hidden=6, k_max=3, folds=2, max_iterations=20, seed=9)
        params, sigma, curve = fit(X, cfg)
        assert params.n_visible == 6 and params.n_hidden == 6
        assert sigma > 0
        assert curve[0][0] == 0 and len(curve) >= 2


class TestEvaluateRmse:
    def test_constant_frames_reconstruct_exactly(self):
        # Constant rows sphere to d = 0; a zero model reproduces them exactly.
        p = core.SsaeParams(w1=np.zeros((4, 3)), b1=np.zeros(4),
                            w2=np.zeros((3, 4)), b2=np.zeros(3))
        X = np.outer([17.0, 21.0, 19.5], np.ones(3))
        assert evaluate_rmse(p, sigma=1.0, X_test=X, k=2) == 0.0

    def test_constant_offset_gives_unit_rmse(self):
        sigma = 2.0
        b2 = math.atanh(1.0 / (3.0 * sigma)) * np.ones(3)
        p = core.SsaeParams(w1=np.zeros((4, 3)), b1=np.zeros(4),
                            w2=np.zeros((3, 4)), b2=b2)
        X = np.outer([17.0, 21.0, 19.5], np.ones(3))
        np.testing.assert_allclose(
            evaluate_rmse(p, sigma=sigma, X_test=X, k=2), 1.0, rtol=1e-12
        )

    def test_dimension_mismatch(self):
        p = core.SsaeParams(w1=np.zeros((4, 3)), b1=np.zeros(4),
                            w2=np.zeros((3, 4)), b2=np.zeros(3))
        with pytest.raises(ValueError):
            evaluate_rmse(p, 1.0, np.zeros((5, 2)), k=2)

    def test_regression_pin(self):
        # Each stage is pinned in pipeline order, so the first failing
        # assertion names the first stage that drifted.
        X = generate_synthetic(8, 120, correlation_length=2.0,
                               noise=NoiseSpec(variance=0.1, seed=12))
        cfg = TrainingConfig(n_hidden=8, k_max=3, folds=3, max_iterations=40, seed=12)
        np.testing.assert_allclose(
            [X.sum(), np.arange(X.size) @ X.ravel()], PIN_X_CHECKSUM, rtol=1e-9,
            err_msg="generator stage: checksum of X drifted")
        np.testing.assert_allclose(data.dataset_std(X), PIN_SIGMA, rtol=1e-9,
                                   err_msg="sigma stage: pooled dataset std drifted")
        perm = np.random.default_rng(cfg.seed).permutation(X.shape[0])
        np.testing.assert_array_equal(perm[:8], PIN_PERMUTATION_HEAD,
                                      err_msg="shuffle stage: permutation drifted")

        report = train(X, cfg)
        fits = report.fold_results
        np.testing.assert_allclose(
            fits[0].curve[0][1], PIN_COST_THETA0_FOLD1, rtol=1e-9,
            err_msg="cost stage: core.cost at theta0 on fold 1 drifted")
        assert report.messages == PIN_MESSAGES, "optimiser stage: fold stop reasons changed"
        assert [len(f.curve) for f in fits] == PIN_FOLD_CURVE_LENGTH, (
            "optimiser stage: fold curve lengths changed")
        np.testing.assert_allclose(
            [f.curve[-1][1] for f in fits], PIN_FOLD_FINAL_COST, rtol=1e-9,
            err_msg="optimiser stage: fold final costs drifted")
        np.testing.assert_allclose(
            report.fold_rmse, PIN_FOLD_RMSE, rtol=1e-9,
            err_msg="evaluation stage: fold RMSEs drifted")
        np.testing.assert_allclose(report.mean_rmse, REGRESSION_PIN_MEAN_RMSE,
                                   rtol=1e-9)


# Provenance: frozen on Python 3.11.7, numpy 2.4.6, scipy 1.17.1 and
# OpenBLAS 0.3.31; bit-identical at 1 and 2 BLAS threads.  The inputs come
# from NumPy Generator streams (generate_synthetic's normal and uniform
# draws, the fold shuffle's permutation, init_params' uniform), which NumPy
# does not promise to keep across versions (NEP 19).  If the generator,
# sigma or shuffle stage fails while data.py and trainer.py are unchanged,
# the inputs drifted with the NumPy version; the trainer did not.
PIN_X_CHECKSUM = [16862.20100745841, 7947100.67309371]  # sum, index-weighted sum
PIN_SIGMA = 1.2626566186384187
PIN_PERMUTATION_HEAD = [88, 39, 36, 106, 20, 50, 4, 82]
PIN_COST_THETA0_FOLD1 = 0.479862268209865
PIN_MESSAGES = [f"fold {i}: max iterations reached" for i in (1, 2, 3)]
PIN_FOLD_CURVE_LENGTH = [41, 41, 41]
PIN_FOLD_FINAL_COST = [0.012990253244481621, 0.014437266274254597,
                       0.01366574006448126]
PIN_FOLD_RMSE = [0.24329233081186946, 0.20079503998214407, 0.22947027488656768]
REGRESSION_PIN_MEAN_RMSE = 0.22451921522686039
