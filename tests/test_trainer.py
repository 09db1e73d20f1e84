import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

from ssae import core, data, trainer
from ssae.data import NoiseSpec, generate_synthetic
from ssae.trainer import (
    TrainingConfig,
    evaluate_rmse,
    fit,
    init_params,
    minimize,
    train,
)


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

    def test_non_integer_size_named(self):
        with pytest.raises(ValueError, match="n_visible must be an integer, got 3.0"):
            init_params(3.0, 4)


class TestMinimize:
    def test_convex_quadratic(self):
        target = np.array([1.0, -2.0, 0.5, 3.0])

        def objective(x):
            return 0.5 * np.sum((x - target) ** 2), lambda: x - target

        res = minimize(objective, np.zeros(4), max_iterations=50,
                       convergence_tol=1e-14)
        assert np.abs(res.x - target).max() <= 1e-8
        assert len(res.curve) - 1 <= target.size + 5

    def test_stationary_start(self):
        def objective(x):
            return 1.0, lambda: np.zeros_like(x)

        res = minimize(objective, np.array([2.0, 3.0]), max_iterations=10)
        np.testing.assert_array_equal(res.x, [2.0, 3.0])
        assert res.converged
        assert len(res.curve) == 1

    def test_rosenbrock(self):
        def objective(v):
            x, y = v
            f = (1 - x) ** 2 + 100 * (y - x * x) ** 2
            return f, lambda: np.array([-2 * (1 - x) - 400 * x * (y - x * x),
                                        200 * (y - x * x)])

        res = minimize(objective, np.array([-1.2, 1.0]), max_iterations=300,
                       convergence_tol=1e-16)
        assert np.abs(res.x - 1.0).max() < 1e-5

    def test_counts_match_a_counting_wrapper(self):
        evaluations = gradients = 0

        def objective(v):
            nonlocal evaluations
            evaluations += 1
            x, y = v
            read = False

            def grad():
                nonlocal gradients, read
                gradients += not read
                read = True
                return np.array([-2 * (1 - x) - 400 * x * (y - x * x), 200 * (y - x * x)])

            return (1 - x) ** 2 + 100 * (y - x * x) ** 2, grad

        res = minimize(objective, np.array([-1.2, 1.0]), max_iterations=300,
                       convergence_tol=1e-16)
        assert (res.evaluations, res.gradients) == (evaluations, gradients)
        assert 0 < res.gradients < res.evaluations

    def test_overshooting_trial_never_reads_its_gradient(self):
        # From x0 = 1 the first trial, alpha = 1 along -f'(1) = -100, lands
        # on x = -99, far above f(x0): sufficient decrease fails there.
        trials = []

        def objective(x):
            entry = [float(x[0]), False]
            trials.append(entry)

            def grad():
                entry[1] = True
                return 100.0 * x

            return 50.0 * float(x[0]) ** 2, grad

        res = minimize(objective, np.array([1.0]), max_iterations=10)
        assert trials[0] == [1.0, True]
        assert trials[1] == [-99.0, False]
        assert res.gradients == sum(read for _, read in trials) < res.evaluations
        assert np.abs(res.x).max() < 1e-12

    def test_trace_monotone_non_increasing(self):
        rng = np.random.default_rng(0)
        A = rng.normal(size=(6, 6))
        A = A @ A.T + np.eye(6)
        b = rng.normal(size=6)

        def objective(x):
            return 0.5 * x @ A @ x - b @ x, lambda: A @ x - b

        res = minimize(objective, rng.normal(size=6), max_iterations=100)
        costs = [c for _, c in res.curve]
        assert all(c2 <= c1 + 1e-10 for c1, c2 in zip(costs, costs[1:]))

    def test_non_finite_objective_raises_with_iteration(self):
        def objective(x):
            return float("nan"), lambda: np.zeros_like(x)

        with pytest.raises(FloatingPointError, match="iteration 0"):
            minimize(objective, np.zeros(2), max_iterations=5)

    def test_non_finite_gradient_raises_when_read(self):
        def objective(x):
            return 1.0, lambda: np.full_like(x, np.nan)

        with pytest.raises(FloatingPointError, match="non-finite gradient at iteration 0"):
            minimize(objective, np.zeros(2), max_iterations=5)

    @pytest.mark.parametrize("max_iterations", [2.5, "3", None])
    def test_non_integer_max_iterations_named(self, max_iterations):
        def objective(x):
            return float(x @ x), lambda: 2.0 * x

        with pytest.raises(ValueError, match=re.escape(
                f"max_iterations must be an integer, got {max_iterations!r}")):
            minimize(objective, np.ones(2), max_iterations=max_iterations)
        res = minimize(objective, np.ones(2), max_iterations=np.int64(3))
        assert res.curve[-1][0] <= 3

    def test_step_that_keeps_the_cost_is_not_taken_and_ends_the_run(self):
        # c1 * alpha * phi'(0) is far below the last bit of 1.0, so every
        # trial passes sufficient decrease and none lowers the cost.
        def objective(x):
            return 1.0, lambda: np.full_like(x, 1e-13)

        x0 = np.array([0.25, -3.0])
        res = minimize(objective, x0, max_iterations=10)
        assert res.converged and res.message == "converged at iteration 1"
        assert res.x.tobytes() == x0.tobytes()
        assert res.curve == [(0, 1.0), (1, 1.0)]

    @pytest.mark.parametrize("tol", [0.0, -1e-7, math.nan, math.inf])
    def test_convergence_tol_must_be_finite_and_positive(self, tol):
        def objective(x):
            return float(x @ x), lambda: 2.0 * x

        with pytest.raises(ValueError, match="convergence_tol must be finite and > 0"):
            minimize(objective, np.ones(2), max_iterations=5, convergence_tol=tol)

    @pytest.mark.parametrize("shape", [(), (0,), (2, 2)])
    def test_x0_must_be_a_non_empty_vector(self, shape):
        def objective(x):
            return float(np.sum(x * x)), lambda: 2.0 * x

        with pytest.raises(ValueError, match=re.escape(
                f"x0 must be a non-empty 1-D vector, got shape {shape}")):
            minimize(objective, np.ones(shape), max_iterations=5)

    def test_gradient_of_another_shape_named(self):
        def objective(x):
            return float(x @ x), lambda: np.zeros(3)

        with pytest.raises(ValueError, match=re.escape(
                "gradient shape (3,) does not match parameter shape (2,)")):
            minimize(objective, np.ones(2), max_iterations=5)

    def test_line_search_that_never_brackets_fails(self):
        # Along -g the cost falls without end at a constant slope: every
        # trial passes sufficient decrease and fails curvature, so the step
        # doubles MAX_EXPAND times and the search gives up.
        def objective(x):
            return float(-x.sum()), lambda: -np.ones_like(x)

        res = minimize(objective, np.zeros(3), max_iterations=5)
        assert res.message == "line search failed at iteration 1" and not res.converged
        assert res.evaluations == res.gradients == 1 + trainer.MAX_EXPAND
        assert res.x.tobytes() == np.zeros(3).tobytes() and res.curve == [(0, 0.0)]

    def test_direction_that_does_not_descend_takes_the_retry(self, monkeypatch):
        # The 4th direction is made to ascend; like a failed search, it
        # drops the curvature pairs, so the next direction sees only the
        # pair from the steepest-descent retry.
        two_loop = trainer._two_loop
        seen = []

        def fourth_ascends(g, history):
            seen.append(len(history))
            q = two_loop(g, history)
            return -q if len(seen) == 4 else q

        monkeypatch.setattr(trainer, "_two_loop", fourth_ascends)
        c = np.linspace(1.0, 30.0, 8)

        def objective(x):
            return 0.5 * c @ (x * x), lambda: c * x

        res = minimize(objective, np.ones(8), max_iterations=12, convergence_tol=1e-12)
        assert seen[:5] == [0, 1, 2, 3, 1]
        costs = [f for _, f in res.curve]
        assert all(f2 <= f1 for f1, f2 in zip(costs, costs[1:]))
        assert "line search failed" not in res.message


def zoom(f, slope, a_lo, a_hi):
    """trainer._zoom on f along x = a from x = 0, bracket [a_lo, a_hi]; (step, trial points)."""
    trials = []

    def evaluate(x):
        a = float(x[0])
        trials.append(a)
        return f(a), lambda: np.array([slope(a)])

    step = trainer._zoom(evaluate, np.zeros(1), np.ones(1), f(0.0), slope(0.0),
                         a_lo, f(a_lo), slope(a_lo), a_hi, f(a_hi))
    return step, trials


# |f'| = 10 wherever it is read, so no trial meets the curvature condition.
def vee(a):
    return 10.0 * abs(a - 1.0)


def vee_slope(a):
    return 10.0 * float(np.sign(a - 1.0))


class TestZoom:
    def test_trial_past_the_minimum_makes_the_low_end_the_far_end(self):
        # The first trial, 1.125, lies past the minimum at 1 with a rising
        # slope, so the bracket becomes [1.125, 0] and the next trial lies
        # below it; had [1.125, 3] been kept, it would lie above.
        step, trials = zoom(vee, vee_slope, 0.0, 3.0)
        assert trials[0] == 1.125 and trials[1] < 1.125
        assert len(trials) == trainer.MAX_ZOOM
        assert step[1] == min(vee(a) for a in trials)

    def test_collapsed_bracket_settles_for_the_best_sufficient_decrease(self):
        # A bracket two ulps wide: its first trial is its low end, the
        # bracket collapses there, and that point, which passes sufficient
        # decrease, is returned.
        step, trials = zoom(vee, vee_slope, 1.0, 1.0 + 2 * np.finfo(float).eps)
        assert trials == [1.0]
        assert step[:2] == (1.0, 0.0)


class TestGammaForEta:
    """The "auto" gamma is a function of the sparsity ratio eta = K/L alone."""

    def test_half(self):
        for n_hidden in (2, 10, 24, 100):
            cfg = TrainingConfig(n_hidden=n_hidden, k_max=n_hidden // 2)
            np.testing.assert_allclose(cfg.resolve_gamma(), 0.13, rtol=1e-12)


class TestTrainingConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainingConfig(n_hidden=5, k_max=6)
        with pytest.raises(ValueError):
            TrainingConfig(n_hidden=5, k_max=2, folds=1)
        with pytest.raises(ValueError):
            TrainingConfig(n_hidden=5, k_max=2, gamma="bogus")

    @pytest.mark.parametrize("field, bad", [("gamma", math.nan), ("gamma", math.inf),
                                            ("gamma", -0.1), ("convergence_tol", math.nan),
                                            ("convergence_tol", math.inf), ("convergence_tol", 0.0)])
    def test_non_finite_or_out_of_range_knob_named(self, field, bad):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            TrainingConfig(n_hidden=5, k_max=2, **{field: bad})

    @pytest.mark.parametrize("field, bad", [("n_hidden", 5.0), ("k_max", 2.5), ("folds", "3"),
                                            ("max_iterations", 7.5)])
    def test_non_integer_size_named(self, field, bad):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            TrainingConfig(**{"n_hidden": 5, "k_max": 2, field: bad})

    def test_numpy_integer_seed_is_a_python_int(self):
        cfg = TrainingConfig(n_hidden=4, k_max=2, seed=np.int64(4))
        assert type(cfg.seed) is int and cfg == TrainingConfig(n_hidden=4, k_max=2, seed=4)

    def test_auto_gamma(self):
        cfg = TrainingConfig(n_hidden=10, k_max=5)
        np.testing.assert_allclose(cfg.resolve_gamma(), 0.13, rtol=1e-12)

    def test_auto_gamma_vanishes_without_pruning(self):
        assert TrainingConfig(n_hidden=7, k_max=7).resolve_gamma() == 0.0

    def test_auto_gamma_at_the_table_operating_point(self):
        # The sparsity ratio is the share of the L code units that survive
        # shrinking, K/L; it is the ratio the trainer and the bench use.
        assert 0.195 <= TrainingConfig(n_hidden=25, k_max=5).resolve_gamma() <= 0.21

    def test_auto_gamma_follows_a_replaced_k_max(self):
        cfg = dataclasses.replace(TrainingConfig(n_hidden=10, k_max=2), k_max=5)
        assert cfg.resolve_gamma() == TrainingConfig(n_hidden=10, k_max=5).resolve_gamma()


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

    def test_spheres_each_row_once(self, monkeypatch):
        # The shuffled matrix is sphered once for every fold's fit, then each
        # fold's held-out rows once more by evaluate_rmse.
        rows, sphere_rows = [], data.sphere_rows

        def spy(X, sigma):
            rows.append(len(X))
            return sphere_rows(X, sigma)

        monkeypatch.setattr(data, "sphere_rows", spy)
        X = tiny_dataset(n_samples=80)
        train(X, TrainingConfig(n_hidden=4, k_max=2, folds=4, max_iterations=3))
        assert rows == [80, 20, 20, 20, 20]

    def test_non_finite_cost_names_its_fold(self, monkeypatch):
        monkeypatch.setattr(core, "gradient", lambda *args: (math.nan, None))
        X = tiny_dataset(n_samples=20)
        with pytest.raises(FloatingPointError,
                           match="^fold 1: non-finite cost at iteration 0$"):
            train(X, TrainingConfig(n_hidden=4, k_max=2, folds=2, max_iterations=3))

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

    def test_one_d_matrix_names_its_shape(self):
        with pytest.raises(ValueError, match=r"expected a 2-D matrix, got shape \(5,\)"):
            fit(np.arange(5.0), TrainingConfig(n_hidden=4, k_max=2))


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

    def test_zero_d_matrix_names_its_shape(self):
        with pytest.raises(ValueError, match=r"got shape \(\)"):
            evaluate_rmse(init_params(3, 4), 1.0, np.float64(2.0), 2)

    def test_non_finite_entry_named_by_its_row_of_the_test_matrix(self, scoring_case):
        p, sigma, X = scoring_case
        X = X[:10_000].copy()
        X[5000, 7] = np.nan
        with pytest.raises(ValueError, match=r"^frame 5000, sensor 7 is not finite: nan$"):
            evaluate_rmse(p, sigma, X, 5)

    def test_empty_test_matrix_rejected(self):
        p = init_params(23, 25, seed=0)
        with pytest.raises(ValueError, match=r"empty test matrix of shape \(0, 23\)"):
            evaluate_rmse(p, 1.0, np.empty((0, 23)), 5)

    @pytest.mark.parametrize("T", [1, 2, 4095, 4096, 4097, 16_000])
    def test_blocks_equal_the_unblocked_formula(self, scoring_case, T):
        p, sigma, X = scoring_case
        assert evaluate_rmse(p, sigma, X[:T], 5) == unblocked_rmse(p, sigma, X[:T], 5)

    @pytest.mark.parametrize("T", [2, 4097, 8193, 12_289])
    def test_blocks_of_two_to_4096_rows(self, scoring_case, monkeypatch, T):
        # A 1-row block would go through BLAS's matrix-vector path, whose
        # bits differ from the matrix product's; the RMSE rarely shows it.
        p, sigma, X = scoring_case
        sizes = []
        round_trip = trainer._round_trip

        def spy(params, sigma, X, *args):
            sizes.append(len(X))
            return round_trip(params, sigma, X, *args)

        monkeypatch.setattr(trainer, "_round_trip", spy)
        evaluate_rmse(p, sigma, X[:T], 5)
        assert sum(sizes) == T and 2 <= min(sizes) and max(sizes) <= 4096, sizes

    def test_traced_peak_does_not_grow_with_rows(self, scoring_case):
        # Beyond the (T, N) x_hat only a block's layers are alive; the
        # slack covers the list of block views.
        p, sigma, X = scoring_case

        def peak_above_output(X_test):
            tracemalloc.start()
            try:
                evaluate_rmse(p, sigma, X_test, 5)
                return tracemalloc.get_traced_memory()[1] - X_test.nbytes
            finally:
                tracemalloc.stop()

        small, large = peak_above_output(X[:4000].copy()), peak_above_output(X.copy())
        assert large <= small + 4096, (small, large)

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


@pytest.fixture(scope="module")
def scoring_case():
    """A model whose shrink bites, its sigma and 16 000 frames to score."""
    X = generate_synthetic(23, 16_000, noise=NoiseSpec(variance=0.01, seed=5))
    p = init_params(23, 25, seed=1)
    p = core.SsaeParams(w1=3.0 * p.w1, b1=p.b1 + 0.1, w2=2.0 * p.w2, b2=p.b2)
    return p, data.dataset_std(X), X


def unblocked_rmse(params, sigma, X_test, k, rounding_places=3):
    """evaluate_rmse as one pass over every row at once, its earlier form."""
    D, means = data.sphere_rows(X_test, sigma)
    H = core.hidden_activation(params, D)
    S = core.round_code(core.shrink(H, k), rounding_places)
    D_hat = core.reconstruct(params, S)
    X_hat = data.desphere_rows(D_hat, means, sigma)
    return float(np.sqrt(np.mean((X_hat - X_test) ** 2)))


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
