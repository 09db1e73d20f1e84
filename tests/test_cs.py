import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ssae.cs import (
    Measurement,
    gaussian_sensing_matrix,
    lasso_recover_batch,
    measure,
    min_measurements,
)


def test_min_measurements_operating_point():
    assert min_measurements(5, 25) == 12


def test_min_measurements_non_integer_k_named():
    with pytest.raises(ValueError, match="k must be an integer, got 2.5"):
        min_measurements(2.5, 25)


class TestGaussianSensingMatrix:
    def test_deterministic_per_seed(self):
        a = gaussian_sensing_matrix(12, 25, seed=3)
        np.testing.assert_array_equal(a, gaussian_sensing_matrix(12, 25, seed=3))
        assert not np.array_equal(a, gaussian_sensing_matrix(12, 25, seed=4))

    def test_rejects_more_measurements_than_code(self):
        with pytest.raises(ValueError, match="compress"):
            gaussian_sensing_matrix(26, 25)

    def test_non_integer_m_named(self):
        with pytest.raises(ValueError, match="m must be an integer, got 12.0"):
            gaussian_sensing_matrix(12.0, 25)


class TestMeasure:
    M, L, K, B = 12, 25, 5, 6

    @pytest.fixture
    def frames(self):
        rng = np.random.default_rng(8)
        phi = gaussian_sensing_matrix(self.M, self.L, seed=0)
        return phi, sparse_codes(rng, self.B, self.L, self.K), rng.normal(20.0, 3.0, self.B)

    def test_y_is_phi_times_code(self, frames):
        # measure multiplies by ndarray.dot: its bytes are phi @ s's, for a
        # strided code too (a row of a Fortran-ordered batch).
        phi, S, _ = frames
        for s in (*S, np.asfortranarray(S)[1]):
            assert measure(phi, s, 0.0).y.tobytes() == (phi @ s).tobytes()

    def test_payload_is_y_then_frame_mean(self, frames):
        phi, S, means = frames
        m = measure(phi, S[0], means[0])
        assert isinstance(m, Measurement)
        y, frame_mean = m
        assert y is m.y and frame_mean == m.frame_mean == means[0]
        assert m.payload.shape == (self.M + 1,)
        assert m.payload.tobytes() == np.append(phi @ S[0], means[0]).tobytes()
        for name in ("y", "frame_mean"):
            with pytest.raises(AttributeError):
                setattr(m, name, 0.0)

    @settings(max_examples=200, deadline=None)
    @given(hnp.arrays(np.float64, st.integers(0, 30)),
           st.one_of(st.floats(), st.sampled_from([0.0, -0.0])))
    def test_payload_is_the_concatenation(self, y, mean):
        payload = Measurement(y=y, frame_mean=mean).payload
        assert payload.tobytes() == np.concatenate([y, [mean]]).tobytes()

    def test_frames_stack_to_the_batch(self, frames):
        phi, S, means = frames
        Y = np.array([measure(phi, s, mu).y for s, mu in zip(S, means)])
        np.testing.assert_allclose(Y, S @ phi.T, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("mean", [np.nan, np.inf, -np.inf])
    def test_non_finite_frame_mean_rejected(self, frames, mean):
        phi, S, _ = frames
        with pytest.raises(ValueError, match="frame_mean must be finite"):
            measure(phi, S[0], mean)

    def test_mismatched_shapes_rejected(self, frames):
        phi, S, _ = frames
        for bad_phi, bad_s in ((phi, S[0][:-1]), (phi, S), (phi[0], S[0]), (phi.T, S[0])):
            with pytest.raises(ValueError, match="not compatible"):
                measure(bad_phi, bad_s, 0.0)


class TestLassoRecoverBatch:
    M, L, K, B = 20, 25, 5, 8

    @pytest.fixture
    def problem(self):
        rng = np.random.default_rng(21)
        S = np.zeros((self.B, self.L))
        for row in S:
            support = rng.choice(self.L, self.K, replace=False)
            row[support] = rng.choice([-1.0, 1.0], self.K) * rng.uniform(0.3, 1.0, self.K)
        phi = gaussian_sensing_matrix(self.M, self.L, seed=0)
        return phi, S, S @ phi.T

    def test_recovers_support_and_values(self, problem):
        phi, S, Y = problem
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            S_hat = lasso_recover_batch(phi, Y)
        top = np.argsort(-np.abs(S_hat), axis=1)[:, :self.K]
        for row, s in zip(top, S):
            assert set(row) == set(np.flatnonzero(s))
        assert np.abs(S_hat - S).max() <= 1e-2

    def test_single_frame_matches_batch_row(self, problem):
        phi, _, Y = problem
        S_hat = lasso_recover_batch(phi, Y)
        for y, s_hat in zip(Y, S_hat):
            np.testing.assert_allclose(lasso_recover_batch(phi, y[None])[0], s_hat,
                                       rtol=0, atol=1e-6)


def sparse_codes(rng, b, l, k):
    S = np.zeros((b, l))
    for row in S:
        support = rng.choice(l, k, replace=False)
        row[support] = rng.choice([-1.0, 1.0], k) * rng.uniform(0.3, 1.0, k)
    return S


@st.composite
def problems(draw):
    """A random Gaussian matrix, M up to L + 5, B frames of noisy sparse
    codes and a lam: None, a scalar or one per frame."""
    l = draw(st.integers(1, 30))
    m = draw(st.integers(1, l + 5))
    b = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    phi = rng.normal(0.0, 1.0 / np.sqrt(m), size=(m, l))  # gaussian_sensing_matrix needs m <= l
    Y = sparse_codes(rng, b, l, int(rng.integers(1, l + 1))) @ phi.T
    Y += draw(st.sampled_from([0.0, 1e-3, 0.1])) * rng.normal(size=Y.shape)
    lam0 = np.max(np.abs(Y @ phi), axis=1)
    kind = draw(st.sampled_from(["default", "scalar", "per-frame"]))
    if kind == "default":
        lam = None
    elif kind == "scalar":
        lam = draw(st.floats(1e-4, 2.0)) * float(np.median(lam0))
    else:
        lam = np.exp(rng.uniform(np.log(1e-4), np.log(2.0), b)) * lam0
    return phi, Y, lam


def resolved_lam(phi, Y, lam):
    if lam is None:
        return 1e-4 * np.max(np.abs(Y @ phi), axis=1)
    return np.broadcast_to(lam, (len(Y),))


def assert_kkt(phi, Y, S, lam):
    lam = np.broadcast_to(resolved_lam(phi, Y, lam)[:, None], S.shape)
    corr = (Y - S @ phi.T) @ phi
    on = S != 0
    assert np.all(np.abs(corr[~on]) <= lam[~on] * (1 + 1e-9))
    assert np.all(np.abs(corr - lam * np.sign(S))[on] <= 1e-9 * lam[on])


def reference_active_solve(G, active, rhs):
    """Per frame, G_AA x_A = rhs_A solved on that frame alone."""
    x = np.zeros(active.shape)
    for i, on in enumerate(active):
        x[i, on] = np.linalg.solve(G[np.ix_(on, on)][None], rhs[i, on][None, :, None])[0, :, 0]
    return x


def reference_recover(phi, Y, lam=None, max_iter=None):
    """The same homotopy with a fresh solve of G_AA over every frame's whole
    state at every step: the path the incremental solver must follow."""
    B, (M, L) = Y.shape[0], phi.shape
    G, C = phi.T @ phi, Y @ phi
    lam0 = np.max(np.abs(C), axis=1, initial=0.0)
    lam = np.broadcast_to(np.asarray(1e-4 * lam0 if lam is None else lam,
                                     dtype=np.float64), (B,)).copy()
    max_iter = 8 * L if max_iter is None else max_iter
    S, theta, left = np.zeros((B, L)), np.zeros((B, L)), np.zeros((B, L))
    level = np.maximum(lam0, lam)
    live = np.flatnonzero(lam < lam0)
    j = np.argmax(np.abs(C[live]), axis=1)
    theta[live, j] = np.sign(C[live, j])
    for _ in range(max_iter):
        if not live.size:
            break
        th, s, lv = theta[live], S[live], level[live, None]
        A, lo = th != 0, 1e-14 * lv
        d = reference_active_solve(G, A, th)
        a = d @ G
        c = C[live] - s @ G
        with np.errstate(divide="ignore", invalid="ignore"):
            t_up, t_down, t_drop = (lv - c) / (1 - a), (lv + c) / (1 + a), -s / d
        t_join = np.fmin(np.where((t_up > lo) & (left[live] <= 0), t_up, np.inf),
                         np.where((t_down > lo) & (left[live] >= 0), t_down, np.inf))
        t_join[A | (A.sum(axis=1, keepdims=True) >= M)] = np.inf
        t_drop[~(t_drop > lo) | ~A] = np.inf
        jj, jd = np.argmin(t_join, axis=1), np.argmin(t_drop, axis=1)
        tj, td, t_target = t_join.min(axis=1), t_drop.min(axis=1), lv[:, 0] - lam[live]
        t = np.minimum(t_target, np.minimum(tj, td))
        done = t_target <= t
        drop, join = ~done & (td <= tj), ~done & (td > tj)
        S[live] = s + t[:, None] * d
        level[live] = np.where(done, lam[live], lv[:, 0] - t)
        left[live] = 0.0
        f, k = live[drop], jd[drop]
        left[f, k], theta[f, k], S[f, k] = theta[f, k], 0.0, 0.0
        f, k = live[join], jj[join]
        theta[f, k] = np.sign(c[join, k] - t[join] * a[join, k])
        live = live[~done]
    if live.size:
        warnings.warn(f"lasso_recover_batch: {live.size} frame(s) did not reach lam within "
                      f"max_iter={max_iter} steps, first {live[:5].tolist()}",
                      RuntimeWarning, stacklevel=2)
    return reference_active_solve(G, theta != 0, C - level[:, None] * theta)


class TestLassoRecoverBatchProperties:
    @settings(max_examples=200, deadline=None)
    @given(problems())
    def test_kkt_conditions(self, problem):
        phi, Y, lam = problem
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            S = lasso_recover_batch(phi, Y, lam)
        assert_kkt(phi, Y, S, lam)

    @settings(max_examples=100, deadline=None)
    @given(problems())
    def test_bit_identical_to_per_step_solve(self, problem):
        phi, Y, lam = problem
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            S = lasso_recover_batch(phi, Y, lam)
        assert np.array_equal(S, reference_recover(phi, Y, lam))

    @settings(max_examples=100, deadline=None)
    @given(problems())
    def test_stopped_path_matches_per_step_solve(self, problem):
        # A frame stopped by max_iter ends at a penalty the two solvers reach
        # a few ulps apart; its code moves by that times cond(G_AA).
        phi, Y, lam = problem
        with warnings.catch_warnings(record=True) as got:
            warnings.simplefilter("always")
            S = lasso_recover_batch(phi, Y, lam, max_iter=2)
        with warnings.catch_warnings(record=True) as want:
            warnings.simplefilter("always")
            R = reference_recover(phi, Y, lam, max_iter=2)
        assert [str(w.message) for w in got] == [str(w.message) for w in want]
        for s, r in zip(S, R):
            on = r != 0
            assert np.array_equal(s != 0, on)
            if on.any():
                scale = np.linalg.cond(phi[:, on].T @ phi[:, on]) * max(1.0, np.abs(r).max())
                assert np.abs(s - r).max() <= 1e-13 * scale

    @settings(max_examples=50, deadline=None)
    @given(problems(), st.data())
    def test_row_independent_of_batch(self, problem, data):
        phi, Y, lam = problem
        lam = resolved_lam(phi, Y, lam)
        S = lasso_recover_batch(phi, Y, lam)
        i = data.draw(st.integers(0, len(Y) - 1))
        alone = lasso_recover_batch(phi, Y[i][None], lam[i])[0]
        np.testing.assert_allclose(alone, S[i], rtol=0, atol=1e-10)
        frame = lasso_recover_batch(phi, Y[i], lam[i])
        assert frame.shape == alone.shape and frame.tobytes() == alone.tobytes()
        seven = np.resize(np.arange(len(Y)), 7)
        seven[3] = i
        np.testing.assert_allclose(lasso_recover_batch(phi, Y[seven], lam[seven])[3], S[i],
                                   rtol=0, atol=1e-10)

    @settings(max_examples=50, deadline=None)
    @given(problems(), st.floats(0.0, 10.0))
    def test_zero_rows_and_large_lam_give_zero(self, problem, excess):
        phi, Y, _ = problem
        Y = Y.copy()
        Y[0] = 0.0
        lam = np.max(np.abs(Y @ phi), axis=1) * (1.0 + excess)
        assert np.all(lasso_recover_batch(phi, Y, lam) == 0.0)
        assert np.all(lasso_recover_batch(phi, Y)[0] == 0.0)

    def test_empty_batch(self):
        phi = gaussian_sensing_matrix(12, 25)
        assert lasso_recover_batch(phi, np.zeros((0, 12))).shape == (0, 25)

    @pytest.mark.parametrize("b", [0, 1, 4])
    def test_empty_code(self, b):
        S = lasso_recover_batch(np.zeros((3, 0)), np.ones((b, 3)))
        assert S.shape == (b, 0) and S.dtype == np.float64
        with pytest.raises(ValueError, match="lam of frame 0"):
            lasso_recover_batch(np.zeros((3, 0)), np.ones((4, 3)), -1.0)

    @pytest.mark.parametrize("m", [min_measurements(5, 25), 20])
    def test_operating_point_converges(self, m):
        # The bench's ssae-m12 and ssae-m20; at M=20 supports reach 19-20.
        rng = np.random.default_rng(5)
        phi = gaussian_sensing_matrix(m, 25)
        Y = sparse_codes(rng, 300, 25, 5) @ phi.T
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            S = lasso_recover_batch(phi, Y)
            # A drop-heavy path: pins the shared join and drop update.
            assert np.array_equal(S, reference_recover(phi, Y))


@pytest.mark.parametrize("m", [12, 20])
@pytest.mark.parametrize("noise", [0.0, 0.01])
def test_twin_columns_recover_without_error(m, noise):
    # phi_20 = phi_3 and phi_21 = -phi_7: the later twin's correlation ties
    # the earlier one's, so it never joins and G_AA stays invertible.
    phi = gaussian_sensing_matrix(m, 25)
    phi[:, 20], phi[:, 21] = phi[:, 3], -phi[:, 7]
    rng = np.random.default_rng(5)
    Y = sparse_codes(rng, 300, 25, 5) @ phi.T + noise * rng.normal(size=(300, m))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        S = lasso_recover_batch(phi, Y)
    assert_kkt(phi, Y, S, None)
    assert not S[:, 20:22].any()


class TestLassoRecoverBatchErrors:
    def test_non_finite_measurements_name_the_frame(self):
        phi = gaussian_sensing_matrix(12, 25)
        Y = np.ones((5, 12))
        Y[3, 7] = np.nan
        with pytest.raises(ValueError, match="frame 3"):
            lasso_recover_batch(phi, Y)
        Y[3, 7], Y[1, 0] = 1.0, np.inf
        with pytest.raises(ValueError, match="frame 1"):
            lasso_recover_batch(phi, Y)

    def test_non_finite_lam_names_the_frame(self):
        phi = gaussian_sensing_matrix(12, 25)
        lam = np.full(5, 0.1)
        lam[2] = np.inf
        with pytest.raises(ValueError, match="frame 2"):
            lasso_recover_batch(phi, np.ones((5, 12)), lam)
        with pytest.raises(ValueError, match="frame 0"):
            lasso_recover_batch(phi, np.ones((5, 12)), np.nan)

    @pytest.mark.parametrize("lam", [0.01, None])
    def test_non_finite_matrix_names_the_first_bad_entry(self, lam):
        phi = gaussian_sensing_matrix(12, 25)
        phi[4, 17] = phi[6, 2] = np.nan
        with pytest.raises(ValueError, match="matrix row 4, column 17 is not finite: nan"):
            lasso_recover_batch(phi, np.ones((5, 12)), lam)

    @pytest.mark.parametrize("kwargs, message", [
        ({"max_iter": 2.5}, "max_iter must be an integer, got 2.5"),
        ({"max_iter": -1}, "max_iter must be >= 0, got -1"),
        ({"lam": [0.1, 0.2]}, "lam must be a scalar or one per frame for 3 frames, got shape (2,)"),
    ], ids=["max_iter-float", "max_iter-negative", "lam-length"])
    def test_bad_max_iter_or_lam_shape_named(self, kwargs, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            lasso_recover_batch(gaussian_sensing_matrix(12, 25), np.ones((3, 12)), **kwargs)

    def test_zero_max_iter_stops_every_frame_at_its_start(self):
        with pytest.warns(RuntimeWarning, match=r"3 frame\(s\).*max_iter=0 steps"):
            S = lasso_recover_batch(gaussian_sensing_matrix(12, 25), np.ones((3, 12)), max_iter=0)
        np.testing.assert_allclose(S, 0.0, rtol=0, atol=1e-12)

    def test_negative_lam_rejected(self):
        with pytest.raises(ValueError, match="lam of frame 0 must be finite and >= 0"):
            lasso_recover_batch(gaussian_sensing_matrix(12, 25), np.ones((2, 12)), -1.0)

    def test_warning_names_each_unconverged_frame(self):
        rng = np.random.default_rng(3)
        phi = gaussian_sensing_matrix(12, 25)
        Y = sparse_codes(rng, 6, 25, 5) @ phi.T
        Y[4] = 0.0  # zero code, nothing to do
        lam0 = np.max(np.abs(Y @ phi), axis=1)
        lam = 1e-4 * lam0
        lam[1] = 0.999 * lam0[1]  # reached on the first step
        with pytest.warns(RuntimeWarning, match=r"4 frame\(s\).*first \[0, 2, 3, 5\]"):
            S = lasso_recover_batch(phi, Y, lam, max_iter=1)
        assert np.count_nonzero(S[1]) == 1 and np.all(S[4] == 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            alone = lasso_recover_batch(phi, Y[[1, 4]], lam[[1, 4]], max_iter=1)
        np.testing.assert_allclose(alone, S[[1, 4]], rtol=0, atol=1e-12)
