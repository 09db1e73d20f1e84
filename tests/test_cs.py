import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssae.cs import (
    gaussian_sensing_matrix,
    lasso_recover_batch,
    measure,
    min_measurements,
)


def test_min_measurements_operating_point():
    assert min_measurements(5, 25) == 12


class TestGaussianSensingMatrix:
    def test_deterministic_per_seed(self):
        a = gaussian_sensing_matrix(12, 25, seed=3)
        np.testing.assert_array_equal(a, gaussian_sensing_matrix(12, 25, seed=3))
        assert not np.array_equal(a, gaussian_sensing_matrix(12, 25, seed=4))

    def test_rejects_more_measurements_than_code(self):
        with pytest.raises(ValueError, match="compress"):
            gaussian_sensing_matrix(26, 25)


class TestMeasure:
    M, L, K, B = 12, 25, 5, 6

    @pytest.fixture
    def frames(self):
        rng = np.random.default_rng(8)
        phi = gaussian_sensing_matrix(self.M, self.L, seed=0)
        return phi, sparse_codes(rng, self.B, self.L, self.K), rng.normal(20.0, 3.0, self.B)

    def test_y_is_phi_times_code(self, frames):
        phi, S, _ = frames
        for s in S:
            np.testing.assert_array_equal(measure(phi, s, 0.0).y, phi @ s)

    def test_payload_is_y_then_frame_mean(self, frames):
        phi, S, means = frames
        m = measure(phi, S[0], means[0])
        assert m.payload.shape == (self.M + 1,)
        np.testing.assert_array_equal(m.payload[:-1], m.y)
        assert m.payload[-1] == means[0]

    def test_frames_stack_to_the_batch(self, frames):
        phi, S, means = frames
        Y = np.array([measure(phi, s, mu).y for s, mu in zip(S, means)])
        np.testing.assert_allclose(Y, S @ phi.T, rtol=1e-12, atol=1e-12)

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
    """A random matrix, B frames of noisy sparse codes and a lam: None,
    a scalar or one per frame."""
    l = draw(st.integers(1, 30))
    m = draw(st.integers(1, l))
    b = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    phi = gaussian_sensing_matrix(m, l, seed=int(rng.integers(2**32)))
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


class TestLassoRecoverBatchProperties:
    @settings(max_examples=200, deadline=None)
    @given(problems())
    def test_kkt_conditions(self, problem):
        phi, Y, lam = problem
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            S = lasso_recover_batch(phi, Y, lam)
        lam = np.broadcast_to(resolved_lam(phi, Y, lam)[:, None], S.shape)
        corr = (Y - S @ phi.T) @ phi
        on = S != 0
        assert np.all(np.abs(corr[~on]) <= lam[~on] * (1 + 1e-9))
        assert np.all(np.abs(corr - lam * np.sign(S))[on] <= 1e-9 * lam[on])

    @settings(max_examples=50, deadline=None)
    @given(problems(), st.data())
    def test_row_independent_of_batch(self, problem, data):
        phi, Y, lam = problem
        lam = resolved_lam(phi, Y, lam)
        S = lasso_recover_batch(phi, Y, lam)
        i = data.draw(st.integers(0, len(Y) - 1))
        alone = lasso_recover_batch(phi, Y[i][None], lam[i])[0]
        np.testing.assert_allclose(alone, S[i], rtol=0, atol=1e-10)
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

    def test_operating_point_converges(self):
        rng = np.random.default_rng(5)
        phi = gaussian_sensing_matrix(min_measurements(5, 25), 25)
        Y = sparse_codes(rng, 300, 25, 5) @ phi.T
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            lasso_recover_batch(phi, Y)


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
