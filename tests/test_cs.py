import warnings

import numpy as np
import pytest

from ssae.cs import gaussian_sensing_matrix, lasso_recover_batch, min_measurements


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
