import io
import math

import numpy as np
import pytest

from ssae import data
from ssae.data import (
    CsvFormatError,
    NoiseSpec,
    dataset_std,
    desphere_rows,
    generate_synthetic,
    load_csv,
    sphere,
    sphere_rows,
    synthetic_field,
    write_csv,
)


class TestLoadCsv:
    def test_plain_two_by_two(self):
        X = load_csv(io.StringIO("1.0,2.0\n3.0,4.0"))
        np.testing.assert_array_equal(X, [[1.0, 2.0], [3.0, 4.0]])

    def test_header_row_skipped(self):
        X = load_csv(io.StringIO("s1,s2\n1,2\n3,4"))
        np.testing.assert_array_equal(X, [[1.0, 2.0], [3.0, 4.0]])

    def test_non_numeric_cell_names_coordinates(self):
        with pytest.raises(CsvFormatError, match="row 1, column 1"):
            load_csv(io.StringIO("a,2"))

    def test_non_numeric_cell_in_later_row(self):
        with pytest.raises(CsvFormatError, match="row 3, column 2"):
            load_csv(io.StringIO("1,2\n3,4\n5,x"))

    def test_ragged_row_names_row(self):
        with pytest.raises(CsvFormatError, match="row 2"):
            load_csv(io.StringIO("1,2\n3,4,5"))

    def test_empty_file(self):
        with pytest.raises(CsvFormatError, match="empty"):
            load_csv(io.StringIO(""))

    def test_header_only(self):
        with pytest.raises(CsvFormatError, match="header"):
            load_csv(io.StringIO("a,b\n"))

    def test_non_finite_rejected(self):
        with pytest.raises(CsvFormatError, match="non-finite"):
            load_csv(io.StringIO("1,nan"))

    def test_bytes_stream(self):
        X = load_csv(io.BytesIO(b"1,2\n"))
        np.testing.assert_array_equal(X, [[1.0, 2.0]])


class TestWriteCsv:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(40, 5)) * 10.0 ** rng.integers(-8, 9, size=(40, 5))
        path = tmp_path / "x.csv"
        write_csv(X, path)
        back = load_csv(path)
        np.testing.assert_array_equal(back, X)

    def test_round_trip_with_header(self, tmp_path):
        X = np.array([[1.5, 2.25]])
        path = tmp_path / "x.csv"
        write_csv(X, path, header=["a", "b"])
        np.testing.assert_array_equal(load_csv(path), X)

    def test_big_generated_file_round_trip(self, tmp_path):
        X = generate_synthetic(23, 1440, noise=NoiseSpec(variance=0.5, seed=3))
        assert X.shape == (1440, 23)
        path = tmp_path / "big.csv"
        write_csv(X, path)
        np.testing.assert_array_equal(load_csv(path), X)


class TestGenerateSynthetic:
    def test_fully_correlated_limit(self):
        X = generate_synthetic(6, 50, correlation_length=math.inf,
                               noise=NoiseSpec(variance=0.0, seed=1))
        assert np.ptp(X, axis=1).max() == 0.0  # every row constant

    def test_seed_determinism(self):
        a = generate_synthetic(5, 30, noise=NoiseSpec(variance=0.3, seed=9))
        b = generate_synthetic(5, 30, noise=NoiseSpec(variance=0.3, seed=9))
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = generate_synthetic(5, 30, noise=NoiseSpec(seed=1))
        b = generate_synthetic(5, 30, noise=NoiseSpec(seed=2))
        assert not np.array_equal(a, b)

    def test_noise_variance_matches_spec(self):
        # Law of large numbers against the generator's own noiseless field.
        spec = NoiseSpec(variance=1.0, seed=11)
        X = generate_synthetic(8, 10000, noise=spec)
        clean = synthetic_field(8, 10000, seed=11)
        var = (X - clean).var(axis=0)
        assert np.all(np.abs(var - 1.0) < 0.2)

    def test_noiseless_equals_field(self):
        X = generate_synthetic(4, 20, noise=NoiseSpec(variance=0.0, seed=5))
        np.testing.assert_array_equal(X, synthetic_field(4, 20, seed=5))

    def test_single_sensor_rejected(self):
        with pytest.raises(ValueError):
            generate_synthetic(1, 10)

    def test_spatial_correlation_decays(self):
        X = synthetic_field(23, 4000, correlation_length=2.5, seed=0)
        C = np.corrcoef(X.T)
        near = np.mean([C[i, i + 1] for i in range(22)])
        far = np.mean([C[i, i + 11] for i in range(12)])
        assert near > far


class TestSphere:
    def test_constant_vector(self):
        f = sphere(np.array([5.0, 5.0, 5.0]), 1.0)
        np.testing.assert_array_equal(f.d, [0.0, 0.0, 0.0])
        assert f.mean == 5.0

    def test_hand_example(self):
        f = sphere(np.array([10.0, 20.0, 30.0]), 10.0)
        assert f.mean == 20.0
        np.testing.assert_allclose(f.d, [-1.0 / 3.0, 0.0, 1.0 / 3.0], atol=1e-15)

    def test_clipping(self):
        f = sphere(np.array([0.0, 100.0]), 1.0)
        np.testing.assert_array_equal(f.d, [-1.0, 1.0])

    def test_output_always_in_unit_interval(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            x = rng.normal(0, 10.0 ** rng.integers(-3, 4), size=rng.integers(2, 30))
            d = sphere(x, float(rng.uniform(0.01, 5.0))).d
            assert np.all(d >= -1.0) and np.all(d <= 1.0)

    def test_shift_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=12)
        base = sphere(x, 2.0).d
        shifted = sphere(x + 123.456, 2.0).d
        np.testing.assert_allclose(shifted, base, atol=1e-12)

    def test_bad_sigma(self):
        with pytest.raises(ValueError):
            sphere(np.array([1.0, 2.0]), 0.0)
        with pytest.raises(ValueError):
            sphere(np.array([1.0, 2.0]), -1.0)

    def test_non_finite_input(self):
        with pytest.raises(ValueError):
            sphere(np.array([1.0, np.inf]), 1.0)


class TestDesphere:
    def test_zero_code(self):
        np.testing.assert_array_equal(desphere_rows(np.zeros((1, 2)), [7.0], 2.0), [[7.0, 7.0]])

    def test_inverse_of_hand_example(self):
        x = desphere_rows(np.array([[-1.0 / 3.0, 0.0, 1.0 / 3.0]]), [20.0], 10.0)
        np.testing.assert_allclose(x, [[10.0, 20.0, 30.0]], atol=1e-12)

    def test_round_trip_inside_clip_region(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            sigma = float(rng.uniform(0.5, 3.0))
            x = rng.uniform(-1, 1, size=10) * 1.4 * sigma
            x = x - x.mean() + rng.normal() * 50  # centered deviations stay under 3 sigma
            f = sphere(x, sigma)
            back = desphere_rows(f.d[None], [f.mean], sigma)
            np.testing.assert_allclose(back, x[None], atol=1e-12)

    def test_bad_sigma(self):
        with pytest.raises(ValueError):
            desphere_rows(np.zeros((1, 3)), [0.0], -2.0)


class TestSphereRows:
    def test_matches_per_frame_sphere(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(7, 4))
        D, means = sphere_rows(X, 1.5)
        for i in range(7):
            f = sphere(X[i], 1.5)
            np.testing.assert_array_equal(D[i], f.d)
            assert means[i] == f.mean


class TestDatasetStd:
    def test_constant_matrix_rejected(self):
        with pytest.raises(ValueError, match="constant"):
            dataset_std(np.ones((2, 2)))

    def test_population_convention(self):
        assert dataset_std(np.array([[0.0], [2.0]])) == 1.0

    def test_single_entry_rejected(self):
        with pytest.raises(ValueError):
            dataset_std(np.array([[3.0]]))

    def test_matches_generator_scale(self):
        X = generate_synthetic(10, 20000, correlation_length=3.0,
                               base_signal_amplitude=0.0,
                               noise=NoiseSpec(variance=1.0, seed=21))
        clean = synthetic_field(10, 20000, correlation_length=3.0,
                                base_signal_amplitude=0.0, seed=21)
        expected = math.sqrt(clean.var() + 1.0)
        assert abs(dataset_std(X) - expected) / expected < 0.1
