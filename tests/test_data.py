import io
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

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


def parse_outcome(parse, text):
    """The array a parser returns, or the type and message of what it raised."""
    try:
        return parse(text)
    except Exception as exc:  # what it raised is the outcome
        return type(exc), str(exc)


def same_outcome(a, b) -> bool:
    if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
        return same_bits(a, b)
    return a == b


# Cells that np.loadtxt and float() may read differently or not at all.
ODD_CELLS = ["", " ", "1_0", "nan", "inf", "-inf", "1e400", '"5"', '"1,2"', '"a\nb"',
             "x", "s1", "\t7 ", "1e", "0x10", "+.5", "-0.0", "\u00a01", "１"]
numbers = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                    st.integers(-10**20, 10**20).map(str))
header_cells = st.sampled_from(["s1", "a", '"b"', '"c,d"', "", "  ", "1_x"])


@st.composite
def csv_texts(draw):
    """Mostly well-formed numeric CSV with the odd header, blank line, ragged
    row, bad cell, line ending and missing final newline mixed in."""
    width = draw(st.integers(1, 4))
    lines = []
    if draw(st.booleans()):
        lines.append(",".join(draw(st.lists(header_cells, min_size=width, max_size=width))))
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(["", " ", "\t", "\r"])))
        w = width if draw(st.integers(0, 7)) else draw(st.integers(1, 5))
        odd = draw(st.integers(0, 3)) == 0
        cells = st.one_of(numbers, st.sampled_from(ODD_CELLS)) if odd else numbers
        row = draw(st.lists(cells, min_size=w, max_size=w))
        lines.append(",".join(row))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(lines) + draw(st.sampled_from(["", eol, eol + eol]))


class TestLoadCsvFastPath:
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(csv_texts(), st.text(alphabet="0123456789.,-+e \t\r\n\"ab_n\x0c\x1c\u2028")))
    @example("a,b\n\n\r\n")  # np.loadtxt would warn: no data after the header
    @example("1,2\x0c3,4\n")  # str.splitlines would end a line at the form feed
    def test_same_array_or_error_as_the_cell_parser(self, text):
        fast = parse_outcome(lambda t: load_csv(io.StringIO(t)), text)
        slow = parse_outcome(data._load_rows, text)
        assert same_outcome(fast, slow), (fast, slow)

    def test_log_with_header_takes_the_fast_path(self):
        X = generate_synthetic(23, 200, noise=NoiseSpec(variance=0.01, seed=3))
        sink = io.StringIO()
        write_csv(X, sink, header=[f"s{j}" for j in range(23)])
        fast = data._load_numeric(sink.getvalue())
        assert fast is not None and same_outcome(fast, X)


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


def same_bits(a, b) -> bool:
    """Bit-for-bit equality, so -0.0 differs from 0.0."""
    a, b = np.atleast_1d(a), np.atleast_1d(b)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def reference_csv(X, header=None) -> str:
    lines = [] if header is None else [",".join(header)]
    lines += [",".join(f"{v:.17g}" for v in row) for row in X]
    return "\n".join(lines) + "\n"


# Every finite double, plus the signed zero, subnormals and values near the
# top of the range written out so each run meets them.
EDGE_VALUES = [-0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1e308,
               -1.7976931348623157e308, 1.7976931348623157e308]
csv_matrices = st.tuples(st.integers(1, 12), st.integers(1, 8)).flatmap(
    lambda shape: hnp.arrays(np.float64, shape, elements=st.one_of(
        st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(EDGE_VALUES))))


class TestWriteCsvProperties:
    @settings(max_examples=200, deadline=None)
    @given(csv_matrices, st.booleans())
    def test_round_trip_and_reference_text(self, X, with_header):
        header = [f"s{j}" for j in range(X.shape[1])] if with_header else None
        sink = io.StringIO()
        write_csv(X, sink, header=header)
        assert sink.getvalue() == reference_csv(X, header)
        assert same_bits(load_csv(io.StringIO(sink.getvalue())), X)

    def test_log_file_matches_reference(self, tmp_path):
        X = generate_synthetic(23, 20_000, noise=NoiseSpec(variance=0.01, seed=3))
        header = [f"s{j}" for j in range(23)]
        path = tmp_path / "log.csv"
        write_csv(X, path, header=header)
        assert path.read_bytes() == reference_csv(X, header).encode("utf-8")

    def test_rejects_non_matrix_and_wrong_header(self):
        with pytest.raises(ValueError, match="2-D"):
            write_csv(np.zeros(3), io.StringIO())
        with pytest.raises(ValueError, match="header"):
            write_csv(np.zeros((2, 3)), io.StringIO(), header=["a", "b"])


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

    @pytest.mark.parametrize("sigma", [np.inf, np.nan])
    def test_non_finite_sigma(self, sigma):
        with pytest.raises(ValueError, match="sigma must be positive"):
            sphere(np.array([1.0, 2.0]), sigma)
        with pytest.raises(ValueError, match="sigma must be positive"):
            sphere_rows(np.ones((2, 3)), sigma)

    @pytest.mark.parametrize("shape", [(0,), (3, 0), (0, 0)])
    def test_zero_width_frames_rejected(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"no sensors, got shape {shape}")):
            sphere_rows(np.zeros(shape), 1.0)
        if len(shape) == 1:
            with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
                sphere(np.zeros(shape), 1.0)


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
        for sigma in (np.inf, np.nan):
            with pytest.raises(ValueError, match="sigma must be positive"):
                desphere_rows(np.zeros((1, 3)), [0.0], sigma)


class TestSphereRows:
    def test_matches_per_frame_sphere(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(7, 4))
        D, means = sphere_rows(X, 1.5)
        for i in range(7):
            f = sphere(X[i], 1.5)
            np.testing.assert_array_equal(D[i], f.d)
            assert means[i] == f.mean


def frames_or_batches(max_abs=1e6):
    """A frame (N,) or a batch (B, N) of finite readings."""
    shapes = st.one_of(st.tuples(st.integers(1, 30)),
                       st.tuples(st.integers(1, 8), st.integers(1, 30)))
    return shapes.flatmap(lambda shape: hnp.arrays(
        np.float64, shape, elements=st.floats(-max_abs, max_abs)))


sigmas = st.floats(1e-3, 1e3)


def reference_sphere_rows(X, sigma):
    """Sphering written as its formula: the mean, then clip to [-1, 1]."""
    means = X.mean(axis=-1)
    return np.minimum(np.maximum((X - means[..., None]) / (3.0 * sigma), -1.0), 1.0), means


def pinned_frames():
    """Frames whose entries often sphere to -0.0 or past the clip: a grid of
    signed zeros and values far apart, mixed with arbitrary floats."""
    shapes = st.one_of(st.tuples(st.integers(1, 30)),
                       st.tuples(st.integers(1, 8), st.integers(1, 30)))
    grid = st.sampled_from([0.0, -0.0, 3.0, -3.0, 1e3, -1e3])
    return shapes.flatmap(lambda shape: hnp.arrays(
        np.float64, shape, elements=st.one_of(grid, st.floats(-1e6, 1e6))))


class TestSphereRowsProperties:
    @settings(max_examples=200, deadline=None)
    @given(frames_or_batches(), sigmas)
    def test_frame_is_the_b1_case(self, X, sigma):
        D, means = sphere_rows(np.atleast_2d(X), sigma)
        for i, x in enumerate(np.atleast_2d(X)):
            d, mean = sphere_rows(x, sigma)
            f = sphere(x, sigma)
            assert same_bits(d, D[i]) and same_bits(mean, means[i])
            assert same_bits(f.d, D[i]) and same_bits(f.mean, means[i])
        assert np.all(np.abs(D) <= 1.0)

    @settings(max_examples=300, deadline=None)
    @given(pinned_frames(), sigmas)
    def test_matches_formula_bit_for_bit(self, X, sigma):
        D, means = sphere_rows(X, sigma)
        D_ref, means_ref = reference_sphere_rows(X, sigma)
        assert D.shape == D_ref.shape and D.tobytes() == D_ref.tobytes()
        assert np.shape(means) == np.shape(means_ref)
        assert np.asarray(means).tobytes() == np.asarray(means_ref).tobytes()

    def test_sphere_rejects_a_batch(self):
        with pytest.raises(ValueError, match="1-D frame"):
            sphere(np.zeros((2, 3)), 1.0)

    @settings(max_examples=200, deadline=None)
    @given(frames_or_batches(max_abs=1.0), sigmas, st.floats(-1e4, 1e4))
    def test_desphere_inverts_inside_clip_region(self, U, sigma, offset):
        # Deviations of at most 1.4 sigma from zero stay within 2.8 sigma
        # of the frame mean, inside the 3 sigma clip.
        X = 1.4 * sigma * U + offset
        back = desphere_rows(*sphere_rows(X, sigma), sigma)
        assert back.shape == X.shape
        tol = 64 * np.finfo(float).eps * max(np.abs(X).max(), sigma)
        np.testing.assert_allclose(back, X, rtol=0, atol=tol)


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
