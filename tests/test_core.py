import io
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ssae import baselines, core, cs, data, trainer
from ssae.core import (
    SsaeParams,
    cost,
    gradient,
    hidden_activation,
    reconstruct,
    round_code,
    shrink,
    shrink_mask,
)


def random_params(rng, n_visible, n_hidden, scale=0.4):
    return SsaeParams(
        w1=rng.uniform(-scale, scale, (n_hidden, n_visible)),
        b1=rng.uniform(-scale, scale, n_hidden),
        w2=rng.uniform(-scale, scale, (n_visible, n_hidden)),
        b2=rng.uniform(-scale, scale, n_visible),
    )


def zero_params(n_visible, n_hidden):
    return SsaeParams(
        w1=np.zeros((n_hidden, n_visible)),
        b1=np.zeros(n_hidden),
        w2=np.zeros((n_visible, n_hidden)),
        b2=np.zeros(n_visible),
    )


def reference_keep_topk(h, k):
    """Brute-force pruning reference: repeatedly keep the largest-magnitude
    entry not yet kept, scanning left to right so ties keep the lower index."""
    h = np.asarray(h, dtype=float)
    remaining = list(range(len(h)))
    kept = []
    for _ in range(k):
        best = remaining[0]
        for j in remaining[1:]:
            if abs(h[j]) > abs(h[best]):
                best = j
        kept.append(best)
        remaining.remove(best)
    out = np.zeros_like(h)
    for j in kept:
        out[j] = h[j]
    return out


def frozen_cost_fn(params0, D, gamma, k):
    """Independent cost for gradient checking: the pruning mask is frozen
    from the unperturbed forward pass and no rounding is applied."""
    D = np.asarray(D, dtype=float)
    T = D.shape[0]
    H0 = np.tanh(D @ params0.w1.T + params0.b1)
    mask = shrink_mask(H0, k)
    N, L = params0.n_visible, params0.n_hidden

    def f(vec):
        p = SsaeParams.from_vector(vec, N, L)
        H = np.tanh(D @ p.w1.T + p.b1)
        S = np.where(mask, H, 0.0)
        D_hat = np.tanh(S @ p.w2.T + p.b2)
        recon = 0.5 * np.sum((D_hat - D) ** 2) / T
        penalty = gamma * np.sum(np.log10(1.0 + H * H)) / T
        return recon + penalty

    return f


def central_differences(f, x0, step=1e-6):
    g = np.empty_like(x0)
    for i in range(x0.size):
        xp = x0.copy()
        xm = x0.copy()
        xp[i] += step
        xm[i] -= step
        g[i] = (f(xp) - f(xm)) / (2.0 * step)
    return g


class TestParams:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            SsaeParams(w1=np.zeros((3, 2)), b1=np.zeros(3),
                       w2=np.zeros((3, 2)), b2=np.zeros(2))
        with pytest.raises(ValueError):
            SsaeParams(w1=np.zeros((3, 2)), b1=np.zeros(2),
                       w2=np.zeros((2, 3)), b2=np.zeros(2))
        with pytest.raises(ValueError, match=re.escape("b2 must have shape (2,), got (3,)")):
            SsaeParams(w1=np.zeros((3, 2)), b1=np.zeros(3),
                       w2=np.zeros((2, 3)), b2=np.zeros(3))

    def test_from_vector_names_a_wrong_entry_count(self):
        # N=5, L=6 take 71 entries: a (1, 71) row holds them but is not a vector.
        for shape in [(70,), (1, 71)]:
            with pytest.raises(ValueError, match=re.escape(f"expected 71 entries, got {shape}")):
                SsaeParams.from_vector(np.zeros(shape), 5, 6)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            SsaeParams(w1=np.array([[np.nan]]), b1=np.zeros(1),
                       w2=np.zeros((1, 1)), b2=np.zeros(1))

    def test_vector_round_trip(self):
        rng = np.random.default_rng(0)
        p = random_params(rng, 4, 6)
        q = SsaeParams.from_vector(p.to_vector(), 4, 6)
        np.testing.assert_array_equal(q.w1, p.w1)
        np.testing.assert_array_equal(q.b1, p.b1)
        np.testing.assert_array_equal(q.w2, p.w2)
        np.testing.assert_array_equal(q.b2, p.b2)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 8), st.integers(1, 8), st.data())
    def test_from_vector_inverts_to_vector_and_owns_its_copy(self, n, l, data):
        def entries(shape):
            return data.draw(hnp.arrays(
                np.float64, shape, elements=st.floats(allow_nan=False, allow_infinity=False)))

        p = SsaeParams(w1=entries((l, n)), b1=entries(l), w2=entries((n, l)), b2=entries(n))
        vec = p.to_vector()
        q = SsaeParams.from_vector(vec, n, l)
        fields = ("w1", "b1", "w2", "b2")
        for name in fields:
            a, b = getattr(q, name), getattr(p, name)
            assert a.shape == b.shape
            assert np.array_equal(a.view(np.int64), b.view(np.int64)), name
        vec[:] = 7.0  # later writes to the caller's vector
        for name in fields:
            assert np.array_equal(getattr(q, name), getattr(p, name)), name


class TestHiddenActivation:
    def test_zero_params_give_zero(self):
        p = zero_params(3, 5)
        np.testing.assert_array_equal(hidden_activation(p, np.array([0.3, -0.1, 0.9])),
                                      np.zeros(5))

    def test_scalar_value(self):
        p = SsaeParams(w1=np.array([[1.0]]), b1=np.zeros(1),
                       w2=np.zeros((1, 1)), b2=np.zeros(1))
        h = hidden_activation(p, np.array([0.5]))
        np.testing.assert_allclose(h, [0.46211715726000974], rtol=1e-12)

    def test_odd_symmetry_with_zero_bias(self):
        rng = np.random.default_rng(1)
        p = SsaeParams(w1=rng.normal(size=(6, 4)), b1=np.zeros(6),
                       w2=np.zeros((4, 6)), b2=np.zeros(4))
        d = rng.uniform(-1, 1, 4)
        np.testing.assert_allclose(hidden_activation(p, -d),
                                   -hidden_activation(p, d), atol=1e-15)

    def test_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(2)
        p = random_params(rng, 5, 8, scale=3.0)
        h = hidden_activation(p, rng.uniform(-1, 1, (20, 5)))
        assert np.all(np.abs(h) < 1.0)

    def test_dimension_mismatch(self):
        p = zero_params(3, 5)
        with pytest.raises(ValueError):
            hidden_activation(p, np.zeros(4))
        with pytest.raises(ValueError, match="d must be a frame"):
            hidden_activation(p, np.float64(1.0))


class TestShrink:
    def test_unambiguous_ordering(self):
        np.testing.assert_array_equal(shrink(np.array([0.5, -0.01, 0.3]), 2),
                                      [0.5, 0.0, 0.3])

    def test_k_equals_length_is_identity(self):
        rng = np.random.default_rng(3)
        h = rng.normal(size=9)
        np.testing.assert_array_equal(shrink(h, 9), h)

    def test_tie_keeps_lower_index(self):
        np.testing.assert_array_equal(shrink(np.array([0.2, -0.2, 0.1]), 1),
                                      [0.2, 0.0, 0.0])

    def test_matches_reference_on_random_vectors(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            L = int(rng.integers(1, 12))
            k = int(rng.integers(1, L + 1))
            h = rng.normal(size=L)
            if rng.random() < 0.3:  # inject magnitude ties
                i, j = rng.integers(0, L, 2)
                h[i] = h[j] * rng.choice([-1.0, 1.0])
            np.testing.assert_array_equal(shrink(h, k), reference_keep_topk(h, k))

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        h = rng.normal(size=15)
        once = shrink(h, 4)
        np.testing.assert_array_equal(shrink(once, 4), once)

    def test_positive_scaling_equivariance(self):
        rng = np.random.default_rng(6)
        h = rng.normal(size=10)
        np.testing.assert_allclose(shrink(2.5 * h, 3), 2.5 * shrink(h, 3), rtol=1e-15)

    def test_sign_flip_equivariance(self):
        rng = np.random.default_rng(7)
        h = rng.normal(size=10)
        np.testing.assert_array_equal(shrink(-h, 3), -shrink(h, 3))

    def test_nonzero_budget(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            h = rng.normal(size=20)
            h[rng.random(20) < 0.4] = 0.0
            k = int(rng.integers(1, 21))
            assert np.count_nonzero(shrink(h, k)) <= k

    def test_kept_values_exact(self):
        rng = np.random.default_rng(9)
        h = rng.normal(size=12)
        out = shrink(h, 5)
        nz = out != 0
        np.testing.assert_array_equal(out[nz], h[nz])

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            shrink(np.zeros(3), 0)
        with pytest.raises(ValueError):
            shrink(np.zeros(3), 4)

    @pytest.mark.parametrize("k", [2.5, 2.0, "2", None])
    def test_non_integer_k_rejected(self, k):
        for fn in (shrink, shrink_mask):
            with pytest.raises(ValueError, match="k must be an integer"):
                fn(np.array([0.5, -0.01, 0.3]), k)

    @pytest.mark.parametrize("k", [np.int64(2), np.int32(2), np.uint8(2)])
    def test_integer_like_k(self, k):
        h = np.array([0.5, -0.01, 0.3])
        assert shrink(h, k).tobytes() == shrink(h, int(k)).tobytes()

    def test_batch_matches_per_row(self):
        rng = np.random.default_rng(10)
        H = rng.normal(size=(6, 7))
        batch = shrink(H, 3)
        for i in range(6):
            np.testing.assert_array_equal(batch[i], shrink(H[i], 3))


def rounded(s, places):
    """round_code's definition, entry by entry: halves away from zero below whole."""
    s = np.asarray(s, dtype=np.float64)
    f = 10.0 ** places
    whole = 2.0 ** 52 / f
    with np.errstate(over="ignore"):  # |s| * f of an entry the mask keeps as it is
        return np.where(np.abs(s) < whole, np.copysign(np.floor(np.abs(s) * f + 0.5) / f, s), s)


class TestRoundCode:
    def test_examples(self):
        np.testing.assert_array_equal(
            round_code(np.array([0.12345, 0.0, -0.9999])),
            [0.123, 0.0, -1.0],
        )
        np.testing.assert_array_equal(
            round_code(np.array([0.0004, 0.5, 0.0])), [0.0, 0.5, 0.0]
        )

    def test_halves_away_from_zero(self):
        np.testing.assert_array_equal(round_code(np.array([0.1235, -0.1235]), 3),
                                      [0.124, -0.124])

    def test_zero_places(self):
        rng = np.random.default_rng(11)
        s = rng.uniform(-0.999, 0.999, 50)
        out = round_code(s, 0)
        assert set(np.unique(out)) <= {-1.0, 0.0, 1.0}

    def test_nonzero_count_never_increases(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            s = shrink(rng.normal(scale=0.01, size=10), 4)
            assert np.count_nonzero(round_code(s)) <= np.count_nonzero(s)

    def test_negative_places_rejected(self):
        with pytest.raises(ValueError):
            round_code(np.zeros(2), -1)

    @pytest.mark.parametrize("places", [2.5, 3.0, "3", None])
    def test_non_integer_places_rejected(self, places):
        with pytest.raises(ValueError, match="places must be an integer"):
            round_code(np.array([1.2345]), places)

    def test_places_beyond_float64_rejected(self):
        round_code(np.array([1.2345]), 308)
        with pytest.raises(ValueError, match=r"places must be in \[0, 308\], got 400"):
            round_code(np.array([1.2345]), 400)

    @pytest.mark.parametrize("places", [np.int64(3), np.int32(3), np.uint8(3)])
    def test_numpy_integer_places(self, places):
        s = np.array([1.2345, -0.0005, 0.0])
        assert round_code(s, places).tobytes() == round_code(s, 3).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 6).flatmap(lambda places: st.tuples(st.just(places), hnp.arrays(
        np.float64, st.integers(1, 12), elements=st.one_of(
            st.sampled_from([0.0, -0.0]),
            st.floats(-1.0 / 10.0 ** places, 1.0 / 10.0 ** places),  # round to +-0 or +-1/f
            st.floats(-2.0 ** 52 / 10.0 ** places, 2.0 ** 52 / 10.0 ** places,
                      exclude_min=True, exclude_max=True))))))
    @example(case=(3, np.array([-0.0, 0.0, -0.0004, 0.0004, -0.0005, 1.2345])))
    def test_every_entry_keeps_its_sign(self, case):
        places, s = case
        f = 10.0 ** places
        expected = np.copysign(np.floor(np.abs(s) * f + 0.5) / f, s)
        assert round_code(s, places).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("s", [2.5, -0.1235, np.float64(0.1234), np.array(-0.0004),
                                   np.float64(1e300), math.nan])
    @pytest.mark.parametrize("places", [0, 3])
    def test_zero_d_value_is_the_one_entry_case(self, s, places):
        out = round_code(s, places)
        assert isinstance(out, np.ndarray) and out.shape == ()
        assert out.tobytes() == round_code(np.reshape(s, 1), places).tobytes()

    @settings(max_examples=500, deadline=None)
    @given(st.integers(0, 308).flatmap(lambda places: st.tuples(st.just(places), hnp.arrays(
        np.float64, hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=6),
        elements=st.one_of(
            st.floats(),  # every double, NaN and +-inf included
            st.sampled_from([0.0, -0.0]),
            st.floats(-1.0 / 10.0 ** places, 1.0 / 10.0 ** places),
            st.floats(-2.0 ** 53 / 10.0 ** places, 2.0 ** 53 / 10.0 ** places))))))
    @example(case=(3, np.array([np.nan, -np.inf, np.inf, 2.0 ** 52 / 1e3, -0.0005, 1.2345])))
    @example(case=(0, np.array(-0.5)))
    # whole * whole is 0 from places 178 up, so even a zero code fails the fast path
    @example(case=(308, np.full(3, 1e-300)))
    @example(case=(200, np.zeros(4)))
    @example(case=(178, np.array([[5e-324, -1e-290], [np.nan, -0.0]])))
    @example(case=(308, np.array(-1e-300)))
    def test_every_double_rounds_as_specified(self, case):
        places, s = case
        out = round_code(s, places)
        assert out.shape == s.shape and out.tobytes() == rounded(s, places).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 308),
           hnp.arrays(np.float64, st.tuples(st.integers(2, 5), st.integers(1, 8)),
                      elements=st.floats(-2.0, 2.0)),
           st.sampled_from([None, np.nan, np.inf, -np.inf, 1e300]))
    def test_a_batch_row_is_that_row_rounded_alone(self, places, S, spoiler):
        if spoiler is not None:  # one entry sends the whole batch down the masked path
            S[-1, -1] = spoiler
        out = round_code(S, places)
        for row, rounded_row in zip(S, out):
            assert rounded_row.tobytes() == round_code(row, places).tobytes()


codes = st.tuples(st.integers(1, 6), st.integers(1, 30)).flatmap(
    lambda shape: hnp.arrays(np.float64, shape, elements=st.one_of(
        st.floats(-2.0, 2.0), st.just(0.0), st.floats(allow_nan=False))))


# Every entry of the library that takes a seed, called with that seed.
SEEDED_ENTRIES = {
    "noise": lambda seed: data.NoiseSpec(0.1, seed),
    "config": lambda seed: trainer.TrainingConfig(n_hidden=4, k_max=2, seed=seed),
    "init": lambda seed: trainer.init_params(3, 4, seed),
    "matrix": lambda seed: cs.gaussian_sensing_matrix(3, 4, seed),
}


class TestSeed:
    @pytest.mark.parametrize("entry", SEEDED_ENTRIES)
    @pytest.mark.parametrize("seed, message", [
        (1.5, "seed must be an integer, got 1.5"),
        (-1, "seed must be >= 0, got -1"),
        (None, "seed must be an integer, got None"),
    ], ids=["float", "negative", "none"])
    def test_every_seeded_entry_names_a_bad_seed(self, entry, seed, message):
        # None would draw fresh entropy: a matrix the base station cannot
        # regenerate, a fit that cannot be repeated.
        with pytest.raises(ValueError, match=re.escape(message)):
            SEEDED_ENTRIES[entry](seed)


# Every integer argument of the library: a call that passes it, and its range
# [lo, hi], with hi None when it has no upper bound.
INTEGER_ENTRIES = {
    "shrink_mask.k": (lambda k: core.shrink_mask(np.zeros(5), k), 1, 5),
    "round_code.places": (lambda places: core.round_code(np.zeros(2), places), 0, 308),
    "min_measurements.l": (lambda l: cs.min_measurements(1, l), 1, None),
    "min_measurements.k": (lambda k: cs.min_measurements(k, 4), 1, 4),
    "gaussian_sensing_matrix.l": (lambda l: cs.gaussian_sensing_matrix(1, l), 1, None),
    "gaussian_sensing_matrix.m": (lambda m: cs.gaussian_sensing_matrix(m, 4), 1, None),
    "lasso_recover_batch.max_iter": (
        lambda n: cs.lasso_recover_batch(np.eye(3), np.zeros((2, 3)), max_iter=n), 0, None),
    "generate_synthetic.n_sensors": (lambda n: data.generate_synthetic(n, 3), 2, None),
    "generate_synthetic.n_samples": (lambda n: data.generate_synthetic(3, n), 1, None),
    "init_params.n_visible": (lambda n: trainer.init_params(n, 2), 1, None),
    "init_params.n_hidden": (lambda n: trainer.init_params(2, n), 1, None),
    "minimize.max_iterations": (
        lambda n: trainer.minimize(lambda x: (x @ x, lambda: 2 * x), np.ones(2), n), 1, None),
    "TrainingConfig.n_hidden": (lambda n: trainer.TrainingConfig(n_hidden=n, k_max=1), 1, None),
    "TrainingConfig.k_max": (lambda k: trainer.TrainingConfig(n_hidden=4, k_max=k), 1, 4),
    "TrainingConfig.folds": (
        lambda n: trainer.TrainingConfig(n_hidden=4, k_max=2, folds=n), 2, None),
    "TrainingConfig.max_iterations": (
        lambda n: trainer.TrainingConfig(n_hidden=4, k_max=2, max_iterations=n), 1, None),
    "TrainingConfig.seed": (lambda n: trainer.TrainingConfig(n_hidden=4, k_max=2, seed=n), 0, None),
}


class TestInteger:
    @pytest.mark.parametrize("entry", INTEGER_ENTRIES)
    def test_bounds_are_accepted(self, entry):
        call, lo, hi = INTEGER_ENTRIES[entry]
        for value in [lo] if hi is None else [lo, hi]:
            call(value)

    @pytest.mark.parametrize("entry", INTEGER_ENTRIES)
    def test_float_named(self, entry):
        call, lo, _ = INTEGER_ENTRIES[entry]
        name = entry.rsplit(".", 1)[1]
        with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer, got {lo + 0.5}")):
            call(lo + 0.5)

    @pytest.mark.parametrize("entry", INTEGER_ENTRIES)
    @pytest.mark.parametrize("flag", [True, False, np.True_])
    def test_bool_named(self, entry, flag):
        # operator.index takes a Python bool as 1 or 0; a flag in a size's
        # place is a caller's mistake.
        call = INTEGER_ENTRIES[entry][0]
        name = entry.rsplit(".", 1)[1]
        with pytest.raises(ValueError, match=f"^{re.escape(f'{name} must be an integer, got {flag!r}')}$"):
            call(flag)

    @pytest.mark.parametrize("entry", INTEGER_ENTRIES)
    def test_out_of_range_named(self, entry):
        call, lo, hi = INTEGER_ENTRIES[entry]
        name = entry.rsplit(".", 1)[1]
        if hi is None:
            cases = [(lo - 1, f"{name} must be >= {lo}, got {lo - 1}")]
        else:
            cases = [(v, f"{name} must be in [{lo}, {hi}], got {v}") for v in (lo - 1, hi + 1)]
        for value, message in cases:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                call(value)


# Every entry of the library that checks an array for non-finite entries,
# called with an (8, 5) array, and the names its error gives a row and a column.
FINITE_ENTRIES = {
    "sphere_rows": (lambda X: data.sphere_rows(X, 1.0), "frame", "sensor"),
    "dataset_std": (data.dataset_std, "frame", "sensor"),
    "write_csv": (lambda X: data.write_csv(X, io.StringIO()), "frame", "sensor"),
    "transform": (lambda X: baselines.DctSparsifier(5).transform(X), "frame", "sensor"),
    "encode": (lambda X: baselines.DctSparsifier(5).encode(X, 2), "frame", "sensor"),
    "pca_fit": (lambda X: baselines.fit("pca", X), "training frame", "sensor"),
    "evaluate_rmse": (lambda X: trainer.evaluate_rmse(trainer.init_params(5, 6), 1.0, X, 2),
                      "frame", "sensor"),
    "trainer_fit": (lambda X: trainer.fit(X, trainer.TrainingConfig(n_hidden=6, k_max=2)),
                    "frame", "sensor"),
    "lasso_phi": (lambda phi: cs.lasso_recover_batch(phi, np.ones((3, 8))),
                  "matrix row", "column"),
    "lasso_y": (lambda Y: cs.lasso_recover_batch(cs.gaussian_sensing_matrix(5, 8), Y),
                "frame", "measurement"),
}

# Every entry that takes a matrix, called with X, and the name it gives X.
MATRIX_ENTRIES = {
    "write_csv": (lambda X: data.write_csv(X, io.StringIO()), "matrix"),
    "trainer_fit": (lambda X: trainer.fit(X, trainer.TrainingConfig(n_hidden=4, k_max=2)),
                    "matrix"),
    "trainer_train": (lambda X: trainer.train(X, trainer.TrainingConfig(n_hidden=4, k_max=2)),
                      "matrix"),
    "baselines_fit_dct": (lambda X: baselines.fit("dct", X), "training matrix"),
    "baselines_fit_pca": (lambda X: baselines.fit("pca", X), "training matrix"),
    "pca_fit": (baselines.PcaSparsifier.fit, "training matrix"),
    "lasso_recover_batch": (lambda phi: cs.lasso_recover_batch(phi, np.ones((3, 6))),
                            "sensing matrix"),
}

# Every entry of the library that takes frames or codes, called with X: the
# length it takes (None for any), the name its error gives X, and whether it
# takes an empty batch (0, n).
FRAME_PARAMS = trainer.init_params(5, 6)
FRAME_ENTRIES = {
    "hidden_activation": (lambda X: core.hidden_activation(FRAME_PARAMS, X), 5,
                          "d must be a frame", True),
    "reconstruct": (lambda S: core.reconstruct(FRAME_PARAMS, S), 6, "s must be a code", True),
    "gradient": (lambda X: core.gradient(FRAME_PARAMS, X, 0.1, 2), 5,
                 "training batch must be a frame", False),
    "evaluate_rmse": (lambda X: trainer.evaluate_rmse(FRAME_PARAMS, 1.0, X, 2), 5,
                      "test matrix must be a frame", False),
    "transform": (lambda X: baselines.DctSparsifier(5).transform(X), 5, "x must be a frame", True),
    "encode": (lambda X: baselines.DctSparsifier(5).encode(X, 2), 5, "x must be a frame", True),
    "decode": (lambda S: baselines.DctSparsifier(5).decode(S), 5, "s must be a code", True),
    "shrink": (lambda H: core.shrink(H, 2), None, "h must be a code", True),
    "shrink_mask": (lambda H: core.shrink_mask(H, 2), None, "h must be a code", True),
    "sphere": (lambda X: data.sphere(X, 1.0), None, "X must be a frame", True),
    "sphere_rows": (lambda X: data.sphere_rows(X, 1.0), None, "X must be a frame", True),
    "desphere_rows": (lambda D: data.desphere_rows(D, np.zeros(np.shape(D)[:-1]), 1.0), None,
                      "D_hat must be a frame", True),
    "lasso_recover_batch": (lambda Y: cs.lasso_recover_batch(cs.gaussian_sensing_matrix(5, 8), Y),
                            5, "Y must be measurements", True),
}
# Shapes that are not frames: a 0-d value, a 3-D stack and a row one too long.
NOT_FRAMES = [pytest.param(entry, shape, id=f"{entry}-{'x'.join(map(str, shape)) or '0d'}")
              for entry, (_, n, _, _) in FRAME_ENTRIES.items()
              for shape in [(), (2, 3, n or 5)] + ([(3, n + 1)] if n else [])]


def flat_outputs(out) -> list[np.ndarray]:
    """An entry's output as flat arrays; gradient's grad is called."""
    parts = out if isinstance(out, tuple) else (out,)
    return [np.ravel(p() if callable(p) else p) for p in parts]


class TestFrames:
    @pytest.mark.parametrize("entry", FRAME_ENTRIES)
    def test_a_frame_is_a_batch_of_one(self, entry):
        call, n, _, takes_empty = FRAME_ENTRIES[entry]
        X = np.random.default_rng(5).uniform(-0.5, 0.5, (3, n or 5))
        call(X)
        frame, batch_of_one = flat_outputs(call(X[0])), flat_outputs(call(X[:1]))
        assert len(frame) == len(batch_of_one)
        for a, b in zip(frame, batch_of_one):
            assert a.tobytes() == b.tobytes()
        if takes_empty:
            call(X[:0])
        else:
            with pytest.raises(ValueError, match=rf"^empty .+ of shape \(0, {n}\)$"):
                call(X[:0])

    @pytest.mark.parametrize("entry, shape", NOT_FRAMES)
    def test_any_other_shape_is_named(self, entry, shape):
        call, n, what, _ = FRAME_ENTRIES[entry]
        message = f"{what} of length {n or 'N'} or a batch of them, got shape {shape}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(np.zeros(shape))


class TestArrayChecks:
    @pytest.mark.parametrize("entry", FINITE_ENTRIES)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("later, first", [((4, 1), (2, 3)), ((3, 4), (3, 0))],
                             ids=["rows", "columns"])
    def test_every_entry_names_the_first_non_finite_entry(self, entry, bad, later, first):
        call, what, part = FINITE_ENTRIES[entry]
        A = np.random.default_rng(4).normal(size=(8, 5))
        A[later] = A[first] = bad
        message = f"^{what} {first[0]}, {part} {first[1]} is not finite: {bad}$"
        with pytest.raises(ValueError, match=message):
            call(A)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field, later, first", [
        ("w1", (3, 1), (2, 3)), ("w1", (2, 4), (2, 0)),
        ("b1", 3, 1), ("b1", 2, 0),
        ("w2", (4, 1), (2, 3)), ("w2", (3, 3), (3, 0)),
        ("b2", 4, 2), ("b2", 1, 0),
    ])
    def test_params_name_the_first_non_finite_entry(self, bad, field, later, first):
        # SsaeParams beside the table above: w1 is (4, 5), w2 (5, 4), and a
        # 1-D field's one row is row 0.
        fields = vars(random_params(np.random.default_rng(4), 5, 4))
        fields[field][later] = fields[field][first] = bad
        row, column = first if isinstance(first, tuple) else (0, first)
        message = f"^{field} row {row}, column {column} is not finite: {bad}$"
        with pytest.raises(ValueError, match=message):
            SsaeParams(**fields)

    def test_a_long_array_is_summed_in_dots_below_the_thread_limit(self, monkeypatch):
        sizes = []
        vdot = np.vdot
        monkeypatch.setattr(np, "vdot", lambda a, b: sizes.append(a.size) or vdot(a, b))
        core._finite(np.ones((20_000, 23)))
        assert sum(sizes) == 460_000 and max(sizes) <= core._DOT_MAX
        sizes.clear()
        core._finite(np.ones((250, 23)))
        assert sizes == [250 * 23]

    def test_a_long_array_names_a_nan_in_its_last_entry(self):
        X = np.ones((20_000, 23))
        X[0, 0] = 1e200  # the first dot's sum overflows, and the search finds no entry there
        X[-1, -1] = np.nan
        with pytest.raises(ValueError, match="^frame 19999, sensor 22 is not finite: nan$"):
            core._finite(X)

    @pytest.mark.parametrize("value", [1e200, -1.7e308])
    def test_finite_values_whose_squares_overflow_pass(self, value):
        X = np.full((3, 4), value)
        sink = io.StringIO()
        data.write_csv(X, sink)
        assert np.array_equal(data.load_csv(io.StringIO(sink.getvalue())), X)

    @pytest.mark.parametrize("entry", MATRIX_ENTRIES)
    @pytest.mark.parametrize("shape", [(6,), (2, 6, 6)])
    def test_every_entry_names_a_matrix_that_is_not_2d(self, entry, shape):
        call, what = MATRIX_ENTRIES[entry]
        message = f"expected a 2-D {what}, got shape {shape}"
        with pytest.raises(ValueError, match=re.escape(message)):
            call(np.ones(shape))


class TestSparsityProperties:
    @settings(max_examples=200, deadline=None)
    @given(codes, st.data())
    def test_shrink_never_increases_nonzero_count(self, H, data):
        k = data.draw(st.integers(1, H.shape[1]))
        before = np.count_nonzero(H, axis=1)
        after = np.count_nonzero(shrink(H, k), axis=1)
        assert np.all(after <= np.minimum(before, k))

    @settings(max_examples=200, deadline=None)
    @given(codes, st.integers(0, 6))
    def test_round_code_never_increases_nonzero_count(self, S, places):
        R = round_code(S, places)
        assert np.all(np.count_nonzero(R, axis=1) <= np.count_nonzero(S, axis=1))
        finite = np.isfinite(S)
        assert np.isfinite(R[finite]).all()
        whole = np.abs(S) >= 2.0 ** 52 / 10.0 ** places
        assert np.array_equal(R[whole], S[whole])


def reference_shrink_mask(h, k):
    """The k largest magnitudes by a stable sort of -|h|: ties keep the
    lower index and NaN ranks below every number."""
    order = np.argsort(-np.abs(h), axis=-1, kind="stable")
    mask = np.zeros(h.shape, dtype=bool)
    np.put_along_axis(mask, order[..., :k], True, axis=-1)
    return mask


# A small grid makes magnitude ties common; +-0.0 and NaN rows are the
# edge cases of a threshold rule.
tie_grid = st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 0.25])
frame_or_batch = st.one_of(st.tuples(st.integers(1, 12)),
                          st.tuples(st.integers(1, 8), st.integers(1, 12)))
activations = frame_or_batch.flatmap(lambda shape: hnp.arrays(
    np.float64, shape,
    elements=st.one_of(tie_grid, tie_grid, st.floats(-1.0, 1.0), st.just(np.nan))))


class TestShrinkMaskProperty:
    @settings(max_examples=300, deadline=None)
    @given(activations, st.integers(0, 11))
    # A row with fewer numbers than k beside a row tied at the threshold:
    # under `neg <= thr` the first would keep none and the second all 2k.
    @example(H=np.array([[np.nan, 0.1, np.nan, -0.3, np.nan, np.nan],
                         [0.5, -0.5, 0.5, -0.5, 0.5, -0.5]]), rank=2)
    # k = L keeps every entry by the threshold alone, NaN rows included.
    @example(H=np.array([[np.nan, 0.3, np.nan], [0.5, -0.5, 0.0]]), rank=2)
    def test_matches_stable_argsort_reference(self, H, rank):
        k = 1 + rank % H.shape[-1]
        assert np.array_equal(shrink_mask(H, k), reference_shrink_mask(H, k))

    @settings(max_examples=300, deadline=None)
    @given(activations, st.integers(0, 11))
    def test_shrink_is_where_of_the_mask(self, H, rank):
        k = 1 + rank % H.shape[-1]
        ref = np.where(reference_shrink_mask(H, k), H, 0.0)
        assert shrink(H, k).tobytes() == ref.tobytes()

    def test_nan_row_and_tied_row_in_one_batch(self):
        # Fewer numbers than k in one row and a k-way tie in the other: a
        # threshold keeping too few in the first and too many in the second
        # would still keep 2k in the batch.
        H = np.array([[np.nan, np.nan, np.nan, 0.5], [0.5, -0.5, 0.5, -0.5]])
        assert np.array_equal(shrink_mask(H, 2),
                              [[True, False, False, True], [True, True, False, False]])


class TestReconstruct:
    def test_zero_code_zero_bias(self):
        p = zero_params(4, 6)
        np.testing.assert_array_equal(reconstruct(p, np.zeros(6)), np.zeros(4))

    def test_scalar_value(self):
        p = SsaeParams(w1=np.zeros((1, 1)), b1=np.zeros(1),
                       w2=np.array([[2.0]]), b2=np.array([0.1]))
        np.testing.assert_allclose(reconstruct(p, np.array([0.3])),
                                   [0.6043677771171636], rtol=1e-12)

    def test_zero_params_for_any_code(self):
        p = zero_params(3, 5)
        rng = np.random.default_rng(13)
        np.testing.assert_array_equal(reconstruct(p, rng.normal(size=5)), np.zeros(3))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            reconstruct(zero_params(3, 5), np.zeros(4))
        with pytest.raises(ValueError, match="s must be a code"):
            reconstruct(zero_params(3, 5), np.float64(1.0))


# A frame, batches of 1, 2, 7 and 250 rows, and 250 row-strided rows, which
# ndarray.dot copies, taken from 500 rows.
FRAME_TAKES = [0, slice(1), slice(2), slice(7), slice(250), slice(None, None, 2)]
FRAME_TAKE_IDS = ["frame", "1", "2", "7", "250", "strided"]


@pytest.mark.parametrize("take", FRAME_TAKES, ids=FRAME_TAKE_IDS)
def test_layers_are_the_bytes_of_their_matmul_formula(take):
    # Both layers multiply by ndarray.dot, with weights that are views of one
    # parameter vector as the trainer makes them.
    rng = np.random.default_rng(31)
    p = SsaeParams.from_vector(random_params(rng, 23, 25).to_vector(), 23, 25)
    D, S = rng.uniform(-1, 1, (500, 23))[take], rng.normal(size=(500, 25))[take]
    assert hidden_activation(p, D).tobytes() == np.tanh(D @ p.w1.T + p.b1).tobytes()
    assert reconstruct(p, S).tobytes() == np.tanh(S @ p.w2.T + p.b2).tobytes()


class TestCost:
    def test_zero_everything(self):
        p = zero_params(3, 4)
        assert cost(p, np.zeros((5, 3)), gamma=2.0, k=2) == 0.0

    def test_gamma_zero_is_pure_reconstruction(self):
        rng = np.random.default_rng(14)
        p = random_params(rng, 4, 6)
        D = rng.uniform(-1, 1, (7, 4))
        c = cost(p, D, gamma=0.0, k=3)
        H = np.tanh(D @ p.w1.T + p.b1)
        S = round_code(shrink(H, 3))
        D_hat = np.tanh(S @ p.w2.T + p.b2)
        np.testing.assert_allclose(c, 0.5 * np.sum((D_hat - D) ** 2) / 7, rtol=1e-12)

    def test_penalty_scalar_value(self):
        # One sample, one hidden unit, h = 0.5, perfect reconstruction of d = 0.
        p = SsaeParams(w1=np.zeros((1, 1)), b1=np.array([math.atanh(0.5)]),
                       w2=np.zeros((1, 1)), b2=np.zeros(1))
        c = cost(p, np.zeros((1, 1)), gamma=1.0, k=1)
        np.testing.assert_allclose(c, 0.09691001300805642, rtol=1e-10)

    def test_nonnegative(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            p = random_params(rng, 3, 5, scale=1.0)
            D = rng.uniform(-1, 1, (4, 3))
            assert cost(p, D, gamma=float(rng.uniform(0, 1)), k=2) >= 0.0

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            cost(zero_params(3, 4), np.zeros((0, 3)), 0.1, 2)

    @pytest.mark.parametrize("gamma", [math.nan, math.inf, -1.0])
    def test_gamma_must_be_finite_and_nonnegative(self, gamma):
        for f in (cost, gradient):
            with pytest.raises(ValueError, match="gamma must be finite and >= 0"):
                f(zero_params(3, 4), np.zeros((5, 3)), gamma, 2)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            cost(zero_params(3, 4), np.zeros((5, 2)), 0.1, 2)

    @pytest.mark.parametrize("D, message", [
        ([[math.inf, 0.0], [0.1, 0.2]], "frame 0, sensor 0 is not finite: inf"),
        ([[0.1, 0.2], [0.3, math.nan]], "frame 1, sensor 1 is not finite: nan"),
        ([0.1, -math.inf], "frame 0, sensor 1 is not finite: -inf"),
    ])
    def test_non_finite_training_batch_named(self, D, message):
        p = zero_params(2, 3)
        for f in (cost, gradient):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                f(p, D, 0.1, 1)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            trainer.evaluate_rmse(p, 1.0, D, 1)


def reference_cost_and_gradient(p, D, gamma, k, places):
    """The objective and its backpropagated gradient, one formula per line."""
    T = D.shape[0]
    H = np.tanh(D @ p.w1.T + p.b1)
    mask = reference_shrink_mask(H, k)
    S = np.where(mask, H, 0.0)
    if places is not None:
        f = 10.0 ** places
        S = np.sign(S) * np.floor(np.abs(S) * f + 0.5) / f
    D_hat = np.tanh(S @ p.w2.T + p.b2)
    err = D_hat - D
    c = (0.5 * float(np.sum(err ** 2)) / T
         + gamma * float(np.sum(np.log10(1.0 + H * H))) / T)
    delta2 = err * (1.0 - D_hat * D_hat)
    g_w2 = delta2.T @ S / T
    g_b2 = delta2.sum(axis=0) / T
    dh = np.where(mask, delta2 @ p.w2, 0.0)
    dh = dh + gamma * (2.0 * H) / ((1.0 + H * H) * math.log(10.0))
    delta1 = dh * (1.0 - H * H)
    g_w1 = delta1.T @ D / T
    g_b1 = delta1.sum(axis=0) / T
    return c, np.concatenate([g_w1.ravel(), g_b1, g_w2.ravel(), g_b2])


# (N, L, T, k as a share of L, gamma, weight scale, data seed)
evaluation_cases = st.tuples(
    st.integers(1, 7), st.integers(1, 9), st.integers(1, 12), st.floats(0.0, 1.0),
    st.sampled_from([0.0, 0.05, 0.2, 1.0]), st.sampled_from([0.1, 0.4, 1.5]),
    st.integers(0, 2**32 - 1))


def draw_case(case):
    N, L, T, share, gamma, scale, seed = case
    rng = np.random.default_rng(seed)
    k = max(1, math.ceil(share * L))
    D = rng.uniform(-0.9, 0.9, (T, N))
    return random_params(rng, N, L, scale=scale), D, gamma, k


def saved_forward(p, D, gamma, k, places):
    """gradient()'s forward state, (D, H, HH, 1 + HH, mask, S, D_hat, err)."""
    H = hidden_activation(p, D)
    mask = shrink_mask(H, k)
    S = np.where(mask, H, 0.0)
    if places is not None:
        S = round_code(S, places)
    D_hat = reconstruct(p, S)
    HH = H * H
    return D, H, HH, 1.0 + HH, mask, S, D_hat, D_hat - D


def allocating_backward(params, gamma, D, H, HH, one_plus_HH, mask, S, D_hat, err):
    """The backward pass with a fresh array per temporary, operands as in core."""
    T = D.shape[0]
    delta2 = D_hat * D_hat
    np.subtract(1.0, delta2, out=delta2)
    delta2 *= err
    g_w2 = delta2.T @ S / T
    g_b2 = delta2.sum(axis=0) / T
    dh = np.where(mask, delta2 @ params.w2, 0.0)
    penalty = 2.0 * H
    penalty *= gamma
    one_plus_HH *= math.log(10.0)
    penalty /= one_plus_HH
    dh += penalty
    np.subtract(1.0, HH, out=HH)
    dh *= HH
    g_w1 = dh.T @ D / T
    g_b1 = dh.sum(axis=0) / T
    return np.concatenate([g_w1.ravel(), g_b1, g_w2.ravel(), g_b2])


def traced_peak(fn) -> int:
    """The traced peak, in bytes, of fn() from a fresh start of tracemalloc."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestGradient:
    # (N, L, T, k, gamma, places), pruned: gamma 0, no rounding, k = L, T = 1,
    # and unit 0 pruned in every row.
    @pytest.mark.parametrize("N, L, T, k, gamma, places, pruned", [
        pytest.param(*case, pruned, id="-".join(map(str, case)) + "-pruned" * pruned)
        for case, pruned in [
            ((23, 25, 400, 5, 0.3, 3), False),
            ((23, 25, 400, 5, 0.0, 3), False),
            ((23, 25, 400, 5, 0.3, None), False),
            ((23, 25, 400, 25, 0.3, 3), False),
            ((23, 25, 1, 5, 0.3, 3), False),
            ((4, 6, 1, 6, 0.0, None), False),
            ((23, 25, 400, 5, 0.0, 3), True),
        ]])
    def test_backward_bits_equal_the_allocating_backward(self, N, L, T, k, gamma, places,
                                                          pruned):
        rng = np.random.default_rng(N * L + T + k)
        p = random_params(rng, N, L)
        D = rng.uniform(-0.9, 0.9, (T, N))
        if pruned:
            # Unit 0 is the smallest and negative in every row, and b2 puts
            # every D_hat above D, so delta2 > 0 and delta2 @ W2 < 0 in its
            # column: the mask product leaves -0 there, and with gamma 0
            # the penalty adds -0, so its whole column of dh is -0.
            p.w1[0], p.b1[0], p.b2[:] = 0.0, -1e-6, 4.0
            p.w2[:, 0] = -np.abs(p.w2[:, 0])
        _, grad = gradient(p, D, gamma, k, places=places)
        g = grad()
        state = saved_forward(p, D, gamma, k, places)
        if pruned:
            _, H, _, _, mask, _, D_hat, err = state
            back = (err * (1.0 - D_hat * D_hat)) @ p.w2
            assert not mask[:, 0].any() and (H[:, 0] < 0).all() and (back[:, 0] < 0).all()
        ref = allocating_backward(p, gamma, *state)
        assert g.tobytes() == ref.tobytes()
        assert grad() is g and g.tobytes() == ref.tobytes()

    def test_backward_allocates_less_than_one_hidden_batch(self):
        # The backward pass writes into the saved forward arrays, so its
        # only (T, L) array, dh, fits under the forward pass's own peak.
        T, N, L = 4_000, 23, 25
        rng = np.random.default_rng(22)
        p = random_params(rng, N, L)
        D = rng.uniform(-0.9, 0.9, (T, N))
        gradient(p, D, 0.3, 5)[1]()  # warm-up: first-call allocations are not the pass's
        forward = traced_peak(lambda: gradient(p, D, 0.3, 5))
        both = traced_peak(lambda: gradient(p, D, 0.3, 5)[1]())
        assert both - forward < T * L * 8, (forward, both)

    @settings(max_examples=150, deadline=None)
    @given(evaluation_cases, st.sampled_from([3, None]))
    def test_equals_unfused_reference(self, case, places):
        p, D, gamma, k = draw_case(case)
        c, grad = gradient(p, D, gamma, k, places=places)
        g = grad()
        c_ref, g_ref = reference_cost_and_gradient(p, D, gamma, k, places)
        assert c == c_ref
        assert np.array_equal(g, g_ref)

    @settings(max_examples=40, deadline=None)
    @given(evaluation_cases)
    def test_matches_central_differences(self, case):
        p, D, gamma, k = draw_case(case)
        g = gradient(p, D, gamma, k, places=None)[1]()
        fd = central_differences(frozen_cost_fn(p, D, gamma, k), p.to_vector())
        np.testing.assert_allclose(g, fd, rtol=1e-5, atol=1e-8)

    def test_zero_data_zero_params(self):
        p = zero_params(3, 4)
        g = gradient(p, np.zeros((5, 3)), gamma=0.3, k=2)[1]()
        assert np.all(g == 0.0)

    def test_matches_finite_differences_full_mask(self):
        rng = np.random.default_rng(16)
        for _ in range(5):
            N, L, T = rng.integers(1, 8), rng.integers(1, 8), rng.integers(1, 6)
            p = random_params(rng, int(N), int(L), scale=0.3)
            D = rng.uniform(-0.9, 0.9, (int(T), int(N)))
            g = gradient(p, D, gamma=0.1, k=int(L), places=None)[1]()
            fd = central_differences(frozen_cost_fn(p, D, 0.1, int(L)), p.to_vector())
            rel = np.abs(g - fd) / np.maximum(np.abs(fd), 1e-8)
            assert rel.max() <= 1e-5

    def test_matches_finite_differences_frozen_mask(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            N, L, T = int(rng.integers(2, 9)), int(rng.integers(3, 9)), int(rng.integers(1, 7))
            k = int(rng.integers(1, L))
            p = random_params(rng, N, L, scale=0.4)
            D = rng.uniform(-0.9, 0.9, (T, N))
            g = gradient(p, D, gamma=0.2, k=k, places=None)[1]()
            fd = central_differences(frozen_cost_fn(p, D, 0.2, k), p.to_vector())
            rel = np.abs(g - fd) / np.maximum(np.abs(fd), 1e-8)
            assert rel.max() <= 1e-5

    def test_grad_caches_its_array(self):
        rng = np.random.default_rng(21)
        p = random_params(rng, 5, 6)
        D = rng.uniform(-1, 1, (8, 5))
        _, grad = gradient(p, D, gamma=0.2, k=3)
        first = grad()
        assert np.array_equal(grad(), first)
        assert np.array_equal(first, reference_cost_and_gradient(p, D, 0.2, 3, 3)[1])

    def test_shapes_match_params(self):
        rng = np.random.default_rng(18)
        p = random_params(rng, 4, 7)
        g = gradient(p, rng.uniform(-1, 1, (3, 4)), 0.1, 3)[1]()
        assert g.shape == p.to_vector().shape

    @pytest.mark.parametrize("places", [3, None])
    def test_cost_equals_cost_function(self, places):
        rng = np.random.default_rng(19)
        p = random_params(rng, 6, 9)
        D = rng.uniform(-1, 1, (11, 6))
        c, _ = gradient(p, D, gamma=0.2, k=4, places=places)
        assert c == cost(p, D, gamma=0.2, k=4, places=places)

    def test_one_forward_pass_per_training_evaluation(self, monkeypatch):
        calls = 0
        shrink_mask_orig = core.shrink_mask

        def counting_shrink_mask(h, k):
            nonlocal calls
            calls += 1
            return shrink_mask_orig(h, k)

        def one_evaluation(objective, x0, **kwargs):
            objective(x0)
            return trainer.MinimizeResult(x=x0, curve=[], converged=True, message="",
                                          evaluations=1, gradients=0)

        monkeypatch.setattr(core, "shrink_mask", counting_shrink_mask)
        monkeypatch.setattr(trainer, "minimize", one_evaluation)
        X = np.random.default_rng(20).normal(size=(12, 4))
        trainer.fit(X, trainer.TrainingConfig(n_hidden=5, k_max=2))
        assert calls == 1
