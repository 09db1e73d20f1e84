import os
import subprocess
import sys

import numpy as np
import pytest

import ssae
from ssae import baselines

SIZES = (1, 2, 7, 23, 24)
KINDS = ("dct", "dft", "pca")


def training(n, seed=0):
    """Correlated frames near 20, with T = 3N >= N rows."""
    rng = np.random.default_rng(seed)
    return 20.0 + rng.normal(size=(3 * n, n)) @ rng.normal(size=(n, n))


CASES = [(kind, n) for kind in KINDS for n in SIZES if not (kind == "pca" and n < 2)]


def packed_dft(x):
    """Real packing of the orthonormal DFT, written out frequency by frequency."""
    n = len(x)
    spec = np.fft.rfft(x) / np.sqrt(n)
    out = [spec[0].real]
    for f in range(1, (n + 1) // 2):
        out += [np.sqrt(2.0) * spec[f].real, np.sqrt(2.0) * spec[f].imag]
    if n % 2 == 0:
        out.append(spec[n // 2].real)
    return np.array(out)


@pytest.mark.parametrize("kind,n", CASES)
def test_basis_is_orthonormal(kind, n):
    sp = baselines.fit(kind, training(n))
    assert sp.kind == kind and sp.code_length == n
    assert sp.components.shape == (n, n) and sp.mean.shape == (n,)
    np.testing.assert_allclose(sp.components @ sp.components.T, np.eye(n), rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("kind,reference", [
    ("dct", lambda x: pytest.importorskip("scipy.fft").dct(x, norm="ortho")),
    ("dft", packed_dft),
])
def test_matches_reference_transform(kind, reference, n):
    sp = baselines.fit(kind, training(n))
    for x in training(n, seed=1):
        np.testing.assert_allclose(sp.transform(x), reference(x), rtol=0, atol=1e-12)
    if kind == "dct":
        # Makhoul's FFT basis is within rounding of scipy's; a closed-form
        # cosine matrix is about 4e-15 off and fails this bound.
        reference_basis = pytest.importorskip("scipy.fft").dct(np.eye(n), norm="ortho", axis=0)
        np.testing.assert_allclose(sp.components, reference_basis, rtol=0, atol=4e-16)


def test_importing_the_library_imports_no_scipy():
    # A fresh interpreter, so no scipy loaded by the tests themselves counts.
    code = (
        "import pkgutil, sys, ssae\n"
        "for m in pkgutil.iter_modules(ssae.__path__):\n"
        "    __import__('ssae.' + m.name)\n"
        "print(' '.join(m for m in sys.modules if m.startswith('ssae.')))\n"
        "loaded = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
        "assert not loaded, loaded\n"
    )
    path = [os.path.dirname(os.path.dirname(ssae.__file__)), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run([sys.executable, "-X", "dev", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "ssae.baselines" in done.stdout.split()


@pytest.mark.parametrize("kind,n", CASES)
def test_batch_rows_equal_single_frames(kind, n):
    sp = baselines.fit(kind, training(n))
    X = training(n, seed=2)
    k = max(1, n // 3)
    S = sp.encode(X, k)
    assert S.shape == X.shape
    assert sp.encode(X[:1], k).shape == (1, n)
    for x, s in zip(X, S):
        single = sp.encode(x, k)
        np.testing.assert_array_equal(single != 0, s != 0)
        np.testing.assert_allclose(single, s, rtol=0, atol=1e-12)
    X_hat = sp.decode(S)
    for s, x_hat in zip(S, X_hat):
        np.testing.assert_allclose(sp.decode(s), x_hat, rtol=0, atol=1e-12)


# A frame, batches of 1, 2, 7 and 250 rows, and 250 row-strided rows, which
# ndarray.dot copies, taken from 500 rows.
FRAME_TAKES = [0, slice(1), slice(2), slice(7), slice(250), slice(None, None, 2)]
FRAME_TAKE_IDS = ["frame", "1", "2", "7", "250", "strided"]


@pytest.mark.parametrize("take", FRAME_TAKES, ids=FRAME_TAKE_IDS)
@pytest.mark.parametrize("kind", KINDS)
def test_products_are_the_bytes_of_their_matmul_formula(kind, take):
    sp = baselines.fit(kind, training(23))
    rng = np.random.default_rng(4)
    X, S = (20.0 + rng.normal(size=(500, 23)))[take], rng.normal(size=(500, 23))[take]
    assert sp.transform(X).tobytes() == ((X - sp.mean) @ sp.components.T).tobytes()
    assert sp.decode(S).tobytes() == (S @ sp.components + sp.mean).tobytes()


@pytest.mark.parametrize("kind,n", CASES)
def test_sparsity_and_round_trip(kind, n):
    sp = baselines.fit(kind, training(n))
    X = training(n, seed=3)
    for k in range(1, n + 1):
        assert np.all(np.count_nonzero(sp.encode(X, k), axis=1) <= k)
    np.testing.assert_allclose(sp.decode(sp.encode(X, n)), X, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [2, 7, 23, 24])
def test_pca_coefficient_variance_falls(n):
    X = training(n)
    var = baselines.fit("pca", X).transform(X).var(axis=0)
    assert np.all(np.diff(var) <= 1e-12 * var[0])


class TestErrors:
    def test_wrong_frame_length_named(self):
        sp = baselines.fit("dct", training(23))
        with pytest.raises(ValueError, match=r"length 23.*\(22,\)"):
            sp.encode(np.zeros(22), 5)
        with pytest.raises(ValueError, match=r"length 23.*\(4, 24\)"):
            sp.decode(np.zeros((4, 24)))
        with pytest.raises(ValueError, match=r"\(2, 3, 23\)"):
            sp.encode(np.zeros((2, 3, 23)), 5)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="wavelet"):
            baselines.fit("wavelet", training(7))

    def test_pca_needs_as_many_rows_as_sensors(self):
        with pytest.raises(ValueError, match="N=7"):
            baselines.fit("pca", training(7)[:6])

    def test_training_matrix_must_be_2d(self):
        with pytest.raises(ValueError, match="2-D"):
            baselines.fit("dct", np.zeros(7))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_pca_names_the_first_non_finite_entry(self, bad):
        X = training(7)
        X[9, 4] = X[12, 1] = bad
        with pytest.raises(ValueError, match=f"training frame 9, sensor 4 is not finite: {bad}"):
            baselines.fit("pca", X)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_encode_names_the_non_finite_frame_and_sensor(self, kind, bad):
        sp = baselines.fit(kind, training(6))
        x = np.arange(6.0)
        x[3] = bad
        with pytest.raises(ValueError, match=f"frame 0, sensor 3 is not finite: {bad}"):
            sp.encode(x, 2)
        X = np.ones((4, 6))
        X[2] = x
        with pytest.raises(ValueError, match=f"frame 2, sensor 3 is not finite: {bad}"):
            sp.encode(X, 2)
        with pytest.raises(ValueError, match=f"frame 2, sensor 3 is not finite: {bad}"):
            sp.transform(X)
