"""Conventional sparsifying transforms: DCT, DFT and PCA, each one orthonormal basis.

Every baseline is a ``Sparsifier``: an orthonormal N x N basis whose rows are
``components``, and a ``mean``.  A frame x maps to the N coefficients
``(x - mean) @ components.T`` and back by ``c @ components + mean``; a
single frame is the B=1 case of a batch (core._frames).  Sparsification
keeps the K largest-magnitude coefficients through the same pruning
operation the autoencoder uses, so all methods are compared on identical
code paths.
"""

from __future__ import annotations

import numpy as np

from . import core

__all__ = ["Sparsifier", "DctSparsifier", "DftSparsifier", "PcaSparsifier", "fit"]

KINDS = ("dct", "dft", "pca")


class Sparsifier:
    """An orthonormal basis: encode frames to K-sparse codes, decode them back.

    components is (N, N) with orthonormal rows; mean is (N,).  Each kind
    sets ``kind`` to its name.
    """

    kind: str

    def __init__(self, components: np.ndarray, mean: np.ndarray):
        self.components = components
        self.mean = mean
        self.code_length = components.shape[0]

    def transform(self, x: np.ndarray) -> np.ndarray:
        """Coefficients of frames; a ValueError names a non-finite reading's frame and sensor."""
        x = core._frames(x, self.code_length, "x must be a frame")
        core._finite(x)
        return (x - self.mean).dot(self.components.T)

    def encode(self, x: np.ndarray, k: int) -> np.ndarray:
        """Transform then keep the k largest-magnitude coefficients of each frame."""
        return core.shrink(self.transform(x), k)

    def decode(self, s: np.ndarray) -> np.ndarray:
        """Frames from codes; the inverse of transform."""
        return core._frames(s, self.code_length, "s must be a code").dot(self.components) + self.mean


class DctSparsifier(Sparsifier):
    """Orthonormal type-II DCT from one np.fft.fft, by Makhoul (IEEE TASSP 1980).

    Even samples, then odd ones reversed, are transformed; frequency k is
    twiddled by exp(-i pi k / 2N), and the real part is scaled by sqrt(2/N),
    row 0 by sqrt(1/N).  Within 2.2e-16 of scipy.fft.dct's basis to N = 128.
    """

    kind = "dct"

    def __init__(self, n: int):
        eye = np.eye(n)
        spec = np.fft.fft(np.concatenate((eye[::2], eye[1::2][::-1])), axis=0)
        basis = (np.exp(-0.5j * np.pi * np.arange(n) / n)[:, None] * spec).real * np.sqrt(2.0 / n)
        basis[0] /= np.sqrt(2.0)
        super().__init__(basis, np.zeros(n))


class DftSparsifier(Sparsifier):
    """Orthonormal real-packed discrete Fourier transform.

    Rows are the DC term, then interleaved real and imaginary parts of the
    positive frequencies (each scaled by sqrt 2), and the Nyquist term for
    even N.  A kept complex frequency therefore consumes two of the K
    slots, which keeps the sparsity accounting honest in real numbers.
    """

    kind = "dft"

    def __init__(self, n: int):
        spec = np.fft.rfft(np.eye(n), axis=0) / np.sqrt(n)  # row f: frequency f
        basis = np.empty((n, n))
        basis[0] = spec[0].real
        half = (n - 1) // 2  # positive frequencies below Nyquist
        basis[1 : 1 + 2 * half : 2] = np.sqrt(2.0) * spec[1 : 1 + half].real
        basis[2 : 2 + 2 * half : 2] = np.sqrt(2.0) * spec[1 : 1 + half].imag
        if n % 2 == 0:
            basis[-1] = spec[-1].real
        super().__init__(basis, np.zeros(n))


class PcaSparsifier(Sparsifier):
    """Full square PCA basis fitted to training data.

    Keeps all N components (sorted by descending eigenvalue) and relies on
    top-K pruning for sparsity; decoding re-adds the training mean.
    """

    kind = "pca"

    @classmethod
    def fit(cls, X: np.ndarray) -> "PcaSparsifier":
        X = core._matrix(X, "training matrix")
        T, N = X.shape
        if T < N:
            raise ValueError(f"PCA needs at least N={N} rows, got {T}")
        core._finite(X, "training frame")
        mean = X.mean(axis=0)
        centered = X - mean
        cov = centered.T @ centered / T
        eigvals, eigvecs = np.linalg.eigh(cov)
        order = np.argsort(eigvals)[::-1]
        return cls(components=eigvecs[:, order].T.copy(), mean=mean)


def fit(kind: str, X: np.ndarray) -> Sparsifier:
    """Build a sparsifier of the given kind from a (T, N) training matrix.

    DCT and DFT ignore the data apart from its width; PCA eigendecomposes
    the column covariance.
    """
    kind = kind.lower()
    if kind == "pca":
        return PcaSparsifier.fit(X)
    n = core._matrix(X, "training matrix").shape[1]
    if kind == "dct":
        return DctSparsifier(n)
    if kind == "dft":
        return DftSparsifier(n)
    raise ValueError(f"unknown sparsifier kind {kind!r}; expected one of {KINDS}")
