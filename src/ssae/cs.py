"""Compressive-sensing codec: Gaussian measurement and LASSO recovery.

A sparse length-L code is compressed to M < L numbers by one flat random
matrix; both ends regenerate the matrix from (M, L, seed), so it is never
transmitted or stored.  Recovery solves the l1-penalized least squares
problem by cyclic coordinate descent with soft thresholding, warm-started
along a decreasing penalty path so small penalties converge quickly.
Frames sharing one matrix are recovered together: the coordinate updates
vectorize across frames without changing the per-frame iteration.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Measurement",
    "min_measurements",
    "gaussian_sensing_matrix",
    "measure",
    "lasso_recover_batch",
]


@dataclass(frozen=True)
class Measurement:
    """The per-frame payload: M measurements plus the frame mean."""

    y: np.ndarray
    frame_mean: float

    @property
    def payload(self) -> np.ndarray:
        """All transmitted values: y followed by the frame mean (M + 1 numbers)."""
        return np.concatenate([np.asarray(self.y, dtype=np.float64),
                               [self.frame_mean]])


def min_measurements(k: int, l: int, rho: float = 1.0) -> int:
    """Measurement count M = ceil(rho * K * log2(L / K)), floored at 1."""
    if not 1 <= k <= l:
        raise ValueError(f"need 1 <= k <= l, got k={k}, l={l}")
    if rho <= 0:
        raise ValueError(f"rho must be positive, got {rho}")
    return max(1, math.ceil(rho * k * math.log2(l / k)))


def gaussian_sensing_matrix(m: int, l: int, seed: int = 0) -> np.ndarray:
    """I.i.d. Gaussian (M, L) matrix with entry variance 1/M.

    Columns then have unit expected squared norm, keeping measurements at
    the scale of the code.  Deterministic given (m, l, seed).
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if m > l:
        raise ValueError(f"m={m} > l={l} would not compress")
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, 1.0 / math.sqrt(m), size=(m, l))


def measure(phi: np.ndarray, s: np.ndarray, frame_mean: float) -> Measurement:
    """Compress a sparse code: y = phi @ s, with the frame mean riding along."""
    phi = np.asarray(phi, dtype=np.float64)
    s = np.asarray(s, dtype=np.float64)
    if phi.ndim != 2 or s.ndim != 1 or phi.shape[1] != s.shape[0]:
        raise ValueError(
            f"matrix {phi.shape} and code {s.shape} are not compatible"
        )
    return Measurement(y=phi @ s, frame_mean=float(frame_mean))


def _cd_sweeps(phi, Y, S, R, lam, col_norms2, tol, max_iter):
    """Cyclic coordinate descent on 0.5||y - phi s||^2 + lam ||s||_1.

    S is (B, L) codes and R the matching (B, M) residuals, updated in
    place; lam is (B,).  Each frame follows exactly the scalar iteration,
    the loop over frames is just vectorized away.  Returns True when the
    largest coordinate update across frames fell below tol.
    """
    L = phi.shape[1]
    for sweep in range(max_iter):
        if sweep and sweep % 128 == 0:
            R[:] = Y - S @ phi.T  # shed incremental-update float drift
        max_delta = 0.0
        for j in range(L):
            nj = col_norms2[j]
            if nj == 0.0:
                continue  # dead column: coordinate held at zero
            col = phi[:, j]
            old = S[:, j].copy()
            R += old[:, None] * col
            rho_j = R @ col
            new = np.sign(rho_j) * np.maximum(np.abs(rho_j) - lam, 0.0) / nj
            R -= new[:, None] * col
            S[:, j] = new
            delta = float(np.max(np.abs(new - old)))
            if delta > max_delta:
                max_delta = delta
        if max_delta < tol:
            return True
    return False


def lasso_recover_batch(
    phi: np.ndarray,
    Y: np.ndarray,
    lam: float | np.ndarray | None = None,
    tol: float = 1e-10,
    max_iter: int = 2000,
) -> np.ndarray:
    """Recover one code per row of Y, all measured with the same matrix.

    Minimizes 0.5 * ||y - phi s||^2 + lam * ||s||_1 per frame.  lam=None
    picks 1e-4 * max|phi^T y| per frame; a scalar or per-frame array is
    also accepted.  The solver warm-starts along a geometric penalty path,
    then iterates at the target penalty until the largest coordinate
    update falls below tol; hitting max_iter raises a RuntimeWarning and
    returns the current iterates.  A single frame y is the B=1 case,
    lasso_recover_batch(phi, y[None])[0].
    """
    phi = np.asarray(phi, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if phi.ndim != 2 or Y.ndim != 2 or Y.shape[1] != phi.shape[0]:
        raise ValueError(
            f"matrix {phi.shape} and measurements {Y.shape} are not compatible"
        )
    B, L = Y.shape[0], phi.shape[1]
    corr_max = np.max(np.abs(Y @ phi), axis=1) if phi.size else np.zeros(B)
    if lam is None:
        lam = 1e-4 * corr_max
    lam = np.broadcast_to(np.asarray(lam, dtype=np.float64), (B,)).copy()
    if np.any(lam < 0):
        raise ValueError("lam must be >= 0")

    S = np.zeros((B, L))
    R = Y.copy()
    col_norms2 = np.einsum("ij,ij->j", phi, phi)

    # Continuation: frames with lam already at or above max|phi^T y| stay
    # zero through every stage, so one shared geometric path (in units of
    # each frame's own scale) serves the whole batch.
    scale = np.where(corr_max > 0, corr_max, 1.0)
    target_frac = np.where(corr_max > 0, lam / scale, np.inf)
    lo_frac = max(float(np.min(np.where(np.isfinite(target_frac),
                                        target_frac, 1.0))), 1e-12)
    if lo_frac < 0.5:
        n_stages = max(2, int(math.ceil(4.0 * math.log10(0.5 / lo_frac))))
        for frac in np.geomspace(0.5, lo_frac, n_stages)[:-1]:
            stage_lam = np.maximum(frac * scale, lam)
            _cd_sweeps(phi, Y, S, R, stage_lam, col_norms2,
                       max(tol, 1e-6 * frac * float(np.max(scale))), 60)

    converged = _cd_sweeps(phi, Y, S, R, lam, col_norms2, tol, max_iter)
    if not converged:
        warnings.warn(
            f"lasso_recover_batch: coordinate descent did not reach tol={tol} "
            f"within {max_iter} sweeps",
            RuntimeWarning,
            stacklevel=2,
        )
    return S

