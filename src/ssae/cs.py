"""Compressive-sensing codec: Gaussian measurement and LASSO recovery.

A sparse length-L code is compressed to M < L numbers by one flat random
matrix; both ends regenerate the matrix from (M, L, seed), so it is never
transmitted or stored.  Recovery solves the l1-penalized least squares
problem exactly by the lasso homotopy (Osborne, Presnell & Turlach 2000;
Efron et al. 2004) vectorized over frames: each frame walks its own
active-set path and retires at its own penalty, so its code meets the KKT
conditions to rounding and does not depend on the rest of its batch.
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


def min_measurements(k: int, l: int) -> int:
    """Measurement count M = ceil(K * log2(L / K)), floored at 1."""
    if not 1 <= k <= l:
        raise ValueError(f"need 1 <= k <= l, got k={k}, l={l}")
    return max(1, math.ceil(k * math.log2(l / k)))


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


def _active_solve(G, active, rhs):
    """Per frame, x with G_AA x_A = rhs_A on its active set A and 0 elsewhere,
    solved as k x k with k the batch's largest |A|, padded with identity."""
    k = int(active.sum(axis=1).max(initial=0))
    idx = np.argsort(~active, axis=1, kind="stable")[:, :k]
    on = np.take_along_axis(active, idx, axis=1)
    sub = np.where(on[:, :, None] & on[:, None, :], G[idx[:, :, None], idx[:, None, :]], 0.0)
    sub[:, range(k), range(k)] += ~on
    b = np.where(on, np.take_along_axis(rhs, idx, axis=1), 0.0)
    x = np.zeros(active.shape)
    np.put_along_axis(x, idx, np.linalg.solve(sub, b[:, :, None])[:, :, 0], axis=1)
    return x


def lasso_recover_batch(
    phi: np.ndarray,
    Y: np.ndarray,
    lam: float | np.ndarray | None = None,
    max_iter: int | None = None,
) -> np.ndarray:
    """Recover one code per row of Y, all measured with the same matrix.

    Minimizes 0.5 * ||y - phi s||^2 + lam * ||s||_1 per frame; lam=None
    picks 1e-4 * max|phi^T y| per frame, a scalar or per-frame array is also
    accepted.  Homotopy: each frame lowers its own penalty from max|phi^T y|
    (zero code) to lam, one active-set join or drop per step, retires there
    and meets KKT to rounding, whatever else is in its batch.  Frames still
    moving after max_iter steps (default 8 * L) are named in a RuntimeWarning
    and get the exact code at the penalty reached.  Non-finite Y or lam
    raise a ValueError naming the frame.  B=1: lasso_recover_batch(phi, y[None])[0].
    """
    phi = np.asarray(phi, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if phi.ndim != 2 or Y.ndim != 2 or Y.shape[1] != phi.shape[0]:
        raise ValueError(
            f"matrix {phi.shape} and measurements {Y.shape} are not compatible"
        )
    bad = ~np.isfinite(Y).all(axis=1)
    if bad.any():
        raise ValueError(f"measurements of frame {int(np.argmax(bad))} are not finite")
    B, (M, L) = Y.shape[0], phi.shape
    G, C = phi.T @ phi, Y @ phi  # C holds phi^T y per frame
    lam0 = np.max(np.abs(C), axis=1, initial=0.0)
    lam = np.broadcast_to(np.asarray(1e-4 * lam0 if lam is None else lam,
                                     dtype=np.float64), (B,)).copy()
    bad = ~(np.isfinite(lam) & (lam >= 0))
    if bad.any():
        raise ValueError(f"lam of frame {int(np.argmax(bad))} must be finite and >= 0")
    max_iter = 8 * L if max_iter is None else max_iter
    S = np.zeros((B, L))
    theta = np.zeros((B, L))  # sign of each active coordinate, 0 off the active set
    left = np.zeros((B, L))  # sign of a coordinate that dropped on the last step
    level = np.maximum(lam0, lam)  # the penalty each frame's path has reached
    live = np.flatnonzero(lam < lam0)
    j = np.argmax(np.abs(C[live]), axis=1)
    theta[live, j] = np.sign(C[live, j])
    for _ in range(max_iter):
        if not live.size:
            break
        th, s, lv = theta[live], S[live], level[live, None]
        A, lo = th != 0, 1e-14 * lv  # shorter event steps do not count
        d = _active_solve(G, A, th)  # how fast s grows as the penalty falls
        a = d @ G  # how fast each correlation phi^T r falls
        c = C[live] - s @ G
        with np.errstate(divide="ignore", invalid="ignore"):
            t_up, t_down, t_drop = (lv - c) / (1 - a), (lv + c) / (1 + a), -s / d
        # c_j reaching +-level joins, except on the side it just dropped
        # from or once M columns span the measurements; s_j reaching 0 drops.
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
    return _active_solve(G, theta != 0, C - level[:, None] * theta)
