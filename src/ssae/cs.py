"""Compressive-sensing codec: Gaussian measurement and LASSO recovery.

A sparse length-L code is compressed to M < L numbers by one flat random
matrix; both ends regenerate the matrix from (M, L, seed), so it is never
transmitted or stored.  Recovery solves the l1-penalized least squares
problem exactly by the lasso homotopy (Osborne, Presnell & Turlach 2000;
Efron et al. 2004) vectorized over frames: each frame walks its own
active-set path and retires at its own penalty, so its code meets the KKT
conditions to rounding and does not depend on the rest of its batch.
Steps touch live frames only, and each keeps the inverse of its active
Gram matrix, bordered on a join and shrunk on a drop (Donoho & Tsaig
2008), so no step solves a linear system.
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
        out = np.empty(len(self.y) + 1)  # np.concatenate([y, [mean]]), bit for bit
        out[:-1] = self.y
        out[-1] = self.frame_mean
        return out


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

    State is kept for live frames only.  Each holds its active set in up to
    min(M, L) slots and the inverse of G_AA over them, updated by bordering
    per join or drop; the code returned is one fresh solve of G_AA at each
    frame's final support and penalty.  Any phi is accepted, M > L too; the
    later column of a twin pair (phi_j = +-phi_i) never joins, as its
    correlation ties the earlier one's.
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
    if not L:  # a code of length 0 has nothing to recover
        return np.zeros((B, 0))
    max_iter = 8 * L if max_iter is None else max_iter
    g = np.diag(G)
    # The later column of a twin pair (phi_j = +-phi_i) never joins: its
    # correlation always ties the earlier one's, and G_AA would be singular.
    twin = (np.triu(np.abs(G) >= (1 - 1e-12) * np.maximum.outer(g, g), 1)
            & (g > 0)[:, None]).any(axis=0)
    Gz = np.pad(G, (0, 1))  # index L marks a free slot: a zero row and column
    theta = np.zeros((B, L))  # sign of each active coordinate, 0 off the active set
    level = np.maximum(lam0, lam)  # the penalty each frame's path has reached
    # Path state of the live frames only; their rows go when they retire.
    live = np.flatnonzero(lam < lam0)
    n, P, r = live.size, min(M, L), np.arange(live.size)
    c0, lam_l, lv = C[live], lam[live], level[live]
    j = np.argmax(np.abs(c0), axis=1)
    th = np.zeros((n, L + 1))  # theta of the live frames, and a zero column L
    th[r, j] = np.sign(c0[r, j])
    s = np.zeros((n, L))
    left = np.zeros((n, L))  # sign of a coordinate that dropped on the last step
    slot = j[:, None]  # active coordinates, L on a free slot; up to P slots
    Gi = 1 / g[j, None, None]  # inverse of G_AA over the slots, 0 on free slots
    for _ in range(max_iter):
        if not n:
            break
        A, lo = th[:, :L] != 0, 1e-14 * lv[:, None]  # shorter event steps do not count
        n_active, q = A.sum(axis=1), slot.shape[1]
        if n_active.max() == q < P:  # some frame has no free slot: add one
            Gq, Gi = Gi, np.zeros((n, q + 1, q + 1))
            Gi[:, :q, :q] = Gq
            slot = np.column_stack((slot, np.full(n, L)))
        d = np.zeros((n, L + 1))  # how fast s grows as the penalty falls
        d[r[:, None], slot] = np.einsum("npq,nq->np", Gi, th[r[:, None], slot])
        d = d[:, :L]
        a = d @ G  # how fast each correlation phi^T r falls
        c = c0 - s @ G
        with np.errstate(divide="ignore", invalid="ignore"):
            t_up, t_down, t_drop = (lv[:, None] - c) / (1 - a), (lv[:, None] + c) / (1 + a), -s / d
        # c_j reaching +-level joins, except on the side it just dropped
        # from or once M columns span the measurements; s_j reaching 0 drops.
        t_join = np.fmin(np.where((t_up > lo) & (left <= 0), t_up, np.inf),
                         np.where((t_down > lo) & (left >= 0), t_down, np.inf))
        t_join[A | twin | (n_active >= M)[:, None]] = np.inf
        t_drop[~(t_drop > lo) | ~A] = np.inf
        jj, jd = np.argmin(t_join, axis=1), np.argmin(t_drop, axis=1)
        tj, td, t_target = t_join.min(axis=1), t_drop.min(axis=1), lv - lam_l
        t = np.minimum(t_target, np.minimum(tj, td))
        done = t_target <= t
        drop, join = ~done & (td <= tj), ~done & (td > tj)
        s += t[:, None] * d
        lv = np.where(done, lam_l, lv - t)
        left[:] = 0.0
        if drop.any():  # empty slot p: Gi -= u u^T / u_p with u = Gi[:, p]
            f, k = r[drop], jd[drop]
            left[f, k], th[f, k], s[f, k] = th[f, k], 0.0, 0.0
            p = np.argmax(slot[f] == k[:, None], axis=1)
            u = Gi[f, :, p]
            Gi[f] -= np.einsum("ni,nj->nij", u, u / u[r[:f.size], p, None])
            Gi[f, p], Gi[f, :, p], slot[f, p] = 0.0, 0.0, L
        f, k = r[join], jj[join]
        th[f, k] = np.sign(c[join, k] - t[join] * a[join, k])
        # Put jj in the first free slot p by bordering: with v = G[slots, jj]
        # and u = Gi v, set u_p = -1 and add u u^T / (G[jj, jj] - v.u) to Gi.
        # Frames that do not join add zero.
        p = np.argmax(slot == L, axis=1)
        v = Gz[slot, jj[:, None]]
        u = np.einsum("npq,nq->np", Gi, v)
        sc = g[jj] - np.sum(v * u, axis=1)
        u[r, p] = -1.0
        w = np.divide(u, sc[:, None], out=np.zeros_like(u), where=join[:, None])
        Gi += np.einsum("ni,nj->nij", u, w)
        slot[f, p[join]] = k
        if done.any():
            theta[live[done]], level[live[done]] = th[done, :L], lv[done]
            keep = np.flatnonzero(~done)
            live, th, s, left, c0, lam_l, lv, slot, Gi = (
                x.take(keep, axis=0) for x in (live, th, s, left, c0, lam_l, lv, slot, Gi))
            n, r = live.size, r[:live.size]

    if n:
        theta[live], level[live] = th[:, :L], lv
        warnings.warn(f"lasso_recover_batch: {n} frame(s) did not reach lam within "
                      f"max_iter={max_iter} steps, first {live[:5].tolist()}",
                      RuntimeWarning, stacklevel=2)
    return _active_solve(G, theta != 0, C - level[:, None] * theta)
