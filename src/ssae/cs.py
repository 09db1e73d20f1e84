"""Compressive-sensing codec: Gaussian measurement and LASSO recovery.

A sparse length-L code is compressed to M < L numbers by one flat random
matrix; both ends regenerate the matrix from (M, L, seed), so it is never
transmitted or stored.  Recovery solves the l1-penalized least squares
problem exactly by the lasso homotopy (Osborne, Presnell & Turlach 2000;
Efron et al. 2004), vectorized over frames.
"""

from __future__ import annotations

import math
import warnings
from typing import NamedTuple

import numpy as np

from . import core

__all__ = [
    "Measurement",
    "min_measurements",
    "gaussian_sensing_matrix",
    "measure",
    "lasso_recover_batch",
]


class Measurement(NamedTuple):
    """The per-frame result of measure, a NamedTuple: M measurements y and the
    frame mean; payload is every transmitted value, y then the mean (M + 1)."""

    y: np.ndarray
    frame_mean: float

    @property
    def payload(self) -> np.ndarray:
        out = np.empty(len(self.y) + 1)
        out[:-1] = self.y
        out[-1] = self.frame_mean
        return out


def min_measurements(k: int, l: int) -> int:
    """Measurement count M = ceil(K * log2(L / K)), floored at 1."""
    l = core._integer("l", l, 1)
    k = core._integer("k", k, 1, l)
    return max(1, math.ceil(k * math.log2(l / k)))


def gaussian_sensing_matrix(m: int, l: int, seed: int = 0) -> np.ndarray:
    """I.i.d. Gaussian (M, L) matrix with entry variance 1/M.

    Columns then have unit expected squared norm, keeping measurements at
    the scale of the code.  Deterministic given (m, l, seed), so the seed
    must be a non-negative integer.
    """
    m, l = core._integer("m", m, 1), core._integer("l", l, 1)
    seed = core._integer("seed", seed, 0)
    if m > l:
        raise ValueError(f"m={m} > l={l} would not compress")
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, 1.0 / math.sqrt(m), size=(m, l))


def measure(phi: np.ndarray, s: np.ndarray, frame_mean: float) -> Measurement:
    """Compress a sparse code: y = phi @ s, with the frame mean riding along.

    The mean must be finite: the base station adds it back to every sensor.
    """
    phi = np.asarray(phi, dtype=np.float64)
    s = np.asarray(s, dtype=np.float64)
    if phi.ndim != 2 or s.ndim != 1 or phi.shape[1] != s.shape[0]:
        raise ValueError(f"matrix {phi.shape} and code {s.shape} are not compatible")
    frame_mean = float(frame_mean)
    if not math.isfinite(frame_mean):
        raise ValueError(f"frame_mean must be finite, got {frame_mean}")
    return Measurement(phi.dot(s), frame_mean)


def _active_solve(G, active, rhs):
    """Per frame, x with G_AA x_A = rhs_A on its active set A and 0 elsewhere,
    solved at its own size: one batched solve per support size |A| present."""
    x, size = np.zeros(active.shape), active.sum(axis=1)
    for k in np.unique(size[size > 0]):
        f = np.flatnonzero(size == k)[:, None]
        idx = np.nonzero(active[f[:, 0]])[1].reshape(-1, k)  # A in column order
        x[f, idx] = np.linalg.solve(G[idx[:, :, None], idx[:, None, :]],
                                    rhs[f, idx][:, :, None])[:, :, 0]
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
    moving after max_iter >= 0 steps (default 8 * L) are named in a
    RuntimeWarning and get the exact code at the penalty reached.  A
    non-finite entry of phi raises a ValueError naming its row and column,
    one of Y its frame and measurement, and one of lam its frame.

    State is kept for live frames only.  Each carries its correlations
    phi^T (y - phi s) along the path and the inverse of G_AA over its
    active set, held in up to min(M, L) slots and changed by one rank-one
    update Gi += u w^T per join or drop (Donoho & Tsaig 2008), so no step
    solves a linear system.  The code returned is one fresh solve of G_AA
    at each frame's final support and penalty, at that support's size, so
    only Y @ phi ties it to the batch: BLAS runs that product as
    matrix-vector or matrix-matrix by the batch's shape.  Any finite phi is
    accepted, M > L too; the later column of a twin pair (phi_j = +-phi_i)
    never joins, as its correlation ties the earlier one's.
    """
    phi = core._matrix(phi, "sensing matrix")
    Y = core._frames(Y, phi.shape[0], "Y must be measurements")
    core._finite(phi, "matrix row", "column")
    core._finite(Y, "frame", "measurement")
    shape, Y = Y.shape[:-1] + phi.shape[1:], np.atleast_2d(Y)  # a frame's code is (L,)
    B, (M, L) = Y.shape[0], phi.shape
    G, C = phi.T @ phi, Y @ phi  # C holds phi^T y per frame
    lam0 = np.max(np.abs(C), axis=1, initial=0.0)
    lam = np.asarray(1e-4 * lam0 if lam is None else lam, dtype=np.float64)
    if lam.shape not in ((), (1,), (B,)):
        raise ValueError(f"lam must be a scalar or one per frame for {B} frames, "
                         f"got shape {lam.shape}")
    lam = np.broadcast_to(lam, (B,)).copy()
    bad = ~(np.isfinite(lam) & (lam >= 0))
    if bad.any():
        raise ValueError(f"lam of frame {int(np.argmax(bad))} must be finite and >= 0")
    max_iter = 8 * L if max_iter is None else core._integer("max_iter", max_iter, 0)
    if not L:  # a code of length 0 has nothing to recover
        return np.zeros(shape)
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
    c, lam_l, lv = C[live], lam[live], level[live]  # c is phi^T (y - phi s)
    j = np.argmax(np.abs(c), axis=1)
    th = np.zeros((n, L + 1))  # theta of the live frames, and a zero column L
    th[r, j] = np.sign(c[r, j])
    s = np.zeros((n, L))
    left = np.zeros((n, L))  # sign of a coordinate that dropped on the last step
    n_active = np.ones(n, dtype=np.intp)
    slot = j[:, None]  # active coordinates, L on a free slot; up to P slots
    Gi = 1 / g[j, None, None]  # inverse of G_AA over the slots, 0 on free slots
    for _ in range(max_iter):
        if not n:
            break
        A, lo = th[:, :L] != 0, 1e-14 * lv[:, None]  # shorter event steps do not count
        most, q = n_active.max(), slot.shape[1]
        if most == q < P:  # some frame has no free slot: add one
            Gq, Gi = Gi, np.zeros((n, q + 1, q + 1))
            Gi[:, :q, :q] = Gq
            slot = np.column_stack((slot, np.full(n, L)))
        d = np.zeros((n, L + 1))  # how fast s grows as the penalty falls
        d[r[:, None], slot] = np.matmul(Gi, th[r[:, None], slot][:, :, None])[:, :, 0]
        d = d[:, :L]
        a = d @ G  # how fast each correlation c falls
        with np.errstate(divide="ignore", invalid="ignore"):
            t_up, t_down, t_drop = (lv[:, None] - c) / (1 - a), (lv[:, None] + c) / (1 + a), -s / d
        # c_j reaching +-level joins, except on the side it just dropped
        # from or once M columns span the measurements; s_j reaching 0 drops.
        np.putmask(t_up, ~(t_up > lo) | (left > 0), np.inf)
        np.putmask(t_down, ~(t_down > lo) | (left < 0), np.inf)
        t_join, block = np.fmin(t_up, t_down, out=t_up), A | twin
        if most >= M:  # some frame has M active columns: it joins no more
            block |= (n_active >= M)[:, None]
        np.putmask(t_join, block, np.inf)
        np.putmask(t_drop, ~(t_drop > lo) | ~A, np.inf)
        jj, jd = t_join.argmin(axis=1), t_drop.argmin(axis=1)
        tj, td, t_target = t_join[r, jj], t_drop[r, jd], lv - lam_l
        t = np.minimum(t_target, np.minimum(tj, td))
        done = t_target <= t
        drop, join = ~done & (td <= tj), ~done & (td > tj)
        s += t[:, None] * d
        c -= t[:, None] * a
        lv = np.where(done, lam_l, lv - t)
        n_active += join
        n_active -= drop
        left[:] = 0.0
        k = np.where(drop, jd, jj)  # the coordinate that joins or drops
        p = (slot == np.where(drop, k, L)[:, None]).argmax(axis=1)  # its slot or a free one
        fd, kd, pd = r[drop], k[drop], p[drop]
        left[fd, kd], th[fd, kd], s[fd, kd] = th[fd, kd], 0.0, 0.0
        fj, kj = r[join], k[join]
        th[fj, kj] = np.sign(c[join, kj])
        # One rank-one update Gi += u w^T per event.  A join borders: with
        # v = G[slots, k] and u = Gi v, u_p = -1 and w = u / (G[k, k] - v.u).
        # A drop takes u = Gi[:, p] and w = u / -u_p, so Gi -= u u^T / u_p,
        # then empties slot p.  Retiring frames add zero.
        v = Gz[slot, k[:, None]]
        u = np.matmul(Gi, v[:, :, None])[:, :, 0]
        sc = np.where(drop, -Gi[r, p, p], g[k] - (v * u).sum(axis=1))
        u[r, p] = -1.0
        u = np.where(drop[:, None], Gi[r, :, p], u)
        w = np.divide(u, sc[:, None], out=np.zeros(u.shape), where=~done[:, None])
        Gi += np.einsum("ni,nj->nij", u, w)
        Gi[fd, pd], Gi[fd, :, pd], slot[fd, pd], slot[fj, p[join]] = 0.0, 0.0, L, kj
        if done.any():
            theta[live[done]], level[live[done]] = th[done, :L], lv[done]
            keep = np.flatnonzero(~done)
            live, th, s, c, left, n_active, lam_l, lv, slot, Gi = (
                x.take(keep, axis=0)
                for x in (live, th, s, c, left, n_active, lam_l, lv, slot, Gi))
            n, r = live.size, r[:live.size]

    if n:
        theta[live], level[live] = th[:, :L], lv
        warnings.warn(f"lasso_recover_batch: {n} frame(s) did not reach lam within "
                      f"max_iter={max_iter} steps, first {live[:5].tolist()}",
                      RuntimeWarning, stacklevel=2)
    return _active_solve(G, theta != 0, C - level[:, None] * theta).reshape(shape)
