"""The shrinking sparse autoencoder: forward pass, pruning, cost, gradient.

Three layers.  A sphered frame d (length N) is mapped to hidden
activations h = tanh(W1 d + b1) (length L), the L - K smallest-magnitude
activations are zeroed ("shrinking"), the survivors are rounded to a few
decimal places, and the output layer reconstructs
d_hat = tanh(W2 s + b2).

The training objective over T frames is

    (1/T) sum_u 0.5 * ||d_hat_u - d_u||^2
  + (gamma/T) sum_u sum_j log10(1 + h_uj^2)

where the penalty acts on the pre-shrink activations and nominates units
for pruning.  An evaluation works in place in the operand order of these
formulas, so its bits equal theirs.

Every layer that takes frames, codes or measurements, here, in baselines,
in data and in cs's recovery, takes one, (n,), or a batch (B, n) of them:
a single frame is the B=1 case.  _frames is the one place that rule is
written.  Two calls keep a rule of their own.  round_code is elementwise
on any shape, a 0-d value too, since rounding an entry needs no frame.
cs.measure takes one code (L,), the gateway's one call per frame: a batch
form's checks would slow that call, and a batch row S @ phi.T is not
bit-equal to phi.dot(s).

A frame's products, here, in baselines and in cs.measure, are ndarray.dot
calls: a C-contiguous frame or batch times a weight matrix or its transpose
is the BLAS call @ makes, bit for bit, with less dispatch.  Strided or
stacked operands keep @ or np.matmul: dot copies a strided one (cs's
d @ G) and does not batch a stack.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SsaeParams",
    "hidden_activation",
    "shrink",
    "shrink_mask",
    "round_code",
    "reconstruct",
    "cost",
    "gradient",
]

_LN10 = float(np.log(10.0))
# The decimals every code is rounded to: at the gateway, in the training objective, in scoring.
PLACES = 3
# The longest vector _finite hands np.vdot.  OpenBLAS (0.3.31 measured) runs
# a dot of up to 10 000 entries on the calling thread; a longer one wakes
# its workers, which then spin for about 0.13 s and slow the numpy work
# after it by up to 2x when they share a core with it.
_DOT_MAX = 10_000


@dataclass
class SsaeParams:
    """Weights and biases, all finite: w1 is (L, N), b1 (L,), w2 (N, L), b2 (N,)."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    def __post_init__(self):
        self.w1, self.w2 = _matrix(self.w1, "w1"), _matrix(self.w2, "w2")
        self.b1, self.b2 = np.asarray(self.b1, np.float64), np.asarray(self.b2, np.float64)
        L, N = self.w1.shape
        if self.w2.shape != (N, L):
            raise ValueError(
                f"w2 must be {(N, L)} to mirror w1 {self.w1.shape}, got {self.w2.shape}"
            )
        if self.b1.shape != (L,):
            raise ValueError(f"b1 must have shape ({L},), got {self.b1.shape}")
        if self.b2.shape != (N,):
            raise ValueError(f"b2 must have shape ({N},), got {self.b2.shape}")
        for name in ("w1", "b1", "w2", "b2"):
            _finite(getattr(self, name), f"{name} row", "column")

    @property
    def n_visible(self) -> int:
        return self.w1.shape[1]

    @property
    def n_hidden(self) -> int:
        return self.w1.shape[0]

    def to_vector(self) -> np.ndarray:
        """Flatten all parameters into one vector (w1, b1, w2, b2 order)."""
        return _flatten(self.w1, self.b1, self.w2, self.b2)

    @classmethod
    def from_vector(cls, vec: np.ndarray, n_visible: int, n_hidden: int) -> "SsaeParams":
        """Inverse of to_vector; the fields are views of one copy of vec."""
        vec = np.array(vec, dtype=np.float64)
        N, L = n_visible, n_hidden
        expected = L * N + L + N * L + N
        if vec.shape != (expected,):
            raise ValueError(f"expected {expected} entries, got {vec.shape}")
        i, j, k = L * N, L * N + L, 2 * L * N + L
        return cls(w1=vec[:i].reshape(L, N), b1=vec[i:j],
                   w2=vec[j:k].reshape(N, L), b2=vec[k:])


def _flatten(w1, b1, w2, b2) -> np.ndarray:
    return np.concatenate([w1.ravel(), b1, w2.ravel(), b2])


def hidden_activation(params: SsaeParams, d: np.ndarray) -> np.ndarray:
    """Pre-shrink hidden activation h = tanh(W1 d + b1)."""
    return _tanh_layer(d, params.w1, params.b1, "d must be a frame")


def _tanh_layer(x, w: np.ndarray, b: np.ndarray, what: str) -> np.ndarray:
    """tanh(x @ w.T + b) of frames x; _frames names what on a bad shape."""
    Z = _frames(x, w.shape[1], what).dot(w.T)
    Z += b
    return np.tanh(Z, out=Z)


def _frames(X, n: int | None, what: str) -> np.ndarray:
    """X as float64 (n,) or (B, n), B >= 0, any n if n is None; a ValueError led by what otherwise."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim not in (1, 2) or n is not None and X.shape[-1] != n:
        raise ValueError(
            f"{what} of length {'N' if n is None else n} or a batch of them, got shape {X.shape}")
    return X


def _integer(name: str, value, lo: int | None = None, hi: int | None = None) -> int:
    """value as a Python int in [lo, hi]; a ValueError naming the argument otherwise.

    A bound of None is open, hi is given only with lo, and a bool is not an integer.
    """
    try:
        v = operator.index(value)
    except TypeError:
        v = None
    if v is None or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if hi is not None and not lo <= v <= hi:
        raise ValueError(f"{name} must be in [{lo}, {hi}], got {v}")
    if lo is not None and v < lo:
        raise ValueError(f"{name} must be >= {lo}, got {v}")
    return v


def _finite(X: np.ndarray, what: str = "frame", part: str = "sensor") -> None:
    """A ValueError naming the first non-finite entry of X, with X taken as (-1, X.shape[-1]).

    A NaN or inf makes a sum of squares non-finite; only then, or when one
    overflows, is X searched.  The sums are np.vdot's over at most _DOT_MAX
    entries each, so a frame or code takes one call.
    """
    if X.size <= _DOT_MAX:
        finite = math.isfinite(np.vdot(X, X))
    else:
        flat = X.reshape(-1)
        finite = all(math.isfinite(np.vdot(c, c))
                     for c in (flat[i:i + _DOT_MAX] for i in range(0, flat.size, _DOT_MAX)))
    if not finite:
        X = X.reshape(-1, X.shape[-1])
        bad = np.argwhere(~np.isfinite(X))
        if bad.size:  # else a sum of squares overflowed
            t, n = bad[0]
            raise ValueError(f"{what} {t}, {part} {n} is not finite: {X[t, n]}")


def _matrix(X, what: str = "matrix") -> np.ndarray:
    """X as a float64 array; a ValueError naming what unless it is 2-D."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"expected a 2-D {what}, got shape {X.shape}")
    return X


def shrink_mask(h: np.ndarray, k: int) -> np.ndarray:
    """Boolean mask of the k largest-magnitude entries of each code h.

    k is an integer in [1, L].  One sort per row finds the k-th largest
    magnitude and every entry not below it is kept; only rows where that
    keeps more than k (a tie at the threshold, or a NaN) are redone by a
    stable sort on descending magnitude, so ties keep the lower index.
    """
    h = _frames(h, None, "h must be a code")
    L = h.shape[-1]
    k = _integer("k", k, 1, L)
    # Sorting -|h| ranks NaN last, as the stable sort does, and keeping
    # what is not above the k-th value keeps at least k in every row.
    neg = np.abs(h)
    np.negative(neg, out=neg)
    srt = neg.copy()
    srt.sort(axis=-1)
    mask = ~(neg > srt[..., k - 1, None])
    if np.count_nonzero(mask) != k * (mask.size // L):
        redo = np.count_nonzero(mask, axis=-1) != k
        order = np.argsort(neg[redo], axis=-1, kind="stable")
        fixed = np.zeros(order.shape, dtype=bool)
        np.put_along_axis(fixed, order[..., :k], True, axis=-1)
        mask[redo] = fixed
    return mask


def shrink(h: np.ndarray, k: int) -> np.ndarray:
    """Keep the k largest-magnitude entries at their exact values, zero the rest."""
    h = np.asarray(h, dtype=np.float64)
    out = np.zeros(h.shape)
    np.copyto(out, h, where=shrink_mask(h, k))
    return out


def round_code(s: np.ndarray, places: int = PLACES) -> np.ndarray:
    """Round each entry to `places` decimals, halves away from zero.

    Exact zeros stay zero, so the nonzero count never increases.  Every
    entry keeps its sign, zeros included: -0.0 and -0.0004 both round to
    -0.0.  Entries with |s| >= whole = 2**52 / 10**places are already whole
    at that precision and are returned unchanged, so finite codes stay
    finite.  places is an integer in [0, 308]: 10**309 is beyond float64.

    Fast path: one BLAS sum of squares, sum(s**2) < whole**2, rounds all
    entries at once.  Anything else takes the masked path, bit for bit the
    same: NaN, inf, an entry >= whole, and from places 178 up any code,
    since whole**2 is 0 there.
    """
    places = _integer("places", places, 0, 308)
    s = np.asarray(s, dtype=np.float64)
    if not s.ndim:  # the in-place steps below need an array to write to
        return round_code(s.reshape(1), places).reshape(())
    f = 10.0 ** places
    whole = 2.0 ** 52 / f
    if np.vdot(s, s) < whole * whole:
        return _round_below_whole(s, f)
    small = np.abs(s) < whole
    return np.where(small, _round_below_whole(np.where(small, s, 0.0), f), s)


def _round_below_whole(s: np.ndarray, f: float) -> np.ndarray:
    """copysign(floor(|s| * f + 0.5) / f, s) for |s| * f < 2**52, -0.0 included.

    Every step is sign-symmetric under round-to-nearest, so s * f plus a
    signed half, truncated, gives those bits.
    """
    r = s * f
    r += np.copysign(0.5, s)
    np.trunc(r, out=r)
    r /= f
    return r


def reconstruct(params: SsaeParams, s: np.ndarray) -> np.ndarray:
    """Output-layer reconstruction d_hat = tanh(W2 s + b2) from a sparse code."""
    return _tanh_layer(s, params.w2, params.b2, "s must be a code")


def _check_batch(params: SsaeParams, X, what: str) -> np.ndarray:
    """Finite frames of length n_visible as (T, N), T >= 1; shape errors name what X is."""
    X = np.atleast_2d(_frames(X, params.n_visible, f"{what} must be a frame"))
    if not X.shape[0]:
        raise ValueError(f"empty {what} of shape {X.shape}")
    _finite(X)
    return X


def cost(
    params: SsaeParams,
    D: np.ndarray,
    gamma: float,
    k: int,
    places: int | None = PLACES,
) -> float:
    """Mean reconstruction error plus the activation sparsity penalty: gradient's cost.

    places=None skips code rounding; pass None when checking
    gradients against finite differences, since rounding is a staircase.
    """
    return gradient(params, D, gamma, k, places)[0]


def gradient(
    params: SsaeParams,
    D: np.ndarray,
    gamma: float,
    k: int,
    places: int | None = PLACES,
) -> tuple[float, Callable[[], np.ndarray]]:
    """(cost, grad) of the objective from one forward pass.

    grad() backpropagates from the saved forward state on its first call
    and caches the result, since the backward pass overwrites its saved
    arrays.  The gradient is averaged over the batch, flat in
    SsaeParams.to_vector order.  The pruning mask is frozen from the
    forward pass, so reconstruction error reaches only the k surviving
    units of each frame; rounding is treated as the identity.  The penalty
    term d/dh log10(1 + h^2) = 2h / ((1 + h^2) ln 10) reaches every unit
    through the first-layer tanh derivative.

    Both passes zero the pruned units by multiplying with the mask, so a
    pruned unit may hold -0; matrix products and sums add from +0, so no
    output reads that sign.
    """
    if not 0 <= gamma < np.inf:
        raise ValueError(f"gamma must be finite and >= 0, got {gamma}")
    D = _check_batch(params, D, "training batch")
    T = D.shape[0]
    H = hidden_activation(params, D)
    mask = shrink_mask(H, k)
    S = np.multiply(H, mask)
    if places is not None:
        S = round_code(S, places)
    D_hat = reconstruct(params, S)
    err = D_hat - D
    HH = H * H  # the penalty and its derivative share H*H and 1 + H*H
    one_plus_HH = 1.0 + HH
    c = (0.5 * float(np.sum(np.square(err))) / T
         + gamma * float(np.sum(np.log10(one_plus_HH))) / T)
    state, g = (D, H, HH, one_plus_HH, mask, S, D_hat, err), None

    def grad() -> np.ndarray:
        nonlocal g, state
        if g is None:
            g = _backward(params, gamma, *state)
            state = None  # the forward arrays are not needed again
        return g

    return c, grad


def _backward(params, gamma, D, H, HH, one_plus_HH, mask, S, D_hat, err):
    """Backpropagate one forward pass; allocates no (T, L) array.

    Each saved array is overwritten once its last reader is done: D_hat
    holds delta2, S the penalty term, one_plus_HH delta2 @ W2 and then dh,
    and HH 1 - h^2.
    """
    T = D.shape[0]

    delta2 = np.multiply(D_hat, D_hat, out=D_hat)  # (T, N): err * (1 - D_hat^2)
    np.subtract(1.0, delta2, out=delta2)
    delta2 *= err
    g_w2 = delta2.T @ S / T                        # (N, L)
    g_b2 = delta2.sum(axis=0) / T                  # (N,)

    # gamma * 2h / ((1 + h^2) ln 10); h * (2 gamma) is (2h) * gamma, as
    # doubling is exact while 2 gamma is finite (gamma < 2**1023)
    penalty = np.multiply(H, 2.0 * gamma, out=S)
    one_plus_HH *= _LN10
    penalty /= one_plus_HH
    dh = np.matmul(delta2, params.w2, out=one_plus_HH)  # penalty has read one_plus_HH
    np.multiply(dh, mask, out=dh)                  # (T, L); pruned units get nothing
    dh += penalty
    np.subtract(1.0, HH, out=HH)                   # delta1 = dh * (1 - h^2)
    dh *= HH
    g_w1 = dh.T @ D / T                            # (L, N)
    g_b1 = dh.sum(axis=0) / T                      # (L,)

    return _flatten(g_w1, g_b1, g_w2, g_b2)
