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
for pruning.  Backpropagation treats the pruning mask and the rounding as
fixed pieces of the forward pass: reconstruction error flows only into
the surviving units, rounding passes gradients through unchanged.

gradient() returns (cost, flat gradient) from a single forward pass, the
gradient in SsaeParams.to_vector order, which is the objective contract
of trainer.minimize; cost() is the value alone.

Shrinking is a threshold: one sort per row finds the k-th largest
magnitude and every entry not below it is kept; only rows where that
keeps more than k (a tie at the threshold, or a NaN) are redone by a
stable sort, so ties keep the lower index.  An evaluation writes its
temporaries in place and computes h^2 and 1 + h^2 once, keeping the
operand order of the formulas above, so its bits equal theirs.
"""

from __future__ import annotations

import operator
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


@dataclass
class SsaeParams:
    """Weights and biases: w1 is (L, N), b1 (L,), w2 (N, L), b2 (N,)."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    def __post_init__(self):
        self.w1 = np.asarray(self.w1, dtype=np.float64)
        self.b1 = np.asarray(self.b1, dtype=np.float64)
        self.w2 = np.asarray(self.w2, dtype=np.float64)
        self.b2 = np.asarray(self.b2, dtype=np.float64)
        if self.w1.ndim != 2 or self.w2.ndim != 2:
            raise ValueError("weight matrices must be 2-D")
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
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} contains non-finite entries")

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
    """Pre-shrink hidden activation h = tanh(W1 d + b1).

    Accepts a single frame (N,) or a batch (T, N); the hidden axis is last.
    """
    d = np.asarray(d, dtype=np.float64)
    if d.shape[-1] != params.n_visible:
        raise ValueError(
            f"frame length {d.shape[-1]} does not match n_visible {params.n_visible}"
        )
    Z = d @ params.w1.T
    Z += params.b1
    return np.tanh(Z, out=Z)


def _integer(name: str, value) -> int:
    """value as a Python int; a ValueError naming the argument if it is not one."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def shrink_mask(h: np.ndarray, k: int) -> np.ndarray:
    """Boolean mask of the k largest-magnitude entries along the last axis.

    k is an integer in [1, L].  Ties keep the lower index (stable sort on
    descending magnitude).
    """
    h = np.asarray(h, dtype=np.float64)
    L, k = h.shape[-1], _integer("k", k)
    if not 1 <= k <= L:
        raise ValueError(f"k must be in [1, {L}], got {k}")
    if k == L:
        return np.ones(h.shape, dtype=bool)
    # Sorting -|h| ranks NaN last, as the stable sort does, and keeping
    # what is not above the k-th value keeps at least k in every row.
    neg = np.abs(h)
    np.negative(neg, out=neg)
    srt = neg.copy()
    srt.sort(axis=-1)  # np.sort(neg, axis=-1) without its Python wrapper
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
    out = np.zeros(h.shape)  # np.where(mask, h, 0.0), bit for bit, at less cost per call
    np.copyto(out, h, where=shrink_mask(h, k))
    return out


def round_code(s: np.ndarray, places: int = 3) -> np.ndarray:
    """Round each entry to `places` decimals, halves away from zero.

    Exact zeros stay zero, so the nonzero count never increases.  Entries
    with |s| >= 2**52 / 10**places are already whole at that precision
    and are returned unchanged, so finite codes stay finite.  places is an
    integer in [0, 308]: 10**309 is beyond float64.
    """
    places = _integer("places", places)
    if not 0 <= places <= 308:
        raise ValueError(f"places must be in [0, 308], got {places}")
    s = np.asarray(s, dtype=np.float64)
    f = 10.0 ** places
    whole = 2.0 ** 52 / f
    r = np.abs(s)
    # r.max(initial=0.0) without its Python wrapper; NaN and inf fail it too
    if not np.maximum.reduce(r, axis=None, initial=0.0) < whole:
        small = r < whole
        return np.where(small, round_code(np.where(small, s, 0.0), places), s)
    r *= f
    r += 0.5
    np.floor(r, out=r)
    r *= np.sign(s)
    r /= f
    return r


def reconstruct(params: SsaeParams, s: np.ndarray) -> np.ndarray:
    """Output-layer reconstruction d_hat = tanh(W2 s + b2) from a sparse code."""
    s = np.asarray(s, dtype=np.float64)
    if s.shape[-1] != params.n_hidden:
        raise ValueError(
            f"code length {s.shape[-1]} does not match n_hidden {params.n_hidden}"
        )
    Z = s @ params.w2.T
    Z += params.b2
    return np.tanh(Z, out=Z)


def _check_batch(params: SsaeParams, D: np.ndarray) -> np.ndarray:
    D = np.asarray(D, dtype=np.float64)
    if D.ndim == 1:
        D = D[None, :]
    if D.ndim != 2 or D.shape[1] != params.n_visible:
        raise ValueError(
            f"expected frames of length {params.n_visible}, got shape {D.shape}"
        )
    if D.shape[0] == 0:
        raise ValueError("empty training batch")
    return D


def _forward(params, D, gamma, k, rounding_places):
    """The pass shared by cost() and gradient(): layers and objective value.

    Also returns H*H and 1 + H*H, which the penalty and its derivative share.
    """
    if not 0 <= gamma < np.inf:
        raise ValueError(f"gamma must be finite and >= 0, got {gamma}")
    D = _check_batch(params, D)
    T = D.shape[0]
    H = hidden_activation(params, D)
    mask = shrink_mask(H, k)
    S = np.where(mask, H, 0.0)
    if rounding_places is not None:
        S = round_code(S, rounding_places)
    D_hat = reconstruct(params, S)
    err = D_hat - D
    recon = 0.5 * float(np.sum(np.square(err))) / T
    HH = H * H
    one_plus_HH = 1.0 + HH
    penalty = gamma * float(np.sum(np.log10(one_plus_HH))) / T
    return recon + penalty, (D, H, HH, one_plus_HH, mask, S, D_hat, err)


def cost(
    params: SsaeParams,
    D: np.ndarray,
    gamma: float,
    k: int,
    rounding_places: int | None = 3,
) -> float:
    """Mean reconstruction error plus the activation sparsity penalty.

    rounding_places=None skips code rounding; pass None when checking
    gradients against finite differences, since rounding is a staircase.
    """
    return _forward(params, D, gamma, k, rounding_places)[0]


def gradient(
    params: SsaeParams,
    D: np.ndarray,
    gamma: float,
    k: int,
    rounding_places: int | None = 3,
) -> tuple[float, np.ndarray]:
    """(cost, gradient) of the objective from one forward pass.

    The cost equals cost() exactly.  The gradient is backpropagated and
    averaged over the batch, flat in SsaeParams.to_vector order.  The
    pruning mask is frozen from the forward pass, so reconstruction error
    reaches only the k surviving units of each frame; rounding is treated
    as the identity.  The penalty term
    d/dh log10(1 + h^2) = 2h / ((1 + h^2) ln 10) reaches every unit
    through the first-layer tanh derivative.
    """
    c, (D, H, HH, one_plus_HH, mask, S, D_hat, err) = _forward(
        params, D, gamma, k, rounding_places)
    T = D.shape[0]

    delta2 = D_hat * D_hat                         # (T, N): err * (1 - D_hat^2)
    np.subtract(1.0, delta2, out=delta2)
    delta2 *= err
    g_w2 = delta2.T @ S / T                        # (N, L)
    g_b2 = delta2.sum(axis=0) / T                  # (N,)

    dh = np.where(mask, delta2 @ params.w2, 0.0)   # (T, L); pruned units get nothing
    penalty = 2.0 * H                              # gamma * 2h / ((1 + h^2) ln 10)
    penalty *= gamma
    one_plus_HH *= _LN10
    penalty /= one_plus_HH
    dh += penalty
    np.subtract(1.0, HH, out=HH)                   # delta1 = dh * (1 - h^2)
    dh *= HH
    g_w1 = dh.T @ D / T                            # (L, N)
    g_b1 = dh.sum(axis=0) / T                      # (L,)

    return c, _flatten(g_w1, g_b1, g_w2, g_b2)
