"""The codec end to end: frames to codes to payloads, and back to frames.

A gateway encodes one frame per call, and a base station recovers and
decodes a batch.  A single frame is the B=1 case of a batch, so for every
held-out frame the single-frame path must give its batch row: the same
code, the same payload, and the same recovered code.  SSAE, DCT and PCA
codes go through M = 12 Gaussian measurements.  This file needs neither
scipy nor hypothesis, so it also runs where only numpy is installed.
"""

import numpy as np
import pytest

from ssae import baselines, core, cs, data, trainer

N, L, K, M, PLACES = 23, 25, 5, 12, 3
KINDS = ("ssae", "dct", "pca")


@pytest.fixture(scope="module")
def codec():
    """A short SSAE fit, DCT and PCA on frame-centred rows, and 60 held-out frames."""
    X = data.generate_synthetic(N, 460, noise=data.NoiseSpec(0.01, 1))
    fit_rows, frames = X[:400], X[400:]
    params, sigma, curve = trainer.fit(
        fit_rows, trainer.TrainingConfig(n_hidden=L, k_max=K, max_iterations=5))
    assert len(curve) >= 2 and np.isfinite([c for _, c in curve]).all(), curve
    centred = fit_rows - fit_rows.mean(axis=1, keepdims=True)
    sparsifiers = {kind: baselines.fit(kind, centred) for kind in ("dct", "pca")}
    return params, sigma, sparsifiers, frames


def encode(codec, kind, X):
    """Rounded codes and frame means of frames X, (B, N) or one frame (N,)."""
    params, sigma, sparsifiers, _ = codec
    if kind == "ssae":
        f = data.sphere(X, sigma)
        H = core.hidden_activation(params, f.d)
        return core.round_code(core.shrink(H, K), PLACES), f.mean
    means = X.mean(axis=-1)
    centred = X - (means[:, None] if X.ndim == 2 else means)
    return core.round_code(sparsifiers[kind].encode(centred, K), PLACES), means


def decode(codec, kind, S, means):
    """Frames in sensor units from codes S and their frame means."""
    params, sigma, sparsifiers, _ = codec
    if kind == "ssae":
        return data.desphere_rows(core.reconstruct(params, S), means, sigma)
    return sparsifiers[kind].decode(S) + np.asarray(means)[..., None]


@pytest.fixture(scope="module", params=KINDS)
def batch(request, codec):
    """kind, frames, codes, means, phi and the batch payloads [S @ phi.T, mean]."""
    kind, frames = request.param, codec[3]
    S, means = encode(codec, kind, frames)
    phi = cs.gaussian_sensing_matrix(M, S.shape[1], 0)
    return kind, frames, S, means, phi, np.column_stack([S @ phi.T, means])


def test_single_frame_code_is_its_batch_row(codec, batch):
    kind, frames, S, means, _, _ = batch
    assert S.shape == (len(frames), L if kind == "ssae" else N) and len(frames) >= 50
    assert np.all(np.count_nonzero(S, axis=1) <= K)
    for i, x in enumerate(frames):
        s, mean = encode(codec, kind, x)
        assert s.shape == S[i].shape and np.array_equal(s, S[i]), (kind, i)
        assert mean == means[i], (kind, i)


def test_single_frame_payload_is_its_batch_row(codec, batch):
    kind, frames, _, _, phi, P = batch
    assert P.shape == (len(frames), M + 1)
    for i, x in enumerate(frames):
        s, mean = encode(codec, kind, x)
        payload = cs.measure(phi, s, mean).payload
        np.testing.assert_allclose(payload, P[i], rtol=1e-12, atol=1e-12, err_msg=f"{kind} {i}")


def test_recovery_of_one_frame_is_its_batch_row(batch):
    kind, _, _, _, phi, P = batch
    S_hat = cs.lasso_recover_batch(phi, P[:, :-1])
    for i in range(len(P)):
        single = cs.lasso_recover_batch(phi, P[i:i + 1, :-1])
        assert single.shape == (1, S_hat.shape[1])
        gap = np.linalg.norm(single[0] - S_hat[i])
        assert gap <= 1e-10 * np.linalg.norm(S_hat[i]), (kind, i, gap)
        frame = cs.lasso_recover_batch(phi, P[i, :-1])
        assert frame.shape == (S_hat.shape[1],) and frame.tobytes() == single[0].tobytes()


def test_decoded_frames_are_finite(codec, batch):
    kind, frames, _, _, phi, P = batch
    S_hat = cs.lasso_recover_batch(phi, P[:, :-1])
    X_hat = decode(codec, kind, S_hat, P[:, -1])
    assert X_hat.shape == (len(frames), N) and np.isfinite(X_hat).all()
    for i in range(len(P)):
        x_hat = decode(codec, kind, S_hat[i], P[i, -1])
        np.testing.assert_allclose(x_hat, X_hat[i], rtol=1e-12, atol=1e-12, err_msg=f"{kind} {i}")
