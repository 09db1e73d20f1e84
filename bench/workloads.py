"""The benchmark's workloads: one offline user and the two ends of the codec.

All workloads run at the operating point of ``test_table_operating_point``:
N=23 sensors, L=25 hidden units, K=5 nonzeros, codes rounded to 3
places, gamma on auto.  Readings come from ``data.generate_synthetic``
with sensor-noise variance 0.01, seeded by the run's seed.  Each workload
is a closed loop with one client: the next operation starts when the
previous one has returned.  The benchmark composes the codec itself from
the public functions of ``data``, ``core``, ``trainer``, ``cs`` and
``baselines``, always calling them through their module so that a traced
run sees every call.

Why each workload exists:

- ``train``: the offline user's path from a log file to a model (parse a
  20 000-row CSV, fit on 4 000 of its rows, score the other 16 000).  Its
  time goes to the cost/gradient evaluations and L-BFGS (~85%) and to CSV
  parsing (~12%).  It never calls ``cs``, so a recovery change must leave
  it flat.
- ``basestation_batch``: a base station working off a backlog of payloads
  from four gateway configs, a batch of 250 frames at a time.  Recovery
  (``cs.lasso_recover_batch``) is >90% of its time.  M=12 is the
  ``min_measurements`` default and sits near the recovery threshold; M=20
  recovers.  Training happens only in its set-up.
- ``gateway_stream``: a gateway encoding one frame per call, round-robin
  over the same four configs.  Its time is per-call overhead of the
  single-frame API, which is what a batch-first refactor could slow down.
  It never calls recovery or training.

Facts measured on these inputs (2-core x86 VM, numpy 2.4.6, OpenBLAS
0.3.31, one BLAS thread):

- With the default ``TrainingConfig`` a fit on the first 4 000 rows stops
  early or runs the full budget depending on the seed: seed 1 stopped
  after 84 iterations (held-out RMSE 0.185), seed 2 ran all 200 (0.123);
  over seeds 1-8 five fits stopped early, at 42 to 142 iterations.  That
  makes fit time and RMSE bimodal across seeds, so ``train`` fits a seeded
  random 4 000-row sample with the relative-decrease stop switched off
  (``convergence_tol=1e-12``): every fit then runs the 200-iteration
  budget unless a line search fails.  The number of objective
  evaluations per fit still varies with the data (222 to 421 over seeds
  1-8), so ``frames_per_s`` counts a fitted frame once per evaluation.
  Compare ``train_s`` only at the same seed.
- Recovery depends on batch composition, because the solver's stopping
  tolerance is a maximum over the whole batch: every frame keeps
  iterating until the slowest frame of its batch converges.  Recovering
  seed 1's first backlog batch of each config as one batch of 250 or as
  five of 50 changed most recovered codes (up to 4e-9 at M=20, 8e-13 at
  M=12) but no quality metric in its first 8 digits, and the five small
  batches took 2.0-3.2x as long, since each sweep pays its Python
  overhead once per batch.  That is why the batch size is part of the
  traffic and fixed at 250: it sets the throughput, and it keeps the
  outputs bit-identical from run to run.
- Each gateway config fixes its sensing matrix (seed 0, the library
  default), as a deployment would.  Drawing the matrix from the run seed
  instead moved the M=12 RMSE by up to ±40% between seeds.
"""

from __future__ import annotations

import math
import os
import statistics
import sys
import time
import traceback
import warnings
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
import scipy.fft

import calibration
from ssae import baselines, core, cs, data, trainer

N_SENSORS, N_HIDDEN, K, PLACES = 23, 25, 5, 3
NOISE_VARIANCE = 0.01
LOG_ROWS, FIT_ROWS = 20_000, 4_000
BATCH = 250
BACKLOG_ROUNDS = 4  # batches per config in the backlog, sent round-robin
STREAM_FRAMES = 4_000
MATRIX_SEED = 0

# The offline user's model: default config, full iteration budget.
TRAIN_CONFIG = trainer.TrainingConfig(n_hidden=N_HIDDEN, k_max=K, convergence_tol=1e-12)
# The codec model built in set-up: a short fit keeps set-up cheap enough
# to repeat; its quality only has to be the same on every run.
CODEC_CONFIG = trainer.TrainingConfig(
    n_hidden=N_HIDDEN, k_max=K, max_iterations=60, convergence_tol=1e-12
)


@dataclass(frozen=True)
class GatewayConfig:
    name: str
    kind: str  # "ssae", "dct" or "pca"
    m: int


CONFIGS = (
    GatewayConfig("ssae-m12", "ssae", 12),
    GatewayConfig("ssae-m20", "ssae", 20),
    GatewayConfig("dct-m12", "dct", 12),
    GatewayConfig("pca-m12", "pca", 12),
)


@dataclass
class Phase:
    """What one measured phase did: counts, timings, quality, outputs."""

    sampler: calibration.Sampler  # samples machine speed during the work
    attempted: int = 0
    failed: int = 0
    raw_rates: list = field(default_factory=list)  # frames per busy second, per pass
    rates: list = field(default_factory=list)  # the same, scaled by calibration
    op_ns: array = field(default_factory=lambda: array("q"))
    busy_ns: int = 0
    quality: dict = field(default_factory=dict)
    outputs: list = field(default_factory=list)  # must not depend on tracing
    info: dict = field(default_factory=dict)

    def end_pass(self, frames: int, busy_ns: int) -> None:
        self.busy_ns += busy_ns
        slowdown = self.sampler.slowdown()
        if frames and busy_ns:
            rate = frames / (busy_ns / 1e9)
            self.raw_rates.append(rate)
            self.rates.append(rate * slowdown)

    @property
    def frames_per_s(self) -> float:
        """Median pass rate, at the calibration reference speed."""
        return statistics.median(self.rates)

    @property
    def raw_frames_per_s(self) -> float:
        return statistics.median(self.raw_rates)

    def fail(self, what: str, count: int = 1) -> None:
        self.failed += count
        print(f"failure: {what}", file=sys.stderr)


def _report_exception(phase: Phase, what: str, count: int) -> None:
    traceback.print_exc(file=sys.stderr)
    phase.fail(what, count)


# --- inputs ---------------------------------------------------------------

def make_log(seed: int) -> np.ndarray:
    noise = data.NoiseSpec(variance=NOISE_VARIANCE, seed=seed)
    return data.generate_synthetic(N_SENSORS, LOG_ROWS, noise=noise)


def split_rows(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """A seeded random sample of FIT_ROWS rows to fit on; the rest held out."""
    perm = rng.permutation(LOG_ROWS)
    return np.sort(perm[:FIT_ROWS]), np.sort(perm[FIT_ROWS:])


@dataclass
class Codec:
    params: core.SsaeParams
    sigma: float
    sparsifiers: dict
    phis: dict


def build_codec(X_fit: np.ndarray) -> Codec:
    params, sigma, _ = trainer.fit(X_fit, CODEC_CONFIG)
    centred = X_fit - X_fit.mean(axis=1, keepdims=True)
    sparsifiers = {kind: baselines.fit(kind, centred) for kind in ("dct", "pca")}
    phis = {
        c.name: cs.gaussian_sensing_matrix(
            c.m, N_HIDDEN if c.kind == "ssae" else N_SENSORS, MATRIX_SEED)
        for c in CONFIGS
    }
    return Codec(params, sigma, sparsifiers, phis)


def _transform_rows(sp, Xc: np.ndarray) -> np.ndarray:
    # Batched forms of the per-frame Sparsifier.transform, used only to
    # build references that the single-frame path is checked against.
    if sp.kind == "dct":
        return scipy.fft.dct(Xc, norm="ortho", axis=-1)
    return (Xc - sp.mean) @ sp.components.T


def encode_rows(codec: Codec, cfg: GatewayConfig, X: np.ndarray):
    """Codes (B, L), frame means (B,) and measurements (B, M) by batched calls."""
    if cfg.kind == "ssae":
        D, means = data.sphere_rows(X, codec.sigma)
        H = core.hidden_activation(codec.params, D)
    else:
        means = X.mean(axis=1)
        H = _transform_rows(codec.sparsifiers[cfg.kind], X - means[:, None])
    S = core.round_code(core.shrink(H, K), PLACES)
    return S, means, S @ codec.phis[cfg.name].T


def decode_rows(codec: Codec, cfg: GatewayConfig, S: np.ndarray, means: np.ndarray):
    if cfg.kind == "ssae":
        D_hat = core.reconstruct(codec.params, S)
        return data.desphere_rows(D_hat, means, codec.sigma)
    sp = codec.sparsifiers[cfg.kind]
    return np.array([sp.decode(s) for s in S]) + means[:, None]


def support_exact(S_hat: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Per frame: are the top-k of |S_hat| exactly the nonzeros of S (k = nnz of S)?"""
    k = np.count_nonzero(S, axis=1)
    order = np.argsort(-np.abs(S_hat), axis=1, kind="stable")
    ranks = np.empty_like(order)
    np.put_along_axis(ranks, order, np.arange(S.shape[1])[None, :], axis=1)
    return np.all((ranks < k[:, None]) == (S != 0), axis=1)


def config_mean_rmse(quality: dict) -> float:
    """Geometric mean over the configs of their ``rmse.<config>`` values.

    The codec workloads report this as ``rmse``: every config weighs the
    same in relative terms.  The RMSE pooled over all frames is dominated
    by ssae-m12, whose recovery sits at the threshold and swings with the
    model trained on each seed (0.35-0.44 over seeds 1-5); pooled, the
    workload's RMSE spread 9% across seeds, this mean 3%.
    """
    return float(np.exp(np.mean([np.log(quality[f"rmse.{c.name}"]) for c in CONFIGS])))


# --- train ------------------------------------------------------------------

@dataclass
class TrainState:
    log: np.ndarray
    fit_rows: np.ndarray
    held_rows: np.ndarray
    csv_path: str
    csv_bytes: int


@contextmanager
def counting_minimize(fits: list):
    """Record (objective evaluations, converged) of every trainer.minimize run."""
    original = trainer.minimize

    def minimize(objective, *args, **kwargs):
        calls = 0

        def counted(x):
            nonlocal calls
            calls += 1
            return objective(x)

        result = original(counted, *args, **kwargs)
        fits.append((calls, bool(result.converged)))
        return result

    trainer.minimize = minimize
    try:
        yield
    finally:
        trainer.minimize = original


class Train:
    name = "train"
    calibration = "batch"

    def setup(self, seed: int, workdir: str) -> TrainState:
        log = make_log(seed)
        fit_rows, held_rows = split_rows(np.random.default_rng(seed))
        path = os.path.join(workdir, f"train-log-{os.getpid()}.csv")
        data.write_csv(log, path)
        return TrainState(log, fit_rows, held_rows, path, os.path.getsize(path))

    def cleanup(self, st: TrainState) -> None:
        if os.path.exists(st.csv_path):
            os.remove(st.csv_path)

    def measure(self, st: TrainState, seconds: float, tracer) -> Phase:
        ph = Phase(calibration.Sampler(self.calibration))
        fits: list = []
        clock = time.perf_counter_ns
        deadline = clock() + int(seconds * 1e9)
        with counting_minimize(fits), ph.sampler:
            cycle = 0
            while True:
                tracer.op = cycle
                ph.attempted += 1
                s0 = ph.sampler.total_ns
                t0 = clock()
                try:
                    X = data.load_csv(st.csv_path)
                    params, sigma, curve = trainer.fit(X[st.fit_rows], TRAIN_CONFIG)
                    held = trainer.evaluate_rmse(params, sigma, X[st.held_rows], K, PLACES)
                except Exception:
                    _report_exception(ph, f"train cycle {cycle}", 1)
                    ph.end_pass(0, 0)
                else:
                    dt = clock() - t0 - (ph.sampler.total_ns - s0)
                    ph.op_ns.append(dt)
                    work = self._check(ph, st, cycle, X, params, curve, held, fits[-1])
                    ph.end_pass(work, dt)
                cycle += 1
                if clock() >= deadline:
                    break
        return ph

    def _check(self, ph, st, cycle, X, params, curve, held, fit) -> int:
        """Count a failed check; return the frames the cycle processed if it passed."""
        evals, converged = fit
        theta = params.to_vector()
        costs = np.array([f for _, f in curve])
        problems = []
        if not np.array_equal(X, st.log):
            problems.append("CSV round trip changed the data")
        if not np.isfinite(theta).all():
            problems.append("non-finite model")
        if not (np.isfinite(costs).all() and np.all(np.diff(costs) <= 0)):
            problems.append("cost curve rose or went non-finite")
        if not math.isfinite(held):
            problems.append("non-finite held-out RMSE")
        if problems:
            ph.fail(f"train cycle {cycle}: {'; '.join(problems)}")
            return 0
        if not ph.outputs:
            ph.quality["rmse"] = held
            ph.outputs = [theta, np.array([held])]
            ph.info.update(iterations=len(curve) - 1, evals=evals, converged=[])
        ph.info["converged"].append(converged)
        return LOG_ROWS + FIT_ROWS * evals + len(st.held_rows)

    def per_layer(self, st: TrainState, untraced: Phase, traced: Phase, spans) -> dict:
        cycles = len(traced.op_ns)
        eval_ns = spans.total_ns("core.cost") + spans.total_ns("core.gradient")
        info = traced.info
        return {
            "train_s": statistics.median(untraced.op_ns) / 1e9,
            "data.load_csv.mb_per_s": st.csv_bytes / 1e6 / (spans.mean_ns("data.load_csv") / 1e9),
            "core.cost.ms_per_eval": spans.mean_ns("core.cost") / 1e6,
            "core.gradient.ms_per_eval": spans.mean_ns("core.gradient") / 1e6,
            "core.cost.calls": spans.calls("core.cost") / cycles,
            "core.shrink_mask.share_of_eval":
                spans.child_total_ns("core.shrink_mask", ("core.cost", "core.gradient")) / eval_ns,
            "core.SsaeParams.from_vector.us_per_call":
                spans.mean_ns("core.SsaeParams.from_vector") / 1e3,
            "trainer.iterations": info["iterations"],
            "trainer.evals_per_iteration": info["evals"] / info["iterations"],
            "trainer.converged": sum(info["converged"]) / len(info["converged"]),
            "trainer.minimize.self_s": spans.self_total_ns("trainer.minimize") / 1e9 / cycles,
        }

    def report(self, st: TrainState, ph: Phase) -> dict:
        return {
            "train_s": (statistics.median(ph.op_ns) / 1e9, "s"),
            "frames_per_s": (ph.frames_per_s, "1/s"),
            "frames_per_s_unscaled": (ph.raw_frames_per_s, "1/s"),
            "train_rmse": (ph.quality["rmse"], "sensor-units"),
        }


# --- base station -----------------------------------------------------------

@dataclass
class Batch:
    cfg: GatewayConfig
    X: np.ndarray       # the frames the gateway saw, for scoring only
    S: np.ndarray       # the transmitted codes, for scoring only
    means: np.ndarray   # payload: frame means
    Y: np.ndarray       # payload: measurements


@dataclass
class CodecState:
    codec: Codec
    batches: list = field(default_factory=list)
    stream: list = field(default_factory=list)
    refs: dict = field(default_factory=dict)
    quality: dict = field(default_factory=dict)


def _codec_setup(seed: int):
    log = make_log(seed)
    rng = np.random.default_rng(seed)
    fit_rows, held_rows = split_rows(rng)
    return log, rng, held_rows, build_codec(log[fit_rows])


class BasestationBatch:
    name = "basestation_batch"
    calibration = "sweep"

    def setup(self, seed: int, workdir: str) -> CodecState:
        log, rng, held_rows, codec = _codec_setup(seed)
        st = CodecState(codec)
        for _ in range(BACKLOG_ROUNDS):
            for cfg in CONFIGS:
                X = log[rng.choice(held_rows, BATCH, replace=False)]
                S, means, Y = encode_rows(codec, cfg, X)
                st.batches.append(Batch(cfg, X, S, means, Y))
        return st

    def cleanup(self, st) -> None:
        pass

    def measure(self, st: CodecState, seconds: float, tracer) -> Phase:
        ph = Phase(calibration.Sampler(self.calibration))
        clock = time.perf_counter_ns
        deadline = clock() + int(seconds * 1e9)
        nonconverged = {c.name: 0 for c in CONFIGS}
        recovered = []  # (batch, S_hat, X_hat) of the first pass over the backlog
        n = len(st.batches)
        sent = 0
        # The whole backlog is decoded once, for the quality metrics; then
        # it is decoded again, a round of one batch per config at a time,
        # until the time is up.  Each batch is a pass: the median over
        # batches follows the 3 in 4 that always run the full 2 000 sweeps,
        # not how many M=20 batches of a seed happen to converge early.
        with ph.sampler:
            while True:
                for _ in CONFIGS:
                    b = sent % n
                    batch = st.batches[b]
                    first = sent < n
                    sent += 1
                    tracer.op = b
                    phi = st.codec.phis[batch.cfg.name]
                    ph.attempted += BATCH
                    s0 = ph.sampler.total_ns
                    t0 = clock()
                    try:
                        with warnings.catch_warnings(record=True) as caught:
                            warnings.simplefilter("always", RuntimeWarning)
                            S_hat = cs.lasso_recover_batch(phi, batch.Y)
                        X_hat = decode_rows(st.codec, batch.cfg, S_hat, batch.means)
                    except Exception:
                        _report_exception(ph, f"batch {b} ({batch.cfg.name})", BATCH)
                        ph.end_pass(0, 0)
                        continue
                    dt = clock() - t0 - (ph.sampler.total_ns - s0)
                    ph.op_ns.append(dt)
                    ph.end_pass(BATCH, dt)
                    if X_hat.shape != batch.X.shape:
                        ph.fail(f"batch {b} ({batch.cfg.name}): output shape {X_hat.shape}", BATCH)
                        continue
                    bad = int((~np.isfinite(X_hat).all(axis=1)).sum())
                    if bad:
                        ph.fail(f"batch {b} ({batch.cfg.name}): {bad} non-finite frames", bad)
                    if first:
                        nonconverged[batch.cfg.name] += any(
                            issubclass(w.category, RuntimeWarning) for w in caught)
                        recovered.append((batch, S_hat, X_hat))
                if sent == n and recovered:
                    self._score(ph, recovered)
                    ph.info["nonconverged"] = nonconverged
                if sent >= n and clock() >= deadline:
                    break
        return ph

    @staticmethod
    def _score(ph: Phase, recovered: list) -> None:
        """Quality of the first pass over the backlog, per config and overall."""
        for cfg in CONFIGS:
            mine = [(b, S_hat, X_hat) for b, S_hat, X_hat in recovered if b.cfg is cfg]
            if not mine:
                continue
            S = np.concatenate([b.S for b, _, _ in mine])
            S_hat = np.concatenate([s for _, s, _ in mine])
            err2 = np.concatenate([(x - b.X) ** 2 for b, _, x in mine])
            name = cfg.name
            ph.quality[f"rmse.{name}"] = float(np.sqrt(err2.mean()))
            ph.quality[f"support_exact.{name}"] = float(support_exact(S_hat, S).mean())
            ph.quality[f"code_rel_err.{name}"] = float(
                np.linalg.norm(S_hat - S) / np.linalg.norm(S))
            ph.quality[f"nnz_mean.{name}"] = float(np.count_nonzero(S_hat, axis=1).mean())
        ph.quality["rmse"] = config_mean_rmse(ph.quality)
        ph.outputs = [x for _, _, x in recovered]

    def per_layer(self, st: CodecState, untraced: Phase, traced: Phase, spans) -> dict:
        m = {}
        for cfg in CONFIGS:
            ops = [b for b, batch in enumerate(st.batches) if batch.cfg is cfg]
            m[f"cs.lasso_recover_batch.ms_per_frame.{cfg.name}"] = (
                spans.mean_ns("cs.lasso_recover_batch", ops) / 1e6 / BATCH)
            m[f"cs.lasso_recover_batch.nonconverged.{cfg.name}"] = (
                traced.info["nonconverged"][cfg.name])
            for q in ("rmse", "support_exact"):
                m[f"{q}.{cfg.name}"] = traced.quality[f"{q}.{cfg.name}"]
            for q in ("code_rel_err", "nnz_mean"):
                m[f"cs.recover.{q}.{cfg.name}"] = traced.quality[f"{q}.{cfg.name}"]
        m["cs.lasso_recover_batch.share"] = (
            spans.total_ns("cs.lasso_recover_batch") / traced.busy_ns)
        m["data.desphere_rows.us_per_frame"] = spans.mean_ns("data.desphere_rows") / 1e3 / BATCH
        m["core.reconstruct.us_per_frame"] = spans.mean_ns("core.reconstruct") / 1e3 / BATCH
        for kind in ("dct", "pca"):
            m[f"baselines.decode.us_per_call.{kind}"] = (
                spans.mean_ns(f"baselines.decode.{kind}") / 1e3)
        return m

    def report(self, st: CodecState, ph: Phase) -> dict:
        out = {"frames_per_s": (ph.frames_per_s, "1/s"),
               "frames_per_s_unscaled": (ph.raw_frames_per_s, "1/s")}
        for cfg in CONFIGS:
            out[f"rmse.{cfg.name}"] = (ph.quality[f"rmse.{cfg.name}"], "sensor-units")
        for cfg in CONFIGS:
            out[f"support_exact.{cfg.name}"] = (ph.quality[f"support_exact.{cfg.name}"], "share")
        return out


# --- gateway ----------------------------------------------------------------

class GatewayStream:
    name = "gateway_stream"
    calibration = "frame"

    def setup(self, seed: int, workdir: str) -> CodecState:
        log, rng, held_rows, codec = _codec_setup(seed)
        st = CodecState(codec)
        X = log[rng.choice(held_rows, STREAM_FRAMES, replace=False)]
        for i, cfg in enumerate(CONFIGS):
            idx = np.arange(i, STREAM_FRAMES, len(CONFIGS))  # frame j uses config j % 4
            S, means, Y = encode_rows(codec, cfg, X[idx])
            st.refs[cfg.name] = (idx, S, np.column_stack([Y, means]))
            # What the codes carry, decoded without CS: the gateway's share
            # of the error.
            X_hat = decode_rows(codec, cfg, S, means)
            st.quality[f"rmse.{cfg.name}"] = float(np.sqrt(np.mean((X_hat - X[idx]) ** 2)))
        st.quality["rmse"] = config_mean_rmse(st.quality)
        sparsifiers = st.codec.sparsifiers
        for j, x in enumerate(X):
            cfg = CONFIGS[j % len(CONFIGS)]
            st.stream.append((x, cfg.kind == "ssae", st.codec.phis[cfg.name],
                              sparsifiers.get(cfg.kind)))
        return st

    def cleanup(self, st) -> None:
        pass

    def measure(self, st: CodecState, seconds: float, tracer) -> Phase:
        ph = Phase(calibration.Sampler(self.calibration))
        clock = time.perf_counter_ns
        deadline = clock() + int(seconds * 1e9)
        params, sigma = st.codec.params, st.codec.sigma
        n = len(st.stream)
        frame = 0
        with ph.sampler:
            while True:
                codes, payloads = [None] * n, [None] * n
                pass_ns = 0
                for j, (x, is_ssae, phi, sp) in enumerate(st.stream):
                    tracer.op = frame
                    frame += 1
                    s0 = ph.sampler.total_ns
                    t0 = clock()
                    try:
                        if is_ssae:
                            f = data.sphere(x, sigma)
                            h = core.hidden_activation(params, f.d)
                            s = core.round_code(core.shrink(h, K), PLACES)
                            p = cs.measure(phi, s, f.mean).payload
                        else:
                            mean = x.mean()
                            s = core.round_code(sp.encode(x - mean, K), PLACES)
                            p = cs.measure(phi, s, mean).payload
                    except Exception:
                        traceback.print_exc(file=sys.stderr)
                        s = p = None
                    dt = clock() - t0 - (ph.sampler.total_ns - s0)
                    ph.sampler.sample()  # beside every frame, on top of the timer
                    ph.op_ns.append(dt)
                    pass_ns += dt
                    codes[j], payloads[j] = s, p
                ph.attempted += n
                ph.end_pass(n, pass_ns)
                self._check(ph, st, codes, payloads)
                if clock() >= deadline:
                    break
        return ph

    def _check(self, ph: Phase, st: CodecState, codes, payloads) -> None:
        first = not ph.outputs
        for cfg in CONFIGS:
            idx, S_ref, P_ref = st.refs[cfg.name]
            ok = np.zeros(len(idx), dtype=bool)
            got = [i for i, j in enumerate(idx) if payloads[j] is not None]
            if got:
                S = np.array([codes[idx[i]] for i in got])
                P = np.array([payloads[idx[i]] for i in got])
                if S.shape == S_ref[got].shape and P.shape == P_ref[got].shape:
                    ok[got] = (np.all(S == S_ref[got], axis=1)
                               & np.all(np.isclose(P, P_ref[got], rtol=1e-12, atol=1e-12), axis=1))
                if first:
                    ph.outputs.append(P)
            if not ok.all():
                ph.fail(f"{cfg.name}: {int((~ok).sum())} frames differ from the batched reference",
                        int((~ok).sum()))
        if first:
            ph.quality.update(st.quality)

    def per_layer(self, st: CodecState, untraced: Phase, traced: Phase, spans) -> dict:
        m = {
            f"{name}.us_per_call": spans.mean_ns(name) / 1e3
            for name in ("data.sphere", "core.hidden_activation", "core.shrink",
                         "core.round_code", "cs.measure")
        }
        for kind in ("dct", "pca"):
            m[f"baselines.encode.us_per_call.{kind}"] = (
                spans.mean_ns(f"baselines.encode.{kind}") / 1e3)
        m.update(self._latency(untraced))
        return m

    @staticmethod
    def _latency(ph: Phase) -> dict:
        p50, p99 = np.percentile(np.frombuffer(ph.op_ns, dtype=np.int64), [50, 99]) / 1e3
        return {"encode_p50_us": float(p50), "encode_p99_us": float(p99)}

    def report(self, st: CodecState, ph: Phase) -> dict:
        lat = self._latency(ph)
        return {
            "frames_per_s": (ph.frames_per_s, "1/s"),
            "frames_per_s_unscaled": (ph.raw_frames_per_s, "1/s"),
            "encode_p50_us": (lat["encode_p50_us"], "us"),
            "encode_p99_us": (lat["encode_p99_us"], "us"),
            "frames_encoded": (len(ph.op_ns), "count"),
        }


WORKLOADS = {w.name: w for w in (Train(), BasestationBatch(), GatewayStream())}
