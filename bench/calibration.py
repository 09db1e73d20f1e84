"""Machine-speed calibration for timings taken on a shared host.

The benchmark was tuned on a 2-vCPU Firecracker VM whose speed drifts
with the load of other tenants on the host, by up to 2x and for seconds
to tens of seconds at a time.  In five 20 s ``gateway_stream`` runs of one
seed the median pass rate read 15 500 to 27 800 frames/s; a fixed
encode-like task timed once per second for a minute ran between 280 and
630 times per second.

So while a workload is timed, a ``Sampler`` runs a small fixed task from
a timer signal every 20 ms (and ``gateway_stream`` also after every
frame), and each pass's rate is scaled by how much slower than its
reference time the task ran during that pass:
``rate * task_time / REFERENCE_NS``.  The result is the rate at the
machine speed the reference was taken at.  The sampler's own time is
taken out of the timed work.  Sampled after every frame, five 8 s gateway
runs of one seed read 13 100-13 900 frames/s scaled while their raw rate
moved 14 400-21 800; over ten seeds the timer alone cut the spread of
``train``'s rate from 14% to 6%.

The tasks use numpy alone and never call the ``ssae`` package, so a change
to the program cannot move the scale.  Interference slows some kinds of
work more than others, so each workload samples with a task of its kind:

- ``frame``: one frame through an encode-like chain of calls on short
  vectors (``gateway_stream``);
- ``sweep``: part of a coordinate-descent sweep over 250-frame columns
  (``basestation_batch``);
- ``batch``: matmul, ``tanh`` and a row-wise sort on 500 frames
  (``train``);
- ``mixed``: a little of each, for the set-up phases.

In a traced run the samples also land inside spans, adding about 1-2% to
inclusive span times.
"""

from __future__ import annotations

import signal
import time

import numpy as np

_rng = np.random.default_rng(20150801)
_X = _rng.normal(size=23)
_W = _rng.normal(scale=0.3, size=(25, 23))
_P = _rng.normal(scale=0.3, size=(12, 25))
_Y = _rng.normal(size=(250, 12))
_D = _rng.normal(size=(500, 23))


def _frame() -> None:
    x = _X
    m = x.mean()
    d = np.clip(x - m, -3.0, 3.0) / 3.0
    h = np.tanh(_W @ d)
    order = np.argsort(-np.abs(h), kind="stable")
    mask = np.zeros(h.shape, dtype=bool)
    np.put_along_axis(mask, order[:5], True, axis=-1)
    s = np.where(mask, h, 0.0)
    s = np.sign(s) * np.floor(np.abs(s) * 1e3 + 0.5) / 1e3
    np.concatenate([_P @ s, [m]])


def _sweep() -> None:
    S = np.zeros((250, 25))
    R = _Y.copy()
    for j in range(8):
        col = _P[:, j]
        old = S[:, j].copy()
        R += old[:, None] * col
        rho = R @ col
        new = np.sign(rho) * np.maximum(np.abs(rho) - 1e-3, 0.0)
        R -= new[:, None] * col
        S[:, j] = new
        float(np.max(np.abs(new - old)))


def _batch() -> None:
    H = np.tanh(_D @ _W.T)
    np.argsort(-np.abs(H), axis=1, kind="stable")
    E = np.tanh(H @ _W) - _D
    E.T @ H


def _mixed() -> None:
    for _ in range(5):
        _frame()
    _sweep()
    _batch()


TASKS = {"frame": _frame, "sweep": _sweep, "batch": _batch, "mixed": _mixed}

# Typical ns of one sampled task run during the workloads on the tuning
# machine (Intel Xeon, 2 vCPUs, Python 3.11, numpy 2.4.6, OpenBLAS 0.3.31
# on one thread), so that scaled and raw timings read alike there.
REFERENCE_NS = {"frame": 44_000, "sweep": 400_000, "batch": 600_000,
                "mixed": 1_450_000}


class Sampler:
    """Runs a calibration task every ``interval`` s while active.

    ``total_ns`` is all the time spent sampling, to take out of timed work;
    ``slowdown()`` reports the mean task time since the previous call over
    the reference time, sampling once first if the timer has not fired.
    """

    def __init__(self, kind: str, interval: float = 0.02):
        self._task = TASKS[kind]
        self._reference = REFERENCE_NS[kind]
        self._interval = interval
        self._previous = None
        self.total_ns = 0
        self._ns = 0
        self._runs = 0

    def sample(self, *_signal_args) -> None:
        t0 = time.perf_counter_ns()
        self._task()
        dt = time.perf_counter_ns() - t0
        self.total_ns += dt
        self._ns += dt
        self._runs += 1

    def slowdown(self) -> float:
        if not self._runs:
            self.sample()
        ratio = self._ns / self._runs / self._reference
        self._ns = self._runs = 0
        return ratio

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self._interval, self._interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
