"""Sensor dataset handling: CSV ingestion, synthetic traces, sphering.

A dataset is a plain float64 array of shape (T, N): one row per time
instant, one column per sensor.  sphere_rows is the one sphering path: it
maps each frame on the last axis, (N,) or (B, N), into [-1, 1] by removing
its own mean and scaling by three dataset standard deviations; sphere is
its B=1 case and desphere_rows the affine inverse.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CsvFormatError",
    "NoiseSpec",
    "SpheredFrame",
    "load_csv",
    "write_csv",
    "generate_synthetic",
    "synthetic_field",
    "sphere",
    "sphere_rows",
    "desphere_rows",
    "dataset_std",
]

# Samples per simulated day in the synthetic generator (2-minute sampling).
DIURNAL_PERIOD = 720.0


class CsvFormatError(ValueError):
    """Raised when a dataset file cannot be parsed."""


@dataclass(frozen=True)
class NoiseSpec:
    """Additive i.i.d. zero-mean Gaussian sensor noise."""

    variance: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.variance < 0:
            raise ValueError(f"noise variance must be >= 0, got {self.variance}")


@dataclass(frozen=True)
class SpheredFrame:
    """A frame scaled into [-1, 1] plus the mean that was removed from it."""

    d: np.ndarray
    mean: float


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _is_header(row: list[str]) -> bool:
    # A header is a first row with no numeric field at all; anything else
    # is data and a stray label in it is a parse error, not a header.
    return not any(_is_number(cell) for cell in row)


def load_csv(source) -> np.ndarray:
    """Read a (T, N) dataset from a path, file object, or text.

    Accepts an optional header row (a first row whose fields are all
    non-numeric).  Raises CsvFormatError naming the offending row/column
    for ragged rows, non-numeric cells, and empty files.

    Clean numeric text is parsed by np.loadtxt; anything it rejects, or
    any non-finite value, goes through a cell-by-cell parser that finds
    the first offending row and column, so every text gives the same
    array or the same error either way.
    """
    if hasattr(source, "read"):
        raw = source.read()
        text = raw.decode("utf-8") if isinstance(raw, (bytes, bytearray)) else raw
    else:
        with open(source, "rb") as fh:
            text = fh.read().decode("utf-8")
    X = _load_numeric(text)
    return X if X is not None else _load_rows(text)


def _load_numeric(text: str) -> np.ndarray | None:
    """np.loadtxt parse of text that is all finite numbers; None otherwise."""
    lines = text.split("\n")  # the line breaks of csv.reader on io.StringIO
    try:
        reader = csv.reader(lines)
        first = next((row for row in reader if row), None)
        if first is None:
            return None
        if _is_header(first):
            lines = lines[reader.line_num:]
            if not any(line.strip() for line in lines):
                return None  # np.loadtxt would warn that it found no data
        X = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    except (ValueError, csv.Error):
        return None
    return X if X.size and np.isfinite(X).all() else None


def _load_rows(text: str) -> np.ndarray:
    rows = [
        (lineno, row)
        for lineno, row in enumerate(csv.reader(io.StringIO(text)), start=1)
        if row
    ]
    if not rows:
        raise CsvFormatError("empty CSV: no data rows")

    if _is_header(rows[0][1]):
        rows = rows[1:]
        if not rows:
            raise CsvFormatError("CSV contains only a header, no data rows")

    width = len(rows[0][1])
    out = np.empty((len(rows), width), dtype=np.float64)
    for i, (lineno, row) in enumerate(rows):
        if len(row) != width:
            raise CsvFormatError(
                f"row {lineno}: expected {width} fields, found {len(row)}"
            )
        for j, cell in enumerate(row):
            try:
                value = float(cell)
            except ValueError:
                raise CsvFormatError(
                    f"row {lineno}, column {j + 1}: not a number: {cell!r}"
                ) from None
            if not math.isfinite(value):
                raise CsvFormatError(
                    f"row {lineno}, column {j + 1}: non-finite value {cell!r}"
                )
            out[i, j] = value
    return out


def write_csv(matrix: np.ndarray, sink, header: list[str] | None = None) -> None:
    """Write a (T, N) dataset as CSV at full double precision.

    Values are printed with 17 significant digits so load_csv(write_csv(X))
    reproduces X bit-exactly.
    """
    X = np.asarray(matrix, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {X.shape}")
    if header is not None and len(header) != X.shape[1]:
        raise ValueError("header length does not match column count")
    np.savetxt(sink, X, fmt="%.17g", delimiter=",",
               header="" if header is None else ",".join(header),
               comments="", encoding="utf-8")


def _spawn_rngs(seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    # Separate streams so the noiseless field is reproducible regardless of
    # whether noise is added on top.
    field_ss, noise_ss = np.random.SeedSequence(seed).spawn(2)
    return np.random.default_rng(field_ss), np.random.default_rng(noise_ss)


def _ar1(rng: np.random.Generator, n: int, smoothing: float, std: float) -> np.ndarray:
    """Stationary AR(1) series: low-pass random walk with the given std."""
    eps = rng.normal(size=n)
    out = np.empty(n)
    out[0] = eps[0]
    scale = math.sqrt(1.0 - smoothing * smoothing)
    for t in range(1, n):
        out[t] = smoothing * out[t - 1] + scale * eps[t]
    return std * out


def synthetic_field(
    n_sensors: int,
    n_samples: int,
    correlation_length: float = 4.0,
    base_signal_amplitude: float = 3.0,
    seed: int = 0,
) -> np.ndarray:
    """Noiseless correlated field sampled by a line of sensors.

    Sensors sit at positions 1..N.  Each frame is a shared diurnal level
    plus a warm spot of spatial width ``correlation_length`` whose centre
    sweeps the array sinusoidally, perturbed by a low-pass random walk.
    Covariance between two sensors decays with their distance over the
    correlation length; correlation_length = inf makes all columns equal.
    """
    if n_sensors < 2:
        raise ValueError("need at least 2 sensors for a spatially correlated field")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if not correlation_length > 0:
        raise ValueError("correlation_length must be positive")

    rng, _ = _spawn_rngs(seed)
    amp = float(base_signal_amplitude)
    pos = np.arange(1.0, n_sensors + 1.0)
    t = np.arange(n_samples, dtype=np.float64)
    phase = 2.0 * np.pi * t / DIURNAL_PERIOD

    phi0 = rng.uniform(0.0, 2.0 * np.pi)
    psi0 = rng.uniform(0.0, 2.0 * np.pi)
    wander = _ar1(rng, n_samples, smoothing=0.995, std=0.8)
    level_walk = _ar1(rng, n_samples, smoothing=0.997, std=amp)

    # Shared scalar level: identical for every sensor at each instant.  Its
    # swing dominates the pooled scale, as day/night cycles do for real
    # surface temperatures.
    level = 20.0 + amp * np.sin(phase + phi0) + level_walk

    # Hot-spot centre sweeps the array; 0.37 keeps it incommensurate with
    # the diurnal level so frames do not repeat.
    mid = 0.5 * (1.0 + n_sensors)
    half_span = 0.5 * (n_sensors - 1.0)
    centre = mid + half_span * np.sin(0.37 * phase + psi0 + wander)

    spread = (pos[None, :] - centre[:, None]) / correlation_length
    bump = amp * np.exp(-0.5 * spread * spread)
    return level[:, None] + bump


def generate_synthetic(
    n_sensors: int,
    n_samples: int,
    correlation_length: float = 4.0,
    base_signal_amplitude: float = 3.0,
    noise: NoiseSpec = NoiseSpec(),
) -> np.ndarray:
    """Synthetic readings: the noiseless field plus i.i.d. Gaussian noise.

    Deterministic given its arguments; the field itself depends only on
    noise.seed, never on noise.variance.
    """
    field = synthetic_field(
        n_sensors,
        n_samples,
        correlation_length=correlation_length,
        base_signal_amplitude=base_signal_amplitude,
        seed=noise.seed,
    )
    if noise.variance == 0.0:
        return field
    _, noise_rng = _spawn_rngs(noise.seed)
    z = noise_rng.normal(0.0, math.sqrt(noise.variance), size=field.shape)
    return field + z


def sphere(x: np.ndarray, sigma: float) -> SpheredFrame:
    """Sphere one frame (N,): sphere_rows at B=1, returned as a SpheredFrame."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"expected a 1-D frame, got shape {x.shape}")
    d, mean = sphere_rows(x, sigma)
    return SpheredFrame(d=d, mean=float(mean))


def sphere_rows(X: np.ndarray, sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """Sphere a frame (N,) or every row of (B, N); returns (D, per-row means).

    Frames must be finite with N >= 1, and sigma finite and positive.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim not in (1, 2):
        raise ValueError(f"expected a frame or a 2-D matrix, got shape {X.shape}")
    if not X.shape[-1]:
        raise ValueError(f"frames have no sensors, got shape {X.shape}")
    if not np.logical_and.reduce(np.isfinite(X), axis=None):  # .all() without its wrapper
        raise ValueError("frames contain non-finite values")
    if not 0 < sigma < np.inf:
        raise ValueError(f"sigma must be positive, got {sigma}")
    means = np.add.reduce(X, axis=-1) / X.shape[-1]  # X.mean(axis=-1), bit for bit
    # Bit-identical to clip(X - mean, +-3 sigma) / (3 sigma): division is monotone.
    D = X - means[..., None]
    D /= 3.0 * sigma
    np.maximum(D, -1.0, out=D)
    np.minimum(D, 1.0, out=D)
    return D, means


def desphere_rows(D_hat: np.ndarray, means: np.ndarray, sigma: float) -> np.ndarray:
    """Inverse of sphere_rows: x_hat = 3*sigma*d_hat + the row's mean, row by row."""
    if not 0 < sigma < np.inf:
        raise ValueError(f"sigma must be positive, got {sigma}")
    D_hat = np.asarray(D_hat, dtype=np.float64)
    return 3.0 * sigma * D_hat + np.asarray(means, dtype=np.float64)[..., None]


def dataset_std(X: np.ndarray) -> float:
    """Population standard deviation pooled over all entries of (T, N).

    This is the single scale constant baked into a trained model; a
    constant matrix has no scale and is rejected.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.size < 2:
        raise ValueError("need at least 2 entries to measure spread")
    if not np.isfinite(X).all():
        raise ValueError("matrix contains non-finite values")
    s = float(X.std())
    if s == 0.0:
        raise ValueError("constant matrix: standard deviation is zero")
    return s
