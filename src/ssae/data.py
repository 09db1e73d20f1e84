"""Sensor dataset handling: CSV ingestion, synthetic traces, sphering.

A dataset is a plain float64 array of shape (T, N): one row per time
instant, one column per sensor.  sphere_rows is the one sphering path: it
maps each frame, one or a batch (core._frames), into [-1, 1] by removing
its own mean and scaling by three dataset standard deviations; sphere is
the same function under the gateway's name, and desphere_rows the affine
inverse.  generate_synthetic is the one synthetic source; its noiseless
field is the variance-0 case.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import os
from array import array
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import core

__all__ = [
    "CsvFormatError",
    "NoiseSpec",
    "SpheredFrame",
    "load_csv",
    "write_csv",
    "generate_synthetic",
    "sphere",
    "sphere_rows",
    "desphere_rows",
    "dataset_std",
]

# Samples per simulated day in the synthetic generator (2-minute sampling).
DIURNAL_PERIOD = 720.0

# Rows write_csv formats and writes with one call.  For a 23-sensor log the
# traced peak must stay under a tenth of the log's own bytes (one block, as
# test_traced_peak_is_one_block bounds it): 128-row blocks reach 0.052 of
# it, 64-row blocks 0.028 and 256-row blocks 0.103.
WRITE_BLOCK_ROWS = 128

# The kernel's range: "%.17g" writes 0 and every value of magnitude in
# [1e-4, 1e15) in fixed notation, and there _round_digits' product fits 128
# bits and its shift is at least 1.
_FIXED_MIN, _FIXED_MAX = 1e-4, 1e15
_E4, _E16, _SPAN17 = np.uint64(10_000), np.uint64(10**16), np.uint64(9 * 10**16)
_1, _32, _37, _64 = (np.uint64(k) for k in (1, 32, 37, 64))
_LOW32 = np.uint64(0xFFFFFFFF)
_POW5 = np.array([5**p for p in range(23)], dtype=np.uint64)
# Four ASCII digits of each t < 10**4 as one native uint32, and the same
# with trailing zeros as NUL bytes, which the kernel deletes.
_DIGITS4 = np.frombuffer(b"".join(b"%04d" % t for t in range(10_000)), np.uint32)
_TRIMMED4 = np.frombuffer(b"".join((b"%04d" % t).rstrip(b"0").ljust(4, b"\0")
                                   for t in range(10_000)), np.uint32)
# A kernel cell of _CELL bytes: [0] the separator before the value, [1:7]
# the sign and a "0.000" prefix, [_LEAD] the first of the 17 digits and
# [8:24] the other 16 as uint32 columns 2-5.  Its NUL bytes are deleted.
_CELL, _LEAD = 24, 7

# The largest sigma whose sphering scale 3 * sigma is finite.
SIGMA_MAX = math.nextafter(np.finfo(np.float64).max / 3, 0.0)


class CsvFormatError(ValueError):
    """Raised when a dataset file cannot be parsed."""


@dataclass(frozen=True)
class NoiseSpec:
    """Additive i.i.d. zero-mean Gaussian sensor noise."""

    variance: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.variance < math.inf:
            raise ValueError(f"variance must be finite and >= 0, got {self.variance}")
        object.__setattr__(self, "seed", core._integer("seed", self.seed, 0))


class SpheredFrame(NamedTuple):
    """sphere_rows' result: the sphered frames d and their means, an
    np.float64 for one frame (N,) and (B,) for a batch (B, N)."""

    d: np.ndarray
    mean: np.float64 | np.ndarray


def _number(cell: str) -> float:
    """A cell's value as np.loadtxt reads it, or a ValueError.

    float alone keeps \\x1c-\\x1f around it and takes "_" and non-ASCII digits.
    """
    text = cell.strip()
    if "_" in text or not text.isascii():
        raise ValueError(f"not a number: {cell!r}")
    return float(text)


def _is_number(cell: str) -> bool:
    try:
        _number(cell)
    except ValueError:
        return False
    return True


def _is_header(row: list[str]) -> bool:
    # A header is a first row with no numeric field at all; anything else
    # is data and a stray label in it is a parse error, not a header.
    return not any(_is_number(cell) for cell in row)


def load_csv(source) -> np.ndarray:
    """Read a (T, N) dataset from a path (str or os.PathLike), or a text or bytes file object.

    Accepts an optional header row (a first row whose fields are all
    non-numeric).  Raises CsvFormatError naming the offending row/column
    for ragged rows, non-numeric cells, and empty files, and the line of
    the first byte that is not UTF-8.

    The source is read from its current position as one stream of
    "\\n"-separated lines, bytes decoded as UTF-8, less one leading byte-order
    mark (spreadsheets start a "CSV UTF-8" export with one); a reader that
    cannot seek is read whole first.  A log in write_csv's shape goes to
    np.loadtxt as it is read (_load_numeric), so the peak beyond the array is
    a few lines and its growth slack.  Any other text is read again, row by
    row, by a cell-by-cell parser that names the first offending row and
    column, so every input gives the same array or the same error either way.
    Of two faults, the first in reading order is named: a bad cell in row 1
    before a byte that is not UTF-8 on line 3.
    """
    if not hasattr(source, "read"):
        with open(os.fspath(source), "rb") as fh:
            return load_csv(fh)
    if not (hasattr(source, "seekable") and source.seekable()):
        raw = source.read()
        source = io.BytesIO(raw) if isinstance(raw, (bytes, bytearray)) else io.StringIO(raw)
    start = source.tell()
    X = _load_numeric(_utf8_lines(source))
    if X is None:
        source.seek(start)
        X = _load_rows(_utf8_lines(source))
    return X


def _utf8_lines(stream):
    """Lines of a text or bytes stream as str; a CsvFormatError names a line not UTF-8."""
    for n, line in enumerate(stream, start=1):
        if not isinstance(line, str):
            try:
                line = line.decode()
            except UnicodeDecodeError as exc:
                raise CsvFormatError(f"line {n}: not UTF-8: byte {line[exc.start]:#04x}") from None
        yield line.removeprefix("\ufeff") if n == 1 else line


def _load_numeric(lines) -> np.ndarray | None:
    """np.loadtxt's array from str lines in write_csv's shape, an optional
    one-line header and then finite numbers; None for any other lines."""
    lines = iter(lines)
    try:
        line = next(lines, "")
        # strict: a quoted cell still open at the end of the line raises, so a
        # header whose cell spans lines is declined rather than read as data.
        if _is_header(next(csv.reader([line], strict=True))):
            line = next(lines, "")
        if not line.strip():
            return None  # np.loadtxt would warn that it found no data
        X = np.loadtxt(itertools.chain([line], lines), delimiter=",", comments=None, ndmin=2)
    except (ValueError, csv.Error):  # CsvFormatError and UnicodeDecodeError are ValueErrors
        return None
    return X if X.size and np.isfinite(X).all() else None


def _load_rows(lines) -> np.ndarray:
    """The cell parser: str lines read once, row by row, into one growing
    buffer; a csv.Error becomes a CsvFormatError naming its line."""
    reader = csv.reader(lines)
    rows = ((lineno, row) for lineno, row in enumerate(reader, start=1) if row)
    try:
        first = next(rows, None)
        if first is None:
            raise CsvFormatError("empty CSV: no data rows")
        if _is_header(first[1]):
            first = next(rows, None)
            if first is None:
                raise CsvFormatError("CSV contains only a header, no data rows")
        width, out = len(first[1]), array("d")
        for lineno, row in itertools.chain((first,), rows):
            if len(row) != width:
                raise CsvFormatError(
                    f"row {lineno}: expected {width} fields, found {len(row)}"
                )
            for j, cell in enumerate(row):
                try:
                    value = _number(cell)
                except ValueError:
                    raise CsvFormatError(
                        f"row {lineno}, column {j + 1}: not a number: {cell!r}"
                    ) from None
                if not math.isfinite(value):
                    raise CsvFormatError(
                        f"row {lineno}, column {j + 1}: non-finite value {cell!r}"
                    )
                out.append(value)
    except csv.Error as exc:
        raise CsvFormatError(f"line {reader.line_num}: {exc}") from None
    return np.frombuffer(out).reshape(-1, width)


def write_csv(matrix: np.ndarray, sink, header: list[str] | None = None) -> None:
    """Write a (T, N) dataset as CSV at full double precision.

    The text after the header line is the bytes of np.savetxt(sink, X,
    fmt="%.17g", delimiter=","), so load_csv(write_csv(X)) reproduces X
    bit-exactly.  A block whose values are all 0 or in [1e-4, 1e15) in
    magnitude, which "%.17g" writes in fixed notation, is formatted by a
    numpy integer kernel; any other block by the % operator.  A matrix with
    no rows or no columns, or a non-finite value (named by frame and
    sensor), both of which load_csv rejects, raises a ValueError before
    anything is opened or written.  A header cell that would not read back,
    one that is a number, holds a comma, quote or line break, or is longer
    than csv.field_size_limit(), is rejected; the header line is written
    only when its text is not empty.

    sink is a path (str or os.PathLike) or a file object.  A path is opened
    "wb" whatever its suffix (a ".gz" path holds plain text, so it reads
    back) and gets the text's UTF-8 bytes as they are formatted.  A file
    object gets the same bytes if writing "" to it raises TypeError, and
    otherwise their text as str.  The text is formatted and written
    WRITE_BLOCK_ROWS rows at a time, so the memory it takes beyond X is
    one block's text and kernel arrays.
    """
    X = core._matrix(matrix)
    if X.size == 0:
        raise ValueError(f"a {X.shape} matrix would not read back: it has no entries")
    core._finite(X)
    if header is not None and len(header) != X.shape[1]:
        raise ValueError("header length does not match column count")
    for j, cell in enumerate(header or (), start=1):
        if (any(c in cell for c in ',"\r\n') or _is_number(cell)
                or len(cell) > csv.field_size_limit()):
            raise ValueError(f"header cell {j} would not read back: {cell!r}")
    if not hasattr(sink, "write"):
        with open(os.fspath(sink), "wb") as fh:
            return write_csv(X, fh, header)
    write = sink.write
    try:
        write("")
    except TypeError:  # a bytes sink, as np.savetxt's wrapper finds it
        pass
    else:
        def write(chunk: bytes) -> None:
            sink.write(chunk.decode("utf-8"))
    if text := ",".join(header or ()):
        write(text.encode("utf-8") + b"\n")
    # Cell i's separator: "\n" starting a row, "," within it, none for the
    # block's first cell; the cell after the last ends the block's line.
    n = min(len(X), WRITE_BLOCK_ROWS) * X.shape[1]
    seps = np.where(np.arange(n + 1) % X.shape[1], 44, 10).astype(np.uint8)
    seps[0] = 0
    for start in range(0, len(X), WRITE_BLOCK_ROWS):
        block = X[start:start + WRITE_BLOCK_ROWS]
        write(_fixed_text(block.ravel(), seps) or _percent_text(block))


def _percent_text(block: np.ndarray) -> bytes:
    """The lines of block as "%.17g" writes them, by the % operator."""
    row = b",".join([b"%.17g"] * block.shape[1]) + b"\n"
    return (row * len(block)) % tuple(block.ravel().tolist())


def _fixed_text(v: np.ndarray, seps: np.ndarray) -> bytes | None:
    """The "%.17g" text of a block's values v, cells joined by seps; None
    unless every value is 0 or has |v| in [_FIXED_MIN, _FIXED_MAX)."""
    digits = _decimal(v)
    if digits is None:
        return None
    # The cells are freed once copied, before translate makes the text.
    return _cells(v, *digits, seps).tobytes().translate(None, b"\0")


def _decimal(v: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """The 17 digits D of each |v| and its decimal exponent x as int8, D
    = round(|v| * 10**(16 - x)) in [10**16, 10**17), or D = x = 0 for a
    zero; None unless every value is 0 or in _fixed_text's range."""
    a = np.abs(v)
    a[a == 0] = 1.0  # a zero takes 1's digits until D is set
    if not (a.min() >= _FIXED_MIN and a.max() < _FIXED_MAX):
        return None
    # |v| = m * 2**(e - 53) with m < 2**53, and log10 may miss x by one.
    x = np.log10(a)
    x = np.floor(x, out=x).astype(np.int8)
    e = np.frexp(a, out=(a, None))[1]
    m = np.ldexp(a, 53, out=a).astype(np.uint64)
    del a  # so no float array is live beside _round_digits' limbs
    d = _round_digits(m, e, x)
    miss = np.flatnonzero(d - _E16 >= _SPAN17)  # D outside [10**16, 10**17), wrapped
    while miss.size:
        x[miss] += np.where(d[miss] < _E16, -1, 1)
        d[miss] = _round_digits(m[miss], e[miss], x[miss])
        miss = miss[d[miss] - _E16 >= _SPAN17]
    d[v == 0] = 0
    return d, x


def _cells(v: np.ndarray, d: np.ndarray, x: np.ndarray, seps: np.ndarray) -> np.ndarray:
    """A (len(v) + 1, _CELL) uint8 array whose bytes less NUL are v's text,
    from _decimal's D and x, d's entries overwritten."""
    n = len(v)
    buf = np.zeros((n + 1, _CELL), np.uint8)
    buf[:, 0] = seps[:n + 1]
    cells = buf[:n]
    # Four digits at a time, the last first: its trailing zeros are NUL,
    # and so are those of a run that goes on past it.  Each pass leaves
    # the group in d and the digits before it in q, which d then becomes.
    groups = cells.view(np.uint32)
    q, t = np.empty_like(d), np.empty_like(d)
    for col in (5, 4, 3, 2):
        np.floor_divide(d, _E4, out=q)
        d -= np.multiply(q, _E4, out=t)
        if col == 5:
            run_on = np.flatnonzero(d == 0)
        groups[:, col] = (_TRIMMED4 if col == 5 else _DIGITS4).take(d)
        d, q = q, d
    np.add(d, 48, out=cells[:, _LEAD], casting="unsafe")
    del q, t  # before the steps below make their temporaries
    if run_on.size:
        tail = cells[run_on, _LEAD + 1:]
        tail[np.logical_and.accumulate(tail[:, ::-1] <= 48, axis=1)[:, ::-1]] = 0
        cells[run_on, _LEAD + 1:] = tail
    # Fixed notation: the x + 1 integer digits move one column left, and a
    # "." follows them unless the fraction is all NUL; below 1 the prefix
    # is "0." and -x - 1 zeros.
    cells[:, _LEAD - 2] = np.signbit(v) * 45
    cells[:, _LEAD - 1] = cells[:, _LEAD]
    for j in range(x.max()):
        cells[:, _LEAD + j] = np.where(x > j, cells[:, _LEAD + j + 1] | 48, cells[:, _LEAD + j])
    point = np.arange(0, n * _CELL, _CELL) + (x + _LEAD)
    flat = buf.reshape(-1)
    flat[point] = (flat[point + 1] != 0) * 46
    for k in range(x.min(), 0):
        rows = np.flatnonzero(x == k)
        cells[rows, _LEAD - 1 + k:_LEAD] = np.frombuffer(b"0." + b"0" * (-k - 1), np.uint8)
        cells[rows, _LEAD - 2 + k] = np.signbit(v[rows]) * 45
    return buf


def _round_digits(m: np.ndarray, e: np.ndarray, x: np.ndarray) -> np.ndarray:
    """round(m * 2**(e - 53) * 10**(16 - x)), half to even, as uint64.

    The product m * 5**(16 - x) is exact as a 128-bit (hi, lo) pair of
    32-bit limb products, then shifts right by s = 37 - e + x bits, which
    _fixed_text's range keeps between 1 and 46.  Every limb step is uint64,
    which wraps; an int64 operand would promote it to float64, so s is
    cast into a uint64 array.  Each step writes into an array it has
    finished reading, so five arrays the size of m are live at most.
    """
    f0 = _POW5.take(16 - x)
    f1 = f0 >> _32
    f0 &= _LOW32
    hi = m >> _32  # m's high limb until hi *= f1
    lo = m & _LOW32  # and its low limb until lo *= f0
    mid = hi * f0
    hi *= f1
    f1 *= lo
    mid += f1
    lo *= f0
    hi += np.right_shift(mid, _32, out=f1)
    mid <<= _32
    mid += lo  # the low word, wrapped
    hi += mid < lo  # and its carry
    s = np.subtract(x, e, out=f0, casting="unsafe")  # x - e may wrap ...
    s += _37  # ... and 37 - e + x is at least 1
    # Half to even: add 2**(s - 1) - 1, and 1 more if the truncation is odd.
    np.right_shift(mid, s, out=lo)
    lo &= _1
    np.subtract(s, _1, out=f1)
    lo += np.left_shift(_1, f1, out=f1)
    lo -= _1
    lo += mid
    hi += lo < mid
    lo >>= s
    hi <<= np.subtract(_64, s, out=s)
    lo |= hi
    return lo


def _ar1(rng: np.random.Generator, n: int, smoothing: float, std: float) -> np.ndarray:
    """Stationary AR(1) series: low-pass random walk with the given std."""
    eps = rng.normal(size=n)
    scale = math.sqrt(1.0 - smoothing * smoothing)
    # Python floats are fast here; an array("d") keeps none beyond its step.
    out = array("d", [prev := float(eps[0])])
    for e in memoryview(eps)[1:]:
        prev = smoothing * prev + scale * e
        out.append(prev)
    return std * np.frombuffer(out)


def generate_synthetic(
    n_sensors: int,
    n_samples: int,
    correlation_length: float = 4.0,
    base_signal_amplitude: float = 3.0,
    noise: NoiseSpec = NoiseSpec(),
) -> np.ndarray:
    """Synthetic readings of a line of sensors: a correlated field plus noise.

    Sensors sit at positions 1..N, and N = n_sensors >= 2, since a spatially
    correlated field needs two sensors; n_samples >= 1.  Each frame is a
    shared diurnal level plus a warm spot of spatial width
    ``correlation_length`` whose centre sweeps the array sinusoidally,
    perturbed by a low-pass random walk.
    Covariance between two sensors decays with their distance over the
    correlation length; correlation_length = inf makes all columns equal.
    I.i.d. Gaussian noise of noise.variance is added on top; at variance 0
    that draw is all zeros, and adding it leaves every field byte as it is
    (no field entry is -0).

    Deterministic given its arguments.  The field and the noise are drawn
    from separate streams spawned from noise.seed, so the field never
    depends on noise.variance.  The field is built in one (T, N) buffer
    and added into the noise in place, so the peak is about two (T, N)
    arrays: the field and its spread, or the field and the noise.
    """
    n_sensors = core._integer("n_sensors", n_sensors, 2)
    n_samples = core._integer("n_samples", n_samples, 1)
    if not correlation_length > 0:
        raise ValueError("correlation_length must be positive")
    if not math.isfinite(base_signal_amplitude):
        raise ValueError(f"base_signal_amplitude must be finite, got {base_signal_amplitude}")

    field_ss, noise_ss = np.random.SeedSequence(noise.seed).spawn(2)
    rng = np.random.default_rng(field_ss)
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

    # level + amp * exp(-0.5 * spread * spread) in one (T, N) buffer, each
    # step with the formula's operands (or its commutative swap), bit for bit.
    # A tiny correlation_length overflows spread to inf, and exp(-inf) = 0.
    spread = pos[None, :] - centre[:, None]
    with np.errstate(over="ignore"):
        spread /= correlation_length
        field = -0.5 * spread
        field *= spread
    del spread
    np.exp(field, out=field)
    field *= amp
    field += level[:, None]
    z = np.random.default_rng(noise_ss).normal(0.0, math.sqrt(noise.variance), size=field.shape)
    z += field
    return z


def sphere_rows(X: np.ndarray, sigma: float) -> SpheredFrame:
    """Sphere frames X, one or a batch; returns SpheredFrame(d, mean).

    Frames must be finite with N >= 1, and sigma positive with 3 * sigma finite.
    """
    X = core._frames(X, None, "X must be a frame")
    if not X.shape[-1]:
        raise ValueError(f"frames have no sensors, got shape {X.shape}")
    core._finite(X)
    if not 0 < sigma <= SIGMA_MAX:
        raise ValueError(f"sigma must be positive with 3 * sigma finite, got {sigma}")
    means = np.add.reduce(X, axis=-1) / X.shape[-1]
    # Bit-identical to clip(X - mean, +-3 sigma) / (3 sigma): division is monotone.
    D = X - means[..., None]
    D /= 3.0 * sigma
    np.maximum(D, -1.0, out=D)
    np.minimum(D, 1.0, out=D)
    return SpheredFrame(D, means)


# The gateway's name; it goes with ROADMAP item 6, as bench/tracing.py wraps both.
sphere = sphere_rows


def desphere_rows(D_hat: np.ndarray, means: np.ndarray, sigma: float) -> np.ndarray:
    """Inverse of sphere_rows: x_hat = 3*sigma*d_hat + the row's mean, row by row.

    means holds one mean per row, so its shape is D_hat's without the last
    axis.  sigma must be positive with 3 * sigma finite.
    """
    if not 0 < sigma <= SIGMA_MAX:
        raise ValueError(f"sigma must be positive with 3 * sigma finite, got {sigma}")
    D_hat = core._frames(D_hat, None, "D_hat must be a frame")
    means = np.asarray(means, dtype=np.float64)
    if means.shape != D_hat.shape[:-1]:
        raise ValueError(
            f"means of shape {means.shape} do not match D_hat of shape {D_hat.shape}"
        )
    return 3.0 * sigma * D_hat + means[..., None]


def dataset_std(X: np.ndarray) -> float:
    """Population standard deviation pooled over all entries of (T, N).

    This is the single scale constant baked into a trained model; a
    constant matrix has no scale and is rejected, and so is a spread whose
    standard deviation float64 cannot hold (it overflows, or underflows to 0).
    """
    X = np.asarray(X, dtype=np.float64)
    if X.size < 2:
        raise ValueError("need at least 2 entries to measure spread")
    core._finite(X)
    with np.errstate(over="ignore", invalid="ignore"):
        s = float(X.std())
    if 0.0 < s < math.inf:
        return s
    if X.min() == X.max():
        raise ValueError("constant matrix: standard deviation is zero")
    raise ValueError(f"matrix spread is out of float64 range: standard deviation computes as {s}")
