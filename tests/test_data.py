import csv
import gzip
import io
import math
import os
import pathlib
import re
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ssae import data
from ssae.data import (
    CsvFormatError,
    NoiseSpec,
    SpheredFrame,
    dataset_std,
    desphere_rows,
    generate_synthetic,
    load_csv,
    sphere,
    sphere_rows,
    write_csv,
)


class TestLoadCsv:
    def test_plain_two_by_two(self):
        X = load_csv(io.StringIO("1.0,2.0\n3.0,4.0"))
        np.testing.assert_array_equal(X, [[1.0, 2.0], [3.0, 4.0]])

    def test_header_row_skipped(self):
        X = load_csv(io.StringIO("s1,s2\n1,2\n3,4"))
        np.testing.assert_array_equal(X, [[1.0, 2.0], [3.0, 4.0]])

    def test_non_numeric_cell_names_coordinates(self):
        with pytest.raises(CsvFormatError, match="row 1, column 1"):
            load_csv(io.StringIO("a,2"))

    def test_non_numeric_cell_in_later_row(self):
        with pytest.raises(CsvFormatError, match="row 3, column 2"):
            load_csv(io.StringIO("1,2\n3,4\n5,x"))

    def test_ragged_row_names_row(self):
        with pytest.raises(CsvFormatError, match="row 2"):
            load_csv(io.StringIO("1,2\n3,4,5"))

    def test_empty_file(self):
        with pytest.raises(CsvFormatError, match="empty"):
            load_csv(io.StringIO(""))

    def test_header_only(self):
        with pytest.raises(CsvFormatError, match="header"):
            load_csv(io.StringIO("a,b\n"))

    def test_non_finite_rejected(self):
        with pytest.raises(CsvFormatError, match="non-finite"):
            load_csv(io.StringIO("1,nan"))

    def test_bytes_stream(self):
        X = load_csv(io.BytesIO(b"1,2\n"))
        np.testing.assert_array_equal(X, [[1.0, 2.0]])

    def test_file_descriptor_is_not_a_path(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("1,2\n")
        fd = os.open(path, os.O_RDONLY)
        try:
            with pytest.raises(TypeError):
                load_csv(fd)
            os.fstat(fd)  # still open
        finally:
            os.close(fd)

    def test_text_is_not_a_source(self):
        with pytest.raises(FileNotFoundError):
            load_csv("1,2\n3,4\n")

    def test_not_utf8_names_line_in_bytes_stream(self):
        with pytest.raises(CsvFormatError, match="line 1: not UTF-8"):
            load_csv(io.BytesIO(b"\xff\xfe1,2\n"))

    def test_not_utf8_names_line_in_path(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_bytes("s1,s\u00e9\n1,2\n".encode("utf-8") + b"3,\xe94\n")
        with pytest.raises(CsvFormatError, match="line 3: not UTF-8: byte 0xe9"):
            load_csv(path)

    @pytest.mark.parametrize("text", ["1,2\n3,4\n", "s1,s2\n1,2\n3,4\n"],
                             ids=["plain", "header"])
    def test_leading_byte_order_mark_is_dropped(self, tmp_path, text):
        # Spreadsheets start a "CSV UTF-8" export with one.
        expected = load_csv(io.StringIO(text))
        marked = "\ufeff" + text
        path = tmp_path / "marked.csv"
        path.write_bytes(marked.encode("utf-8"))
        for source in (io.BytesIO(marked.encode("utf-8")), io.StringIO(marked), path):
            X = load_csv(source)
            assert X.shape == expected.shape and X.tobytes() == expected.tobytes(), source

    @pytest.mark.parametrize("text, message", [
        ("1,2\n\ufeff3,4\n", "row 2, column 1: not a number: '\\ufeff3'"),
        ("s1,s2\n1,\ufeff2\n", "row 2, column 2: not a number: '\\ufeff2'"),
        ("\ufeff\ufeff1,2\n", "row 1, column 1: not a number: '\\ufeff1'"),
    ], ids=["later-row", "later-cell", "second-mark"])
    def test_any_other_byte_order_mark_is_named(self, text, message):
        for source in (io.BytesIO(text.encode("utf-8")), io.StringIO(text)):
            with pytest.raises(CsvFormatError, match=f"^{re.escape(message)}$"):
                load_csv(source)

    def test_stream_read_from_its_position(self):
        # The cell parser re-reads from where the stream stood, not from 0.
        buf = io.BytesIO(b"preamble\n1,2\n3,x\n")
        buf.readline()
        with pytest.raises(CsvFormatError, match="row 2, column 2"):
            load_csv(buf)

    def test_unseekable_stream(self):
        class Pipe:
            def __init__(self, raw):
                self.read = lambda: raw

        np.testing.assert_array_equal(load_csv(Pipe(b"a,b\n1,2\n")), [[1.0, 2.0]])
        with pytest.raises(CsvFormatError, match="row 2, column 1"):
            load_csv(Pipe("1,2\nx,4\n"))

    def test_lone_carriage_return_names_its_line(self):
        for source in (io.StringIO("1,2\n3\r4,5\n"), io.BytesIO(b"1,2\n3\r4,5\n")):
            with pytest.raises(CsvFormatError,
                               match="line 2: new-line character seen in unquoted field"):
                load_csv(source)

    def test_quoted_field_over_the_size_limit_names_its_line(self):
        text = '1,2\n3,4\n"' + "5" * (csv.field_size_limit() + 1) + '",6\n'
        with pytest.raises(CsvFormatError, match="line 3: field larger than field limit"):
            load_csv(io.StringIO(text))

    def test_traced_peak_near_output_size(self, tmp_path):
        # The lines are parsed as they are read: neither the whole text nor
        # a list of its lines is ever held.
        X = generate_synthetic(23, 20_000, noise=NoiseSpec(variance=0.01, seed=3))
        path = tmp_path / "log.csv"
        write_csv(X, path, header=[f"s{j}" for j in range(23)])
        tracemalloc.start()
        try:
            out = load_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert same_bits(out, X)
        assert peak <= 1.5 * X.nbytes, peak / X.nbytes


def parse_outcome(parse, text):
    """The array a parser returns, or the type and message of what it raised."""
    try:
        return parse(text)
    except Exception as exc:  # what it raised is the outcome
        return type(exc), str(exc)


def same_outcome(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return isinstance(a, np.ndarray) and isinstance(b, np.ndarray) and same_bits(a, b)
    return a == b


# Cells that np.loadtxt and float() may read differently or not at all.
ODD_CELLS = ["", " ", "1_0", "nan", "inf", "-inf", "1e400", '"5"', '"1,2"', '"a\nb"',
             "x", "s1", "\t7 ", "1e", "0x10", "+.5", "-0.0", "\u00a01", "１"]
numbers = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                    st.integers(-10**20, 10**20).map(str))
header_cells = st.sampled_from(["s1", "a", '"b"', '"c,d"', "", "  ", "1_x"])


@st.composite
def csv_texts(draw):
    """Mostly well-formed numeric CSV with the odd header, blank line, ragged
    row, bad cell, line ending and missing final newline mixed in."""
    width = draw(st.integers(1, 4))
    lines = []
    if draw(st.booleans()):
        lines.append(",".join(draw(st.lists(header_cells, min_size=width, max_size=width))))
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(["", " ", "\t", "\r"])))
        w = width if draw(st.integers(0, 7)) else draw(st.integers(1, 5))
        odd = draw(st.integers(0, 3)) == 0
        cells = st.one_of(numbers, st.sampled_from(ODD_CELLS)) if odd else numbers
        row = draw(st.lists(cells, min_size=w, max_size=w))
        lines.append(",".join(row))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(lines) + draw(st.sampled_from(["", eol, eol + eol]))


class TestLoadCsvFastPath:
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(csv_texts(), st.text(alphabet="0123456789.,-+e \t\r\n\"ab_n\x0c\x1c\u2028")))
    @example("a,b\n\n\r\n")  # np.loadtxt would warn: no data after the header
    @example("1,2\x0c3,4\n")  # str.splitlines would end a line at the form feed
    @example("0,\x1c0")  # np.loadtxt strips \x1c-\x1f around a number, float does not
    @example('"_\n0')  # a header whose quoted cell spans both lines, and no data
    @example("\ns1,s2\n1,2\n")  # a header after a blank line
    @example("s1,s2\n\n1,2\n")  # a blank line after the header
    @example("s1,s2\n")
    @example("")
    def test_same_array_or_error_as_the_cell_parser(self, text):
        fast = parse_outcome(lambda t: load_csv(io.StringIO(t)), text)
        slow = parse_outcome(data._load_rows, io.StringIO(text))
        assert same_outcome(fast, slow), (fast, slow)

    @settings(max_examples=200, deadline=None)
    @given(csv_texts())
    def test_path_bytes_and_text_streams_agree(self, tmp_path_factory, text):
        path = tmp_path_factory.getbasetemp() / "agree.csv"
        path.write_bytes(text.encode("utf-8"))
        by_path = parse_outcome(load_csv, path)
        for stream in (io.BytesIO(text.encode("utf-8")), io.StringIO(text)):
            other = parse_outcome(load_csv, stream)
            assert same_outcome(by_path, other), (by_path, other)

    @pytest.mark.parametrize("header", [[f"s{j}" for j in range(23)], None],
                             ids=["header", "no-header"])
    def test_written_log_takes_the_fast_path(self, header):
        X = generate_synthetic(23, 200, noise=NoiseSpec(variance=0.01, seed=3))
        sink = io.StringIO()
        write_csv(X, sink, header=header)
        fast = data._load_numeric(io.StringIO(sink.getvalue()))
        assert fast is not None and same_outcome(fast, X)

    @pytest.mark.parametrize("text", ['"_\n0', "\ns1,s2\n1,2\n", "s1,s2\n\n1,2\n", "s1,s2\n", ""])
    def test_other_shapes_are_left_to_the_cell_parser(self, text):
        assert data._load_numeric(io.StringIO(text)) is None
        fast = parse_outcome(lambda t: load_csv(io.StringIO(t)), text)
        slow = parse_outcome(data._load_rows, io.StringIO(text))
        assert same_outcome(fast, slow), (fast, slow)


def loadtxt_reads(cell: str) -> bool:
    """Does np.loadtxt read a one-cell line as a number?"""
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an empty line warns that there is no data
        try:
            np.loadtxt([cell], delimiter=",", comments=None, ndmin=2)
        except (ValueError, UserWarning):
            return False
    return True


class TestCellParser:
    @settings(max_examples=500, deadline=None)
    @given(st.text(alphabet="0123456789._e+-" "٠١٣٥٩" "０１２９" "²৩"
                            " \t\x0b\x0c\x1c\x1f\x85\xa0\u2028\u3000", max_size=8))
    @example("1_0")
    @example("1e1_0")
    @example("١٢")
    @example("１２")
    @example("٣.٥")
    @example("\xa012\u3000")
    def test_is_number_agrees_with_loadtxt(self, cell):
        # float alone takes "_" between digits and any Unicode decimal digit.
        assert data._is_number(cell) == loadtxt_reads(cell)


class TestWriteCsv:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(40, 5)) * 10.0 ** rng.integers(-8, 9, size=(40, 5))
        path = tmp_path / "x.csv"
        write_csv(X, path)
        back = load_csv(path)
        np.testing.assert_array_equal(back, X)

    def test_round_trip_with_header(self, tmp_path):
        X = np.array([[1.5, 2.25]])
        path = tmp_path / "x.csv"
        write_csv(X, path, header=["a", "b"])
        np.testing.assert_array_equal(load_csv(path), X)

    def test_big_generated_file_round_trip(self, tmp_path):
        X = generate_synthetic(23, 1440, noise=NoiseSpec(variance=0.5, seed=3))
        assert X.shape == (1440, 23)
        path = tmp_path / "big.csv"
        write_csv(X, path)
        np.testing.assert_array_equal(load_csv(path), X)


def same_bits(a, b) -> bool:
    """Bit-for-bit equality, so -0.0 differs from 0.0."""
    a, b = np.atleast_1d(a), np.atleast_1d(b)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def reference_csv(X, header=None) -> str:
    lines = [] if header is None else [",".join(header)]
    lines += [",".join(f"{v:.17g}" for v in row) for row in X]
    return "\n".join(lines) + "\n"


# Every finite double, plus the signed zero, subnormals and values near the
# top of the range written out so each run meets them.
EDGE_VALUES = [-0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1e308,
               -1.7976931348623157e308, 1.7976931348623157e308]
csv_matrices = st.tuples(st.integers(1, 12), st.integers(1, 8)).flatmap(
    lambda shape: hnp.arrays(np.float64, shape, elements=st.one_of(
        st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(EDGE_VALUES))))


def savetxt_bytes(X, header=None) -> bytes:
    """What np.savetxt writes for write_csv's arguments: the reference text."""
    sink = io.BytesIO()
    np.savetxt(sink, X, fmt="%.17g", delimiter=",",
               header="" if header is None else ",".join(header),
               comments="", encoding="utf-8")
    return sink.getvalue()


BLOCK = data.WRITE_BLOCK_ROWS


class TestWriteCsvBlocks:
    """write_csv writes np.savetxt's bytes, WRITE_BLOCK_ROWS rows at a time."""

    @pytest.mark.parametrize("n_rows", [0, 1, 2 * BLOCK - 1, 2 * BLOCK, 2 * BLOCK + 1, 4 * BLOCK + 1])
    @pytest.mark.parametrize("n_cols", [0, 1, 23])
    @pytest.mark.parametrize("named", [False, True])
    def test_bytes_equal_savetxt(self, n_rows, n_cols, named):
        rng = np.random.default_rng(n_rows * 100 + n_cols)
        X = rng.normal(size=(n_rows, n_cols)) * 10.0 ** rng.integers(-300, 300, (n_rows, n_cols))
        header = [f"s{j}" for j in range(n_cols)] if named else None
        sink = io.BytesIO()
        if X.size:
            write_csv(X, sink, header=header)
            assert sink.getvalue() == savetxt_bytes(X, header)
        else:  # savetxt's text, blank lines or a header alone, does not read back
            with pytest.raises(ValueError, match="no entries"):
                write_csv(X, sink, header=header)
            assert sink.getvalue() == b""

    def test_empty_header_writes_no_line(self):
        X = np.zeros((3, 1))
        sink = io.StringIO()
        write_csv(X, sink, header=[""])
        assert sink.getvalue() == savetxt_bytes(X, [""]).decode() == "0\n0\n0\n"

    @pytest.mark.parametrize("n_rows", [2 * BLOCK - 1, 2 * BLOCK, 2 * BLOCK + 1])
    def test_every_sink_gets_the_same_bytes(self, tmp_path, n_rows):
        X = generate_synthetic(23, n_rows, noise=NoiseSpec(variance=0.01, seed=3))
        header = ["température"] + [f"s{j}" for j in range(1, 23)]
        expected = (",".join(header) + "\n").encode("utf-8") + savetxt_bytes(X)
        assert savetxt_bytes(X, header) == expected
        for path in (str(tmp_path / "str.csv"), tmp_path / "path.csv"):
            write_csv(X, path, header=header)
            assert pathlib.Path(path).read_bytes() == expected
            assert same_bits(load_csv(path), X)
        text, raw = io.StringIO(), io.BytesIO()
        write_csv(X, text, header=header)
        write_csv(X, raw, header=header)
        assert text.getvalue().encode("utf-8") == raw.getvalue() == expected
        with open(tmp_path / "binary.csv", "wb") as fh:
            write_csv(X, fh, header=header)
        assert (tmp_path / "binary.csv").read_bytes() == expected
        with gzip.open(tmp_path / "log.csv.gz", "wb") as fh:
            write_csv(X, fh, header=header)
        with gzip.open(tmp_path / "log.csv.gz", "rb") as fh:
            assert fh.read() == expected

    def test_file_descriptor_is_not_a_path(self):
        with pytest.raises(TypeError):
            write_csv(np.zeros((1, 1)), 1)

    def test_gz_path_is_plain_text_that_reads_back(self, tmp_path):
        X = generate_synthetic(23, 200, noise=NoiseSpec(variance=0.01, seed=3))
        path = tmp_path / "log.csv.gz"
        write_csv(X, path)
        assert path.read_bytes() == savetxt_bytes(X)
        assert same_bits(load_csv(path), X)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_traced_peak_is_one_block(self, tmp_path, order):
        X = np.asarray(generate_synthetic(23, 20_000, noise=NoiseSpec(variance=0.01, seed=3)),
                       order=order)
        path = tmp_path / "log.csv"
        header = [f"s{j}" for j in range(23)]
        outcome, peak = traced(lambda p: write_csv(X, p, header=header), path)
        assert outcome is None
        assert peak <= 0.1 * X.nbytes, peak / X.nbytes
        assert path.read_bytes() == savetxt_bytes(X, header)


def neighbours(v: float) -> list[float]:
    return [math.nextafter(v, -math.inf), v, math.nextafter(v, math.inf)]


def in_kernel_range(v: float) -> bool:
    return v == 0 or data._FIXED_MIN <= abs(v) < data._FIXED_MAX


# The kernel's edges, each signed: zero, each range limit and the doubles
# beside it, powers of ten and the doubles beside them (log10 rounds
# nextafter(1000, 0) up to 3.0), and 17-digit halfway ties, odd multiples
# of 1/8 past 1e14 and of 1/16 past 1e13.
KERNEL_EDGES = [sign * v for sign in (1.0, -1.0) for v in (
    [0.0, *neighbours(data._FIXED_MIN), *neighbours(data._FIXED_MAX)]
    + [w for k in range(-5, 17) for w in neighbours(10.0 ** k)]
    + [1e14 + k / 8 for k in range(1, 16, 2)] + [1e13 + k / 16 for k in range(1, 16, 2)])]
IN_RANGE_EDGES = [v for v in KERNEL_EDGES if in_kernel_range(v)]
FALLBACK_VALUES = list(dict.fromkeys([v for v in KERNEL_EDGES if not in_kernel_range(v)] + [
    5e-324, -2.2250738585072014e-308, 1e300, -1.7976931348623157e308]))
kernel_values = st.one_of(
    st.sampled_from(IN_RANGE_EDGES),
    st.floats(data._FIXED_MIN, data._FIXED_MAX, exclude_max=True),
    st.floats(-data._FIXED_MAX, -data._FIXED_MIN, exclude_min=True))


class TestWriteCsvKernel:
    """The kernel writes "%.17g"'s bytes for every value in its range, and
    a block holding any other value takes the % path."""

    @pytest.fixture
    def no_fallback(self, monkeypatch):
        def refuse(block):
            raise AssertionError("a block took the % path")
        monkeypatch.setattr(data, "_percent_text", refuse)

    def test_edges_in_range_take_the_kernel(self, no_fallback):
        assert np.floor(np.log10(math.nextafter(1000.0, 0.0))) == 3.0  # the retry runs
        X = np.array(IN_RANGE_EDGES).reshape(-1, 1)
        sink = io.StringIO()
        write_csv(X, sink)
        assert sink.getvalue() == reference_csv(X)
        assert {"0", "-0"} <= set(sink.getvalue().splitlines())

    def test_round_digits_is_exact_on_every_exponent(self):
        # Values of each decimal exponent t of the range, rounded at x = t
        # and at x = t -/+ 1, where log10's guess or rounding up to 10**17
        # moves x by one: the doubles beside 10**t and 10**(t + 1), halfway
        # ties j / 2**(17 - t) with j odd at both ends, whose rounding is
        # even and odd in turn, and random values.
        rng = np.random.default_rng(11)
        cases = []
        for t in range(-4, 15):
            lo, hi, scale = Fraction(10) ** t, Fraction(10) ** (t + 1), 2 ** (17 - t)
            first, last = math.ceil(lo * scale) | 1, (math.ceil(hi * scale) - 2) | 1
            values = [w for p in (lo, hi) for w in neighbours(float(p))]
            values += [j / scale for j in [*range(first, first + 8, 2), *range(last, last - 8, -2)]]
            values += (10.0 ** rng.uniform(t, t + 1, 8)).tolist()
            cases += [(w, x) for w in values if in_kernel_range(w) for x in (t - 1, t, t + 1)]
        assert {x for _, x in cases} == set(range(-5, 16))
        a, x = np.array([w for w, _ in cases]), np.array([x for _, x in cases], np.int8)
        got = data._round_digits(a, x).tolist()
        want = [round(Fraction(w) * Fraction(10) ** (16 - x)) for w, x in cases]
        # D is exact from 2**53, and below 10**16 wherever the rounding is.
        wrong = [(case, d, r) for case, d, r in zip(cases, got, want)
                 if (d != r if r >= 2**53 else d >= 10**16)]
        assert not wrong, wrong[:5]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_synthetic_log_takes_the_kernel(self, no_fallback, tmp_path, seed):
        X = generate_synthetic(23, 20_000, noise=NoiseSpec(variance=0.01, seed=seed))
        header = [f"s{j}" for j in range(23)]
        path = tmp_path / "log.csv"
        write_csv(X, path, header=header)
        assert path.read_bytes() == reference_csv(X, header).encode("utf-8")

    @pytest.mark.parametrize("row", [BLOCK - 1, BLOCK])
    @pytest.mark.parametrize("value", FALLBACK_VALUES)
    def test_only_the_block_holding_the_value_falls_back(self, monkeypatch, row, value):
        blocks = []
        percent_text = data._percent_text
        monkeypatch.setattr(data, "_percent_text",
                            lambda block: blocks.append(block.copy()) or percent_text(block))
        X = np.full((2 * BLOCK, 2), -20.25)
        X[row, 1] = value
        sink = io.StringIO()
        write_csv(X, sink)
        assert sink.getvalue() == reference_csv(X)
        assert len(blocks) == 1 and same_bits(blocks[0], X[row // BLOCK * BLOCK:][:BLOCK])

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 2 * BLOCK + 2), st.integers(1, 3), st.data())
    def test_text_equals_percent_reference(self, n_rows, n_cols, draw):
        X = draw.draw(hnp.arrays(np.float64, (n_rows, n_cols), elements=kernel_values))
        for _ in range(draw.draw(st.integers(0, 2))):  # fallback entries for some blocks
            X[draw.draw(st.integers(0, n_rows - 1)), draw.draw(st.integers(0, n_cols - 1))] = (
                draw.draw(st.sampled_from(FALLBACK_VALUES)))
        sink = io.StringIO()
        write_csv(X, sink)
        assert sink.getvalue() == reference_csv(X)


class TestWriteCsvProperties:
    @settings(max_examples=200, deadline=None)
    @given(csv_matrices, st.booleans())
    def test_round_trip_and_reference_text(self, X, with_header):
        header = [f"s{j}" for j in range(X.shape[1])] if with_header else None
        sink = io.StringIO()
        write_csv(X, sink, header=header)
        assert sink.getvalue() == reference_csv(X, header)
        assert same_bits(load_csv(io.StringIO(sink.getvalue())), X)

    @pytest.mark.parametrize("header, cell", [
        (["1", "2"], "1"),  # read back as a data row
        (["a", "2"], "2"),
        (["nan", "x"], "nan"),
        (["a\nb", "c"], "a\nb"),
        (['"q', "c"], '"q'),
    ])
    def test_rejects_header_that_would_not_read_back(self, header, cell):
        with pytest.raises(ValueError, match=re.escape(
                f"header cell {header.index(cell) + 1} would not read back: {cell!r}")):
            write_csv(np.zeros((2, 2)), io.StringIO(), header=header)

    @settings(max_examples=200, deadline=None)
    @given(csv_matrices, st.data())
    def test_every_accepted_header_reads_back(self, X, draw):
        header = draw.draw(st.lists(st.text(max_size=6), min_size=X.shape[1],
                                    max_size=X.shape[1]))
        sink = io.StringIO()
        try:
            write_csv(X, sink, header=header)
        except ValueError:
            assume(False)
        text = sink.getvalue()
        assert same_bits(load_csv(io.StringIO(text)), X)
        assert same_bits(load_csv(io.BytesIO(text.encode("utf-8"))), X)

    def test_rejects_header_cell_over_the_csv_field_limit(self):
        limit = csv.field_size_limit()
        with pytest.raises(ValueError, match="header cell 1 would not read back"):
            write_csv(np.zeros((1, 1)), io.StringIO(), header=["a" * (limit + 1)])
        sink = io.StringIO()
        write_csv(np.ones((1, 2)), sink, header=["a" * limit, "b"])
        assert same_bits(load_csv(io.StringIO(sink.getvalue())), np.ones((1, 2)))

    def test_rejects_non_matrix_and_wrong_header(self):
        with pytest.raises(ValueError, match="2-D"):
            write_csv(np.zeros(3), io.StringIO())
        with pytest.raises(ValueError, match="header"):
            write_csv(np.zeros((2, 3)), io.StringIO(), header=["a", "b"])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_refused_before_anything_is_written(self, tmp_path, bad):
        X = np.ones((2, 2))
        X[0, 1] = bad
        message = f"^frame 0, sensor 1 is not finite: {bad}$"
        path = tmp_path / "log.csv"
        with pytest.raises(ValueError, match=message):
            write_csv(X, path, header=["a", "b"])
        assert not path.exists()
        sink = io.StringIO()
        with pytest.raises(ValueError, match=message):
            write_csv(X, sink, header=["a", "b"])
        assert sink.getvalue() == ""

    @pytest.mark.parametrize("with_header", [False, True])
    @pytest.mark.parametrize("shape", [(0, 2), (3, 0), (0, 0)])
    def test_matrix_without_entries_refused_before_anything_is_opened(
            self, tmp_path, shape, with_header):
        # load_csv rejects each text these would write: "", "\n\n\n" or a
        # header alone.
        header = [f"s{j}" for j in range(shape[1])] if with_header else None
        message = "^" + re.escape(f"a {shape} matrix would not read back: it has no entries") + "$"
        path = tmp_path / "log.csv"
        with pytest.raises(ValueError, match=message):
            write_csv(np.zeros(shape), path, header=header)
        assert not path.exists()


def reference_decoded(raw) -> str:
    """raw as text, decoded whole; CsvFormatError naming the line of its
    first byte that is not UTF-8."""
    if isinstance(raw, str):
        return raw
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise CsvFormatError(f"line {line}: not UTF-8: byte {raw[exc.start]:#04x}") from None


def reference_load_rows(text: str) -> np.ndarray:
    """The whole-text cell parser: every row listed first, then checked in order."""
    rows = [
        (lineno, row)
        for lineno, row in enumerate(csv.reader(io.StringIO(text)), start=1)
        if row
    ]
    if not rows:
        raise CsvFormatError("empty CSV: no data rows")

    if data._is_header(rows[0][1]):
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
                value = data._number(cell)
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


def traced(parse, source):
    """parse_outcome of parse(source) and the traced peak it reached, in bytes."""
    tracemalloc.start()
    try:
        outcome = parse_outcome(parse, source)
        return outcome, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestLoadCsvStream:
    """The cell parser reads the same line stream as the fast path."""

    @settings(max_examples=300, deadline=None)
    @given(csv_texts())
    def test_same_array_or_error_as_the_whole_text_parser(self, text):
        raw = text.encode("utf-8")
        expected = parse_outcome(lambda r: reference_load_rows(reference_decoded(r)), raw)
        for stream in (io.BytesIO(raw), io.StringIO(text)):
            got = parse_outcome(load_csv, stream)
            assert same_outcome(got, expected), (got, expected)

    @settings(max_examples=200, deadline=None)
    @given(csv_matrices, st.booleans(), st.data())
    def test_bad_byte_named_as_the_whole_text_parser_names_it(self, X, with_header, draw):
        header = [f"s{j}" for j in range(X.shape[1])] if with_header else None
        raw = reference_csv(X, header).encode("utf-8")
        at = draw.draw(st.integers(0, len(raw)))
        raw = raw[:at] + bytes([draw.draw(st.integers(0x80, 0xFF))]) + raw[at:]
        expected = parse_outcome(lambda r: reference_load_rows(reference_decoded(r)), raw)
        assert expected[0] is CsvFormatError and "not UTF-8" in expected[1]
        assert parse_outcome(load_csv, io.BytesIO(raw)) == expected

    def test_first_fault_in_reading_order_is_named(self):
        # A cell that is not a number in row 1 comes before the byte on line 3.
        with pytest.raises(CsvFormatError,
                           match=re.escape("row 1, column 2: not a number: '2\\n3'")):
            load_csv(io.BytesIO(b'1,"2\n3",4\n\xc3(,1\n'))

    def test_text_stream_decoder_error_propagates(self):
        with io.TextIOWrapper(io.BytesIO(b"1,2\n3,\xe94\n"), encoding="utf-8") as stream:
            with pytest.raises(UnicodeDecodeError):
                load_csv(stream)

    def test_nan_tailed_log_named_within_the_output_size(self, tmp_path):
        X = generate_synthetic(23, 20_000, noise=NoiseSpec(variance=0.01, seed=3))
        X[-1, -1] = np.nan
        path = tmp_path / "log.csv"
        path.write_bytes(savetxt_bytes(X))  # write_csv refuses the nan
        outcome, peak = traced(load_csv, path)
        assert outcome == (CsvFormatError, "row 20000, column 23: non-finite value 'nan'")
        assert peak <= 1.5 * X.nbytes, peak / X.nbytes

    def test_quoted_cell_log_parses_within_the_output_size(self, tmp_path):
        X = generate_synthetic(23, 20_000, noise=NoiseSpec(variance=0.01, seed=3))
        path = tmp_path / "log.csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(",".join(f'"{v:.17g}"' for v in row) + "\n" for row in X)
        out, peak = traced(load_csv, path)
        assert same_bits(out, X)
        assert peak <= 1.5 * X.nbytes, peak / X.nbytes


def numpy_scalar_ar1(rng, n, smoothing, std):
    """The AR(1) recursion on numpy float64 scalars, one array entry at a time."""
    eps = rng.normal(size=n)
    out = np.empty(n)
    out[0] = eps[0]
    scale = math.sqrt(1.0 - smoothing * smoothing)
    for t in range(1, n):
        out[t] = smoothing * out[t - 1] + scale * eps[t]
    return std * out


@pytest.mark.parametrize("n", [1, 2, 7, 1000, 20_000])
@pytest.mark.parametrize("seed", [0, 19])
def test_ar1_bits_equal_the_numpy_scalar_recursion(seed, n):
    for smoothing, std in ((0.995, 0.8), (0.997, 3.0)):
        got = data._ar1(np.random.default_rng(seed), n, smoothing, std)
        assert same_bits(got, numpy_scalar_ar1(np.random.default_rng(seed), n, smoothing, std))


def test_ar1_keeps_no_python_float_per_sample():
    # eps, the growing array("d") and the scaled output: about three arrays.
    tracemalloc.start()
    try:
        out = data._ar1(np.random.default_rng(0), 20_000, 0.995, 0.8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * out.nbytes, peak / out.nbytes


def formula_generate(n_sensors, n_samples, correlation_length, amp, noise):
    """generate_synthetic as one formula per line, each an allocating expression."""
    field_ss, noise_ss = np.random.SeedSequence(noise.seed).spawn(2)
    rng = np.random.default_rng(field_ss)
    pos = np.arange(1.0, n_sensors + 1.0)
    phase = 2.0 * np.pi * np.arange(n_samples, dtype=np.float64) / data.DIURNAL_PERIOD
    phi0 = rng.uniform(0.0, 2.0 * np.pi)
    psi0 = rng.uniform(0.0, 2.0 * np.pi)
    wander = data._ar1(rng, n_samples, smoothing=0.995, std=0.8)
    level_walk = data._ar1(rng, n_samples, smoothing=0.997, std=amp)
    level = 20.0 + amp * np.sin(phase + phi0) + level_walk
    mid = 0.5 * (1.0 + n_sensors)
    half_span = 0.5 * (n_sensors - 1.0)
    centre = mid + half_span * np.sin(0.37 * phase + psi0 + wander)
    spread = (pos[None, :] - centre[:, None]) / correlation_length
    field = level[:, None] + amp * np.exp(-0.5 * spread * spread)
    if noise.variance == 0.0:
        return field
    noise_rng = np.random.default_rng(noise_ss)
    return field + noise_rng.normal(0.0, math.sqrt(noise.variance), size=field.shape)


class TestGenerateSynthetic:
    @pytest.mark.parametrize("n_sensors, n_samples, correlation_length, amp, variance", [
        (23, 2_000, 4.0, 3.0, 0.01),
        (23, 2_000, 4.0, 3.0, 0.0),
        (6, 500, math.inf, 3.0, 0.01),
        (23, 1, 4.0, 3.0, 0.01),
        (10, 300, 0.3, -1.5, 2.0),
    ])
    def test_bits_equal_the_formulas(self, n_sensors, n_samples, correlation_length,
                                     amp, variance):
        noise = NoiseSpec(variance=variance, seed=n_samples + n_sensors)
        X = generate_synthetic(n_sensors, n_samples, correlation_length, amp, noise)
        ref = formula_generate(n_sensors, n_samples, correlation_length, amp, noise)
        assert X.shape == ref.shape and X.tobytes() == ref.tobytes()

    def test_traced_peak_near_two_outputs(self):
        # The field is built in one (T, N) buffer and added into the noise.
        generate_synthetic(23, 10, noise=NoiseSpec(variance=0.01, seed=3))  # warm-up
        tracemalloc.start()
        try:
            X = generate_synthetic(23, 20_000, noise=NoiseSpec(variance=0.01, seed=3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * X.nbytes, peak / X.nbytes

    @pytest.mark.parametrize("variance", [math.nan, math.inf, -math.inf, -1.0])
    def test_bad_noise_variance_named(self, variance):
        with pytest.raises(ValueError, match="variance must be finite and >= 0"):
            NoiseSpec(variance=variance)

    @pytest.mark.parametrize("seed", [1.5, "3", None])
    def test_non_integer_noise_seed_named(self, seed):
        with pytest.raises(ValueError, match=re.escape(f"seed must be an integer, got {seed!r}")):
            NoiseSpec(seed=seed)

    @pytest.mark.parametrize("call,message", [
        (lambda: generate_synthetic(5, 10, noise=NoiseSpec(0.0, 1.5)),
         "seed must be an integer, got 1.5"),
        (lambda: generate_synthetic(5, 10, noise=NoiseSpec(0.0, -1)),
         "seed must be >= 0, got -1"),
        (lambda: NoiseSpec(0.1, -1), "seed must be >= 0, got -1"),
    ], ids=["field-float", "field-negative", "noise-negative"])
    def test_bad_seed_named(self, call, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            call()

    def test_numpy_integer_seed_is_a_python_int(self):
        spec = NoiseSpec(variance=0.1, seed=np.int64(4))
        assert type(spec.seed) is int and spec == NoiseSpec(variance=0.1, seed=4)

    @pytest.mark.parametrize("amp", [math.nan, math.inf, -math.inf])
    def test_non_finite_amplitude_named(self, amp):
        with pytest.raises(ValueError, match="base_signal_amplitude must be finite"):
            generate_synthetic(5, 10, base_signal_amplitude=amp, noise=NoiseSpec(0.0, 0))
        with pytest.raises(ValueError, match="base_signal_amplitude must be finite"):
            generate_synthetic(5, 10, base_signal_amplitude=amp, noise=NoiseSpec(0.1, 0))

    def test_fully_correlated_limit(self):
        X = generate_synthetic(6, 50, correlation_length=math.inf,
                               noise=NoiseSpec(variance=0.0, seed=1))
        assert np.ptp(X, axis=1).max() == 0.0  # every row constant

    def test_seed_determinism(self):
        a = generate_synthetic(5, 30, noise=NoiseSpec(variance=0.3, seed=9))
        b = generate_synthetic(5, 30, noise=NoiseSpec(variance=0.3, seed=9))
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = generate_synthetic(5, 30, noise=NoiseSpec(seed=1))
        b = generate_synthetic(5, 30, noise=NoiseSpec(seed=2))
        assert not np.array_equal(a, b)

    def test_noise_variance_matches_spec(self):
        # Law of large numbers against the generator's own noiseless field.
        spec = NoiseSpec(variance=1.0, seed=11)
        X = generate_synthetic(8, 10000, noise=spec)
        clean = generate_synthetic(8, 10000, noise=NoiseSpec(0.0, 11))
        var = (X - clean).var(axis=0)
        assert np.all(np.abs(var - 1.0) < 0.2)

    def test_noiseless_equals_field(self):
        # The noisy readings are the variance-0 field plus the seed's second
        # stream, so the field does not depend on the variance.
        X = generate_synthetic(4, 20, noise=NoiseSpec(variance=1.0, seed=5))
        field = generate_synthetic(4, 20, noise=NoiseSpec(0.0, 5))
        noise_rng = np.random.default_rng(np.random.SeedSequence(5).spawn(2)[1])
        assert X.tobytes() == (noise_rng.normal(0.0, 1.0, size=(20, 4)) + field).tobytes()

    def test_single_sensor_rejected(self):
        with pytest.raises(ValueError):
            generate_synthetic(1, 10)

    @pytest.mark.parametrize("correlation_length", [0.0, -2.0, -math.inf, math.nan])
    def test_correlation_length_must_be_positive(self, correlation_length):
        with pytest.raises(ValueError, match="correlation_length must be positive"):
            generate_synthetic(5, 10, correlation_length)

    @pytest.mark.parametrize("n_sensors, n_samples, name", [
        (2.5, 10, "n_sensors"), (23, 10.0, "n_samples"),
    ])
    def test_non_integer_size_named(self, n_sensors, n_samples, name):
        bad = n_sensors if name == "n_sensors" else n_samples
        with pytest.raises(ValueError, match=f"{name} must be an integer, got {bad}"):
            generate_synthetic(n_sensors, n_samples)

    @pytest.mark.parametrize("correlation_length", [1e-300, 5e-324])
    def test_tiny_correlation_length_is_the_level(self, correlation_length):
        # The spread overflows to inf and exp(-inf) = 0, so each reading is
        # its row's level: the infinite-length field, level + amp, minus amp.
        # A centre exactly on a sensor leaves that reading at level + amp.
        amp, noise = 3.0, NoiseSpec(0.0, 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            X = generate_synthetic(23, 2000, correlation_length, amp, noise)
        flat = generate_synthetic(23, 2000, math.inf, amp, noise)
        assert np.isfinite(X).all()
        assert ((X + amp == flat) | (X == flat)).all()

    def test_spatial_correlation_decays(self):
        X = generate_synthetic(23, 4000, correlation_length=2.5, noise=NoiseSpec(0.0, 0))
        C = np.corrcoef(X.T)
        near = np.mean([C[i, i + 1] for i in range(22)])
        far = np.mean([C[i, i + 11] for i in range(12)])
        assert near > far


class TestSphere:
    def test_constant_vector(self):
        f = sphere(np.array([5.0, 5.0, 5.0]), 1.0)
        np.testing.assert_array_equal(f.d, [0.0, 0.0, 0.0])
        assert f.mean == 5.0

    def test_hand_example(self):
        f = sphere(np.array([10.0, 20.0, 30.0]), 10.0)
        assert f.mean == 20.0
        np.testing.assert_allclose(f.d, [-1.0 / 3.0, 0.0, 1.0 / 3.0], atol=1e-15)

    def test_clipping(self):
        f = sphere(np.array([0.0, 100.0]), 1.0)
        np.testing.assert_array_equal(f.d, [-1.0, 1.0])

    def test_output_always_in_unit_interval(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            x = rng.normal(0, 10.0 ** rng.integers(-3, 4), size=rng.integers(2, 30))
            d = sphere(x, float(rng.uniform(0.01, 5.0))).d
            assert np.all(d >= -1.0) and np.all(d <= 1.0)

    def test_shift_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=12)
        base = sphere(x, 2.0).d
        shifted = sphere(x + 123.456, 2.0).d
        np.testing.assert_allclose(shifted, base, atol=1e-12)

    def test_bad_sigma(self):
        with pytest.raises(ValueError):
            sphere(np.array([1.0, 2.0]), 0.0)
        with pytest.raises(ValueError):
            sphere(np.array([1.0, 2.0]), -1.0)

    def test_non_finite_input(self):
        with pytest.raises(ValueError):
            sphere(np.array([1.0, np.inf]), 1.0)

    @pytest.mark.parametrize("sigma", [np.inf, np.nan, 1e308])
    def test_non_finite_sigma(self, sigma):
        with pytest.raises(ValueError, match="sigma must be positive"):
            sphere(np.array([1.0, 2.0]), sigma)
        with pytest.raises(ValueError, match="sigma must be positive"):
            sphere_rows(np.ones((2, 3)), sigma)

    @pytest.mark.parametrize("shape", [(0,), (3, 0), (0, 0)])
    def test_zero_width_frames_rejected(self, shape):
        for call in (sphere_rows, sphere):
            with pytest.raises(ValueError, match=re.escape(f"no sensors, got shape {shape}")):
                call(np.zeros(shape), 1.0)


class TestDesphere:
    def test_zero_code(self):
        np.testing.assert_array_equal(desphere_rows(np.zeros((1, 2)), [7.0], 2.0), [[7.0, 7.0]])

    def test_inverse_of_hand_example(self):
        x = desphere_rows(np.array([[-1.0 / 3.0, 0.0, 1.0 / 3.0]]), [20.0], 10.0)
        np.testing.assert_allclose(x, [[10.0, 20.0, 30.0]], atol=1e-12)

    def test_round_trip_inside_clip_region(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            sigma = float(rng.uniform(0.5, 3.0))
            x = rng.uniform(-1, 1, size=10) * 1.4 * sigma
            x = x - x.mean() + rng.normal() * 50  # centered deviations stay under 3 sigma
            f = sphere(x, sigma)
            back = desphere_rows(f.d[None], [f.mean], sigma)
            np.testing.assert_allclose(back, x[None], atol=1e-12)

    def test_bad_sigma(self):
        with pytest.raises(ValueError):
            desphere_rows(np.zeros((1, 3)), [0.0], -2.0)
        for sigma in (np.inf, np.nan, 1e308):
            with pytest.raises(ValueError, match="sigma must be positive"):
                desphere_rows(np.zeros((1, 3)), [0.0], sigma)

    @pytest.mark.parametrize("shape, means", [
        ((1, 3), [1.0, 2.0, 3.0, 4.0, 5.0]),  # broadcast to five frames before
        ((2, 3), 1.0),
        ((3,), [1.0]),
        ((2, 3), [[1.0], [2.0]]),
    ])
    def test_means_must_match_rows(self, shape, means):
        with pytest.raises(ValueError, match=re.escape(
                f"means of shape {np.shape(means)} do not match D_hat of shape {shape}")):
            desphere_rows(np.zeros(shape), means, 1.0)

    def test_single_frame_takes_a_scalar_mean(self):
        np.testing.assert_array_equal(desphere_rows(np.zeros(2), 7.0, 2.0), [7.0, 7.0])


class TestSphereRows:
    def test_matches_per_frame_sphere(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(7, 4))
        D, means = sphere_rows(X, 1.5)
        for i in range(7):
            f = sphere(X[i], 1.5)
            np.testing.assert_array_equal(D[i], f.d)
            assert means[i] == f.mean
        # sphere is sphere_rows, and its result names (d, mean) for a frame or a batch.
        assert sphere is sphere_rows
        for x in (X[0], X):
            f = sphere(x, 1.5)
            assert isinstance(f, SpheredFrame)
            assert f.d.shape == x.shape and f.d.tobytes() == f[0].tobytes()
            assert np.shape(f.mean) == x.shape[:-1]
            assert np.asarray(f.mean).tobytes() == np.asarray(f[1]).tobytes()
        assert type(sphere(X[0], 1.5).mean) is np.float64

    def test_names_the_first_non_finite_frame_and_sensor(self):
        X = np.zeros((40, 6))
        X[17, 3] = X[30, 1] = np.nan
        with pytest.raises(ValueError, match="frame 17, sensor 3 is not finite: nan"):
            sphere_rows(X, 1.0)


def frames_or_batches(max_abs=1e6):
    """A frame (N,) or a batch (B, N) of finite readings."""
    shapes = st.one_of(st.tuples(st.integers(1, 30)),
                       st.tuples(st.integers(1, 8), st.integers(1, 30)))
    return shapes.flatmap(lambda shape: hnp.arrays(
        np.float64, shape, elements=st.floats(-max_abs, max_abs)))


sigmas = st.floats(1e-3, 1e3)


def reference_sphere_rows(X, sigma):
    """Sphering written as its formula: the mean, then clip to [-1, 1]."""
    means = X.mean(axis=-1)
    return np.minimum(np.maximum((X - means[..., None]) / (3.0 * sigma), -1.0), 1.0), means


def pinned_frames():
    """Frames whose entries often sphere to -0.0 or past the clip: a grid of
    signed zeros and values far apart, mixed with arbitrary floats."""
    shapes = st.one_of(st.tuples(st.integers(1, 30)),
                       st.tuples(st.integers(1, 8), st.integers(1, 30)))
    grid = st.sampled_from([0.0, -0.0, 3.0, -3.0, 1e3, -1e3])
    return shapes.flatmap(lambda shape: hnp.arrays(
        np.float64, shape, elements=st.one_of(grid, st.floats(-1e6, 1e6))))


class TestSphereRowsProperties:
    @settings(max_examples=200, deadline=None)
    @given(frames_or_batches(), sigmas)
    def test_frame_is_the_b1_case(self, X, sigma):
        D, means = sphere_rows(np.atleast_2d(X), sigma)
        for i, x in enumerate(np.atleast_2d(X)):
            d, mean = sphere_rows(x, sigma)
            f = sphere(x, sigma)
            assert same_bits(d, D[i]) and same_bits(mean, means[i])
            assert same_bits(f.d, D[i]) and same_bits(f.mean, means[i])
        assert np.all(np.abs(D) <= 1.0)

    @settings(max_examples=300, deadline=None)
    @given(pinned_frames(), sigmas)
    def test_matches_formula_bit_for_bit(self, X, sigma):
        D, means = sphere_rows(X, sigma)
        D_ref, means_ref = reference_sphere_rows(X, sigma)
        assert D.shape == D_ref.shape and D.tobytes() == D_ref.tobytes()
        assert np.shape(means) == np.shape(means_ref)
        assert np.asarray(means).tobytes() == np.asarray(means_ref).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(frames_or_batches(max_abs=1.0), sigmas, st.floats(-1e4, 1e4))
    def test_desphere_inverts_inside_clip_region(self, U, sigma, offset):
        # Deviations of at most 1.4 sigma from zero stay within 2.8 sigma
        # of the frame mean, inside the 3 sigma clip.
        X = 1.4 * sigma * U + offset
        back = desphere_rows(*sphere_rows(X, sigma), sigma)
        assert back.shape == X.shape
        tol = 64 * np.finfo(float).eps * max(np.abs(X).max(), sigma)
        np.testing.assert_allclose(back, X, rtol=0, atol=tol)


class TestDatasetStd:
    def test_constant_matrix_rejected(self):
        with pytest.raises(ValueError, match="constant"):
            dataset_std(np.ones((2, 2)))

    def test_population_convention(self):
        assert dataset_std(np.array([[0.0], [2.0]])) == 1.0

    @pytest.mark.parametrize("X, s", [([[1e200, -1e200]], "inf"), ([[1e-310, 2e-310]], "0.0")],
                             ids=["overflow", "underflow"])
    def test_spread_out_of_float64_range_named_without_a_warning(self, X, s):
        # Neither matrix is constant; squaring their deviations overflows
        # or underflows.
        message = f"matrix spread is out of float64 range: standard deviation computes as {s}"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                dataset_std(np.array(X))

    @pytest.mark.parametrize("value", [1e-310, 1e308, -1e200])
    def test_constant_matrix_of_extreme_values_is_constant(self, value):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^constant matrix: standard deviation is zero$"):
                dataset_std(np.full((2, 3), value))

    def test_single_entry_rejected(self):
        with pytest.raises(ValueError):
            dataset_std(np.array([[3.0]]))

    def test_names_the_first_non_finite_frame_and_sensor(self):
        X = np.zeros((40, 6))
        X[17, 3] = X[30, 1] = np.nan
        with pytest.raises(ValueError, match="frame 17, sensor 3 is not finite: nan"):
            dataset_std(X)

    def test_matches_generator_scale(self):
        X = generate_synthetic(10, 20000, correlation_length=3.0,
                               base_signal_amplitude=0.0,
                               noise=NoiseSpec(variance=1.0, seed=21))
        clean = generate_synthetic(10, 20000, correlation_length=3.0,
                                   base_signal_amplitude=0.0, noise=NoiseSpec(0.0, 21))
        expected = math.sqrt(clean.var() + 1.0)
        assert abs(dataset_std(X) - expected) / expected < 0.1
