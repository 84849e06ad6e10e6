import io
import json
import math
import os
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from heraldtime import dataio
from heraldtime.dataio import (
    EVENT_MAGIC,
    TIME_UNITS,
    ConfigError,
    EventFileError,
    ReportError,
    RunConfig,
    load_config,
    parse_quantity,
    read_events,
    write_events,
    write_report,
    write_table,
    _EventReader,
)
from heraldtime.fitting import FitConfig
from heraldtime.herald import HeraldWindow
from heraldtime.params import SourceParams
from heraldtime.sampler import DetectorModel, EventSet, sample

from conftest import REFERENCE_SETS
from oracles import read_events_loop, write_events_loop

DATA = Path(__file__).parent / "data"


class TestParseQuantity:
    @pytest.mark.parametrize("text,kind,expected", [
        ("964 fs", "time", 964e-15),
        ("100 ps", "time", 1e-10),
        ("-1.5 ns", "time", -1.5e-9),
        ("10 km", "length", 1e4),
        ("12.47 nm", "length", 12.47e-9),
        ("3.29 THz", "frequency", 3.29e12),
        ("132 GHz", "frequency", 1.32e11),
        ("5e11 1/s", "frequency", 5e11),
        ("-2.27e-26 s^2/m", "dispersion", -2.27e-26),
        ("-22.7 ps^2/km", "dispersion", -2.27e-26),
    ])
    def test_units(self, text, kind, expected):
        assert parse_quantity(text, kind) == pytest.approx(expected, rel=1e-12)

    def test_bare_numbers(self):
        assert parse_quantity("0.5", "float") == 0.5
        assert parse_quantity("82000", "int") == 82000
        assert parse_quantity("true", "bool") is True

    def test_errors(self):
        with pytest.raises(ValueError, match="unit"):
            parse_quantity("10 parsec", "length")
        with pytest.raises(ValueError):
            parse_quantity("10", "time")  # dimensioned values need a unit
        with pytest.raises(ValueError):
            parse_quantity("ten ps", "time")
        with pytest.raises(ValueError):
            parse_quantity("1.5", "int")


class TestEventFiles:
    def test_round_trip_exact_in_seconds(self, tmp_path):
        es = sample(REFERENCE_SETS[0], DetectorModel.ideal(), 500, seed=1)
        path = tmp_path / "events.csv"
        write_events(es, path, unit="s")
        back = read_events(path)
        np.testing.assert_array_equal(back.events, es.events)
        assert back.metadata["seed"] == 1

    def test_round_trip_exact_in_ps_when_representable(self, tmp_path):
        es = EventSet(np.array([[100e-12, -50e-12], [0.25e-12, 3e-12]]))
        path = tmp_path / "events.csv"
        write_events(es, path, unit="ps")
        back = read_events(path)
        np.testing.assert_array_equal(back.events, es.events)

    def test_declared_ps_units_convert(self, tmp_path):
        path = tmp_path / "ev.csv"
        path.write_text("# heraldtime events v1\n# units = ps\n100,-50\n")
        es = read_events(path)
        assert es.events[0, 0] == pytest.approx(1e-10, rel=1e-15)
        assert es.events[0, 1] == pytest.approx(-5e-11, rel=1e-15)

    def test_empty_body(self, tmp_path):
        path = tmp_path / "ev.csv"
        path.write_text("# heraldtime events v1\n# units = ps\n")
        assert read_events(path).count == 0

    def test_deterministic_bytes(self, tmp_path):
        es = sample(REFERENCE_SETS[1], DetectorModel.ideal(), 200, seed=5)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_events(es, a)
        write_events(es, b)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("content,fragment", [
        ("no magic\n", "magic"),
        ("# heraldtime events v1\n# units = lightyears\n1,2\n", "unit"),
        ("# heraldtime events v1\n1,2\n", "units"),
        ("# heraldtime events v1\n# units = ps\n1,2,3\n", ":3"),
        ("# heraldtime events v1\n# units = ps\nfoo,2\n", ":3"),
        ("# heraldtime events v1\n# units = ps\n# count = 5\n1,2\n", "count"),
        ("# heraldtime events v1\n# units = ps\nnan,1\n", ":3"),
        ("# heraldtime events v1\n# meta = not-json\n# units = ps\n", "JSON"),
        # the header ends at the first row: a "#" line or a whitespace-only
        # line after it is a row, and not two numbers
        ("# heraldtime events v1\n# units = ps\n1,2\n# units = ns\n3,4\n",
         ":4: expected two finite comma-separated numbers, got '# units = ns'"),
        ("# heraldtime events v1\n# units = ps\n1,2\n \n3,4\n", ":4:"),
        ("# heraldtime events v1\n# units = ps\n# units = ps\n",
         ":3: header key 'units' repeats line 2"),
        ("# heraldtime events v1\n# units = ps\n1,2\n3,4\xff\n", ":4:"),
        # count is ASCII digits, as a row's numbers are: int() takes these
        *((f"# heraldtime events v1\n# units = ps\n# count = {count}\n"
           + "1,2\n" * 10,
           ":3: count must be a non-negative integer in ASCII digits")
          for count in ("1_0", "+2", "-3",
                        "\uff11\uff10".encode().decode("latin-1"))),
    ])
    def test_malformed_files_name_the_problem(self, tmp_path, content,
                                              fragment):
        path = tmp_path / "bad.csv"
        path.write_bytes(content.encode("latin-1"))
        with pytest.raises(EventFileError, match=fragment):
            read_events(path)

    def test_refused_row_named_by_a_streaming_scan(self, tmp_path, parses):
        # 200 000 rows and a bad last one: the one call refuses them, and
        # the scan that names the line holds a block of lines at a time.
        # The bound is the rows' 16 bytes each, with the 25 % by which
        # loadtxt grows its array, plus 2 MiB; holding every line, as the
        # 0.1.0 line walk did, took ~48 MiB.
        import tracemalloc

        rows = 200_000
        path = tmp_path / "ev.csv"
        path.write_bytes(b"# heraldtime events v1\n# units = ps\n"
                         + b"0.5,-1.25\n" * rows + b"1,2,3\n")
        tracemalloc.start()
        try:
            with pytest.raises(EventFileError) as info:
                read_events(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(info.value) == (f"{path}:{rows + 3}: expected two finite "
                                   "comma-separated numbers, got '1,2,3'")
        assert peak < 1.25 * 16 * rows + (2 << 20)
        assert parses == [None]

    def test_read_of_any_size_is_one_call_in_this_process(self, tmp_path,
                                                          parses):
        path = tmp_path / "ev.csv"
        path.write_bytes(b"# heraldtime events v1\n# units = ps\n"
                         + b"0.5,-1.25\n" * 600_000 + b"3,4\n")
        back = read_events(path)
        # the array the one call built, with no line walk
        assert len(parses) == 1 and parses[0] is back.events
        assert back.events.shape == (600_001, 2)
        assert back.events[0].tolist() == [0.5 * 1e-12, -1.25 * 1e-12]
        assert back.events[-1].tolist() == [3 * 1e-12, 4 * 1e-12]

    def test_missing_file(self, tmp_path):
        with pytest.raises(EventFileError):
            read_events(tmp_path / "nope.csv")

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
    def test_compressed_names_neither_read_nor_written(self, tmp_path,
                                                       suffix):
        # loadtxt given a path decompresses by suffix, and a file that is
        # not what its name says raises what it likes (LZMAError is not an
        # OSError): such a name is refused both ways, so every file the
        # writer makes reads back
        path = tmp_path / ("ev.csv" + suffix)
        path.write_text("# heraldtime events v1\n# units = ps\n1,2\n")
        with pytest.raises(EventFileError,
                           match=re.escape(f"{path}: compressed event files "
                                           "are not read")):
            read_events(path)
        with pytest.raises(ReportError, match="compressed event files"):
            write_events(EventSet(np.zeros((1, 2))), tmp_path / path.name)

    def test_write_rejects_unknown_unit(self, tmp_path):
        es = EventSet(np.array([[1.0, 2.0]]))
        with pytest.raises(ValueError, match="unit"):
            write_events(es, tmp_path / "x.csv", unit="fortnights")

    def test_row_write_error_is_a_report_error_with_no_copy(self, tmp_path,
                                                           monkeypatch):
        def fail(*args):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(dataio, "_write_rows", fail)
        path = tmp_path / "full.csv"
        with pytest.raises(ReportError, match="No space left"):
            write_events(EventSet(np.zeros((1000, 2))), path, unit="ps")
        assert not dataio._copy_path(path).exists()

    @pytest.mark.parametrize("rows", [[[1e300, 1.0]], [[1.0, -1e300]],
                                      [[0.0, 0.0], [2e294, -0.0]]])
    def test_times_not_finite_in_the_unit_are_refused(self, tmp_path, rows):
        # 1e300 s is beyond the largest float in fs: its row would be "inf",
        # which no read takes, so the writer refuses it before it opens the
        # file; in seconds the same rows are written and read back
        path = tmp_path / "ev.csv"
        with pytest.raises(ReportError, match="not finite in fs"):
            write_events(EventSet(np.array(rows)), path, unit="fs")
        assert list(tmp_path.iterdir()) == []
        write_events(EventSet(np.array(rows)), path, unit="s")
        assert read_events(path).events.tolist() == rows

    def test_binary_garbage_reported_not_crashed(self, tmp_path):
        path = tmp_path / "garbage.csv"
        path.write_bytes(bytes([0xFF, 0xFE, 0x00, 0x9C, 0x80, 0x01]))
        with pytest.raises(EventFileError):
            read_events(path)

    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.text(max_size=300))
    def test_fuzzed_input_never_crashes(self, tmp_path, text):
        path = tmp_path / "fuzz.csv"
        path.write_text(text, encoding="utf-8")
        try:
            es = read_events(path)
            assert es.count >= 0
        except EventFileError:
            pass

    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.tuples(
        st.floats(min_value=-1e-6, max_value=1e-6, allow_nan=False),
        st.floats(min_value=-1e-6, max_value=1e-6, allow_nan=False)),
        max_size=40))
    def test_property_round_trip(self, tmp_path, rows):
        es = EventSet(np.array(rows, dtype=float).reshape(len(rows), 2))
        path = tmp_path / "rt.csv"
        write_events(es, path, unit="s")
        np.testing.assert_array_equal(read_events(path).events, es.events)


def _read_outcome(reader, path):
    """What a reader makes of a file: its exact error or its exact result."""
    try:
        es = reader(path)
    except EventFileError as exc:
        return "error", str(exc)
    return "ok", es.events.shape, es.events.tobytes(), es.metadata


# Wide enough for every exponent a unit conversion keeps finite.
_FINITE = st.floats(min_value=-1e290, max_value=1e290)
_ODD_TOKENS = ["1_0", "\uff11\uff12", "\u0663", "nan", "1e400", "-inf", "-0.0",
               "0x1p3", "", " ", "abc", "5e-324", " 7 ", "1e-400", "+.5",
               "1\u3000", "\xa02"]
_TOKEN = st.one_of(_FINITE.map(repr), st.sampled_from(_ODD_TOKENS))
_ODD_LINE = st.one_of(
    st.lists(_TOKEN, min_size=1, max_size=3).map(",".join),
    st.sampled_from(["", "   ", "\t", "# units = ns", "# units = parsec",
                     "# count = 2", '# meta = {"units": "fs", "k": 1}',
                     "# meta = [1]", "# note = hi", "#", "# broken"]))
_HEADER_LINE = st.sampled_from(
    ["# count = 3", '# meta = {"seed": 1, "units": "ns"}', "# tag = x", "",
     "  ", "# count = three"])
# Every break str.splitlines honours; the last three split nowhere else.
_BREAKS = ["\n", "\r\n", "\r", "\x0c", "\u2028", "\x85"]


@st.composite
def _event_files(draw, breaks=_BREAKS):
    """Mostly well-formed event files, some with odd lines mixed in, their
    lines broken by any of ``breaks``."""
    header = draw(st.lists(_HEADER_LINE, max_size=3))
    unit = draw(st.sampled_from(["ps", "s", "ns", None]))
    if unit is not None:
        header.insert(draw(st.integers(0, len(header))), f"# units = {unit}")
    rows = draw(st.lists(st.tuples(_FINITE, _FINITE), max_size=12))
    body = [f"{t1!r},{t2!r}" for t1, t2 in rows]
    for _ in range(draw(st.integers(0, 2))):
        body.insert(draw(st.integers(0, len(body))), draw(_ODD_LINE))
    lines = [EVENT_MAGIC] + header + body
    ends = draw(st.lists(st.sampled_from(breaks), min_size=len(lines),
                         max_size=len(lines)))
    text = "".join(line + brk for line, brk in zip(lines, ends))
    return text if draw(st.booleans()) else text.rstrip("\r\n\x0c\u2028\x85")


class TestEventCodecMatchesReference:
    """The block writer and one-call reader against the 0.1.0 loops."""

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(rows=st.lists(st.tuples(_FINITE, _FINITE), max_size=30),
           unit=st.sampled_from(sorted(TIME_UNITS)),
           meta=st.dictionaries(st.sampled_from(["seed", "units", "tag"]),
                                st.integers() | st.text(max_size=5),
                                max_size=3))
    @example(rows=[(-0.0, 0.0), (5e-324, -2.2250738585072014e-308),
                   (1e290, 1e-300), (1e22, 1e-7)],
             unit="fs", meta={})
    @example(rows=[(1.7976931348623157e308, -5e-324)], unit="s",
             meta={"units": "ps"})
    def test_write_bytes_identical(self, tmp_path, rows, unit, meta):
        es = EventSet(np.array(rows, dtype=float).reshape(len(rows), 2), meta)
        write_events(es, tmp_path / "new.csv", unit=unit)
        write_events_loop(es, tmp_path / "ref.csv", unit=unit)
        assert (tmp_path / "new.csv").read_bytes() \
            == (tmp_path / "ref.csv").read_bytes()

    def test_many_blocks_identical_both_ways(self, tmp_path):
        # Crosses the writer's block boundary 128 times; the read takes the
        # rows from the binary copy, and without it from the one-call parse.
        rng = np.random.default_rng(3)
        n = 128 * dataio._WRITE_BLOCK_ROWS + 3
        es = EventSet(rng.normal(scale=1e-9, size=(n, 2)), {"seed": 3})
        new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
        write_events(es, new, unit="ps")
        write_events_loop(es, ref, unit="ps")
        assert new.read_bytes() == ref.read_bytes()
        expected = _read_outcome(read_events_loop, new)
        assert _read_outcome(read_events, new) == expected
        dataio._copy_path(new).unlink()
        assert _read_outcome(read_events, new) == expected

    @pytest.mark.parametrize("extra", [(1, -1), (1, 0), (1, 1), (2, 3)])
    def test_block_edges_identical(self, tmp_path, extra):
        # one row short of a block, a block, one row over, two blocks and
        # a few rows: each row is written once and in order
        blocks, rows = extra
        n = blocks * dataio._WRITE_BLOCK_ROWS + rows
        es = EventSet(np.random.default_rng(n).normal(scale=1e-9,
                                                      size=(n, 2)))
        new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
        write_events(es, new, unit="ps")
        write_events_loop(es, ref, unit="ps")
        assert new.read_bytes() == ref.read_bytes()

    @pytest.mark.parametrize("n", [20_000, 200_000])
    def test_write_peak_does_not_grow_with_rows(self, tmp_path, n):
        # The writer holds one block of rows at a time, so its peak is the
        # same at any row count: ~0.57 MiB, where 65 536-row blocks took
        # 2.7 MiB at 20 000 rows and 9 MiB at 200 000.
        import tracemalloc

        es = EventSet(np.random.default_rng(4).normal(scale=1e-9,
                                                      size=(n, 2)))
        # a first write imports the formatter and builds its tables (up to
        # ~1.7 MiB where no bytecode cache is written), outside the trace
        write_events(EventSet(np.zeros((1, 2))), tmp_path / "warm.csv")
        tracemalloc.start()
        try:
            write_events(es, tmp_path / "ev.csv", unit="ps")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=_event_files())
    def test_read_same_decision_and_bits(self, tmp_path, text):
        path = tmp_path / "ev.csv"
        path.write_text(text, encoding="utf-8", newline="")
        assert _read_outcome(read_events, path) \
            == _read_outcome(read_events_loop, path)

    @pytest.mark.parametrize("body", [
        "1,2\n# note = x\n3,4\n",           # header line among the rows
        "1,2\n# units = ns\n3,4\n",          # unit switch mid-body
        "1,2\n\n3,4\n",
        "1,2\n   \n3,4\n",
        "1,2\n3,4\n\n",
        "1,2\r\n3,4\r\n",
        "1,2\x0c3,4\n",
        "1,2\u20283,4\n",
        "1\x0c,2\n",
        "1,2\u20283,4\n",
        "1\u2028,2\n",
        "1_0,2\n",
        "\uff11,\uff12\n",
        "1,2,3\n4\n",
        "4\n1,2,3\n",
        "1,2\n1,2,3\n",
        "nan,1\n",
        "1,2\n3,1e400\n",
        "0x1p3,1\n",
        "1 , 2\n\t3,4 \n",
        "-0.0,5e-324\n",
        "",
        "1,2\r3,4\n",
        "1,2\x1e3,4\n",
        "\x1f1,2\n3,4\n",                  # str.strip() drops \x1f
        "\x1f# note = x\n1,2\n",
        "1,2\n3,\u00b54\n",
    ])
    @pytest.mark.parametrize("count", [None, 2])
    def test_read_listed_inputs(self, tmp_path, body, count):
        header = "# heraldtime events v1\n# units = ps\n"
        if count is not None:
            header += f"# count = {count}\n"
        path = tmp_path / "ev.csv"
        path.write_text(header + body, encoding="utf-8", newline="")
        assert _read_outcome(read_events, path) \
            == _read_outcome(read_events_loop, path)

    @pytest.mark.parametrize("row", [1, 500, 999])
    def test_malformed_row_deep_in_a_written_file(self, tmp_path, row):
        # a malformed first, middle or next-to-last row of a 1000-row file
        # the writer made, beside its stale copy: the read gives the loop's
        # error
        path = tmp_path / "ev.csv"
        rng = np.random.default_rng(1000)
        write_events(EventSet(rng.normal(scale=1e-9, size=(1000, 2)),
                              {"seed": 1000}), path, unit="ps")
        lines = path.read_bytes().split(b"\n")
        lines[3 + row] = b"1,abc"
        path.write_bytes(b"\n".join(lines))
        expected = _read_outcome(read_events_loop, path)
        assert expected[0] == "error" and f":{4 + row}:" in expected[1]
        assert _read_outcome(read_events, path) == expected

    @pytest.mark.parametrize("text,plain", [
        ("\r\n# units = ps\r\n# count = 2\r\n1,2\n3,4\n", True),
        ("\r# units = ps\r\r# count = 2\n1,2\n3,4\n", True),
        ("\n# units = ps\u2028# count = 2\n1,2\n3,4\n", False),
        ("\x85# units = ps\x85# count = 2\n1,2\n3,4\n", False),
        ("\n# units = ps\n# note = a\x0c# count = 2\n1,2\n3,4\n", True),
        ('\n# meta = {"tag": "\u00b5s"}\n# units = ps\n1,2\n3,4\n', True),
        ("\n# units = ps\n# count = 0\n", False),
        ("\n# units = ps\n1,2\n3,4", True),
    ], ids=["crlf", "cr", "u2028", "x85", "formfeed-in-comment",
            "non-ascii-meta", "empty-body", "no-final-break"])
    def test_header_lines_counted_as_loadtxt_skips_them(
            self, tmp_path, parses, text, plain):
        # loadtxt skips the header by text-mode lines, which end at "\n",
        # "\r\n" and a lone "\r", and the header reader counts the same
        # lines; the other breaks str.splitlines honours end no line, so a
        # header line holding one is read whole (and fails where its value
        # or the magic line does)
        path = tmp_path / "ev.csv"
        path.write_text(EVENT_MAGIC + text, encoding="utf-8", newline="")
        assert _read_outcome(read_events, path) \
            == _read_outcome(read_events_loop, path)
        assert [arr is not None for arr in parses] == ([True] if plain else [])

    @pytest.mark.parametrize("meta,last_break,copied", [
        ({"seed": 3}, True, False), ({"seed": 3}, True, True),
        ({"tag": "\u00b5s"}, True, False), ({"tag": "\u00b5s"}, True, True),
        ({}, False, False)])
    def test_plain_body_read_holds_no_line_list(self, tmp_path, parses, meta,
                                                last_break, copied):
        # The header is read line by line and the rows parsed from the
        # file or read from its binary copy: the peak is the rows, within
        # 1 MiB, where holding the file's text took its size (~1.7 MiB
        # here) and splitting it into lines 4.5 times that.
        import tracemalloc

        rng = np.random.default_rng(5)
        es = EventSet(rng.normal(scale=1e-9, size=(50000, 2)), meta)
        path = tmp_path / "ev.csv"
        write_events(es, path, unit="ps")
        if not last_break:  # a file the writer did not write: no copy
            path.write_bytes(path.read_bytes().rstrip(b"\n"))
        elif not copied:
            dataio._copy_path(path).unlink()
        tracemalloc.start()
        try:
            back = read_events(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < back.events.nbytes + (1 << 20)
        assert len(parses) == (not copied)
        assert _read_outcome(read_events, path) \
            == _read_outcome(read_events_loop, path)
        assert back.metadata == {"units": "ps", **meta}

    @pytest.mark.parametrize("text,error", [
        ("# units = ps\n1,2\n3,4", None),
        ('# meta = {"tag": "\u00b5s"}\r\n# units = ps\n\n1,2\n', None),
        *((f"# units = ps\n1,2\n3,4{c}5,6\n", None)
          for c in "\r\x0b\x0c\x1c\x1d\x1e"),
        ("# units = ps\n1,2\n3,\u00b54\n", None),
        ("# units = ps\n\x1f# note = x\n1,2\n", None),
        ("# units = ps\x0c1,2\n", "ev.csv:2: unknown unit 'ps\\x0c1,2'"),
        ("# count = 1\n1,2\n", "ev.csv:3: the header ends without"),
        ("# units = ps\n", None),
        ("# units = ps\r# note = a\x0c# b = c\r\n1,2\n", None),
        ("# units = ps\n# units = ns\n1,2\n",
         "ev.csv:3: header key 'units' repeats line 2"),
        ("# units = ps\n# bad = \udcff\n1,2\n", "ev.csv:3: not UTF-8 text"),
    ])
    def test_header_reader_skip_count(self, text, error):
        # The lines the header takes, as a text-mode file counts them: the
        # number loadtxt skips before the rows, whatever the rows hold.
        raw = ("# heraldtime events v1\n" + text).encode("utf-8",
                                                      "surrogateescape")
        start = raw.find(b"1,2")
        head, fh = (io.TextIOWrapper(io.BytesIO(text), encoding="utf-8",
                                     errors="surrogateescape")
                    for text in (raw if start < 0 else raw[:start], raw))
        skip = len(list(head))
        reader = _EventReader(Path("ev.csv"))
        if error is None:
            assert reader.header(fh) == (skip, start >= 0)
        else:
            with pytest.raises(EventFileError, match=re.escape(error)):
                reader.header(fh)


class TestGoldenEventFiles:
    """Event files written by release 0.1.0 from 200 sampled events."""

    @pytest.mark.parametrize("unit", ["ps", "s"])
    def test_writer_reproduces_golden_bytes(self, tmp_path, unit):
        # Seconds round-trip exactly, so the s file carries the events.
        es = read_events(DATA / "golden_events_s.csv")
        assert es.count == 200
        write_events(es, tmp_path / "out.csv", unit=unit)
        assert (tmp_path / "out.csv").read_bytes() \
            == (DATA / f"golden_events_{unit}.csv").read_bytes()

    def test_units_line_wins_over_meta(self, tmp_path):
        ps = read_events(DATA / "golden_events_ps.csv")
        assert ps.metadata["units"] == "ps"
        path = tmp_path / "s.csv"
        write_events(ps, path, unit="s")
        meta_line = next(line for line in path.read_text().splitlines()
                         if line.startswith("# meta"))
        assert "units" not in json.loads(meta_line.partition("=")[2])
        back = read_events(path)
        assert back.metadata["units"] == "s"
        np.testing.assert_allclose(back.events, ps.events, rtol=1e-15)

        stale = tmp_path / "stale.csv"
        stale.write_text('# heraldtime events v1\n# units = s\n'
                         '# meta = {"units": "ps", "seed": 4}\n1e-12,2e-12\n')
        es = read_events(stale)
        assert es.metadata == {"units": "s", "seed": 4}
        assert es.events[0, 0] == 1e-12


@pytest.fixture(params=[2, 3], ids=["2rows", "3rows"])
def small_blocks(request, monkeypatch):
    """Every write cut into blocks of two or three rows, for the event file
    and its binary copy, and the scan that names a refused row read two or
    three lines at a time."""
    monkeypatch.setattr(dataio, "_WRITE_BLOCK_ROWS", request.param)
    monkeypatch.setattr(dataio, "_SCAN_ROWS", request.param)


@pytest.mark.usefixtures("small_blocks")
class TestSmallBlockCodecMatchesReference(TestEventCodecMatchesReference):
    """The codec checks with every body of two or more rows written across
    block edges and every refused row named across scan edges."""

    # Sized for 1024-row blocks: the write peak test's 200 000 rows and the
    # read peak test's 50 000-row setup would take ~100 000 and ~25 000
    # two-row blocks.  The read peak does not depend on the block size.
    test_write_peak_does_not_grow_with_rows = None
    test_plain_body_read_holds_no_line_list = None


@pytest.mark.usefixtures("small_blocks")
class TestSmallBlockGoldenEventFiles(TestGoldenEventFiles):
    pass


@pytest.fixture
def parses(monkeypatch):
    """What each one-call parse of an event body returned, in order."""
    parsed = []
    parse_rows = dataio._parse_rows
    monkeypatch.setattr(dataio, "_parse_rows", lambda *a: parsed.append(
        parse_rows(*a)) or parsed[-1])
    return parsed


def _rewrite_copy(path, **header):
    """Write the binary copy beside ``path`` again with its prefix and row
    bytes unchanged and ``header`` over its ``.npy`` header's fields."""
    copy = dataio._copy_path(path)
    raw = copy.read_bytes()
    with io.BytesIO(raw[16:]) as fh:
        np.lib.format.read_magic(fh)
        shape = np.lib.format.read_array_header_1_0(fh)[0]
        rows = raw[16 + fh.tell():]
    with io.BytesIO() as fh:
        np.lib.format.write_array_header_1_0(
            fh, {"descr": "<f8", "fortran_order": False, "shape": shape,
                 **header})
        copy.write_bytes(raw[:16] + fh.getvalue() + rows)


class TestRowCopy:
    """A read of a file the writer made takes its rows from the binary copy
    beside it, with no parse, and gets the parse's bits; any file or copy
    that does not match is parsed, with the reference reader's result."""

    _ROWS = {
        "normal": np.random.default_rng(8).normal(scale=1e-9, size=(300, 2)),
        "signed-zeros": np.array([[-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0]]),
        "subnormals": np.array([[5e-324, -5e-324],
                                [2.2250738585072014e-308, -1e-310],
                                [1e-320, 3e-12]]),
        "empty": np.empty((0, 2)),
    }

    @staticmethod
    def _written(path, n=300, unit="ps"):
        rng = np.random.default_rng(n)
        es = EventSet(rng.normal(scale=1e-9, size=(n, 2)), {"seed": n})
        write_events(es, path, unit=unit)
        return es

    @pytest.mark.parametrize("unit", ["ps", "s"])
    @pytest.mark.parametrize("rows", sorted(_ROWS))
    def test_round_trip_reads_the_copy_with_the_parse_bits(
            self, tmp_path, parses, unit, rows):
        es = EventSet(self._ROWS[rows], {"seed": 8, "tag": "x"})
        path = tmp_path / "ev.csv"
        write_events(es, path, unit=unit)
        assert dataio._copy_path(path).is_file()
        copied = _read_outcome(read_events, path)
        assert parses == []
        dataio._copy_path(path).unlink()
        assert _read_outcome(read_events, path) == copied
        assert len(parses) == (1 if es.count else 0)
        assert copied == _read_outcome(read_events_loop, path)
        assert copied[3] == {"units": unit, "seed": 8, "tag": "x"}
        if unit == "s":  # seconds round-trip exactly
            assert copied[2] == es.events.tobytes()

    def test_copy_layout(self, tmp_path):
        # the file's length and crc32, the rows' crc32, then the .npy array
        # of the rows in file units, hidden beside the file
        import struct
        import zlib

        path = tmp_path / "events.csv"
        es = self._written(path)
        assert sorted(p.name for p in tmp_path.iterdir()) \
            == [".events.csv.rows", "events.csv"]
        raw = dataio._copy_path(path).read_bytes()
        text = path.read_bytes()
        assert raw[16:24] == b"\x93NUMPY\x01\x00"  # .npy v1.0
        with io.BytesIO(raw[16:]) as fh:
            rows = np.lib.format.read_array(fh, allow_pickle=False)
            assert fh.read() == b""
        assert rows.dtype == np.dtype("<f8") and rows.shape == (300, 2)
        assert rows.tobytes() == (es.events / 1e-12).tobytes()
        assert struct.unpack("<QII", raw[:16]) \
            == (len(text), zlib.crc32(text), zlib.crc32(rows))

    @pytest.mark.parametrize("change", [
        "copy-missing", "digit", "units", "truncated", "appended",
        "row-byte-flipped", "copy-truncated", "copy-prefix-only",
        "dtype", "shape", "fewer-rows", "more-rows", "fortran-order",
        "copy-directory",
    ])
    def test_a_mismatch_reads_the_file_as_the_parse_does(
            self, tmp_path, parses, change):
        path = tmp_path / "ev.csv"
        copy = dataio._copy_path(path)
        if change == "copy-directory":  # the writer leaves it be
            copy.mkdir()
        self._written(path)
        text = path.read_bytes()
        if change == "copy-missing":
            copy.unlink()
        elif change == "digit":  # the last row's last digit, same length
            digit = text[-2] - ord("0")
            path.write_bytes(text[:-2] + str((digit + 1) % 10).encode()
                             + b"\n")
        elif change == "units":
            path.write_bytes(text.replace(b"# units = ps", b"# units = ns"))
        elif change == "truncated":
            path.write_bytes(text[:-3])
        elif change == "appended":
            path.write_bytes(text + b"1,2\n")
        elif change == "row-byte-flipped":
            raw = copy.read_bytes()
            copy.write_bytes(raw[:-1] + bytes([raw[-1] ^ 1]))
        elif change == "copy-truncated":
            copy.write_bytes(copy.read_bytes()[:-8])
        elif change == "copy-prefix-only":
            copy.write_bytes(copy.read_bytes()[:10])
        elif change == "dtype":  # the same bytes, read big-endian
            _rewrite_copy(path, descr=">f8")
        elif change == "shape":  # the same bytes as one column
            _rewrite_copy(path, shape=(600, 1))
        elif change == "fewer-rows":
            _rewrite_copy(path, shape=(299, 2))
        elif change == "more-rows":  # refused before any array is made
            _rewrite_copy(path, shape=(1 << 40, 2))
        elif change == "fortran-order":
            _rewrite_copy(path, fortran_order=True)
        assert copy.is_dir() == (change == "copy-directory")
        assert _read_outcome(read_events, path) \
            == _read_outcome(read_events_loop, path)
        assert len(parses) == 1

    @pytest.mark.parametrize("body", ["1,2\n1,abc\n", "1,2\n1,inf\n",
                                      "1,2\n# units = ns\n"])
    def test_malformed_file_beside_a_stale_copy(self, tmp_path, parses,
                                                body):
        path = tmp_path / "ev.csv"
        self._written(path, n=2)
        path.write_text(f"{EVENT_MAGIC}\n# units = ps\n{body}")
        expected = _read_outcome(read_events_loop, path)
        assert expected[0] == "error"
        assert _read_outcome(read_events, path) == expected
        assert parses == [None]

    def test_rows_the_parse_refuses_are_not_read_from_the_copy(
            self, tmp_path, parses):
        # 1e300 s is inf in fs: the file holds "inf", which the parse
        # refuses, and so does the copy check.  The writer refuses such
        # rows, so the file and its copy are made by hand.
        path = tmp_path / "ev.csv"
        path.write_text(f"{EVENT_MAGIC}\n# units = fs\n# count = 1\n"
                        f"inf,1000000000000000.0\n")
        with np.errstate(over="ignore"):
            dataio._write_copy(path, np.array([[1e300, 1.0]]), 1e-15)
        assert dataio._copy_path(path).is_file()
        expected = _read_outcome(read_events_loop, path)
        assert expected[0] == "error" and ":4:" in expected[1]
        assert _read_outcome(read_events, path) == expected
        assert parses == [None]

    def test_a_read_writes_no_copy(self, tmp_path):
        path = tmp_path / "ev.csv"
        path.write_text(f"{EVENT_MAGIC}\n# units = ps\n1,2\n")
        read_events(path)
        assert [p.name for p in tmp_path.iterdir()] == ["ev.csv"]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs")
    def test_no_copy_beside_a_fifo(self, tmp_path):
        import threading

        path = tmp_path / "ev.fifo"
        os.mkfifo(path)
        received = []
        reader = threading.Thread(target=lambda: received.append(
            path.read_bytes()))
        reader.start()
        es = self._written(path, n=5)
        reader.join(timeout=60)
        assert not reader.is_alive()
        write_events_loop(es, tmp_path / "ref.csv", unit="ps")
        assert received == [(tmp_path / "ref.csv").read_bytes()]
        assert not dataio._copy_path(path).exists()


@pytest.mark.usefixtures("small_blocks")
class TestSmallBlockRowCopy(TestRowCopy):
    """The copy checks with the copy's rows and crc32 written across block
    edges."""


class TestReports:
    def test_nan_rejected(self, tmp_path):
        with pytest.raises(ReportError):
            write_report({"value": math.nan}, tmp_path / "r.json")

    def test_deterministic_and_sorted(self, tmp_path):
        payload = {"b": 1.5, "a": [1, 2], "nested": {"z": 1, "y": 2}}
        p1, p2 = tmp_path / "1.json", tmp_path / "2.json"
        write_report(payload, p1)
        write_report(payload, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert json.loads(p1.read_text()) == payload

    def test_numpy_scalars_serialize(self, tmp_path):
        write_report({"x": np.float64(1.5), "n": np.int64(3),
                      "arr": np.arange(3)}, tmp_path / "r.json")

    def test_table_rejects_nan(self, tmp_path):
        with pytest.raises(ReportError):
            write_table(tmp_path / "t.csv", ["a"], [[math.nan]])

    def test_event_metadata_nan_rejected(self, tmp_path):
        with pytest.raises(ReportError, match="non-finite"):
            write_events(EventSet(np.zeros((1, 2)), {"x": float("nan")}),
                         tmp_path / "ev.csv")


CONFIG_OK = """\
# reference run
source.sigma   = 3.29 THz
source.tau_p   = 964 fs
link.two_beta  = -2.27e-26 s^2/m
link.length    = 10 km
sample.n       = 5000
sample.seed    = 7
detector.jitter1 = 45 ps
fit.loss       = hist-ls
herald.center  = 0 ps
herald.width   = 100 ps
"""


class TestConfig:
    def test_loads_and_converts(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(CONFIG_OK)
        cfg = load_config(path)
        src = cfg.source()
        assert src.sigma == pytest.approx(3.29e12)
        assert src.tau_p == pytest.approx(964e-15)
        link = cfg.link()
        assert link.beta == pytest.approx(-1.135e-26)
        assert link.length == pytest.approx(1e4)
        assert cfg.detector().jitter1 == pytest.approx(45e-12)
        assert cfg.get("sample.n") == 5000

    def test_all_violations_reported_at_once(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(
            "source.sigma = 1 THz\n"
            "source.tau_p = 1 ps\n"
            "source.rho = 0.5\n"          # incomplete second parametrization
            "link.beta = -1e-26 s^2/m\n"
            "link.two_beta = -2e-26 s^2/m\n"   # both beta styles
            "mystery.key = 12\n")
        with pytest.raises(ConfigError) as err:
            load_config(path)
        message = str(err.value)
        assert "mystery.key" in message

    def test_structural_violations_listed_together(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(
            "source.sigma = 1 THz\n"
            "source.tau_p = 1 ps\n"
            "source.sigma0 = 1 THz\n"
            "source.rho = 0.5\n"
            "link.beta = -1e-26 s^2/m\n"
            "link.two_beta = -2e-26 s^2/m\n")
        with pytest.raises(ConfigError) as err:
            load_config(path)
        message = str(err.value)
        assert "exactly one source parametrization" in message
        assert "link.beta / link.two_beta" in message

    def test_cw_source(self, tmp_path):
        path = tmp_path / "cw.cfg"
        path.write_text("source.cw = true\nsource.sigma = 1 THz\n"
                        "link.beta = -1e-26 s^2/m\nlink.length = 1 km\n")
        cfg = load_config(path)
        assert cfg.source().cw is True

    def test_rho_parametrization(self, tmp_path):
        path = tmp_path / "rho.cfg"
        path.write_text("source.sigma0 = 1 THz\nsource.rho = -0.5\n"
                        "link.beta = -1e-26 s^2/m\nlink.length = 1 km\n")
        src = load_config(path).source()
        assert src.sigma == pytest.approx(2e12 * math.sqrt(1.5))

    def test_fixed_fit_settings_listed_together(self, tmp_path):
        # the fit's binning, tolerance and evaluation cap are constants; a
        # config that still sets them names every such line
        fixed = ["fit.bins1 = 64", "fit.bins2 = 64", "fit.percentile_lo = 0.5",
                 "fit.percentile_hi = 99.5", "fit.tolerance = 1e-10",
                 "fit.max_iterations = 1000"]
        path = tmp_path / "fit.cfg"
        path.write_text("fit.loss = ml\n" + "\n".join(fixed) + "\n")
        with pytest.raises(ConfigError) as err:
            load_config(path)
        message = str(err.value)
        for lineno, line in enumerate(fixed, start=2):
            key = line.split(" = ")[0]
            assert f"{path}:{lineno}: unknown key {key!r}" in message
        assert "fit.loss" not in message

    def test_unset_keys_take_the_model_defaults(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("fit.loss = ml\ndetector.jitter2 = 20 ps\n")
        cfg = load_config(path)
        assert cfg.fit_config() == FitConfig(loss="ml")
        assert cfg.detector() == DetectorModel(jitter2=20 * TIME_UNITS["ps"])
        bare = RunConfig()
        assert bare.fit_config() == FitConfig()
        assert bare.detector() == DetectorModel()

    def test_overrides_alone_are_validated(self):
        cfg = load_config(overrides=["link.two_beta=-2.27e-26 s^2/m",
                                     "link.length=10 km"])
        assert cfg.link().beta == pytest.approx(-1.135e-26)
        with pytest.raises(ConfigError, match="link.length is required"):
            load_config(overrides=["link.beta=-1e-26 s^2/m"])
        with pytest.raises(ConfigError, match="link.beta or link.two_beta"):
            load_config().link()
        with pytest.raises(ConfigError, match="source parametrization"):
            load_config().source()

    def test_background_requires_window_keys(self, tmp_path):
        path = tmp_path / "bg.cfg"
        path.write_text("detector.background_rate = 0.1\n")
        with pytest.raises(ConfigError, match="window"):
            load_config(path)

    @pytest.mark.parametrize("stray", ["source.sigma = 2 THz",
                                       "source.tau_p = 1 ps"])
    def test_rho_form_with_a_stray_source_key_rejected(self, tmp_path, stray):
        path = tmp_path / "rho.cfg"
        path.write_text("source.sigma0 = 1 THz\nsource.rho = -0.5\n"
                        + stray + "\n")
        with pytest.raises(ConfigError,
                           match="source: exactly one source parametrization"):
            load_config(path)

    @pytest.mark.parametrize("lines,message", [
        (["source.cw = true", "source.sigma = 1 THz", "source.tau_p = 1 ps"],
         "source: source.cw excludes source.tau_p"),
        (["source.cw = false"], "source: a source parametrization is required"),
        (["source.rho = 0.5", "source.sigma = 1 THz", "source.tau_p = 1 ps"],
         "source: source.sigma0 and source.rho must be given together"),
        (["link.length = 1 km"], "link: link.beta or link.two_beta"),
        (["detector.window_lo = -1 ns"],
         "detector: detector.window_lo and detector.window_hi must be given "
         "together"),
        (["detector.background_rate = 0.1"],
         "detector: background_rate > 0 requires a window"),
    ], ids=["cw-with-tau_p", "cw-false-alone", "rho-without-sigma0",
            "length-alone", "one-window-edge", "background-without-window"])
    def test_each_named_group_is_built_at_load(self, tmp_path, lines,
                                               message):
        path = tmp_path / "run.cfg"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_config(path)

    def test_cw_false_counts_as_absent(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("source.cw = false\nsource.sigma = 1 THz\n"
                        "source.tau_p = 1 ps\n")
        assert load_config(path).source() == SourceParams(sigma=1e12,
                                                          tau_p=1e-12)

    def test_values_checked_at_load_and_listed_together(self, tmp_path):
        # each group's values are checked by building it, whether or not a
        # command reads the group; every failure is named by its group
        path = tmp_path / "bad.cfg"
        path.write_text("source.sigma0 = 1 THz\nsource.rho = 1.5\n"
                        "link.beta = -1e-26 s^2/m\nlink.length = -1 km\n"
                        "detector.jitter1 = -1 ps\nfit.loss = foo\n")
        with pytest.raises(ConfigError) as err:
            load_config(path)
        message = str(err.value)
        assert message.startswith("invalid configuration:")
        for problem in (
                "source: rho must lie strictly inside (-1, 1), got 1.5",
                "link: length must be finite and >= 0, got -1000.0",
                "detector: jitter1 must be finite and >= 0, got -1e-12",
                "fit: loss must be 'hist-ls' or 'ml', got 'foo'"):
            assert f"\n  - {problem}" in message

    def test_parse_and_group_problems_listed_together(self):
        # a group with a key that did not parse is left unbuilt, so the
        # parse problem is all that is said about it
        with pytest.raises(ConfigError) as err:
            load_config(overrides=["source.sigma0=1 THz", "source.rho=half",
                                   "link.beta=-1e-26 s^2/m",
                                   "link.length=-1 km", "nonsense"])
        problems = str(err.value).split("\n  - ")[1:]
        assert sorted(problems) == sorted([
            "--set expects key=value, got 'nonsense'",
            "--set: source.rho: expected a number, got 'half'",
            "link: length must be finite and >= 0, got -1000.0"])

    def test_groups_not_named_are_not_built(self):
        cfg = load_config(overrides=["sample.n=10", "herald.width=1 ns"])
        with pytest.raises(ConfigError, match="source parametrization"):
            cfg.source()
        assert cfg.detector() == DetectorModel()

    def test_plain_values_checked_at_load_by_their_readers_rules(self):
        # the sample, herald and landscape resolvers build their groups at
        # load by the rules of the code that reads them, each listed
        widths = ["herald.width_min=10 ps", "herald.width_max=1 ns"]
        centers = ["herald.center_min=-1 ns", "herald.center_max=1 ns"]
        tau_p = ["landscape.tau_p_min=1 ps", "landscape.tau_p_max=1 ns"]
        sigma = ["landscape.sigma_min=1 THz", "landscape.sigma_max=5 THz"]
        with pytest.raises(ConfigError) as info:
            load_config(overrides=["sample.n=-5", "herald.direction=3",
                                   *tau_p, "landscape.tau_p_points=3",
                                   *sigma, "landscape.sigma_points=0"])
        message = str(info.value)
        assert "sample: n must be a positive integer, got -5" in message
        assert "herald: herald_on must be 1 or 2, got 3" in message
        assert ("landscape: tau_p_grid and sigma_grid must be non-empty 1-D "
                "arrays") in message
        for points, name in ((widths + ["herald.width_points=2"], "widths"),
                             (centers + ["herald.center_points=1"],
                              "centers")):
            with pytest.raises(ConfigError, match=f"herald: {name} must be a "
                                                  "1-D grid of at least 3"):
                load_config(overrides=points)
        # a grid's ends must be finite, and so must the span between them
        with pytest.raises(ConfigError, match="herald.center must span a "
                                              "finite interval"):
            load_config(overrides=["herald.center_min=-1e308 s",
                                   "herald.center_max=1e308 s",
                                   "herald.center_points=3",
                                   "herald.width=1 ns"])
        # a grid takes all three of its keys, and the landscape both axes
        for partial in (["herald.width_points=3"], centers,
                        ["landscape.tau_p_points=1"],
                        [*tau_p, "landscape.tau_p_points=1"]):
            with pytest.raises(ConfigError, match="are all required"):
                load_config(overrides=partial)
        cfg = load_config(overrides=["sample.n=1", "herald.direction=1",
                                     *widths, "herald.width_points=3",
                                     *tau_p, "landscape.tau_p_points=1",
                                     *sigma, "landscape.sigma_points=1"])
        assert cfg.get("herald.width_points") == 3
        assert cfg.sample() == (1, 1)
        assert cfg.herald() == HeraldWindow(0.0, math.inf, 1)
        assert [axis.size for axis in cfg.landscape()] == [1, 1]

    def test_overrides_typechecked(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(CONFIG_OK)
        cfg = load_config(path, overrides=["sample.n=9000"])
        assert cfg.get("sample.n") == 9000
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(path, overrides=["nope=1"])
        with pytest.raises(ConfigError):
            load_config(path, overrides=["sample.n=ten"])
        with pytest.raises(ConfigError, match="key=value"):
            load_config(overrides=["garbage"])

    def test_bad_syntax_named_with_line(self, tmp_path):
        path = tmp_path / "syntax.cfg"
        path.write_text("source.sigma = 1 THz\njust words\n")
        with pytest.raises(ConfigError, match=":2"):
            load_config(path)

    def test_grid_helper(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(CONFIG_OK + "herald.width_min = 10 ps\n"
                        "herald.width_max = 1 ns\nherald.width_points = 5\n")
        grid = load_config(path).grid("herald.width")
        assert grid.size == 5
        assert grid[0] == pytest.approx(1e-11)
        assert grid[-1] == pytest.approx(1e-9)

    def test_grid_missing_keys(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(CONFIG_OK)
        with pytest.raises(ConfigError, match="width_min"):
            load_config(path).grid("herald.width")
        # the centroid curve's centers also need its window width
        cfg = load_config(overrides=["herald.center_min=-1 ns",
                                     "herald.center_max=1 ns",
                                     "herald.center_points=3"])
        with pytest.raises(ConfigError, match="herald.width is required"):
            cfg.grid("herald.center")

    def test_grid_spacing_is_the_grids_own(self):
        cfg = load_config(overrides=["herald.width_min=1 ps",
                                     "herald.width_max=100 ps",
                                     "herald.width_points=3"])
        grid = cfg.grid("herald.width")
        assert grid.tolist() == cfg.grid("herald.width", "log").tolist()
        assert grid == pytest.approx([1e-12, 1e-11, 1e-10])
        with pytest.raises(ValueError, match="not a linear grid"):
            cfg.grid("herald.width", "linear")
