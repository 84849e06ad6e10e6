"""Durable formats: event files, run configuration, result reports.

Event files are plain CSV with a ``#``-prefixed key=value header block::

    # heraldtime events v1
    # units = ps
    # count = 3
    # meta = {"seed": 42}
    -12.5,100.25
    ...

The grammar, in UTF-8 text:

- lines end at "\\n", "\\r\\n" or "\\r";
- line 1 is the magic line;
- the header runs up to the first line that, once stripped, is neither
  empty nor starts with ``#``; each ``#`` line in it is ``# key = value``,
  no key repeats, ``units`` is mandatory, and ``count``, if given, is
  ASCII digits and equals the number of rows;
- after the header, every non-empty line is a row of two finite
  comma-separated numbers, each an ASCII field without underscores that
  ``float()`` reads once it is stripped.

So a ``#`` line or a whitespace-only line among the rows is an error, and
every error in a file's content names its ``path:lineno``.  The ``units`` declaration
applies to both columns; times are converted to seconds on read, and the
``units`` line wins over any ``units`` key inside ``meta`` (the writer does
not repeat it there).  Values are written with shortest round-trip float
formatting, so a file written and re-read in the same unit preserves every
value bit-for-bit (and converting units is exact whenever the product is
exactly representable).  A read is the header, read line by line, and the
rows.  Those of a file this writer wrote, unchanged since, come from the
binary copy written beside it, ``.<name>.rows``: the file's byte length and
``zlib.crc32``, the crc32 of the rows, and the ``.npy`` array of the rows
in file units.  The copy is used only while the file still has that length
and crc32 and the rows their crc32, so it gives the parse's bits; as with
a bytecode cache, a copy whose checks match is trusted, and whoever could
plant one could as well edit the file.  Any other file is parsed by one
``np.loadtxt`` call given its path, in this process and at any size:
loadtxt reads the file in blocks itself, and one CPU parses a million rows
about as fast as two processes each parsing half.  Only when that call
refuses the rows are they scanned, to name the first bad one.  A name
loadtxt would decompress by its suffix is neither read nor written.

The rows' bytes are those ``repr`` writes, made without a Python float per
value by :mod:`heraldtime._shortest`: Ryu's algorithm (Adams, PLDI 2018) on
NumPy uint64 lanes, which writes a million rows serially in ~0.85 s
against ~1.4 s with ``repr``.  Times whose value in the file's unit is not
finite are refused before the file is opened, so every file written reads
back.  Every table is a header and one float block, written by the same
rows' writer.  One JSON encoder, :func:`_json`, writes ``meta`` and the
reports: keys sorted, NumPy values as their Python values, and NaN, inf or
anything else JSON cannot hold refused before the file is opened.

Run configuration is a flat ``key = value`` text file with explicit unit
suffixes on dimensioned quantities::

    source.sigma   = 3.29 THz
    source.tau_p   = 964 fs
    link.two_beta  = -2.27e-26 s^2/m
    link.length    = 10 km
    sample.n       = 82000
    sample.seed    = 7

The source takes exactly one key set: ``sigma`` + ``tau_p``, ``sigma0`` +
``rho``, or ``cw = true`` + ``sigma``.  ``link.two_beta`` exists because
dispersion is sometimes quoted as the combined two-arm coefficient; exactly
one of ``link.beta`` / ``link.two_beta`` goes with ``link.length``.
Frequency-like widths accept Hz-style suffixes, read as plain 1/s formula
units.  Each group a config names is built at load by the :class:`RunConfig`
resolver its commands read, so a stray key or a value out of range fails at
load whichever command runs, and all violations are listed at once.  A grid
needs all three of its ``_min``/``_max``/``_points`` keys, finite ends
(positive for the narrowing widths and the landscape axes) and the size its
reader takes; ``herald()`` builds each herald grid the config names and
``landscape()`` both axes.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .fitting import FitConfig
from .herald import HeraldWindow
from .params import (
    HeraldtimeError,
    LinkParams,
    SourceParams,
    SourceParamsRho,
    _GRID_RULES,
    _count,
    _real,
    from_rho_form,
)
from .sampler import DetectorModel, EventSet

__all__ = [
    "EventFileError",
    "ConfigError",
    "ReportError",
    "CONFIG_SCHEMA",
    "RunConfig",
    "read_events",
    "write_events",
    "write_report",
    "load_config",
    "parse_quantity",
    "format_schema_help",
]

EVENT_MAGIC = "# heraldtime events v1"
# Event rows formatted per write call, and so 2 * _WRITE_BLOCK_ROWS values
# of a table's float block: bounds the arrays held at once.  The
# formatter (heraldtime._shortest) holds ~400 bytes a row at its peak, its
# uint64 lanes and 52 bytes of text slots per value: 0.39 MiB at 1024 rows
# and 0.77 MiB at 2048, which format ~10 % faster but pass 1 MiB with the
# 0.25 MiB of tables the first write builds.
_WRITE_BLOCK_ROWS = 1024
# Rows per np.loadtxt call of the scan that names a refused row: bounds the
# lines held at once (~0.3 MiB).
_SCAN_ROWS = 4096
# Names np.loadtxt would decompress by their suffix: neither read nor written.
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")
# The prefix of an event file's binary copy (see _write_copy): the file's
# byte length, its zlib.crc32 and the crc32 of the rows.
_COPY_PREFIX = "<QII"
# Bytes read at a time to take an event file's crc32: 1 MiB blocks raised a
# command's peak by ~2 MiB.
_CHECK_BYTES = 1 << 16

TIME_UNITS = {"s": 1.0, "ms": 1e-3, "us": 1e-6, "ns": 1e-9, "ps": 1e-12,
              "fs": 1e-15}
LENGTH_UNITS = {"m": 1.0, "km": 1e3, "cm": 1e-2, "mm": 1e-3, "nm": 1e-9}
FREQUENCY_UNITS = {"1/s": 1.0, "/s": 1.0, "Hz": 1.0, "kHz": 1e3, "MHz": 1e6,
                   "GHz": 1e9, "THz": 1e12}
DISPERSION_UNITS = {"s^2/m": 1.0, "s2/m": 1.0, "ps^2/km": 1e-27,
                    "ps2/km": 1e-27}

_UNIT_TABLES = {
    "time": TIME_UNITS,
    "length": LENGTH_UNITS,
    "frequency": FREQUENCY_UNITS,
    "dispersion": DISPERSION_UNITS,
}


class EventFileError(HeraldtimeError):
    """Malformed event file; the message names the offending line."""


class ConfigError(HeraldtimeError):
    """Invalid run configuration; the message lists every violation."""


class ReportError(HeraldtimeError):
    """An output could not be written: an I/O failure, or a value like NaN."""


# --------------------------------------------------------------------------
# Quantities
# --------------------------------------------------------------------------

def parse_quantity(text: str, kind: str) -> float:
    """Parse "value [unit]" into base SI for the given kind.

    Kinds: time (s), length (m), frequency (1/s), dispersion (s^2/m),
    float/int (bare numbers), bool, str.  Dimensioned kinds require an
    explicit unit suffix.
    """
    text = text.strip()
    if kind == "str":
        return text  # type: ignore[return-value]
    if kind == "bool":
        low = text.lower()
        if low in ("true", "yes", "on", "1"):
            return True  # type: ignore[return-value]
        if low in ("false", "no", "off", "0"):
            return False  # type: ignore[return-value]
        raise ValueError(f"expected a boolean, got {text!r}")
    if kind in ("float", "int"):
        try:
            value = float(text)
        except ValueError:
            raise ValueError(f"expected a number, got {text!r}") from None
        if kind == "int":
            if not value.is_integer():
                raise ValueError(f"expected an integer, got {text!r}")
            return int(value)  # type: ignore[return-value]
        return value
    table = _UNIT_TABLES.get(kind)
    if table is None:
        raise ValueError(f"unknown quantity kind {kind!r}")
    parts = text.split()
    if len(parts) != 2:
        raise ValueError(
            f"expected 'value unit' with unit in {sorted(table)}, got {text!r}")
    raw, unit = parts
    if unit not in table:
        raise ValueError(f"unknown {kind} unit {unit!r}; known: {sorted(table)}")
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"expected a number, got {raw!r}") from None
    return value * table[unit]


# --------------------------------------------------------------------------
# Event files
# --------------------------------------------------------------------------

def write_events(events: EventSet, path, unit: str = "s") -> None:
    """Write an event set as CSV with a header block; deterministic output.

    The ``units`` line states the unit, so a ``units`` metadata key is not
    repeated in the ``meta`` JSON, which :func:`_json` writes.  Metadata it
    refuses, a compressed name, which :func:`read_events` refuses, and times
    whose value in ``unit`` is not finite (``1e300`` s in fs) raise
    :class:`ReportError` before the file is opened.  Beside a regular file,
    :func:`_write_copy` then writes the binary copy of its rows that
    :func:`read_events` reads instead of parsing the file.
    """
    scale = _time_scale(unit)
    path = Path(path)
    if path.name.endswith(_COMPRESSED):
        raise ReportError(f"cannot write event file {path}: compressed event "
                          f"files are not read")
    data = events.events
    # the largest magnitude gives the largest quotient: if it is finite, so
    # is every row the file would hold
    if len(data) and not math.isfinite(
            max(float(data.max()), -float(data.min())) / scale):
        raise ReportError(f"cannot write event file {path}: an event time "
                          f"is not finite in {unit}")
    header = [EVENT_MAGIC, f"# units = {unit}", f"# count = {events.count}"]
    meta = {k: v for k, v in events.metadata.items() if k != "units"}
    if meta:
        header.append("# meta = " + _json(meta, f"event metadata of {path}"))
    try:
        with path.open("wb") as fh:
            fh.write(("\n".join(header) + "\n").encode("utf-8"))
            _write_rows(fh, data, scale)
    except OSError as exc:
        raise ReportError(f"cannot write event file {path}: {exc}") from exc
    if path.is_file():  # not /dev/stdout or a FIFO
        _write_copy(path, data, scale)


def _time_scale(unit: str) -> float:
    """Seconds in one ``unit`` of an event file; ValueError if unknown."""
    if unit not in TIME_UNITS:
        raise ValueError(f"unknown time unit {unit!r}; known: {sorted(TIME_UNITS)}")
    return TIME_UNITS[unit]


def _blocks(rows: np.ndarray, scale: float):
    """``rows / scale`` as new arrays of about ``2 * _WRITE_BLOCK_ROWS``
    values, the blocks of every row write; dividing by 1.0 keeps the bits."""
    step = max(1, 2 * _WRITE_BLOCK_ROWS // rows.shape[1])
    for start in range(0, len(rows), step):
        yield rows[start:start + step] / scale


def _write_rows(fh, data: np.ndarray, scale: float) -> None:
    """Write the rows of ``data / scale`` to the binary ``fh``, one
    :func:`_blocks` block at a time, each value as ``repr`` writes it
    (:func:`heraldtime._shortest.format_rows`)."""
    from ._shortest import format_rows

    for block in _blocks(data, scale):
        fh.write(format_rows(block))


def read_events(path) -> EventSet:
    """Read an event file; all times are converted to seconds.

    The header is read in text mode up to its first row.  The rows come
    from the binary copy :func:`write_events` wrote beside the file while
    the file is byte for byte the one written (:func:`_copied_rows`), and
    are otherwise parsed by one ``np.loadtxt`` call given the file's path,
    which skips the header's lines and reads the file in blocks itself.
    Both give the same bits, and the returned :class:`EventSet` takes the
    array without a copy.  Only where the parse refuses the rows are they
    scanned, to name the first bad one.  A read never writes a copy.

    Raises :class:`EventFileError` naming ``path:lineno`` for any content
    outside the grammar in the module docstring, and for a name loadtxt
    would decompress by its suffix.
    """
    path = Path(path)
    if path.name.endswith(_COMPRESSED):
        raise EventFileError(f"{path}: compressed event files are not read")
    reader = _EventReader(path)
    try:
        with path.open(encoding="utf-8", errors="surrogateescape") as fh:
            skip, rows = reader.header(fh)
        arr = _copied_rows(path) if rows else np.empty((0, 2))
        if arr is None:
            arr = _parse_rows(path, skip)
            if arr is None:
                raise _refused_row(path, skip)
    except OSError as exc:
        raise EventFileError(f"cannot read event file {path}: {exc}") from exc
    if reader.count is not None and reader.count != len(arr):
        raise EventFileError(
            f"{path}:{reader.lines['count']}: header declares count = "
            f"{reader.count} but file has {len(arr)} rows")
    arr *= reader.scale
    return EventSet._adopt(arr, reader.metadata)


def _copy_path(path: Path) -> Path:
    """The binary copy of the rows of the event file at ``path``: hidden
    beside it, so that listings and ``*.csv`` globs do not show it."""
    return path.with_name(f".{path.name}.rows")


def _checksum(path: Path) -> tuple[int, int]:
    """The byte length and ``zlib.crc32`` of the file at ``path``, read
    ``_CHECK_BYTES`` at a time."""
    import zlib

    size = crc = 0
    with path.open("rb") as fh:
        while block := fh.read(_CHECK_BYTES):
            size += len(block)
            crc = zlib.crc32(block, crc)
    return size, crc


def _write_copy(path: Path, data: np.ndarray, scale: float) -> None:
    """Write the binary copy of the event file just written at ``path``.

    The copy is the file's byte length and crc32 and the crc32 of the rows
    (``_COPY_PREFIX``), then the ``.npy`` v1.0 array of the rows in file
    units: ``data / scale``, divided one :func:`_blocks` block at a time as
    :func:`_write_rows` divides them.  The prefix is written last,
    once the rows are summed and the file re-read.  As with a bytecode
    cache, a copy that cannot be written is left out, not an error.
    """
    import struct
    import zlib

    copy = _copy_path(path)
    try:
        with copy.open("wb") as fh:
            fh.write(bytes(struct.calcsize(_COPY_PREFIX)))
            np.lib.format.write_array_header_1_0(
                fh, {"descr": "<f8", "fortran_order": False,
                     "shape": (len(data), 2)})
            crc = 0
            for block in _blocks(data, scale):
                crc = zlib.crc32(block, crc)
                fh.write(block)
            fh.seek(0)
            fh.write(struct.pack(_COPY_PREFIX, *_checksum(path), crc))
    except OSError:
        with contextlib.suppress(OSError):
            copy.unlink()


def _copied_rows(path: Path) -> np.ndarray | None:
    """The rows of the event file at ``path``, in file units, from its
    binary copy; None unless the file has the length and crc32 the copy
    states, and the copy holds a C-order ``(n, 2)`` ``<f8`` array of
    finite values with the crc32 it states."""
    import struct
    import zlib

    try:
        with _copy_path(path).open("rb") as fh:
            prefix = fh.read(struct.calcsize(_COPY_PREFIX))
            if len(prefix) != struct.calcsize(_COPY_PREFIX):
                return None
            size, text_crc, crc = struct.unpack(_COPY_PREFIX, prefix)
            if _checksum(path) != (size, text_crc):
                return None
            if np.lib.format.read_magic(fh) != (1, 0):
                return None
            shape, fortran, dtype = np.lib.format.read_array_header_1_0(fh)
            # the header must declare the rows the copy holds, no more
            left = os.fstat(fh.fileno()).st_size - fh.tell()
            if (dtype != np.dtype("<f8") or fortran or len(shape) != 2
                    or shape[1] != 2 or left != 16 * shape[0]):
                return None
            rows = np.empty(shape, dtype)
            if fh.readinto(rows) != rows.nbytes:
                return None
    except (OSError, ValueError):
        return None
    if zlib.crc32(rows) != crc or not np.isfinite(rows).all():
        return None
    return rows


def _parse_rows(path: Path, skip: int) -> np.ndarray | None:
    """The rows of the file at ``path`` after its first ``skip`` lines, by
    one ``np.loadtxt`` call given the path, or None where it refuses them."""
    return _two_columns(os.fspath(path), skiprows=skip)


def _two_columns(source, skiprows: int = 0) -> np.ndarray | None:
    """``np.loadtxt``'s (rows, 2) array of the lines of ``source``, or None
    where it refuses one or reads another shape or a non-finite value."""
    try:
        arr = np.loadtxt(source, delimiter=",", comments=None, ndmin=2,
                         skiprows=skiprows, encoding="utf-8")
    except ValueError:  # UnicodeDecodeError among them
        return None
    return arr if arr.shape[1] == 2 and np.isfinite(arr).all() else None


def _refused_row(path: Path, skip: int) -> EventFileError:
    """The error naming the first row ``np.loadtxt`` refuses.

    The lines after the first ``skip`` are read in text mode, as loadtxt
    reads them, and parsed again by loadtxt itself, so that the scan
    refuses what the one call refused: ``_SCAN_ROWS`` lines at a time, then
    one at a time in the block it refuses.  Empty lines, which loadtxt
    skips, are left out.
    """
    with path.open(encoding="utf-8", errors="surrogateescape") as fh:
        rows = ((lineno, line) for lineno, line in enumerate(fh, start=1)
                if lineno > skip and line != "\n")
        while block := list(itertools.islice(rows, _SCAN_ROWS)):
            if _two_columns([line for _, line in block]) is None:
                for lineno, line in block:
                    if _two_columns([line]) is None:
                        line = line.rstrip("\n")
                        return EventFileError(
                            f"{path}:{lineno}: expected two finite "
                            f"comma-separated numbers, got {line!r}")
    return EventFileError(f"{path}: np.loadtxt refused the rows but none "
                          f"of their lines")


class _EventReader:
    """The header of an event file, read from its text-mode lines."""

    def __init__(self, path: Path):
        self.path = path
        self.scale: float | None = None
        self.count: int | None = None
        self.metadata: dict = {}
        self.lines: dict[str, int] = {}  # each header key's line

    def header(self, fh) -> tuple[int, bool]:
        """Read the magic line and the header block from the text file
        ``fh``, up to and including the first row's line; return the number
        of lines the header takes and whether a row follows it."""
        lines = enumerate(fh, start=1)
        if next(lines, (1, ""))[1].strip() != EVENT_MAGIC:
            raise EventFileError(
                f"{self.path}:1: missing magic header {EVENT_MAGIC!r}")
        lineno, row = 1, False
        for lineno, line in lines:
            line = line.strip()
            if line.startswith("#"):
                self._header_line(lineno, line)
            elif line:
                row = True
                break
        if self.scale is None:
            raise EventFileError(
                f"{self.path}:{lineno}: the header ends without the mandatory "
                f"'# units = ...' line")
        return lineno - row, row

    def _header_line(self, lineno: int, line: str) -> None:
        path = self.path
        try:
            line.encode("utf-8")  # the reader decodes bad bytes as surrogates
        except UnicodeEncodeError:
            raise EventFileError(f"{path}:{lineno}: not UTF-8 text") from None
        body = line[1:].strip()
        if "=" not in body:
            raise EventFileError(
                f"{path}:{lineno}: header line must be '# key = value'")
        key, _, value = body.partition("=")
        key = key.strip()
        value = value.strip()
        if key in self.lines:
            raise EventFileError(
                f"{path}:{lineno}: header key {key!r} repeats line "
                f"{self.lines[key]}")
        self.lines[key] = lineno
        if key == "units":
            if value not in TIME_UNITS:
                raise EventFileError(
                    f"{path}:{lineno}: unknown unit {value!r}; known: "
                    f"{sorted(TIME_UNITS)}")
            self.scale = TIME_UNITS[value]
            self.metadata["units"] = value
        elif key == "count":
            # ASCII digits only, as in the rows: int() would also take
            # "1_0", "+2" and full-width digits
            if not (value.isascii() and value.isdigit()):
                raise EventFileError(
                    f"{path}:{lineno}: count must be a non-negative "
                    f"integer in ASCII digits, got {value!r}")
            self.count = int(value)
        elif key == "meta":
            try:
                parsed = json.loads(value)
            except json.JSONDecodeError as exc:
                raise EventFileError(
                    f"{path}:{lineno}: meta is not valid JSON: {exc}") from exc
            if not isinstance(parsed, dict):
                raise EventFileError(
                    f"{path}:{lineno}: meta must be a JSON object")
            # The mandatory units line states the unit of the data.
            parsed.pop("units", None)
            self.metadata.update(parsed)
        else:
            self.metadata[key] = value


# --------------------------------------------------------------------------
# Reports
# --------------------------------------------------------------------------

def _json(value, what: str, indent: int | None = None) -> str:
    """The JSON text of ``value``, keys sorted and NumPy values as Python's:
    the one encoder of reports and event ``meta``.  NaN, inf and what else
    JSON cannot hold raise :class:`ReportError`."""
    try:
        return json.dumps(value, sort_keys=True, indent=indent,
                          allow_nan=False, default=_json_default)
    except (TypeError, ValueError) as exc:  # ValueError: NaN and inf
        raise ReportError(
            f"{what} holds a non-finite or non-JSON value: {exc}") from exc


def _json_default(obj):
    """A NumPy scalar or array as ``tolist`` gives it, unless still NumPy's."""
    if isinstance(obj, (np.generic, np.ndarray)) and not isinstance(
            value := obj.tolist(), np.generic):  # a long double stays one
        return value
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _leaves(value, key: str = "") -> list:
    """The ``(dotted key, value)`` leaves of decoded JSON in its order, a
    list's items by index (``key.0``); an empty mapping or list is a leaf."""
    if not (value and isinstance(value, (dict, list))):
        return [(key, value)]
    items = value.items() if isinstance(value, dict) else enumerate(value)
    return [leaf for name, item in items
            for leaf in _leaves(item, f"{key}.{name}" if key else str(name))]


def write_report(payload, path) -> None:
    """Write a result mapping as the JSON of :func:`_json`, or, to a path
    ending in ``.csv``, as ``key,value`` rows of its dotted leaves in that
    JSON's order, each value its JSON; what JSON cannot hold, NaN and inf
    among it, raises :class:`ReportError` before the file is opened."""
    text = _json(payload, f"report {path}", indent=2) + "\n"
    if str(path).endswith(".csv"):
        text = "key,value\n" + "".join(
            f"{key},{_json(value, 'report')}\n"
            for key, value in _leaves(json.loads(text)))
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ReportError(f"cannot write report {path}: {exc}") from exc


def write_table(path, header: list[str], rows) -> None:
    """Write a plot-ready CSV table: the header, then ``rows`` read as one
    2-D float64 array and written by :func:`_write_rows`, each value as
    ``repr`` writes it.  NaN and inf raise :class:`ReportError` before the
    file is opened.
    """
    rows = np.asarray(rows, dtype=np.float64)
    if not np.isfinite(rows).all():
        raise ReportError(f"table {path} holds non-finite values")
    try:
        with Path(path).open("wb") as fh:
            fh.write((",".join(header) + "\n").encode("utf-8"))
            _write_rows(fh, rows, 1.0)
    except OSError as exc:
        raise ReportError(f"cannot write table {path}: {exc}") from exc


# --------------------------------------------------------------------------
# Run configuration
# --------------------------------------------------------------------------

# key -> (kind, description).  This table is the single source of truth for
# parsing, validation, --set overrides and the CLI help text.
CONFIG_SCHEMA: dict[str, tuple[str, str]] = {
    "source.sigma": ("frequency", "effective phase-matching width (e.g. '3.29 THz')"),
    "source.tau_p": ("time", "pump pulse duration (e.g. '964 fs')"),
    "source.sigma0": ("frequency", "single-photon spectral width (alt. parametrization)"),
    "source.rho": ("float", "spectral correlation coefficient in (-1, 1)"),
    "source.cw": ("bool", "continuous-wave pump flag (uses source.sigma only)"),
    "link.beta": ("dispersion", "per-arm dispersion coefficient (e.g. '-1.15e-26 s^2/m')"),
    "link.two_beta": ("dispersion", "combined two-arm dispersion 2*beta (alternative to link.beta)"),
    "link.length": ("length", "fiber length per arm (e.g. '10 km')"),
    "detector.jitter1": ("time", "channel-1 Gaussian jitter std dev"),
    "detector.jitter2": ("time", "channel-2 Gaussian jitter std dev"),
    "detector.reference_jitter": ("time", "common-mode reference-clock jitter std dev"),
    "detector.background_rate": ("float", "uniform background fraction in [0, 1)"),
    "detector.window_lo": ("time", "background window lower edge"),
    "detector.window_hi": ("time", "background window upper edge"),
    "sample.n": ("int", "number of coincidence events to draw"),
    "sample.seed": ("int", "random seed"),
    "fit.loss": ("str", "'hist-ls' or 'ml'"),
    "herald.direction": ("int", "heralding channel, 1 or 2 (default 2)"),
    "herald.center": ("time", "detection window center"),
    "herald.width": ("time", "detection window width"),
    "herald.width_min": ("time", "narrowing-curve grid start"),
    "herald.width_max": ("time", "narrowing-curve grid stop"),
    "herald.width_points": ("int", "narrowing-curve grid size (>= 3)"),
    "herald.center_min": ("time", "centroid-curve grid start"),
    "herald.center_max": ("time", "centroid-curve grid stop"),
    "herald.center_points": ("int", "centroid-curve grid size (>= 3)"),
    "landscape.tau_p_min": ("time", "landscape pump-duration axis start"),
    "landscape.tau_p_max": ("time", "landscape pump-duration axis stop"),
    "landscape.tau_p_points": ("int", "landscape pump-duration axis size"),
    "landscape.sigma_min": ("frequency", "landscape sigma axis start"),
    "landscape.sigma_max": ("frequency", "landscape sigma axis stop"),
    "landscape.sigma_points": ("int", "landscape sigma axis size"),
    "meta.delta_lambda": ("length", "pump bandwidth annotation (> 0), copied into reports"),
}

_SOURCE_FORMS = ("(source.sigma + source.tau_p) | (source.sigma0 + source.rho) "
                 "| (source.cw + source.sigma)")

# Defaults of the sample and herald keys (a window without a width selects
# every event); DetectorModel and FitConfig keep their own.
_DEFAULTS = {
    "sample.n": 82000,
    "sample.seed": 1,
    "herald.direction": 2,
    "herald.center": 0.0,
    "herald.width": math.inf,
}


@dataclass
class RunConfig:
    """Parsed and validated run configuration; see CONFIG_SCHEMA for keys."""

    values: dict = field(default_factory=dict)

    def get(self, key: str):
        return self.values.get(key, _DEFAULTS.get(key))

    def has(self, key: str) -> bool:
        return key in self.values

    def _settings(self, prefix: str, names) -> dict:
        """The ``prefix.name`` values this config sets, keyed by name."""
        return {name: self.values[f"{prefix}.{name}"] for name in names
                if f"{prefix}.{name}" in self.values}

    # -- resolved objects ---------------------------------------------------

    def source(self) -> SourceParams:
        """The source of the one form whose exact key set the config gives:
        {sigma, tau_p}, {sigma0, rho}, or source.cw = true with {sigma}."""
        given = self._settings("source", ("sigma", "tau_p", "sigma0", "rho"))
        form = set(given) | ({"cw"} if self.get("source.cw") else set())
        if form == {"sigma", "tau_p"}:
            return SourceParams(**given)
        if form == {"sigma0", "rho"}:
            return from_rho_form(SourceParamsRho(**given))
        if form == {"cw", "sigma"}:
            return SourceParams.cw_pump(**given)
        if not form:
            raise ConfigError(
                "a source parametrization is required: " + _SOURCE_FORMS)
        if ("sigma0" in form) != ("rho" in form):
            raise ConfigError(
                "source.sigma0 and source.rho must be given together")
        if {"cw", "tau_p"} <= form:
            raise ConfigError("source.cw excludes source.tau_p")
        raise ConfigError(
            "exactly one source parametrization is required: " + _SOURCE_FORMS)

    def link(self) -> LinkParams:
        given = self._settings("link", ("beta", "two_beta"))
        if not given:
            raise ConfigError("link.beta or link.two_beta (and link.length) "
                              "are required")
        if len(given) > 1:
            raise ConfigError(
                "exactly one of link.beta / link.two_beta is required")
        if not self.has("link.length"):
            raise ConfigError(
                "link.length is required with link.beta/link.two_beta")
        beta = given["beta"] if "beta" in given else given["two_beta"] / 2.0
        return LinkParams(beta=beta, length=self.get("link.length"))

    def detector(self) -> DetectorModel:
        settings = self._settings("detector", ("jitter1", "jitter2",
                                               "reference_jitter",
                                               "background_rate"))
        if self.has("detector.window_lo") != self.has("detector.window_hi"):
            raise ConfigError("detector.window_lo and detector.window_hi must "
                              "be given together")
        if self.has("detector.window_lo"):
            settings["window"] = (self.get("detector.window_lo"),
                                  self.get("detector.window_hi"))
        return DetectorModel(**settings)

    def fit_config(self) -> FitConfig:
        return FitConfig(**self._settings("fit", ("loss",)))

    def sample(self) -> tuple[int, int]:
        """The sample size and seed."""
        _count(self.get("sample.n"), "n", "be a positive integer", 1)
        _count(self.get("sample.seed"), "seed", "be a non-negative integer", 0)
        return self.get("sample.n"), self.get("sample.seed")

    def herald(self) -> HeraldWindow:
        """The window of herald.center, herald.width and herald.direction,
        once each herald grid the config names is built."""
        for prefix in ("herald.width", "herald.center"):
            if any(key.startswith(prefix + "_") for key in self.values):
                self._grid(prefix)
        return HeraldWindow(self.get("herald.center"), self.get("herald.width"),
                            self.get("herald.direction"))

    def meta(self) -> dict:
        """The annotations the config sets for the event metadata, each
        finite and positive: ``delta_lambda``, the pump bandwidth."""
        meta = self._settings("meta", ("delta_lambda",))
        for name, value in meta.items():
            _real(value, name, "be finite and positive", lambda v: v > 0)
        return meta

    def landscape(self) -> tuple[np.ndarray, np.ndarray]:
        """The tau_p and sigma axes."""
        return self.grid("landscape.tau_p"), self.grid("landscape.sigma")

    def grid(self, prefix: str, scale: str | None = None) -> np.ndarray:
        """The grid of ``<prefix>_min``, ``_max`` and ``_points``, built by
        :meth:`_grid`; ``scale``, if given, must name its spacing.  The
        centroid curve's centers also need ``herald.width``."""
        if scale not in (None, _GRIDS[prefix][0]):
            raise ValueError(f"{prefix} is not a {scale} grid")
        if prefix == "herald.center" and not self.has("herald.width"):
            raise ConfigError("herald.width is required for the centroid curve")
        return self._grid(prefix)

    def _grid(self, prefix: str) -> np.ndarray:
        """The grid of all three keys, checked and spaced as _GRIDS says."""
        spacing, name = _GRIDS[prefix]
        keys = [f"{prefix}_{end}" for end in ("min", "max", "points")]
        if not all(map(self.has, keys)):
            raise ConfigError(f"the grid keys {'/'.join(keys)} are all required")
        lo, hi, n = map(self.get, keys)
        rule = "positive and finite" if spacing == "log" else "finite"
        for key, end in zip(keys, (lo, hi)):
            if not (math.isfinite(end) and (end > 0 or spacing == "linear")):
                raise ConfigError(f"{prefix} must be {rule}, got {key} = {end!r}")
        if not math.isfinite(hi - lo):
            raise ConfigError(f"{prefix} must span a finite interval, got "
                              f"{keys[0]} = {lo!r} and {keys[1]} = {hi!r}")
        subject, rule, least, _ = _GRID_RULES[name]
        _count(n, subject, rule, least)
        return (np.geomspace if spacing == "log" else np.linspace)(lo, hi, n)


# The grids the commands read: their spacing and their rule's name in params.
# A log grid, of window widths or landscape axis values, has positive ends.
_GRIDS = {"herald.width": ("log", "widths"),
          "herald.center": ("linear", "centers"),
          "landscape.tau_p": ("log", "tau_p_grid"),
          "landscape.sigma": ("log", "sigma_grid")}

# The groups a config may name, each checked by the resolver that builds it.
_GROUPS = {"source": RunConfig.source, "link": RunConfig.link,
           "detector": RunConfig.detector, "fit": RunConfig.fit_config,
           "sample": RunConfig.sample, "herald": RunConfig.herald,
           "landscape": RunConfig.landscape, "meta": RunConfig.meta}


def _parse_pairs(pairs, problems: list[str]) -> tuple[dict, set]:
    """Values of the ``(where, key, raw)`` pairs that parse, the last pair
    of a key winning, and the keys of those that do not, each a problem."""
    values, failed = {}, set()
    for where, key, raw in pairs:
        if key not in CONFIG_SCHEMA:
            problems.append(f"{where}: unknown key {key!r}")
            failed.add(key)
            continue
        try:
            values[key] = parse_quantity(raw, CONFIG_SCHEMA[key][0])
        except ValueError as exc:
            problems.append(f"{where}: {key}: {exc}")
            failed.add(key)
    return values, failed


def load_config(path=None, overrides=()) -> RunConfig:
    """Load a config file, if given, apply ``--set`` overrides, and build
    each group that a parsed key names and no unparsed key does.

    Every violation (bad lines, unknown keys, bad units, groups that fail to
    build) is reported together in one :class:`ConfigError`.
    """
    text = ""
    if path is not None:
        path = Path(path)
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
    pairs = []
    problems = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            problems.append(f"{path}:{lineno}: expected 'key = value', got "
                            f"{stripped!r}")
            continue
        key, _, raw = stripped.partition("=")
        pairs.append((f"{path}:{lineno}", key.strip(), raw.strip()))
    for item in overrides:
        if "=" not in item:
            problems.append(f"--set expects key=value, got {item!r}")
            continue
        key, _, raw = item.partition("=")
        pairs.append(("--set", key.strip(), raw.strip()))
    values, failed = _parse_pairs(pairs, problems)
    cfg = RunConfig(values)
    unparsed = {key.partition(".")[0] for key in failed}
    for group, build in _GROUPS.items():
        if group not in unparsed and any(key.startswith(group + ".")
                                         for key in values):
            try:
                build(cfg)
            except (ConfigError, ValueError) as exc:
                problems.append(f"{group}: {exc}")
    if problems:
        raise ConfigError("invalid configuration:\n  - "
                          + "\n  - ".join(problems))
    return cfg


def format_schema_help() -> str:
    """Human-readable table of every config key, its kind and meaning."""
    width = max(len(k) for k in CONFIG_SCHEMA)
    lines = ["configuration keys (units in parentheses):"]
    for key, (kind, desc) in CONFIG_SCHEMA.items():
        unit_hint = {"time": "time, e.g. ps/ns/s", "length": "length, e.g. m/km",
                     "frequency": "1/s, e.g. GHz/THz",
                     "dispersion": "s^2/m or ps^2/km"}.get(kind, kind)
        lines.append(f"  {key.ljust(width)}  ({unit_hint}) {desc}")
    return "\n".join(lines)
