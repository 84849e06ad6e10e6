"""Durable formats: event files, run configuration, result reports.

Event files are plain CSV with a ``#``-prefixed key=value header block::

    # heraldtime events v1
    # units = ps
    # count = 3
    # meta = {"seed": 42}
    -12.5,100.25
    ...

The header block comes first.  The ``units`` declaration is mandatory and
applies to both columns; times are converted to seconds on read, and the
``units`` line wins over any ``units`` key inside ``meta`` (the writer does
not repeat it there).  Values are written with shortest round-trip float
formatting, so a file written and re-read in the same unit preserves every
value bit-for-bit (and converting units is exact whenever the product is
exactly representable).  The reader parses the data rows in one vectorized
call; a body that call refuses is read line by line, which also honours
``#`` lines among the rows, and every read error names the file line.

A large event set is written in contiguous shares of its rows, one for
each CPU the process may run on, when each worker's share gets at least
``_PARALLEL_MIN_ROWS`` (200 000) rows and the process's own share half as
many more: a million events on two CPUs split, 82 000 stay serial.  The
process writes the first share; each other share is formatted in a worker
process (``sys.executable``) by the same block formatter, from one temporary
file to another (16 and ~38 bytes a row), and the process appends the text
once the worker has exited 0: the bytes are those of the serial write.
Where a worker cannot start, the process writes every row; where one exits
non-zero, that share and every later row.  A read is one ``np.loadtxt``
call over the file, in this process and at any size: given the file's
path, loadtxt reads the file in blocks itself, and one CPU parses a
million rows about as fast as two processes each parsing half.

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
import json
import math
import os
import shutil
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .analytic import _check_axis_size
from .fitting import FitConfig
from .herald import HeraldWindow, _check_grid_size
from .params import (
    HeraldtimeError,
    LinkParams,
    SourceParams,
    SourceParamsRho,
    from_rho_form,
)
from .sampler import DetectorModel, EventSet, _check_count, _check_seed

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
# Where str.splitlines() breaks an ASCII line besides "\n".
_OTHER_BREAKS = b"\r\x0b\x0c\x1c\x1d\x1e"
# Rows formatted per write call: bounds the strings held at once.  A block
# holds ~145 bytes a row at its peak (the scaled floats as an array, as a
# list of Python floats and as a tuple, and the formatted text): 0.57 MiB at
# 4096 rows.  Larger blocks write no faster.
_WRITE_BLOCK_ROWS = 4096
# Body bytes checked per read before the one-call parse: bounds the bytes
# held at once.
_SCAN_BLOCK = 1 << 20
# Fewest rows a worker's share of a split write takes (see _split).  A
# worker process takes ~0.25 s to start and import NumPy without a bytecode
# cache: the time ~100 000 rows take to format (~2.3 us a row), by which the
# caller's own share is larger, since it writes them meanwhile.  A worker's
# 200 000 rows take ~0.46 s to format, so a smaller share would gain little.
_PARALLEL_MIN_ROWS = 200_000
# Names np.loadtxt would decompress by their suffix: read line by line.
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")

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
    """A result report could not be serialized (I/O failure or NaN)."""


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
    repeated in the ``meta`` JSON.  A large set is formatted in shares by
    :func:`_split`; the bytes are those of the serial write.
    """
    scale = _time_scale(unit)
    path = Path(path)
    header = [EVENT_MAGIC, f"# units = {unit}", f"# count = {events.count}"]
    meta = {k: v for k, v in events.metadata.items() if k != "units"}
    if meta:
        try:
            header.append("# meta = " + json.dumps(meta, sort_keys=True,
                                                  allow_nan=False, default=str))
        except ValueError as exc:
            raise ReportError(
                f"event metadata contains non-finite values: {exc}") from exc
    data = events.events
    try:
        with path.open("wb") as fh:
            fh.write(("\n".join(header) + "\n").encode("utf-8"))
            with _split(data, scale) as shares:
                for lo, hi, proc, text in shares:
                    if proc is None:  # the caller's own share
                        _write_rows(fh, data[lo:hi], scale)
                    elif proc.wait() == 0:
                        text.seek(0)  # the worker's writes moved it
                        shutil.copyfileobj(text, fh)
                    else:  # a worker failed: its share and the rest serially
                        _write_rows(fh, data[lo:], scale)
                        break
    except OSError as exc:
        raise ReportError(f"cannot write event file {path}: {exc}") from exc


def _time_scale(unit: str) -> float:
    """Seconds in one ``unit`` of an event file; ValueError if unknown."""
    if unit not in TIME_UNITS:
        raise ValueError(f"unknown time unit {unit!r}; known: {sorted(TIME_UNITS)}")
    return TIME_UNITS[unit]


def _write_rows(fh, data: np.ndarray, scale: float) -> None:
    """Write the rows of ``data / scale`` to the binary ``fh``, one
    ``_WRITE_BLOCK_ROWS`` block at a time."""
    for start in range(0, len(data), _WRITE_BLOCK_ROWS):
        # Same IEEE division and shortest repr as one row at a time.
        flat = (data[start:start + _WRITE_BLOCK_ROWS] / scale).ravel().tolist()
        fh.write(("%r,%r\n" * (len(flat) // 2) % tuple(flat)).encode("ascii"))


def read_events(path) -> EventSet:
    """Read an event file; all times are converted to seconds.

    A body of ASCII lines broken only at "\\n" (what :func:`write_events`
    writes) is checked in blocks of ``_SCAN_BLOCK`` bytes and then parsed
    by one ``np.loadtxt`` call given the file's path, which reads the file
    in blocks, so the reader holds one block or the parsed array, never the
    file's text; the returned :class:`EventSet` takes that array without a
    copy.  Any other body, one that call refuses, or a file whose name ends
    in a suffix loadtxt would decompress by, is decoded whole and read line
    by line.

    Raises :class:`EventFileError` naming the line for any malformed content.
    """
    path = Path(path)
    try:
        with path.open("rb") as fh:
            reader = _EventReader(path)
            plain = (None if path.name.endswith(_COMPRESSED)
                     else _plain_body_start(fh, reader))
            # A row loadtxt rejects or skips (a blank one) sends the body to
            # the line walk below, which alone reports errors and reads what
            # only float() accepts or what needs line order.
            arr = None if plain is None else _parse_rows(path, *plain)
            if arr is not None:
                arr *= reader.scale
                return _event_set(reader, arr)
            fh.seek(0)
            text = fh.read().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise EventFileError(f"cannot read event file {path}: {exc}") from exc

    lines = text.splitlines()
    if not lines or lines[0].strip() != EVENT_MAGIC:
        raise EventFileError(
            f"{path}:1: missing magic header {EVENT_MAGIC!r}")
    reader = _EventReader(path)
    arr = np.array(reader.walk(lines[1:], first_lineno=2),
                   dtype=float).reshape(-1, 2)
    if reader.scale is None:
        raise EventFileError(f"{path}: missing mandatory '# units = ...' line")
    return _event_set(reader, arr)


def _parse_rows(path: Path, skip: int, rows: int) -> np.ndarray | None:
    """The ``rows`` lines of the file at ``path`` after its first ``skip``
    as a (rows, 2) array, or None where ``np.loadtxt`` refuses or skips one
    or reads a non-finite value."""
    try:
        arr = np.loadtxt(os.fspath(path), delimiter=",", comments=None,
                         ndmin=2, skiprows=skip, encoding="utf-8")
    except ValueError:
        return None
    return arr if arr.shape == (rows, 2) and np.isfinite(arr).all() else None


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


@contextlib.contextmanager
def _split(data: np.ndarray, scale: float):
    """Contiguous shares of the rows of ``data``, one for each CPU, every
    share but the first formatted as ``data / scale`` by a worker process;
    the caller writes the first.  Each worker's share holds at least
    ``_PARALLEL_MIN_ROWS`` rows, and the caller's half as many more: those
    it writes while the workers start.

    Yields ``[(lo, hi, proc, text), ...]``, the caller's share first with
    ``proc`` and ``text`` None.  That share holds every row when the rows are
    too few, there is one CPU or a worker cannot start.  A worker reads its
    float64 rows from a temporary file on its stdin and writes their text to
    ``text``, the temporary file on its stdout.  On exit every worker still
    running is killed, all are waited for, and the files are closed.
    """
    rows, head = len(data), _PARALLEL_MIN_ROWS // 2
    count = min(_cpu_count(), (rows - head) // _PARALLEL_MIN_ROWS)
    if count < 2 or not sys.executable:
        yield [(0, rows, None, None)]
        return
    import subprocess
    import tempfile

    bounds = [0] + [head + (rows - head) * k // count
                    for k in range(1, count + 1)]
    shares = [(0, bounds[1], None, None)]
    root = str(Path(__file__).resolve().parent.parent)
    with contextlib.ExitStack() as stack:
        try:
            for lo, hi in zip(bounds[1:], bounds[2:]):
                text = stack.enter_context(tempfile.TemporaryFile())
                with tempfile.TemporaryFile() as stdin:
                    stdin.write(np.ascontiguousarray(data[lo:hi]))
                    stdin.seek(0)
                    proc = subprocess.Popen(
                        [sys.executable, "-c", _WORKER, root, repr(scale)],
                        stdin=stdin, stdout=text)
                stack.callback(_stop, proc)
                shares.append((lo, hi, proc, text))
        except OSError:
            stack.close()
            shares = [(0, rows, None, None)]
        yield shares


# How a worker process starts: this interpreter imports this package from
# where this process found it.  Ctrl-C ends a worker without a traceback;
# the caller stops the others.
_WORKER = ("import signal, sys; signal.signal(signal.SIGINT, signal.SIG_DFL); "
           "sys.path.insert(0, sys.argv[1]); "
           "from heraldtime.dataio import _share_worker; "
           "_share_worker(*sys.argv[2:])")


def _stop(proc) -> None:
    """Kill a worker (nothing to do once it has exited) and wait for it."""
    proc.kill()
    proc.wait()


def _share_worker(scale: str) -> None:
    """One share of a split write, in a worker process: the float64 rows on
    stdin, divided by ``scale``, go to stdout, a temporary file, as
    :func:`write_events` writes them.  A failed write exits non-zero."""
    rows = np.frombuffer(sys.stdin.buffer.read()).reshape(-1, 2)
    _write_rows(sys.stdout.buffer, rows, float(scale))


def _body_start(lines: list[str]) -> int:
    """Index of the first data row: the header block runs up to it."""
    return next((i for i in range(1, len(lines))
                 if lines[i].strip()[:1] not in ("", "#")), len(lines))


def _plain_body_start(fh, reader: _EventReader) -> tuple[int, int] | None:
    """Header and body line counts of a body ``np.loadtxt`` can read.

    Reads the binary file ``fh`` from its start and walks the header block
    into ``reader`` on the way.  Returns None, for the decoded text to
    decide, unless the body is ASCII, breaks its lines only at "\\n" and
    starts where ``str.splitlines`` would start it.  The header's lines are
    counted as a text-mode file counts them ("\\n", "\\r\\n" and a lone
    "\\r" each end one), the number loadtxt skips; the body is scanned in
    blocks of ``_SCAN_BLOCK`` bytes.
    """
    head, start, skip = [], 0, 0
    for line in fh:
        head.append(line)
        stripped = line.strip()
        if stripped and not stripped.startswith(b"#"):
            break
        start += len(line)
        skip += len(line.splitlines())
    else:
        return None
    fh.seek(start)
    block, rows, last = bytearray(_SCAN_BLOCK), 0, None
    while size := fh.readinto(block):
        del block[size:]  # a short read: the end of the file
        if not block.isascii() or any(c in block for c in _OTHER_BREAKS):
            return None
        rows += block.count(b"\n")
        last = block[-1]
    lines = b"".join(head).decode("utf-8").splitlines()
    if (lines[0].strip() != EVENT_MAGIC
            or _body_start(lines) != len(lines) - 1):
        return None
    reader.walk(lines[1:-1], first_lineno=2)
    if reader.scale is None:
        return None
    return skip, rows + (last != ord("\n"))


def _event_set(reader: _EventReader, arr: np.ndarray) -> EventSet:
    """The events, in seconds, once their number matches a declared count."""
    if reader.count is not None and reader.count != len(arr):
        raise EventFileError(
            f"{reader.path}: header declares count = {reader.count} but file "
            f"has {len(arr)} rows")
    return EventSet._adopt(arr, reader.metadata)


class _EventReader:
    """Header state of an event file, fed its lines in file order."""

    def __init__(self, path: Path):
        self.path = path
        self.scale: float | None = None
        self.count: int | None = None
        self.metadata: dict = {}

    def walk(self, lines: list[str], first_lineno: int) -> list[tuple[float, float]]:
        """Apply header lines and parse data rows (in seconds) one by one."""
        path = self.path
        rows: list[tuple[float, float]] = []
        for lineno, line in enumerate(lines, start=first_lineno):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                self._header_line(lineno, line)
                continue
            if self.scale is None:
                raise EventFileError(
                    f"{path}:{lineno}: data row before the mandatory "
                    f"'# units = ...' declaration")
            parts = line.split(",")
            if len(parts) != 2:
                raise EventFileError(
                    f"{path}:{lineno}: expected two comma-separated numbers, "
                    f"got {line!r}")
            try:
                t1, t2 = float(parts[0]), float(parts[1])
            except ValueError:
                raise EventFileError(
                    f"{path}:{lineno}: non-numeric row {line!r}") from None
            if not (math.isfinite(t1) and math.isfinite(t2)):
                raise EventFileError(f"{path}:{lineno}: non-finite row {line!r}")
            rows.append((t1 * self.scale, t2 * self.scale))
        return rows

    def _header_line(self, lineno: int, line: str) -> None:
        path = self.path
        body = line[1:].strip()
        if "=" not in body:
            raise EventFileError(
                f"{path}:{lineno}: header line must be '# key = value'")
        key, _, value = body.partition("=")
        key = key.strip()
        value = value.strip()
        if key == "units":
            if value not in TIME_UNITS:
                raise EventFileError(
                    f"{path}:{lineno}: unknown unit {value!r}; known: "
                    f"{sorted(TIME_UNITS)}")
            self.scale = TIME_UNITS[value]
            self.metadata["units"] = value
        elif key == "count":
            try:
                self.count = int(value)
            except ValueError:
                raise EventFileError(
                    f"{path}:{lineno}: count must be an integer, got "
                    f"{value!r}") from None
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

def write_report(payload, path) -> None:
    """Serialize a result mapping as deterministic JSON; NaN is rejected."""
    if hasattr(payload, "summary"):
        payload = payload.summary()
    try:
        text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False,
                          default=_json_default)
    except ValueError as exc:
        raise ReportError(f"report contains non-finite values: {exc}") from exc
    try:
        Path(path).write_text(text + "\n", encoding="utf-8")
    except OSError as exc:
        raise ReportError(f"cannot write report {path}: {exc}") from exc


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON-serializable: {type(obj).__name__}")


def _cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    value = float(value)
    if math.isnan(value):
        raise ReportError("table contains NaN")
    return repr(value)


def write_table(path, header: list[str], rows) -> None:
    """Write a plot-ready CSV table with shortest round-trip float formatting."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_cell(v) for v in row))
    try:
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
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
    "meta.delta_lambda": ("length", "pump bandwidth annotation, copied into reports"),
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
        _check_count(self.get("sample.n"))
        _check_seed(self.get("sample.seed"))
        return self.get("sample.n"), self.get("sample.seed")

    def herald(self) -> HeraldWindow:
        """The window of herald.center, herald.width and herald.direction,
        once each herald grid the config names is built."""
        for prefix in ("herald.width", "herald.center"):
            if any(key.startswith(prefix + "_") for key in self.values):
                self._grid(prefix)
        return HeraldWindow(self.get("herald.center"), self.get("herald.width"),
                            self.get("herald.direction"))

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
        spacing, check_size = _GRIDS[prefix]
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
        check_size(n)
        return (np.geomspace if spacing == "log" else np.linspace)(lo, hi, n)


# The grids the commands read: their spacing and their reader's size rule.
# A log grid, of window widths or landscape axis values, has positive ends.
_GRIDS = {"herald.width": ("log", lambda n: _check_grid_size(n, "widths")),
          "herald.center": ("linear", lambda n: _check_grid_size(n, "centers")),
          "landscape.tau_p": ("log", _check_axis_size),
          "landscape.sigma": ("log", _check_axis_size)}

# The groups a config may name, each checked by the resolver that builds it.
_GROUPS = {"source": RunConfig.source, "link": RunConfig.link,
           "detector": RunConfig.detector, "fit": RunConfig.fit_config,
           "sample": RunConfig.sample, "herald": RunConfig.herald,
           "landscape": RunConfig.landscape}


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
