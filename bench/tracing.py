"""Spans around heraldtime's public calls, installed from outside the package.

The tracer replaces each traced function at every name a ``heraldtime``
module bound it to (``heraldtime.cli.run_fit``, ``heraldtime.reproduce.fit``,
``heraldtime.fitting.fit`` ... all hold the same function object), so calls
made inside the package, including the CLI replayed through ``cli.main``,
open child spans without any change to the package.  Spans stay in memory
until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
import time
from contextlib import contextmanager

# span record fields
FIELDS = ("name", "start", "end", "parent", "pass", "counts", "failed")
NAME, START, END, PARENT, PASS, COUNTS, FAILED = range(len(FIELDS))


def _bound(fn, args, kwargs):
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _fit_name(a):
    cfg = a["cfg"]
    return f"fitting.fit.{cfg.loss if cfg is not None else 'hist-ls'}"


def _fit_counts(a, r):
    key = "nit" if r.loss == "ml" else "nfev"
    return {"calls": 1, key: r.iterations, "converged": int(r.converged)}


def _source_kind(a):
    from heraldtime.sampler import EventSet
    return "events" if isinstance(a["source"], EventSet) else "model"


def _curve_resamples(a, per_point):
    if _source_kind(a) != "events":
        return {}
    return {"resamples": a["n_boot"] * per_point}


# (module, function, span name from bound arguments, counts from arguments
# and result).  Every per-layer metric of the benchmark comes from these.
TARGETS = [
    ("sampler", "sample", lambda a: "sampler.sample",
     lambda a, r: {"events": r.count}),
    ("analytic", "temporal_covariance",
     lambda a: "analytic.temporal_covariance", None),
    ("analytic", "landscape", lambda a: "analytic.landscape",
     lambda a, r: {"cells": int(r.size)}),
    ("analytic", "optimum", lambda a: "analytic.optimum", None),
    ("fitting", "fit", _fit_name, _fit_counts),
    ("fitting", "bootstrap_errors", lambda a: "fitting.bootstrap_errors",
     lambda a, r: {"resamples": a["n_resamples"]}),
    ("herald", "heralded_width", lambda a: "herald.heralded_width",
     lambda a, r: {"resamples": a["n_boot"]}),
    ("herald", "narrowing_curve",
     lambda a: f"herald.narrowing_curve.{_source_kind(a)}",
     lambda a, r: _curve_resamples(a, 1)),
    ("herald", "centroid_curve",
     lambda a: f"herald.centroid_curve.{_source_kind(a)}",
     lambda a, r: _curve_resamples(a, len(r.centers))),
    ("dataio", "write_events", lambda a: "dataio.write_events",
     lambda a, r: {"bytes": os.path.getsize(a["path"])}),
    ("dataio", "read_events", lambda a: "dataio.read_events",
     lambda a, r: {"events": r.count}),
    ("dataio", "write_table", lambda a: "dataio.write_table",
     lambda a, r: {"bytes": os.path.getsize(a["path"])}),
    ("dataio", "write_report", lambda a: "dataio.write_report", None),
    ("dataio", "load_config", lambda a: "dataio.load_config", None),
    ("reproduce", "run_recipe", lambda a: f"reproduce.{a['name']}",
     lambda a, r: {"checks_failed": sum(not c.passed for c in r.checks)}),
]


class Tracer:
    """In-memory span recorder for one benchmark run."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.pass_id = 0
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent,
                           self.pass_id, {}, False])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """Span around a block; yields the record so callers can mark it."""
        index = self._open(name)
        try:
            yield self.spans[index]
        except BaseException:
            self.spans[index][FAILED] = True
            raise
        finally:
            self._close(index)

    def _wrap(self, fn, namer, counter):
        def traced(*args, **kwargs):
            bound = _bound(fn, args, kwargs)
            with self.span(namer(bound)) as record:
                result = fn(*args, **kwargs)
                if counter is not None:
                    record[COUNTS] = counter(bound, result)
            return result
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Replace every traced function at each name a heraldtime module bound."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "heraldtime" or name.startswith("heraldtime.")]
        for module_name, func_name, namer, counter in TARGETS:
            original = getattr(sys.modules[f"heraldtime.{module_name}"], func_name)
            wrapper = self._wrap(original, namer, counter)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(FIELDS, s)) for s in self.spans], fh)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part its direct children cover."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def per_pass(spans, pass_ids):
    """Per pass: self seconds, summed counts and failures keyed by span name,
    and the seconds covered by top-level spans."""
    own = self_times(spans)
    out = {p: {"s": {}, "counts": {}, "failed": {}, "covered": 0.0}
           for p in pass_ids}
    for s, t in zip(spans, own):
        rec = out.get(s[PASS])
        if rec is None:
            continue
        name = s[NAME]
        rec["s"][name] = rec["s"].get(name, 0.0) + t
        counts = rec["counts"].setdefault(name, {})
        for key, value in s[COUNTS].items():
            counts[key] = counts.get(key, 0) + value
        rec["failed"][name] = rec["failed"].get(name, 0) + int(s[FAILED])
        if s[PARENT] < 0:
            rec["covered"] += s[END] - s[START]
    return out
