"""Seeded Monte-Carlo generation of coincidence events.

Every true pair is drawn from the joint Gaussian arrival-time model, then
dressed with detector effects:

* independent Gaussian timing jitter per channel (``jitter1``, ``jitter2``);
* a common-mode Gaussian shift (``reference_jitter``) applied to both times,
  modeling the shared reference-clock subtraction -- the marginal jitter per
  channel is the quadrature sum, and the common mode adds a small positive
  covariance ``reference_jitter**2``;
* a ``background_rate`` fraction of events replaced by uniform draws over a
  stated window (accidental coincidences).

Randomness comes from the counter-based Philox generator.  A run with seed
``s`` is produced in chunks of ``CHUNK_SIZE`` events; chunk ``k`` uses
``numpy.random.Philox`` seeded by ``SeedSequence(entropy=s, spawn_key=(k,))``
and fills output rows ``k * CHUNK_SIZE`` up to ``(k + 1) * CHUNK_SIZE``.  This
makes the output deterministic, independent of how chunks might be
scheduled, and documented enough to reproduce the statistics (bit-exact
streams are promised only within this implementation).  Within a chunk of
m events the draw order is fixed: signal normals (m, 2), jitter normals per
channel and common mode, background selector uniforms (m,), background
positions uniforms (m, 2).

Pulse-train aliasing is not modeled: every event is assumed uniquely assigned
to its pump pulse.  Signal events are not truncated to the window; the window
is the background support, and it is assumed to hold the signal.  Where it
does not, fits of the events are biased: Table 1 set 1 (82k events, 64
seeds) with 1% background over a +-1 ns window gives a mean rho_t pull of
-5.4 (hist-ls) and -6.5 (ml).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Any, Mapping

import numpy as np

from .analytic import temporal_covariance
from .params import (LinkParams, SourceParams, TemporalCovariance, _count,
                     _is_real, _real, _require)

__all__ = ["CHUNK_SIZE", "DetectorModel", "EventSet", "sample", "sample_from_source"]

CHUNK_SIZE = 1 << 16


@dataclass(frozen=True)
class DetectorModel:
    """Timing response of the two detection channels.

    jitter1, jitter2:  per-channel Gaussian jitter standard deviations, s.
    reference_jitter:  common-mode (reference clock) jitter, s.
    background_rate:   fraction of events drawn uniformly from ``window``,
                       in [0, 1).
    window:            (lo, hi) support of the background in each time
                       coordinate, s.  Required when background_rate > 0.
    """

    jitter1: float = 0.0
    jitter2: float = 0.0
    reference_jitter: float = 0.0
    background_rate: float = 0.0
    window: tuple[float, float] | None = None

    def __post_init__(self):
        for name in ("jitter1", "jitter2", "reference_jitter"):
            _real(getattr(self, name), name, "be finite and >= 0",
                  lambda v: v >= 0)
        _real(self.background_rate, "background_rate", "lie in [0, 1)",
              lambda v: 0 <= v < 1)
        if self.window is not None:
            lo, hi = self.window
            _require(_is_real(lo) and _is_real(hi) and lo < hi, "window must "
                     f"be a finite (lo, hi) with lo < hi, got {self.window!r}")
        elif self.background_rate > 0.0:
            raise ValueError("background_rate > 0 requires a window")

    @classmethod
    def ideal(cls) -> "DetectorModel":
        """Noiseless detectors: no jitter, no background."""
        return cls()


@dataclass(frozen=True)
class EventSet:
    """A set of coincidence records (t1, t2) in seconds, with provenance.

    ``events`` is an (n, 2) float array, marked read-only.  ``metadata`` maps
    string keys to plain values (parameters used, seed, selection cuts, ...).

    The constructor copies ``events``, so the caller's array stays its own.
    The event sets of :func:`sample` and ``dataio.read_events`` hold the
    array those functions have just allocated itself, with the same checks:
    a million events cost one array, not two.
    """

    events: np.ndarray
    metadata: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        self._hold(np.asarray(self.events, dtype=float), self.metadata,
                   copy=True)

    @classmethod
    def _adopt(cls, arr: np.ndarray, metadata: Mapping[str, Any]) -> "EventSet":
        """An event set holding the float array ``arr`` itself, not a copy.

        Only for an array that no one else holds: it becomes read-only.
        """
        out = object.__new__(cls)
        out._hold(arr, metadata, copy=False)
        return out

    def _hold(self, arr: np.ndarray, metadata: Mapping[str, Any],
              copy: bool) -> None:
        arr = np.atleast_2d(arr)
        if arr.size == 0:
            arr = arr.reshape(0, 2)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError(f"events must have shape (n, 2), got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("events must be finite")
        if copy:
            arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "events", arr)
        object.__setattr__(self, "metadata", dict(metadata))

    @property
    def count(self) -> int:
        return self.events.shape[0]

    @property
    def t1(self) -> np.ndarray:
        return self.events[:, 0]

    @property
    def t2(self) -> np.ndarray:
        return self.events[:, 1]


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed,
                                                spawn_key=(chunk_index,))))


def _sample_chunk(cov: TemporalCovariance, det: DetectorModel,
                  rng: np.random.Generator, out: np.ndarray) -> None:
    """Fill the contiguous (m, 2) rows ``out`` with one chunk's events.

    The signal normals are drawn into ``out`` itself and turned into times
    in place, with the IEEE operations of ``mu + tau * z`` and of the
    ``t2`` mix; every other draw goes through one scratch column of m
    floats (m + 1 when m is odd), the (m, 2) background positions in two
    pieces of rows.  A chunk thus holds one column and a byte mask besides
    its output rows, and its stream and bits are those of whole-array draws.
    """
    m = len(out)
    t1, t2 = out[:, 0], out[:, 1]
    rows = (m + 1) // 2  # background rows per piece of the buffer
    buf = np.empty(2 * rows)
    col = buf[:m]
    rng.standard_normal(out=out)
    np.multiply(t1, cov.rho_t, out=col)
    t2 *= math.sqrt(1.0 - cov.rho_t ** 2)
    t2 += col
    t2 *= cov.tau2
    t2 += cov.mu2
    t1 *= cov.tau1
    t1 += cov.mu1
    for t, jitter in ((t1, det.jitter1), (t2, det.jitter2)):
        if jitter > 0:
            rng.standard_normal(out=col)
            col *= jitter
            t += col
    if det.reference_jitter > 0:
        rng.standard_normal(out=col)
        col *= det.reference_jitter
        t1 += col
        t2 += col
    if det.background_rate > 0:
        rng.random(out=col)
        is_bg = col < det.background_rate
        lo, hi = det.window
        for start in range(0, m, rows):
            piece = buf[:2 * min(rows, m - start)].reshape(-1, 2)
            rng.random(out=piece)
            piece *= hi - lo
            piece += lo
            sel = is_bg[start:start + rows]
            out[start:start + rows][sel] = piece[sel]


def sample(cov: TemporalCovariance, det: DetectorModel, n: int,
           seed: int) -> EventSet:
    """Draw ``n`` coincidence events; deterministic for a fixed seed."""
    _count(n, "n", "be a positive integer", 1)
    _count(seed, "seed", "be a non-negative integer", 0)
    events = np.empty((n, 2))
    for k, start in enumerate(range(0, n, CHUNK_SIZE)):
        _sample_chunk(cov, det, _chunk_rng(seed, k),
                      events[start:start + CHUNK_SIZE])
    meta = {
        "generator": "philox-chunked-v1",
        "seed": int(seed),
        "n": int(n),
        "cov": asdict(cov),
        "detector": asdict(det),
    }
    return EventSet._adopt(events, meta)


def sample_from_source(src: SourceParams, link: LinkParams, det: DetectorModel,
                       n: int, seed: int) -> EventSet:
    """Sample events for a source/link setting (symmetric arms, tau1 = tau2).

    Propagates the CW divergence: a CW pump has no finite unconditional
    width, so no joint Gaussian exists to sample from.
    """
    cov = temporal_covariance(src, link)
    out = sample(cov, det, n, seed)
    out.metadata["source"] = asdict(src)
    out.metadata["link"] = asdict(link)
    return out
