"""Heralded (windowed conditional) analysis of event data and of the model.

Selecting coincidences whose heralding photon arrived inside a window
[center - width/2, center + width/2] narrows the partner photon's arrival
time distribution.  This module provides the selection itself, the heralded
width with a bootstrap error bar, and the two standard curves:

* narrowing ratio (heralded width / unconditional width) versus window width,
  which flattens to sqrt(1 - rho_t^2) for small windows;
* heralded mean arrival time versus window center, whose small-window slope
  is rho_t * tau1 / tau2.

Every curve function accepts either an :class:`~heraldtime.sampler.EventSet`
(empirical path, bootstrap error bars) or a
:class:`~heraldtime.params.TemporalCovariance` (analytic path, exact
conditional moments propagated through the truncated-normal window).
Statistics are always computed on raw counts; any display scaling is left to
presentation code.

Every error bar is a bootstrap taken by ``sampler.bootstrap_std``, the one
place resamples are drawn: row by row from the ``default_rng(seed)`` stream of
release 0.1.0.  The nested windows of a narrowing curve take each resample's
moments from prefix sums of weighted counts, times and squares.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .analytic import (_checked_mass, _lower_tail, _normal_cdf_pdf, _window,
                       _window_mass, narrowing_ratio_limit)
from .params import HeraldtimeError, TemporalCovariance
from .sampler import EventSet, bootstrap_std

__all__ = [
    "TooFewEventsError",
    "HeraldWindow",
    "NarrowingCurve",
    "CentroidCurve",
    "select",
    "heralded_width",
    "conditional_moments",
    "narrowing_curve",
    "centroid_curve",
]

MIN_EVENTS = 30

# Windows narrower than this many sd take their moments by quadrature.
_NARROW = 0.1


class TooFewEventsError(HeraldtimeError):
    """Raised when a window selects too few events for a stable estimate."""


@dataclass(frozen=True)
class HeraldWindow:
    """Detection-time window on the heralding photon.

    center:    window center, s.
    width:     full window width, s (may be inf for "no selection").
    herald_on: which channel heralds -- 2 (default) conditions on t2 and
               analyzes t1; 1 swaps the roles.
    """

    center: float
    width: float
    herald_on: int = 2

    def __post_init__(self):
        if not (isinstance(self.width, (int, float)) and self.width > 0):
            raise ValueError(f"width must be positive, got {self.width!r}")
        if not (isinstance(self.center, (int, float)) and math.isfinite(self.center)):
            raise ValueError(f"center must be finite, got {self.center!r}")
        if self.herald_on not in (1, 2):
            raise ValueError(f"herald_on must be 1 or 2, got {self.herald_on!r}")

    @property
    def bounds(self) -> tuple[float, float]:
        return (self.center - 0.5 * self.width, self.center + 0.5 * self.width)


def _channels(events: EventSet, herald_on: int) -> tuple[np.ndarray, np.ndarray]:
    """(analyzed, heralding) channel columns of the events, as views."""
    if herald_on not in (1, 2):
        raise ValueError(f"herald_on must be 1 or 2, got {herald_on!r}")
    return (events.t1, events.t2) if herald_on == 2 else (events.t2, events.t1)


def _estimate(x: np.ndarray, statistic, rng: np.random.Generator,
              n_boot: int, window: str) -> tuple[float, float]:
    """``statistic(x)`` and its bootstrap error over the selected events ``x``.

    Raises :class:`TooFewEventsError`, naming ``window``, below
    ``MIN_EVENTS`` events.
    """
    if x.size < MIN_EVENTS:
        raise TooFewEventsError(f"{window} selects {x.size} events; need at "
                                f"least {MIN_EVENTS}")
    return statistic(x), bootstrap_std(rng, x.size, n_boot,
                                       lambda idx: statistic(x[idx]))


def select(events: EventSet, w: HeraldWindow) -> EventSet:
    """Events whose heralding coordinate lies inside the closed window.

    The returned set keeps the original channel order; the applied cut is
    recorded in the metadata.  An empty selection is flagged there, not
    raised.
    """
    heralding = _channels(events, w.herald_on)[1]
    lo, hi = w.bounds
    mask = (heralding >= lo) & (heralding <= hi)
    meta = dict(events.metadata)
    meta["selection"] = {
        "herald_on": w.herald_on,
        "center": w.center,
        "width": w.width,
        "selected": int(mask.sum()),
        "total": events.count,
        "empty": not bool(mask.any()),
    }
    return EventSet(events.events[mask], meta)


def heralded_width(events: EventSet, w: HeraldWindow, n_boot: int = 200,
                   seed: int = 0) -> tuple[float, float]:
    """Width of the heralded coordinate within the window, with its error.

    Returns (width, std_error) in seconds: the sample standard deviation
    (for which the narrowing limit is exact) and its bootstrap error.
    Raises :class:`TooFewEventsError` below 30 selected events.
    """
    analyzed, heralding = _channels(events, w.herald_on)
    lo, hi = w.bounds
    width, err = _estimate(
        analyzed[(heralding >= lo) & (heralding <= hi)],
        lambda x: np.std(x, ddof=1), np.random.default_rng(seed), n_boot,
        f"window (center={w.center!r}, width={w.width!r})")
    return float(width), float(err)


# --------------------------------------------------------------------------
# Exact conditional moments of the model
# --------------------------------------------------------------------------

@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the 12-point rule on [-1, 1].

    Computed on first use: ``leggauss`` runs LAPACK, whose first call costs
    about 1 MiB of resident memory.
    """
    return np.polynomial.legendre.leggauss(12)


def _truncated_normal_moments(mu: float, sd: float, lo: float,
                              hi: float) -> tuple[float, float]:
    """Mean and variance of N(mu, sd^2) restricted to [lo, hi].

    A window narrower than ``_NARROW`` sd takes its moments about its
    midpoint by Gauss-Legendre quadrature, because there the closed form's
    variance ``1 + (ta - tb)/mass - shift**2`` cancels.
    """
    a, b, sign = _lower_tail((lo - mu) / sd, (hi - mu) / sd)
    mass = _checked_mass(_window_mass(a, b), lo, hi)
    pa, pb = _normal_cdf_pdf(a)[1], _normal_cdf_pdf(b)[1]
    if b - a < _NARROW:
        # hi - lo rounds at most once, so the half-width in sd keeps full
        # precision; b - a would lose it to the rounding of a and b.
        c = sign * (0.5 * (lo + hi) - mu) / sd
        nodes, weights = _gauss_legendre()
        d = (0.5 * (hi - lo) / sd) * nodes
        weight = weights * np.exp(-d * (c + 0.5 * d))
        norm = weight.sum()
        shift = (weight @ d) / norm
        var_factor = (weight @ (d - shift) ** 2) / norm
        return mu + sign * sd * (c + shift), sd * sd * var_factor
    ta = a * pa if pa > 0.0 else 0.0
    tb = b * pb if pb > 0.0 else 0.0
    mean_shift = (pa - pb) / mass
    var_factor = 1.0 + (ta - tb) / mass - mean_shift ** 2
    return mu + sign * sd * mean_shift, sd * sd * var_factor


def conditional_moments(cov: TemporalCovariance, center: float,
                        width: float) -> tuple[float, float]:
    """Exact mean and standard deviation of t1 given t2 in the window.

    Decomposes t1 into its regression on t2 plus independent noise:

        E[t1 | t2 in W]   = mu1 + rho_t (tau1/tau2) (E[t2 | W] - mu2)
        Var[t1 | t2 in W] = tau1^2 (1 - rho_t^2)
                            + rho_t^2 (tau1/tau2)^2 Var[t2 | W]

    with the window moments of t2 those of a truncated normal.  Exact for
    any window, including width=inf (the unconditional moments).  Raises
    ValueError for a width that is not positive, a center that is not finite
    and a window that carries no probability mass.
    """
    lo, hi = _window(center, width)
    m2, v2 = _truncated_normal_moments(cov.mu2, cov.tau2, lo, hi)
    slope = cov.rho_t * cov.tau1 / cov.tau2
    mean = cov.mu1 + slope * (m2 - cov.mu2)
    var = cov.tau1 ** 2 * (1.0 - cov.rho_t ** 2) + slope ** 2 * v2
    return mean, math.sqrt(var)


# --------------------------------------------------------------------------
# Curves
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class NarrowingCurve:
    """Heralded-to-unconditional width ratio versus window width.

    widths:     window widths, s.
    ratios:     heralded width / unconditional width (sampling noise may push
                empirical values slightly above 1).
    std_errors: bootstrap errors per point; None on the analytic path.
    asymptote:  the small-window limit sqrt(1 - rho_t^2) (empirical curves
                carry the value from the moment estimate of rho_t).
    """

    widths: np.ndarray
    ratios: np.ndarray
    std_errors: np.ndarray | None
    asymptote: float


@dataclass(frozen=True)
class CentroidCurve:
    """Heralded mean arrival time versus window center.

    centers, means in s; std_errors per point, None on the analytic path.
    """

    centers: np.ndarray
    means: np.ndarray
    std_errors: np.ndarray | None

    def slope(self) -> float:
        """Least-squares slope of means versus centers."""
        return float(np.polyfit(self.centers, self.means, 1)[0])


def _as_grid(values, minimum: int, name: str) -> np.ndarray:
    grid = np.asarray(values, dtype=float)
    if grid.ndim != 1 or grid.size < minimum:
        raise ValueError(f"{name} must be a 1-D grid of at least {minimum} values")
    return grid


def narrowing_curve(source, center: float, widths, herald_on: int = 2,
                    n_boot: int = 200, seed: int = 0) -> NarrowingCurve:
    """Narrowing-ratio curve over a grid of window widths.

    ``source`` is an EventSet (empirical ratios, joint bootstrap errors) or a
    TemporalCovariance (exact ratios, monotone non-increasing in the width).
    The empirical ratio at width=inf equals 1 by construction: numerator and
    denominator are the same estimator on the same events.  Both paths raise
    ValueError for a width that is not positive or a center that is not
    finite.
    """
    grid = _as_grid(widths, 3, "widths")
    if isinstance(source, TemporalCovariance):
        cov = source if herald_on == 2 else source.swapped()
        full = cov.tau1
        ratios = np.array([conditional_moments(cov, center, w)[1] / full
                           for w in grid])
        return NarrowingCurve(widths=grid, ratios=ratios, std_errors=None,
                              asymptote=narrowing_ratio_limit(cov))
    if not isinstance(source, EventSet):
        raise TypeError(f"source must be an EventSet or TemporalCovariance, "
                        f"got {type(source).__name__}")

    for w in grid:
        _window(center, w)  # the model path's rule, before any counting
    t1, t2 = _channels(source, herald_on)
    # The windows share one center, so they are nested: shell j holds the
    # events of window j but of no narrower one.  Moments are prefix sums,
    # taken about the narrowest window's mean so that they do not cancel.
    halves = np.unique(0.5 * grid)
    shell = np.searchsorted(halves, np.abs(t2 - center))
    at = np.searchsorted(halves, 0.5 * grid)
    counts = np.cumsum(np.bincount(shell, minlength=halves.size + 1))
    for w, n_sel in zip(grid, counts[at]):
        if n_sel < MIN_EVENTS:
            raise TooFewEventsError(
                f"window width {w!r} selects {n_sel} events; need at least "
                f"{MIN_EVENTS}")
    x = t1 - np.mean(t1[shell == 0])
    x2 = x * x

    def ratios_of(weight):
        """Width ratios of the sample that holds event i weight[i] times."""
        weight = weight.astype(float)  # cast once, not in every product
        m, s1, s2 = (np.cumsum(np.bincount(shell, v, halves.size + 1))
                     for v in (weight, weight * x, weight * x2))
        with np.errstate(divide="ignore", invalid="ignore"):
            var = np.maximum(s2 - s1 * s1 / m, 0.0) / (m - 1)
        var[m < 2] = np.nan  # as np.std(ddof=1) of fewer than two events
        return np.sqrt(var[at] / var[-1])

    ratios = ratios_of(np.ones(t1.size))
    errs = bootstrap_std(
        np.random.default_rng(seed), t1.size, n_boot,
        lambda idx: ratios_of(np.bincount(idx, minlength=t1.size)))
    r_hat = np.clip(np.corrcoef(t1, t2)[0, 1], -0.999999, 0.999999)
    return NarrowingCurve(widths=grid, ratios=ratios, std_errors=errs,
                          asymptote=math.sqrt(1.0 - r_hat ** 2))


def centroid_curve(source, width: float, centers, herald_on: int = 2,
                   n_boot: int = 200, seed: int = 0) -> CentroidCurve:
    """Heralded mean arrival time over a grid of window centers.

    For small windows the curve is linear with slope rho_t * tau1 / tau2; at
    finite widths the exact conditional mean is reported without any
    linearity assumption.  Both paths raise ValueError for a width that is
    not positive or a center that is not finite.
    """
    grid = _as_grid(centers, 3, "centers")
    if isinstance(source, TemporalCovariance):
        cov = source if herald_on == 2 else source.swapped()
        means = np.array([conditional_moments(cov, c, width)[0] for c in grid])
        return CentroidCurve(centers=grid, means=means, std_errors=None)
    if not isinstance(source, EventSet):
        raise TypeError(f"source must be an EventSet or TemporalCovariance, "
                        f"got {type(source).__name__}")

    for c in grid:
        _window(c, width)  # the model path's rule, before any counting
    t1, t2 = _channels(source, herald_on)
    rng = np.random.default_rng(seed)
    means, errs = np.array([
        _estimate(t1[np.abs(t2 - c) <= 0.5 * width], np.mean, rng, n_boot,
                  f"window center {c!r}") for c in grid]).T
    return CentroidCurve(centers=grid, means=means, std_errors=errs)
