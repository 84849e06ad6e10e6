"""Heralded (windowed conditional) analysis of event data and of the model.

Selecting coincidences whose heralding photon arrived inside a window
[center - width/2, center + width/2] narrows the partner photon's arrival
time distribution.  This module provides the selection itself, the heralded
width with its error bar, and the two standard curves:

* narrowing ratio (heralded width / unconditional width) versus window width,
  which flattens to sqrt(1 - rho_t^2) for small windows;
* heralded mean arrival time versus window center, whose small-window slope
  is rho_t * tau1 / tau2.

Every curve function accepts either an :class:`~heraldtime.sampler.EventSet`
(empirical path, with error bars) or a
:class:`~heraldtime.params.TemporalCovariance` (analytic path, the exact
window moments of ``analytic.conditional_moments``, re-exported here).
Statistics are always computed on raw counts; any display scaling is left to
presentation code.  Every empirical window is the closed interval
``lo <= t <= hi`` of ``params._window``, the model paths' window rule,
and every curve grid is read by ``params._grid``.

Error bars.  Each error is the closed-form delta-method standard error of
its statistic, the square root of the summed squared empirical influence
function (Efron & Tibshirani, *An Introduction to the Bootstrap*, 1993,
ch. 21), taken in one pass without resampling:

* heralded width, a sample SD over the window's m events:
  ``sqrt((m4 - v**2) / (4 v m))`` with v, m4 the window's central moments;
* centroid point: ``sd / sqrt(m)`` with sd the ``ddof=1`` SD;
* narrowing ratio R = s_W / s: ``R * sqrt(sum_i IF_i**2) / n`` over all n
  events, with ``IF_i = (1_W(i) ((x_i - mu_W)**2 - v_W) / (p_W v_W)
  - ((x_i - mu)**2 - v) / v) / 2`` and p_W = m_W / n.  The sum expands into
  power sums of x up to degree 4 over the nested shells of the curve.  A
  width that holds every event has error exactly 0.

``heralded_width``, ``narrowing_curve`` and ``centroid_curve`` keep an
``n_boot`` keyword that takes only 0, its default, and raise ValueError for
any other value: the number of resamples is 0 because none are drawn.  The
keyword stays so that callers that pass or bind it by name keep working.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .analytic import conditional_moments, narrowing_ratio_limit
from .fitting import _check_varies
from .params import HeraldtimeError, TemporalCovariance, _count, _grid, _window
from .sampler import EventSet

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
        _window(self.center, self.width)
        _check_herald_on(self.herald_on)

    @property
    def bounds(self) -> tuple[float, float]:
        return _window(self.center, self.width)


def _check_herald_on(herald_on: int) -> None:
    _count(herald_on, "herald_on", "be 1 or 2", 1, 2)


def _oriented(source, herald_on: int):
    """The source as heralded on channel 2: a TemporalCovariance, swapped
    when channel 1 heralds, or an EventSet's (analyzed, heralding) channel
    columns, as views.  ValueError unless ``herald_on`` is 1 or 2, TypeError
    for any other source."""
    _check_herald_on(herald_on)
    if isinstance(source, TemporalCovariance):
        return source if herald_on == 2 else source.swapped()
    if isinstance(source, EventSet):
        return ((source.t1, source.t2) if herald_on == 2
                else (source.t2, source.t1))
    raise TypeError(f"source must be an EventSet or TemporalCovariance, "
                    f"got {type(source).__name__}")


def _check_n_boot(n_boot) -> None:
    """ValueError unless ``n_boot`` is 0: the errors are closed forms, which
    draw no resamples and never import ``numpy.random``."""
    _count(n_boot, "the number of resamples",
           "be 0: the heralded errors are closed forms", 0, 0)


def _estimate(x: np.ndarray, statistic, closed_form,
              window: str) -> tuple[float, float]:
    """``statistic(x)`` and its error ``closed_form(x)`` over the selected
    events ``x``.

    Raises :class:`TooFewEventsError`, naming ``window``, below
    ``MIN_EVENTS`` events.
    """
    if x.size < MIN_EVENTS:
        raise TooFewEventsError(f"{window} selects {x.size} events; need at "
                                f"least {MIN_EVENTS}")
    return statistic(x), closed_form(x)


def _sd_error(x: np.ndarray) -> float:
    """Delta-method standard error of the sample SD of ``x``."""
    d = x - np.mean(x)
    d *= d
    v = np.mean(d)
    if v == 0.0:  # identical values: SD 0, and error 0 rather than 0/0
        return 0.0
    d *= d
    return math.sqrt(max(np.mean(d) - v * v, 0.0) / (4.0 * v * x.size))


def _mean_error(x: np.ndarray) -> float:
    return np.std(x, ddof=1) / math.sqrt(x.size)


def _in_window(t: np.ndarray, center: float, width: float) -> np.ndarray:
    """Mask of the closed window ``lo <= t <= hi`` of ``_window``."""
    lo, hi = _window(center, width)
    mask = t >= lo
    mask &= t <= hi
    return mask


def select(events: EventSet, w: HeraldWindow) -> EventSet:
    """Events whose heralding coordinate lies inside the closed window.

    The returned set keeps the original channel order; the applied cut is
    recorded in the metadata.  An empty selection is flagged there, not
    raised.
    """
    heralding = _oriented(events, w.herald_on)[1]
    # each event as one complex, so that the mask takes whole rows without
    # the index array that masking a 2-D array builds
    rows = events.events.view(np.complex128)[:, 0]
    rows = rows[_in_window(heralding, w.center, w.width)]
    out = EventSet._adopt(rows.view(float).reshape(-1, 2), events.metadata)
    out.metadata["selection"] = {
        **asdict(w),
        "selected": out.count,
        "total": events.count,
        "empty": out.count == 0,
    }
    return out


def heralded_width(events: EventSet, w: HeraldWindow,
                   n_boot: int = 0) -> tuple[float, float]:
    """Width of the heralded coordinate within the window, with its error.

    Returns (width, std_error) in seconds: the sample standard deviation
    (for which the narrowing limit is exact) and its error,
    ``sqrt((m4 - v**2) / (4 v m))`` from the window's central moments.
    Raises ValueError for an ``n_boot`` other than 0 and
    :class:`TooFewEventsError` below 30 selected events.
    """
    _check_n_boot(n_boot)
    analyzed, heralding = _oriented(events, w.herald_on)
    width, err = _estimate(
        analyzed[_in_window(heralding, w.center, w.width)],
        lambda x: np.std(x, ddof=1), _sd_error,
        f"window (center={float(w.center)!r}, width={float(w.width)!r})")
    return float(width), float(err)


# --------------------------------------------------------------------------
# Curves
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class NarrowingCurve:
    """Heralded-to-unconditional width ratio versus window width.

    widths:     window widths, s.
    ratios:     heralded width / unconditional width (sampling noise may push
                empirical values slightly above 1).
    std_errors: delta-method standard errors per point (see the module
                docstring); None on the analytic path.
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

    centers, means in s; std_errors per point, ``sd / sqrt(m)`` of each
    window's m events; None on the analytic path.
    """

    centers: np.ndarray
    means: np.ndarray
    std_errors: np.ndarray | None

    def slope(self) -> float:
        """Least-squares slope of means versus centers."""
        return float(np.polyfit(self.centers, self.means, 1)[0])


def _shell_sums(shell: np.ndarray, counts: np.ndarray,
                x: np.ndarray) -> np.ndarray:
    """Sums of x**0 ... x**4 per shell, one row per degree; ``counts`` is
    the bincount of ``shell``."""
    sums = [counts.astype(float)]
    power = x.copy()
    for k in range(1, 5):
        if k > 1:
            power *= x
        sums.append(np.bincount(shell, power, counts.size))
    return np.array(sums)


def _width_ratios(m, s1, s2, at) -> np.ndarray:
    """Width ratios of windows ``at`` to the last from prefix sums, over
    windows of at least ``MIN_EVENTS`` events of a channel that varies."""
    var = np.maximum(s2 - s1 * s1 / m, 0.0) / (m - 1)
    return np.sqrt(var[at] / var[-1])


def _ratio_errors(sums: np.ndarray, inner: np.ndarray, ratios: np.ndarray,
                  at: np.ndarray) -> np.ndarray:
    """Delta-method errors of the width ratios of windows ``at``.

    ``sums`` holds the power sums of degree 0-4 per shell and ``inner``
    their prefix sums, the sums over each window.  The summed squared
    influence function splits into the events inside window W, where it is
    the quadratic ``(alpha d**2 + beta d + gamma) / 2`` in ``d = x - mu_W``
    (so their sum takes W's central moments), and the events outside, where
    it is ``-((x - mu)**2 - v) / (2 v)``.  The coefficients
    come from the outside sums without subtracting near-equal numbers, so a
    window holding nearly every event loses no digits, and one holding every
    event has error 0.
    """
    outer = np.zeros_like(sums)
    outer[:, :-1] = np.cumsum(sums[:, :0:-1], axis=1)[:, ::-1]
    m, n = inner[0], inner[0, -1]
    mu_w, r2, r3, r4 = inner[1:] / m
    v_w = np.maximum(inner[2] - inner[1] * inner[1] / m, 0.0) / m
    m3_w = r3 - mu_w * (3.0 * r2 - 2.0 * mu_w * mu_w)
    m4_w = r4 - mu_w * (4.0 * r3 - mu_w * (6.0 * r2 - 3.0 * mu_w * mu_w))
    mu, v = mu_w[-1], v_w[-1]
    o0, o1, o2, o3, o4 = outer
    out2 = o2 - mu * (2.0 * o1 - mu * o0)  # sum of (x - mu)**2 outside
    out4 = o4 - mu * (4.0 * o3 - mu * (6.0 * o2 - mu * (4.0 * o1 - mu * o0)))
    delta = (o0 * mu_w - o1) / n  # mu_W - mu
    with np.errstate(divide="ignore", invalid="ignore"):
        alpha = (out2 + m * delta * delta) / (m * v_w * v)
        beta = -2.0 * delta / v
        gamma = -o0 / m - delta * delta / v
        inside = m * (alpha * alpha * m4_w + 2.0 * alpha * beta * m3_w
                      + (beta * beta + 2.0 * alpha * gamma) * v_w
                      + gamma * gamma)
        sum_sq = 0.25 * (inside + (out4 - v * (2.0 * out2 - v * o0)) / (v * v))
        errs = ratios * np.sqrt(np.maximum(sum_sq[at], 0.0)) / n
    # a window of identical times has width 0, and so does its error
    return np.where(v_w[at] > 0.0, errs, 0.0)


def narrowing_curve(source, center: float, widths, herald_on: int = 2,
                    n_boot: int = 0) -> NarrowingCurve:
    """Narrowing-ratio curve over a grid of window widths.

    ``source`` is an EventSet (empirical ratios with delta-method errors) or
    a TemporalCovariance (exact ratios, monotone non-increasing in the
    width).  The empirical ratio at width=inf equals 1 by construction:
    numerator and denominator are the same estimator on the same events; so
    does its error, 0, at any width that holds every event.  Both paths
    raise ValueError for widths that are not a 1-D array of at least 3
    integer or float values, a window the window rule refuses (a width
    that is not an int or a float above 0, a center that is not a finite
    one), a ``herald_on`` other than 1 or 2 or an ``n_boot`` other than 0.
    The empirical path raises :class:`~heraldtime.fitting.DegenerateDataError`
    where either channel holds one value, as ``fit`` does.
    """
    _check_n_boot(n_boot)
    grid, oriented = _grid(widths, "widths"), _oriented(source, herald_on)
    if isinstance(oriented, TemporalCovariance):
        full = oriented.tau1
        ratios = np.array([conditional_moments(oriented, center, w)[1] / full
                           for w in grid])
        return NarrowingCurve(widths=grid, ratios=ratios, std_errors=None,
                              asymptote=narrowing_ratio_limit(oriented))

    # the distinct widths in order, as np.unique finds them (np.unique
    # itself would import numpy.ma), then the model path's rule, before
    # any counting
    unique = np.sort(grid)
    unique = unique[np.concatenate(([True], unique[1:] != unique[:-1]))]
    lo, hi = np.array([_window(center, w) for w in unique]).T
    t1, t2 = oriented
    # The windows share one center, so they are nested: lo falls and hi
    # rises with the width.  Shell j holds the events of the j-th narrowest
    # window but of no narrower one, the first window with lo <= t2 <= hi;
    # the last shell holds the events outside every window.  Moments are
    # prefix sums over the shells, taken about the narrowest window's mean
    # so that they do not cancel.
    shell = np.searchsorted(hi, t2)
    np.maximum(shell, unique.size - np.searchsorted(lo[::-1], t2, "right"),
               out=shell)
    at = np.searchsorted(unique, grid)
    counts = np.bincount(shell, minlength=unique.size + 1)
    for w, n_sel in zip(grid, np.cumsum(counts)[at]):
        if n_sel < MIN_EVENTS:
            raise TooFewEventsError(
                f"window width {float(w)!r} selects {n_sel} events; need at "
                f"least {MIN_EVENTS}")
    for t in oriented:  # the ratios and the asymptote divide by each spread
        _check_varies(t)
    x = t1 - np.mean(t1[shell == 0])
    sums = _shell_sums(shell, counts, x)
    inner = np.cumsum(sums, axis=1)
    ratios = _width_ratios(*inner[:3], at)
    errs = _ratio_errors(sums, inner, ratios, at)
    # rho_t from centred column sums: x is done with, and np.corrcoef would
    # copy both columns
    x -= x.mean()
    y = t2 - t2.mean()
    r_hat = np.clip((x @ y) / math.sqrt((x @ x) * (y @ y)),
                    -0.999999, 0.999999)
    return NarrowingCurve(widths=grid, ratios=ratios, std_errors=errs,
                          asymptote=math.sqrt(1.0 - r_hat ** 2))


def centroid_curve(source, width: float, centers, herald_on: int = 2,
                   n_boot: int = 0) -> CentroidCurve:
    """Heralded mean arrival time over a grid of window centers.

    For small windows the curve is linear with slope rho_t * tau1 / tau2; at
    finite widths the exact conditional mean is reported without any
    linearity assumption.  Empirical errors are ``sd / sqrt(m)``.  Both paths
    raise ValueError for centers that are not a 1-D array of at least 3
    integer or float values, a window the window rule refuses (a width
    that is not an int or a float above 0, a center that is not a finite
    one), a ``herald_on`` other than 1 or 2 or an ``n_boot`` other than 0.
    """
    _check_n_boot(n_boot)
    grid, oriented = _grid(centers, "centers"), _oriented(source, herald_on)
    if isinstance(oriented, TemporalCovariance):
        means = np.array([conditional_moments(oriented, c, width)[0]
                          for c in grid])
        return CentroidCurve(centers=grid, means=means, std_errors=None)

    for c in grid:
        _window(c, width)  # the model path's rule, before any counting
    t1, t2 = oriented
    means, errs = np.array([
        _estimate(t1[_in_window(t2, c, width)], np.mean, _mean_error,
                  f"window center {float(c)!r}") for c in grid]).T
    return CentroidCurve(centers=grid, means=means, std_errors=errs)
