"""Closed-form temporal statistics of a photon pair after dispersive propagation.

The joint arrival-time distribution of the two photons is a normalized
bivariate Gaussian with correlation ``rho_t`` and standard deviations
``tau1``, ``tau2``.  Conditioning on the partner photon landing inside a
finite detection window narrows the remaining photon's wavepacket (its
density and exact moments share one window kernel); the narrowing ratio
approaches sqrt(1 - rho_t^2) as the window shrinks.

The observable-level parameters follow from the source and link settings:
with sigma the effective phase-matching width, tau_p the pump duration and
(beta, L) the per-arm dispersion coefficient and fiber length, equal arms
spread the arrival times by two variances, the crystal's a = Var(t1 - t2)/2
and the pump's b = Var(t1 + t2)/2, each widened by the dispersion:

    a = 2 / sigma^2 + (beta L sigma)^2 / 2,    tau1        = sqrt((a + b) / 2)
    b = tau_p^2 / 2 + 2 (beta L / tau_p)^2,    tau1h(0)    = sqrt(2 a b / (a + b))
    rho_t = (b - a) / (b + a),                 tau1h_dt(0) = sqrt(2 a)

so 1 - rho_t = 2 a / (a + b) and 1 + rho_t = 2 b / (a + b) carry no
cancellation.  Unequal arms add one cross term, Cov(t1 - t2, t1 + t2).

``tau1`` is the unconditional width, ``tau1h(0)`` the heralded width when the
partner's arrival time is known exactly, and ``tau1h_dt(0)`` the heralded
width when the pair emission time is unknown (only the partner's arrival time
is available).  The last one does not depend on the pump at all.

Both tau1 and tau1h(0) are minimized at tau_p = sqrt(2 |beta| L); freeing the
crystal as well, the absolute minima sit at sigma = sqrt(2 / (|beta| L)) where
the two minima coincide at sqrt(2 |beta| L) and the pair is spectrally
decorrelated.

Note on normalization: the density here integrates to one (standard bivariate
normal prefactor 1 / (2 pi tau1 tau2 sqrt(1 - rho_t^2))); amplitude scaling is
left to the fitting layer where it is a free parameter anyway.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .params import (
    CWPumpError,
    HeraldtimeError,
    LinkParams,
    SourceParams,
    TemporalCovariance,
    _finite_positive,
    _grid,
    _real,
    _window,
)

__all__ = [
    "WidthDivergesError",
    "NoDispersionError",
    "OptimumReport",
    "joint_density",
    "conditional_density",
    "conditional_limit_density",
    "conditional_moments",
    "narrowing_ratio_limit",
    "tau1",
    "tau1h_0",
    "tau1h_dt_0",
    "rho_t_of",
    "temporal_covariance",
    "optimum",
    "landscape",
]


class WidthDivergesError(CWPumpError):
    """The requested temporal width is infinite for a CW pump."""


class NoDispersionError(HeraldtimeError):
    """Optimization over the pump is degenerate when the link has no dispersion."""


# --------------------------------------------------------------------------
# Densities
# --------------------------------------------------------------------------

def joint_density(t1, t2, cov: TemporalCovariance):
    """Normalized joint probability density of the two arrival times, 1/s^2.

    Accepts scalars or broadcastable arrays for ``t1`` and ``t2``.
    """
    x = (np.asarray(t1, dtype=float) - cov.mu1) / cov.tau1
    y = (np.asarray(t2, dtype=float) - cov.mu2) / cov.tau2
    r = cov.rho_t
    one_m_r2 = 1.0 - r * r
    norm = 1.0 / (2.0 * math.pi * cov.tau1 * cov.tau2 * math.sqrt(one_m_r2))
    q = (x * x + y * y - 2.0 * r * x * y) / one_m_r2
    return norm * np.exp(-0.5 * q)


_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_SQRT2 = math.sqrt(2.0)


def _tail_window(a: float, b: float):
    """The standard-normal window [a, b] as (a, b, sign, mass, pdf(a), pdf(b)).

    A window above the mean is reflected below it (sign -1), where ``erfc``
    keeps both tail masses' relative precision, so that their difference
    does not cancel.  Each pdf is taken at the rounded a/sqrt(2) of its cdf,
    so that density-to-mass ratios carry no argument rounding of their own.
    """
    sign = 1.0
    if a > 0.0:
        a, b, sign = -b, -a, -1.0
    za, zb = a / _SQRT2, b / _SQRT2
    return (a, b, sign, 0.5 * math.erfc(-zb) - 0.5 * math.erfc(-za),
            _INV_SQRT_2PI * math.exp(-za * za), _INV_SQRT_2PI * math.exp(-zb * zb))


# The window mass elementwise over arrays (NumPy has no erfc of its own).
_normal_mass = np.frompyfunc(lambda a, b: _tail_window(a, b)[3], 2, 1)


def _standard_window(mu: float, sd: float, lo: float, hi: float):
    """The window [lo, hi] of N(mu, sd^2) in sd, as :func:`_tail_window`;
    ValueError where its mass is subnormal (past ~37.5 sd) and lacks the
    precision that the closed forms' ratios need."""
    terms = _tail_window((lo - mu) / sd, (hi - mu) / sd)
    if terms[3] < sys.float_info.min:
        raise ValueError(f"window [{float(lo)!r}, {float(hi)!r}] carries no "
                         "probability mass: it lies too far in the tail")
    return terms


def conditional_density(t1, center: float, width: float, cov: TemporalCovariance):
    """Arrival-time density of photon one given photon two landed in a window.

    The window is the closed interval [center - width/2, center + width/2] on
    the partner's arrival time; ``width=inf`` selects everything and returns
    the plain tau1 marginal.  Defined as the ratio of the joint density
    integrated over the window to the total mass in the window; the t2
    integral has the closed form

        pdf(t1; tau1) * [Phi((b - m)/s) - Phi((a - m)/s)]

    with m = rho_t (tau2/tau1) (t1 - mu1) + mu2 and s = tau2 sqrt(1 - rho_t^2).
    Both normal masses are taken with windows reflected to the lower tail,
    so windows far out in either tail keep their relative precision.

    Raises ValueError for a degenerate window (width <= 0), a center that is
    not finite, and a window so deep in the tail that its mass is subnormal.
    """
    lo, hi = _window(center, width)
    x1 = np.asarray(t1, dtype=float) - cov.mu1
    marginal = np.exp(-0.5 * (x1 / cov.tau1) ** 2) / (math.sqrt(2.0 * math.pi) * cov.tau1)
    if math.isinf(width):
        return marginal

    r = cov.rho_t
    a, b = lo - cov.mu2, hi - cov.mu2
    m = r * (cov.tau2 / cov.tau1) * x1
    s = cov.tau2 * math.sqrt(1.0 - r * r)
    window_factor = np.asarray(_normal_mass((a - m) / s, (b - m) / s), dtype=float)
    mass = _standard_window(cov.mu2, cov.tau2, lo, hi)[3]
    return marginal * window_factor / mass


def conditional_limit_density(t1, center: float, cov: TemporalCovariance):
    """Zero-window limit of :func:`conditional_density`.

    A Gaussian with mean mu1 + rho_t (tau1/tau2) (center - mu2) and standard
    deviation tau1 sqrt(1 - rho_t^2).  Raises ValueError for a center the
    window rule refuses: one that is not a finite int or float.
    """
    _real(center, "window center")
    mean = cov.mu1 + cov.rho_t * (cov.tau1 / cov.tau2) * (center - cov.mu2)
    std = cov.tau1 * math.sqrt(1.0 - cov.rho_t ** 2)
    x = (np.asarray(t1, dtype=float) - mean) / std
    return np.exp(-0.5 * x * x) / (math.sqrt(2.0 * math.pi) * std)


def narrowing_ratio_limit(cov: TemporalCovariance) -> float:
    """Limiting ratio of heralded to unconditional width: sqrt(1 - rho_t^2)."""
    return math.sqrt(1.0 - cov.rho_t ** 2)


# --------------------------------------------------------------------------
# Exact conditional moments
# --------------------------------------------------------------------------

# Windows narrower than this many sd take their moments by quadrature.
_NARROW = 0.1


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
    a, b, sign, mass, pa, pb = _standard_window(mu, sd, lo, hi)
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
# Widths from source and link settings
# --------------------------------------------------------------------------
# Element-wise on arrays, for landscape and the property tests.  Each variance
# is halved after its terms are summed, so that no halved term underflows.

def _a(sigma, beta_l):
    """Var(t1 - t2)/2: the crystal's spread, widened by the dispersion."""
    bls = beta_l * sigma
    return 0.5 * (4.0 / (sigma * sigma) + bls * bls)


def _b(tau_p, beta_l):
    """Var(t1 + t2)/2: the pump's spread, widened by the dispersion."""
    blt = beta_l / tau_p
    return 0.5 * (tau_p * tau_p + 4.0 * (blt * blt))


def _tau1(a, b):
    return np.sqrt(0.5 * (a + b))


def _tau1h_0(a, b):
    return np.sqrt(2.0 * a * (b / (a + b)))


def _rho_t(a, b):
    return (b - a) / (b + a)


def _settings(src: SourceParams, link: LinkParams) -> str:
    return (f"sigma={src.sigma!r} 1/s, tau_p={src.tau_p!r} s and "
            f"beta*L={link.beta * link.length!r} s^2")


def _in_float_range(what: str, src: SourceParams, link: LinkParams, kernel,
                    *args):
    """``kernel(*args)`` in float64 as a float, or a tuple of floats where
    the kernel returns a tuple, where every intermediate is a normal, finite
    number.  ValueError naming the settings where one overflows, or
    underflows and so loses digits."""
    try:
        with np.errstate(all="raise"):
            out = kernel(*map(np.float64, args))
    except FloatingPointError as exc:
        raise ValueError(f"{_settings(src, link)} take the closed form of "
                         f"{what} outside the float range ({exc})") from None
    return tuple(map(float, out)) if isinstance(out, tuple) else float(out)


def tau1(src: SourceParams, link: LinkParams) -> float:
    """Unconditional temporal width of one photon after the link, s.

    Diverges for a CW pump (the emission time is completely undetermined),
    which raises :class:`WidthDivergesError`.  Settings that take the
    closed form outside the float range raise ValueError.
    """
    if src.cw:
        raise WidthDivergesError(
            "the unconditional width diverges for a CW pump")
    return _in_float_range("tau1", src, link, _LANDSCAPE_KERNELS["tau1"],
                           src.sigma, src.tau_p, link.beta * link.length)


def tau1h_0(src: SourceParams, link: LinkParams) -> float:
    """Heralded width when the partner's arrival time is known exactly, s.

    Finite for a CW pump, where it coincides with :func:`tau1h_dt_0` (the
    pump carries no timing information in that limit).
    """
    if src.cw:
        return tau1h_dt_0(src, link)
    return _in_float_range("tau1h_0", src, link, _LANDSCAPE_KERNELS["tau1h_0"],
                           src.sigma, src.tau_p, link.beta * link.length)


def tau1h_dt_0(src: SourceParams, link: LinkParams) -> float:
    """Heralded width when the pair emission time is unknown, s.

    Independent of the pump settings: sqrt(2 a), with a = Var(t1 - t2)/2.
    """
    return _in_float_range("tau1h_dt_0", src, link,
                           lambda s, bl: np.sqrt(2.0 * _a(s, bl)), src.sigma,
                           link.beta * link.length)


def rho_t_of(src: SourceParams, link: LinkParams) -> float:
    """Temporal correlation coefficient of the two arrival times.

    Signed closed form with zeros exactly at tau_p = 2/sigma (spectrally
    decorrelated pairs) and tau_p = |beta| L sigma (dispersion has undone the
    temporal correlation); validated against a Monte-Carlo phase-space oracle
    in the test suite.  Returns the boundary value 1.0 for a CW pump, where
    the joint distribution degenerates (the common emission time dominates
    both arrivals).
    """
    if src.cw:
        return 1.0
    return _in_float_range("rho_t", src, link, lambda s, tp, bl: _rho_t(
        _a(s, bl), _b(tp, bl)), src.sigma, src.tau_p, link.beta * link.length)


def temporal_covariance(src: SourceParams, link: LinkParams) -> TemporalCovariance:
    """Observable-level statistics for a symmetric link (tau1 = tau2).

    Raises ValueError, naming the settings, where the statistics are not a
    valid covariance: where |rho_t| rounds to 1 (1 - |rho_t| below about
    1e-16), and where a closed form leaves the float range.
    """
    width, rho_t = tau1(src, link), rho_t_of(src, link)
    try:
        return TemporalCovariance(rho_t=rho_t, tau1=width, tau2=width)
    except ValueError as exc:
        raise ValueError(f"{_settings(src, link)} give no valid temporal "
                         f"covariance: {exc}") from exc


# --------------------------------------------------------------------------
# Optima
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class OptimumReport:
    """Pump (and optionally crystal) settings minimizing the temporal widths.

    tau_p_opt:    optimal pump duration sqrt(2 |beta| L), s.
    sigma_opt:    optimal phase-matching width sqrt(2 / (|beta| L)), 1/s;
                  None when the crystal was held fixed.
    rho_opt:      spectral correlation at the optimum pump,
                  (2 - |beta| L sigma^2) / (2 + |beta| L sigma^2).
    tau1_min:     minimum unconditional width at tau_p_opt, s.
    tau1h_min:    minimum heralded width at tau_p_opt, s.
    tau1_abs:     absolute minimum over (tau_p, sigma), s; None for fixed sigma.
    tau1h_dt_abs: emission-time-unknown width, s: the (pump-independent) value
                  at the fixed sigma, or its absolute minimum 2 sqrt(|beta| L).
    """

    tau_p_opt: float
    sigma_opt: float | None
    rho_opt: float
    tau1_min: float
    tau1h_min: float
    tau1_abs: float | None
    tau1h_dt_abs: float


def _fixed_sigma_optimum(s, bl):
    """rho_opt, tau1_min, tau1h_min and tau1h_dt_abs at the optimal pump for
    the crystal width ``s`` and the dispersion |beta| L ``bl``, where the
    pump's variance b is 2 |beta| L."""
    bls2 = bl * s * s
    a, b = _a(s, bl), 2.0 * bl
    return ((2.0 - bls2) / (2.0 + bls2), _tau1(a, b), _tau1h_0(a, b),
            np.sqrt(2.0 * a))


def optimum(link: LinkParams, sigma_fixed: float | None = None) -> OptimumReport:
    """Source settings minimizing the widths for a given link.

    With ``sigma_fixed`` the crystal is held fixed and only the pump duration
    is optimized; otherwise both knobs are free and the absolute minima are
    reported (the two minima coincide and the optimal pair is spectrally
    decorrelated).  Raises :class:`NoDispersionError` when beta*L == 0: the
    widths are then monotone in the pump duration and no optimum exists; and
    ValueError, naming the settings, where ``sigma_fixed`` takes the closed
    forms outside the float range.
    """
    bl = link.abs_beta_length
    if bl == 0.0:
        raise NoDispersionError(
            "link has no dispersion (beta * length == 0); pump optimization "
            "is degenerate")
    tau_p_opt = math.sqrt(2.0 * bl)
    if sigma_fixed is not None:
        _finite_positive(sigma_fixed, "sigma_fixed")
        rho_opt, tau1_min, tau1h_min, tau1h_dt = _in_float_range(
            "the fixed-sigma optimum", SourceParams(sigma_fixed, tau_p_opt),
            link, _fixed_sigma_optimum, sigma_fixed, bl)
        return OptimumReport(
            tau_p_opt=tau_p_opt,
            sigma_opt=None,
            rho_opt=rho_opt,
            tau1_min=tau1_min,
            tau1h_min=tau1h_min,
            tau1_abs=None,
            tau1h_dt_abs=tau1h_dt,
        )
    abs_min = math.sqrt(2.0 * bl)
    return OptimumReport(
        tau_p_opt=tau_p_opt,
        sigma_opt=math.sqrt(2.0 / bl),
        rho_opt=0.0,
        tau1_min=abs_min,
        tau1h_min=abs_min,
        tau1_abs=abs_min,
        tau1h_dt_abs=2.0 * math.sqrt(bl),
    )


_LANDSCAPE_KERNELS = {
    "tau1": lambda sig, tp, bl: _tau1(_a(sig, bl), _b(tp, bl)),
    "tau1h_0": lambda sig, tp, bl: _tau1h_0(_a(sig, bl), _b(tp, bl)),
    "tau1h_dt_0": lambda sig, tp, bl: np.broadcast_to(np.sqrt(
        2.0 * _a(sig, bl)), np.broadcast_shapes(np.shape(sig), np.shape(tp))).copy(),
}


def landscape(tau_p_grid, sigma_grid, link: LinkParams, which: str) -> np.ndarray:
    """Evaluate one width on a (tau_p, sigma) grid.

    Returns an array of shape (len(sigma_grid), len(tau_p_grid)); row i holds
    the width at sigma_grid[i] for every pump duration, so the
    emission-time-unknown width produces constant rows.  ``which`` is one of
    "tau1", "tau1h_0", "tau1h_dt_0".  Raises ValueError for an axis the
    grid rule refuses (not a non-empty 1-D array of integer or float
    values), for an axis value that is not finite and positive, and for a
    cell that takes the closed form outside the float range, naming the
    first of either.
    """
    try:
        kernel = _LANDSCAPE_KERNELS[which]
    except KeyError:
        raise ValueError(
            f"which must be one of {sorted(_LANDSCAPE_KERNELS)}, got {which!r}"
        ) from None
    tp, sig = _grid(tau_p_grid, "tau_p_grid"), _grid(sigma_grid, "sigma_grid")
    bl = link.beta * link.length
    try:
        with np.errstate(all="raise"):
            return kernel(sig[:, None], tp[None, :], bl)
    except FloatingPointError:
        # the first cell out of the float range, row by row, names itself
        for s, t in itertools.product(sig.tolist(), tp.tolist()):
            _in_float_range(which, SourceParams(s, t), link, kernel, s, t, bl)
        raise
