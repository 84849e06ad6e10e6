"""Parameter types and conversions between source-level and observable-level views.

All quantities are SI: seconds, meters, s^2/m for the dispersion coefficient
and 1/s for spectral widths.  Human-friendly units (ps, km, GHz, ...) are
handled at the I/O boundary only, see :mod:`heraldtime.dataio`.

Two equivalent descriptions of the photon-pair source are supported:

* ``SourceParams``    -- effective phase-matching width ``sigma`` plus pump
  pulse duration ``tau_p`` (the experimental knobs);
* ``SourceParamsRho`` -- single-photon spectral width ``sigma0`` plus the
  spectral correlation coefficient ``rho``.

``to_rho_form`` / ``from_rho_form`` convert between them.  The decorrelated
source (``rho = 0``) sits exactly on the locus ``sigma * tau_p = 2``.

A continuous-wave pump is a genuine limit of the model (pulse duration going
to infinity) and is represented by an explicit flag instead of an infinite
``tau_p`` so that downstream code can dispatch on it without floating-point
infinity tricks.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "HeraldtimeError",
    "CWPumpError",
    "SourceParams",
    "SourceParamsRho",
    "LinkParams",
    "TemporalCovariance",
    "to_rho_form",
    "from_rho_form",
]


class HeraldtimeError(Exception):
    """Base class for errors raised by this package."""


class CWPumpError(HeraldtimeError):
    """Raised when an operation is undefined for a continuous-wave pump."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


def _show(x) -> str:
    """``x`` as rule messages print it, the same on NumPy 1 and 2: a float,
    float64 included, by ``repr(float(x))``, any other NumPy scalar as
    ``np.<type>(<item>)`` and anything else by its repr."""
    if isinstance(x, np.generic) and not isinstance(x, float):
        return f"np.{type(x).__name__.rstrip('_')}({x.item()!r})"
    return repr(float(x) if isinstance(x, float) else x)


def _is_real(x) -> bool:
    """An int or a float (NumPy's float64 is one), never a bool, and finite
    as a float: an int past the float range is refused, not overflowed.
    NumPy integers are refused: the closed forms would square them in int64."""
    return (isinstance(x, (int, float)) and not isinstance(x, bool)
            and abs(x) <= sys.float_info.max)


def _real(x, name: str, rule: str = "be finite", inside=lambda v: True) -> None:
    _require(_is_real(x) and inside(x), f"{name} must {rule}, got {_show(x)}")


def _finite_positive(x, name: str) -> None:
    _real(x, name, "be a finite positive number", lambda v: v > 0)


def _correlation(x, name: str) -> None:
    _real(x, name, "lie strictly inside (-1, 1)", lambda v: -1.0 < v < 1.0)


def _count(n, name: str, rule: str, least: int, most=math.inf) -> None:
    """A count is a Python or NumPy integer, never a bool, in [least, most]."""
    _require(isinstance(n, numbers.Integral) and not isinstance(n, bool)
             and least <= n <= most, f"{name} must {rule}, got {_show(n)}")


def _window(center, width) -> tuple[float, float]:
    """Bounds center -/+ width/2 of a real width above 0, or a float inf for
    every event, and a real center."""
    if not (isinstance(width, float) and width == math.inf):
        _real(width, "window width", "be positive", lambda v: v > 0)
    _real(center, "window center")
    return center - 0.5 * width, center + 0.5 * width


# Each grid's rule: the grids it names, the rule, the fewest values, and
# whether each value must be finite and positive (a curve's are windows).
_CURVE = ("be a 1-D grid of at least 3 numbers", 3, False)
_AXES = ("tau_p_grid and sigma_grid", "be non-empty 1-D arrays of numbers",
         1, True)
_GRID_RULES = {"widths": ("widths", *_CURVE), "centers": ("centers", *_CURVE),
               "tau_p_grid": _AXES, "sigma_grid": _AXES}


def _grid(values, name: str) -> np.ndarray:
    """``values`` read through np.asarray as the float grid ``name``: an
    integer or float array that keeps its rule in ``_GRID_RULES``."""
    subject, rule, least, positive = _GRID_RULES[name]
    grid = np.asarray(values)
    _require(grid.dtype.kind in "iuf" and grid.ndim == 1 and grid.size >= least,
             f"{subject} must {rule}, got {name} = a {grid.shape} array of "
             f"{grid.dtype}")
    grid = grid.astype(float, copy=False)
    bad = np.flatnonzero(~(np.isfinite(grid) & (grid > 0))) if positive else []
    if len(bad):
        raise ValueError(f"grid values must be finite and positive, got "
                         f"{name}[{bad[0]}] = {_show(grid[bad[0]])}")
    return grid


@dataclass(frozen=True)
class SourceParams:
    """Photon-pair source described by crystal and pump-pulse settings.

    sigma:  effective phase-matching width, 1/s.  The convention is "formula
            units": a value quoted as N GHz enters as N*1e9 1/s (whether the
            published convention was Hz or rad/s is not fixed by the model;
            every formula here is consistent under this single reading).
    tau_p:  pump pulse duration, s.  ``None`` if and only if ``cw`` is set.
    cw:     continuous-wave pump flag.  Analytic operations evaluate the
            infinite-pulse-duration limit for such a source; quantities that
            diverge in that limit raise :class:`CWPumpError`.
    """

    sigma: float
    tau_p: float | None = None
    cw: bool = False

    def __post_init__(self):
        _finite_positive(self.sigma, "sigma")
        if self.cw:
            _require(self.tau_p is None,
                     "a CW source must not carry a pulse duration; got "
                     f"tau_p={self.tau_p!r}")
        else:
            _require(self.tau_p is not None, "tau_p is required unless cw=True")
            _finite_positive(self.tau_p, "tau_p")

    @classmethod
    def cw_pump(cls, sigma: float) -> "SourceParams":
        """Source driven by a continuous-wave pump."""
        return cls(sigma=sigma, tau_p=None, cw=True)


@dataclass(frozen=True)
class SourceParamsRho:
    """Source described by single-photon spectral width and spectral correlation.

    sigma0: spectral width of each emitted photon, 1/s.
    rho:    spectral correlation coefficient, strictly inside (-1, 1).
    """

    sigma0: float
    rho: float

    def __post_init__(self):
        _finite_positive(self.sigma0, "sigma0")
        _correlation(self.rho, "rho")


@dataclass(frozen=True)
class LinkParams:
    """A pair of identical fiber arms.

    beta:   group-velocity-dispersion coefficient, s^2/m, sign preserved.
            Beware the factor-of-two trap: data sheets sometimes quote the
            combined value 2*beta; configs accept a ``two_beta`` key for that.
    length: fiber length per arm, m.
    """

    beta: float
    length: float

    def __post_init__(self):
        _real(self.beta, "beta")
        _real(self.length, "length", "be finite and >= 0", lambda v: v >= 0)

    @property
    def abs_beta_length(self) -> float:
        """|beta| * L, the dispersion scale of the link in s^2."""
        return abs(self.beta) * self.length


@dataclass(frozen=True)
class TemporalCovariance:
    """Joint Gaussian statistics of the two arrival times.

    rho_t:      temporal correlation coefficient, strictly inside (-1, 1).
    tau1, tau2: standard deviations of the two arrival times, s.
    mu1, mu2:   centroid offsets, s.

    The sign convention is plain: positive ``rho_t`` means positive
    covariance of (t1, t2).
    """

    rho_t: float
    tau1: float
    tau2: float
    mu1: float = 0.0
    mu2: float = 0.0

    def __post_init__(self):
        _correlation(self.rho_t, "rho_t")
        _finite_positive(self.tau1, "tau1")
        _finite_positive(self.tau2, "tau2")
        _real(self.mu1, "mu1")
        _real(self.mu2, "mu2")

    def swapped(self) -> "TemporalCovariance":
        """Statistics with the roles of the two photons exchanged."""
        return replace(self, tau1=self.tau2, tau2=self.tau1,
                       mu1=self.mu2, mu2=self.mu1)


def to_rho_form(p: SourceParams) -> SourceParamsRho:
    """Convert crystal/pump settings to the spectral-correlation description.

    Inverts the forward map of :func:`from_rho_form`:

        rho    = (4 - sigma^2 tau_p^2) / (4 + sigma^2 tau_p^2)
        sigma0 = sigma / (2 sqrt(1 - rho))

    The decorrelation locus sigma*tau_p = 2 maps to rho = 0 exactly.  A CW
    pump corresponds to the boundary rho -> -1 and is therefore not
    representable; it is rejected.

    Precision note: with g = (sigma tau_p / 2)^2, 1 - rho = 2g/(1+g) and
    1 + rho = 2/(1+g).  Whichever of the two is below one has a small
    relative error, so rho computed from it is within about half a unit in
    the last place (``(1-g)/(1+g)`` is off by up to three), and
    sigma0 = sqrt(1+g) / (sqrt(2) tau_p) is evaluated from sigma*tau_p
    directly instead of from the rounded correlation.  The stored rho still
    resolves 1 -+ rho only down to the floating-point spacing around one, so
    extreme products sigma*tau_p far outside [1e-2, 1e2] round-trip at
    reduced precision; the (sigma, tau_p) description has no such limit.
    """
    if p.cw:
        raise CWPumpError(
            "a CW pump corresponds to the boundary rho -> -1 and has no "
            "valid spectral-correlation representation")
    g = (0.5 * p.sigma * p.tau_p) ** 2
    rho = 1.0 - 2.0 * g / (1.0 + g) if g < 1.0 else 2.0 / (1.0 + g) - 1.0
    sigma0 = math.sqrt(1.0 + g) / (math.sqrt(2.0) * p.tau_p)
    return SourceParamsRho(sigma0=sigma0, rho=rho)


def from_rho_form(p: SourceParamsRho) -> SourceParams:
    """Convert the spectral-correlation description to crystal/pump settings.

        tau_p = 1 / (sigma0 sqrt(1 + rho))
        sigma = 2 sigma0 sqrt(1 - rho)
    """
    tau_p = 1.0 / (p.sigma0 * math.sqrt(1.0 + p.rho))
    sigma = 2.0 * p.sigma0 * math.sqrt(1.0 - p.rho)
    return SourceParams(sigma=sigma, tau_p=tau_p)
