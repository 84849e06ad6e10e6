"""Recovery of the joint Gaussian parameters from coincidence events.

The default estimator bins the events into a 2-D histogram and least-squares
fits the bivariate-Gaussian-plus-flat-background shape using signed-root
Poisson deviance residuals per bin.  Weighting each residual by the observed
count's square root (the textbook shortcut) systematically shrinks the
fitted widths by O(1%) at realistic event counts, several reported standard
errors, because downward count fluctuations get the larger weights; the
deviance residuals keep the trust-region least-squares machinery but are
exact Poisson statistics, and recover widths without measurable bias.  An
event-wise maximum-likelihood estimator for the Gaussian-plus-uniform
mixture is available as the higher-fidelity alternative; on clean synthetic
data the two agree within their mutual uncertainties.

Implementation notes, all of which matter for robustness:

* events are standardized internally (centered on the sample means, scaled by
  the sample standard deviations), which makes the fit invariant under common
  time translations and well conditioned regardless of the absolute scale;
* parameters are transformed so every iterate stays in-domain: atanh for the
  correlation, log for the widths and the amplitude;
* the default histogram range is the 0.5-99.5 percentile box, robust against
  background tails;
* uncertainties come from the inverse curvature at the optimum (a bootstrap
  cross-check is provided separately);
* no jitter deconvolution: fitting jittered data returns the jitter-broadened
  widths.  If the jitter j of a channel is known, the bare width is the
  post-processing formula sqrt(tau_fit^2 - j^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit, xlogy

from .params import HeraldtimeError, TemporalCovariance
from .sampler import EventSet, bootstrap_rows

__all__ = [
    "DegenerateDataError",
    "FitConfig",
    "FitResult",
    "initial_guess",
    "fit",
    "bootstrap_errors",
]

PARAM_NAMES = ("rho_t", "tau1", "tau2", "mu1", "mu2", "amplitude", "background")

_RHO_CLAMP = 0.999
_DEGENERATE_BACKGROUND = 0.9


class DegenerateDataError(HeraldtimeError):
    """Raised when the events carry no usable variance."""


@dataclass(frozen=True)
class FitConfig:
    """Settings for :func:`fit`.

    bins1, bins2:    histogram bin counts (>= 8 each).
    range_policy:    "percentile" (default) uses the percentile box below;
                     "explicit" uses ``box``.
    percentiles:     (lo, hi) percentiles of each coordinate for the
                     histogram range.
    box:             ((t1_lo, t1_hi), (t2_lo, t2_hi)) in s, for "explicit".
    loss:            "hist-ls" (histogram least squares, default) or "ml"
                     (event-wise maximum likelihood on the Gaussian-plus-
                     uniform mixture).
    max_iterations:  cap on optimizer iterations / function evaluations.
    tolerance:       convergence tolerance on relative parameter change.
    """

    bins1: int = 64
    bins2: int = 64
    range_policy: str = "percentile"
    percentiles: tuple[float, float] = (0.5, 99.5)
    box: tuple[tuple[float, float], tuple[float, float]] | None = None
    loss: str = "hist-ls"
    max_iterations: int = 1000
    tolerance: float = 1e-10

    def __post_init__(self):
        if self.bins1 < 8 or self.bins2 < 8:
            raise ValueError("bins1 and bins2 must be at least 8")
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")
        if self.loss not in ("hist-ls", "ml"):
            raise ValueError(f"loss must be 'hist-ls' or 'ml', got {self.loss!r}")
        if self.range_policy not in ("percentile", "explicit"):
            raise ValueError(f"range_policy must be 'percentile' or 'explicit', "
                             f"got {self.range_policy!r}")
        if self.range_policy == "explicit" and self.box is None:
            raise ValueError("range_policy 'explicit' requires a box")
        lo, hi = self.percentiles
        if not (0 <= lo < hi <= 100):
            raise ValueError(f"percentiles must satisfy 0 <= lo < hi <= 100, "
                             f"got {self.percentiles!r}")


@dataclass(frozen=True)
class FitResult:
    """Outcome of a fit.

    cov:               recovered joint statistics.
    background_level:  fraction of in-box events attributed to the flat
                       background, in [0, 1] (clipped for reporting).
    amplitude:         estimated number of signal events.
    std_errors:        per-parameter standard errors keyed like PARAM_NAMES;
                       None when the curvature was singular.
    reduced_chisq:     histogram goodness of fit (also computed for ML fits).
    converged:         optimizer reported convergence.
    iterations:        function evaluations (hist-ls) or iterations (ml).
    degenerate_signal: background swallowed the model; the Gaussian component
                       is not trustworthy.
    loss:              which estimator produced this result.
    n_events:          number of events fitted.
    message:           optimizer diagnostics.
    """

    cov: TemporalCovariance
    background_level: float
    amplitude: float
    std_errors: dict[str, float] | None
    reduced_chisq: float
    converged: bool
    iterations: int
    degenerate_signal: bool
    loss: str
    n_events: int
    message: str = ""

    def summary(self) -> dict:
        """Flat mapping of everything worth serializing."""
        out = {
            "rho_t": self.cov.rho_t,
            "tau1": self.cov.tau1,
            "tau2": self.cov.tau2,
            "mu1": self.cov.mu1,
            "mu2": self.cov.mu2,
            "narrowing_ratio_limit": math.sqrt(1.0 - self.cov.rho_t ** 2),
            "amplitude": self.amplitude,
            "background_level": self.background_level,
            "reduced_chisq": self.reduced_chisq,
            "converged": self.converged,
            "iterations": self.iterations,
            "degenerate_signal": self.degenerate_signal,
            "loss": self.loss,
            "n_events": self.n_events,
        }
        if self.std_errors is not None:
            out["std_errors"] = dict(self.std_errors)
        return out


def initial_guess(events: EventSet) -> TemporalCovariance:
    """Method-of-moments starting point: sample moments, correlation clamped.

    Requires at least 10 events and nonzero variance on both channels.
    """
    if events.count < 10:
        raise DegenerateDataError(
            f"need at least 10 events for a starting point, got {events.count}")
    t1 = events.t1
    t2 = events.t2
    s1 = float(np.std(t1, ddof=1))
    s2 = float(np.std(t2, ddof=1))
    if s1 == 0.0 or s2 == 0.0:
        raise DegenerateDataError("events have zero variance on a channel")
    r = float(np.clip(np.corrcoef(t1, t2)[0, 1], -_RHO_CLAMP, _RHO_CLAMP))
    return TemporalCovariance(rho_t=r, tau1=s1, tau2=s2,
                              mu1=float(np.mean(t1)), mu2=float(np.mean(t2)))


# --------------------------------------------------------------------------
# Shared machinery
# --------------------------------------------------------------------------

def _standardize(events: EventSet):
    m1, m2 = float(np.mean(events.t1)), float(np.mean(events.t2))
    s1, s2 = float(np.std(events.t1, ddof=1)), float(np.std(events.t2, ddof=1))
    if s1 == 0.0 or s2 == 0.0:
        raise DegenerateDataError("events have zero variance on a channel")
    u = np.column_stack([(events.t1 - m1) / s1, (events.t2 - m2) / s2])
    return u, (m1, m2, s1, s2)


def _box_in_u(cfg: FitConfig, u: np.ndarray, scales) -> tuple[np.ndarray, np.ndarray]:
    if cfg.range_policy == "explicit":
        m1, m2, s1, s2 = scales
        (a1, b1), (a2, b2) = cfg.box
        return (np.array([(a1 - m1) / s1, (b1 - m1) / s1]),
                np.array([(a2 - m2) / s2, (b2 - m2) / s2]))
    lo, hi = cfg.percentiles
    return (np.percentile(u[:, 0], [lo, hi]), np.percentile(u[:, 1], [lo, hi]))


def _gauss2(u1, u2, rho, w1, w2, c1, c2):
    x = (u1 - c1) / w1
    y = (u2 - c2) / w2
    om = 1.0 - rho * rho
    return np.exp(-0.5 * (x * x + y * y - 2.0 * rho * x * y) / om) / (
        2.0 * math.pi * w1 * w2 * math.sqrt(om))


def _theta_to_shape(theta):
    rho = math.tanh(theta[0])
    return rho, math.exp(theta[1]), math.exp(theta[2]), theta[3], theta[4]


def _finite_diff_hessian(f, x, step=1e-5):
    n = x.size
    h = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            ei = np.zeros(n); ei[i] = step
            ej = np.zeros(n); ej[j] = step
            h[i, j] = h[j, i] = (
                f(x + ei + ej) - f(x + ei - ej) - f(x - ei + ej) + f(x - ei - ej)
            ) / (4.0 * step * step)
    return h


def _theta_std(cov_theta):
    """Per-coordinate standard errors from an internal covariance, or None."""
    if cov_theta is None:
        return None
    var = np.diag(cov_theta)
    if not np.all(np.isfinite(var)) or np.any(var < 0):
        return None
    return np.sqrt(var)


def _reduced_chisq(model, counts, n_params):
    """Pearson chi-square per degree of freedom over populated bins.

    Bins whose expectation is below one count carry no statistical weight
    (for a narrow correlated ridge most of the box is empty) and would only
    dilute the statistic, so they are excluded.
    """
    used = model >= 1.0
    dof = max(int(used.sum()) - n_params, 1)
    return float(np.sum((model[used] - counts[used]) ** 2 / model[used]) / dof)


# --------------------------------------------------------------------------
# Histogram least squares
# --------------------------------------------------------------------------

def _fit_hist_ls(u, scales, cfg: FitConfig, guess: TemporalCovariance):
    m1, m2, s1, s2 = scales
    box1, box2 = _box_in_u(cfg, u, scales)
    counts, e1, e2 = np.histogram2d(u[:, 0], u[:, 1], bins=(cfg.bins1, cfg.bins2),
                                    range=(tuple(box1), tuple(box2)))
    c1 = 0.5 * (e1[:-1] + e1[1:])
    c2 = 0.5 * (e2[:-1] + e2[1:])
    h1 = e1[1] - e1[0]
    h2 = e2[1] - e2[0]
    area = h1 * h2
    n_box = counts.sum()
    nbins = counts.size

    # Bin-mean model via 2x2 Gauss-Legendre nodes per bin.  Evaluating the
    # density only at bin centers attenuates the fitted correlation by
    # O(bin_width^2), a couple of reported standard errors at default
    # binning; the quadrature nodes remove that error.
    d1 = 0.5 * h1 / math.sqrt(3.0)
    d2 = 0.5 * h2 / math.sqrt(3.0)
    nodes = [(np.meshgrid(c1 + o1, c2 + o2, indexing="ij"))
             for o1 in (-d1, d1) for o2 in (-d2, d2)]

    # theta = [atanh rho, log w1, log w2, c1, c2, log A, B]
    rho0 = float(np.clip(guess.rho_t, -_RHO_CLAMP, _RHO_CLAMP))
    x0 = np.array([math.atanh(rho0), math.log(guess.tau1 / s1),
                   math.log(guess.tau2 / s2), (guess.mu1 - m1) / s1,
                   (guess.mu2 - m2) / s2, math.log(max(n_box, 1.0)), 0.0])

    def model_counts(theta):
        rho, w1, w2, cc1, cc2 = _theta_to_shape(theta)
        dens = sum(_gauss2(u1g, u2g, rho, w1, w2, cc1, cc2)
                   for u1g, u2g in nodes) / 4.0
        return math.exp(theta[5]) * dens * area + theta[6]

    def residuals(theta):
        m = np.maximum(model_counts(theta), 1e-12)
        dev = 2.0 * (m - counts + xlogy(counts, counts / m))
        return (np.sign(m - counts) * np.sqrt(np.maximum(dev, 0.0))).ravel()

    from scipy.optimize import least_squares  # ~0.25 s; only fits need it

    res = least_squares(residuals, x0, method="trf", xtol=cfg.tolerance,
                        ftol=cfg.tolerance, gtol=cfg.tolerance,
                        max_nfev=cfg.max_iterations)
    theta = res.x
    rho, w1, w2, cc1, cc2 = _theta_to_shape(theta)
    amp = math.exp(theta[5])
    bg = theta[6]

    model = np.maximum(model_counts(theta), 1e-12)
    red_chisq = _reduced_chisq(model, counts, theta.size)
    bg_counts = bg * nbins
    total_model = float(model.sum())
    bg_level = float(np.clip(bg_counts / total_model, 0.0, 1.0)) \
        if total_model > 0 else 1.0

    try:
        se = _theta_std(np.linalg.inv(res.jac.T @ res.jac))
    except np.linalg.LinAlgError:
        se = None
    errors = None
    if se is not None:
        # delta method through the (diagonal) internal-to-external transform
        jac_diag = (1.0 - rho * rho, w1 * s1, w2 * s2, s1, s2, amp, 1.0)
        errors = {name: float(s * abs(g))
                  for name, s, g in zip(PARAM_NAMES, se, jac_diag)}

    cov = TemporalCovariance(rho_t=rho, tau1=w1 * s1, tau2=w2 * s2,
                             mu1=m1 + cc1 * s1, mu2=m2 + cc2 * s2)
    return FitResult(
        cov=cov,
        background_level=bg_level,
        amplitude=amp,
        std_errors=errors,
        reduced_chisq=red_chisq,
        converged=bool(res.status > 0),
        iterations=int(res.nfev),
        degenerate_signal=bg_level > _DEGENERATE_BACKGROUND,
        loss="hist-ls",
        n_events=u.shape[0],
        message=str(res.message),
    )


# --------------------------------------------------------------------------
# Event-wise maximum likelihood
# --------------------------------------------------------------------------

def _fit_ml(u, scales, cfg: FitConfig, guess: TemporalCovariance):
    m1, m2, s1, s2 = scales
    n = u.shape[0]
    # the uniform component must cover every event, otherwise far background
    # events are forced onto the Gaussian tail and inflate the widths; use
    # the (slightly padded) data bounding box as its support
    pad1 = 1e-9 * max(1.0, float(np.ptp(u[:, 0])))
    pad2 = 1e-9 * max(1.0, float(np.ptp(u[:, 1])))
    lo1, hi1 = u[:, 0].min() - pad1, u[:, 0].max() + pad1
    lo2, hi2 = u[:, 1].min() - pad2, u[:, 1].max() + pad2
    area_box = (hi1 - lo1) * (hi2 - lo2)

    rho0 = float(np.clip(guess.rho_t, -_RHO_CLAMP, _RHO_CLAMP))
    # theta = [atanh rho, log w1, log w2, c1, c2, logit background-weight]
    x0 = np.array([math.atanh(rho0), math.log(guess.tau1 / s1),
                   math.log(guess.tau2 / s2), (guess.mu1 - m1) / s1,
                   (guess.mu2 - m2) / s2, math.log(1e-3 / (1 - 1e-3))])
    bounds = [(None, None)] * 5 + [(-30.0, 30.0)]

    def nll(theta):
        rho, w1, w2, cc1, cc2 = _theta_to_shape(theta)
        w = float(expit(theta[5]))
        dens = (1.0 - w) * _gauss2(u[:, 0], u[:, 1], rho, w1, w2, cc1, cc2) \
            + w / area_box
        return -float(np.sum(np.log(np.maximum(dens, 1e-300))))

    from scipy.optimize import minimize

    res = minimize(nll, x0, method="L-BFGS-B", bounds=bounds, options={
        "maxiter": cfg.max_iterations,
        "ftol": cfg.tolerance,
        "gtol": 1e-8,
    })
    theta = res.x
    rho, w1, w2, cc1, cc2 = _theta_to_shape(theta)
    w = float(expit(theta[5]))

    hess = _finite_diff_hessian(nll, theta)
    se = None
    try:
        se = _theta_std(np.linalg.inv(hess))
    except np.linalg.LinAlgError:
        se = None
    errors = None
    include_weight_errors = se is not None
    if se is None:
        # the background weight is often unidentifiable on clean data (it
        # runs to the boundary); fall back to the shape-parameter block
        try:
            se = _theta_std(np.linalg.inv(hess[:5, :5]))
        except np.linalg.LinAlgError:
            se = None
    if se is not None:
        jac_diag = (1.0 - rho * rho, w1 * s1, w2 * s2, s1, s2)
        errors = {name: float(s * abs(g))
                  for name, s, g in zip(PARAM_NAMES[:5], se[:5], jac_diag)}
        if include_weight_errors:
            # amplitude (1-w)*n and background w share the logit coordinate
            errors["amplitude"] = float(se[5] * n * w * (1.0 - w))
            errors["background"] = float(se[5] * w * (1.0 - w))

    # histogram goodness of fit for reporting, same binning as hist-ls
    counts, e1, e2 = np.histogram2d(u[:, 0], u[:, 1],
                                    bins=(cfg.bins1, cfg.bins2),
                                    range=((lo1, hi1), (lo2, hi2)))
    c1 = 0.5 * (e1[:-1] + e1[1:])
    c2 = 0.5 * (e2[:-1] + e2[1:])
    area = (e1[1] - e1[0]) * (e2[1] - e2[0])
    u1g, u2g = np.meshgrid(c1, c2, indexing="ij")
    model = n * ((1.0 - w) * _gauss2(u1g, u2g, rho, w1, w2, cc1, cc2)
                 + w / area_box) * area
    red_chisq = _reduced_chisq(np.maximum(model, 1e-12), counts, theta.size)

    cov = TemporalCovariance(rho_t=rho, tau1=w1 * s1, tau2=w2 * s2,
                             mu1=m1 + cc1 * s1, mu2=m2 + cc2 * s2)
    return FitResult(
        cov=cov,
        background_level=float(w),
        amplitude=float((1.0 - w) * n),
        std_errors=errors,
        reduced_chisq=red_chisq,
        converged=bool(res.success),
        iterations=int(res.nit),
        degenerate_signal=w > _DEGENERATE_BACKGROUND,
        loss="ml",
        n_events=n,
        message=str(res.message),
    )


def fit(events: EventSet, cfg: FitConfig | None = None) -> FitResult:
    """Recover the joint Gaussian parameters (plus background) from events.

    Requires at least 100 events.  Returns ``converged=False`` (with the last
    iterate) rather than raising when the optimizer stalls; raises
    :class:`DegenerateDataError` for data without usable variance.
    """
    if cfg is None:
        cfg = FitConfig()
    if events.count < 100:
        raise DegenerateDataError(
            f"need at least 100 events to fit, got {events.count}")
    guess = initial_guess(events)
    u, scales = _standardize(events)
    if cfg.loss == "ml":
        return _fit_ml(u, scales, cfg, guess)
    return _fit_hist_ls(u, scales, cfg, guess)


def bootstrap_errors(events: EventSet, cfg: FitConfig | None = None,
                     n_resamples: int = 200, seed: int = 0) -> dict[str, float]:
    """Bootstrap standard errors of the fitted parameters (validation aid).

    Resamples events with replacement and refits; returns the standard
    deviation of each recovered parameter across resamples.
    """
    if cfg is None:
        cfg = FitConfig()
    rows = []
    for idx in bootstrap_rows(np.random.default_rng(seed), events.count,
                              n_resamples):
        res = fit(EventSet(events.events[idx], events.metadata), cfg)
        rows.append([res.cov.rho_t, res.cov.tau1, res.cov.tau2,
                     res.cov.mu1, res.cov.mu2, res.amplitude,
                     res.background_level])
    spread = np.std(np.asarray(rows), axis=0, ddof=1)
    return dict(zip(PARAM_NAMES, map(float, spread)))
