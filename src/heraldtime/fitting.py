"""Recovery of the joint Gaussian parameters from coincidence events.

The default estimator bins the events into a 2-D histogram and least-squares
fits the bivariate-Gaussian-plus-flat-background shape using signed-root
Poisson deviance residuals per bin.  Weighting each residual by the observed
count's square root (the textbook shortcut) systematically shrinks the
fitted widths by O(1%) at realistic event counts, several reported standard
errors, because downward count fluctuations get the larger weights; the
deviance residuals are exact Poisson statistics and recover widths without
measurable bias.  An event-wise maximum-likelihood estimator for the
Gaussian-plus-uniform mixture is available as the higher-fidelity
alternative; on clean synthetic data the two agree within their mutual
uncertainties.

Implementation notes, all of which matter for robustness:

* events are standardized internally (centered on the sample means, scaled by
  the sample standard deviations), which makes the fit invariant under common
  time translations and well conditioned regardless of the absolute scale;
* parameters are transformed so every iterate stays in-domain: atanh for the
  correlation, log for the widths and the amplitude, logit (kept in
  [-30, 30]) for the likelihood's background weight;
* the default histogram range is the 0.5-99.5 percentile box, robust against
  background tails; events are binned by direct bin index and
  ``np.bincount``, with the same counts as ``np.histogram2d``;
* both losses get closed-form derivatives in the transformed coordinates,
  never finite differences: the least-squares fit the Jacobian J of its
  signed-root deviance residuals (through the bivariate normal's scores at
  the quadrature nodes), the likelihood fit the score and the exact
  Hessian (observed information) of the mixture;
* one damped Newton solver minimizes both (Levenberg-Marquardt steps on
  J^T J for least squares, on the observed information for maximum
  likelihood).  For either loss the Newton decrement g^T H^-1 g / 2 is
  half the squared distance to the optimum in standard errors, so the
  solver stops once the Newton step would move none of the five shape
  parameters (rho_t, widths, centers) by more than 1e-4 standard errors,
  and the whole decrement is below ``tolerance`` times the loss;
* uncertainties come from the inverse of that curvature at the optimum,
  falling back to its 5x5 shape block when the likelihood's background
  weight is unidentified -- mapped to physical units by the delta method in
  the one helper that assembles every FitResult, which records the path
  taken as ``se_path`` (a bootstrap cross-check is provided separately);
* the fits need NumPy alone; SciPy is never imported;
* no jitter deconvolution: fitting jittered data returns the jitter-broadened
  widths.  If the jitter j of a channel is known, the bare width is the
  post-processing formula sqrt(tau_fit^2 - j^2).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import narrowing_ratio_limit
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
    max_iterations:  cap on the solver's work: residual evaluations for
                     "hist-ls", steps for "ml".
    tolerance:       relative convergence tolerance: the fit stops once the
                     decrease a full Newton step still promises is below
                     tolerance * |loss| (and the shape parameters are within
                     1e-4 standard errors of the optimum).
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
    converged:         the solver met its stopping rule (see FitConfig's
                       tolerance) rather than its evaluation cap or a stall.
    iterations:        residual evaluations (hist-ls, equal to nfev) or
                       accepted solver steps (ml).
    degenerate_signal: background swallowed the model; the Gaussian component
                       is not trustworthy.
    loss:              which estimator produced this result.
    n_events:          number of events fitted.
    message:           why the solver stopped, in words.
    nfev, njev:        evaluations of the loss (ml) or of the residuals
                       (hist-ls), and of its gradient (ml) or Jacobian
                       (hist-ls); every evaluation takes both, so they are
                       equal.
    se_path:           where std_errors came from: "full" (inverse of the
                       whole curvature), "shape-block" (ml only: inverse of
                       the 5x5 shape block, without amplitude and background
                       errors) or "none".
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
    nfev: int = 0
    njev: int = 0
    se_path: str = "none"

    def summary(self) -> dict:
        """Flat mapping of everything worth serializing."""
        out = {
            "rho_t": self.cov.rho_t,
            "tau1": self.cov.tau1,
            "tau2": self.cov.tau2,
            "mu1": self.cov.mu1,
            "mu2": self.cov.mu2,
            "narrowing_ratio_limit": narrowing_ratio_limit(self.cov),
            "amplitude": self.amplitude,
            "background_level": self.background_level,
            "reduced_chisq": self.reduced_chisq,
            "converged": self.converged,
            "iterations": self.iterations,
            "degenerate_signal": self.degenerate_signal,
            "loss": self.loss,
            "n_events": self.n_events,
            "nfev": self.nfev,
            "njev": self.njev,
            "se_path": self.se_path,
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


def _bin_counts(u, box1, box2, bins1, bins2):
    """``np.histogram2d(u[:, 0], u[:, 1], (bins1, bins2), (box1, box2))``.

    Each event's bin comes straight from its offset in the box, then moves
    one bin down or up where the linspace edges disagree, as np.histogram
    does for uniform bins.  That reproduces the edge search of
    np.histogram2d exactly: bins are closed on the left, the last one also
    on the right, and events outside the box are dropped.
    """
    flat, outside, edges = None, False, []
    for v, (lo, hi), n in ((u[:, 0], box1, bins1), (u[:, 1], box2, bins2)):
        lo, hi = float(lo), float(hi)
        if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
            raise ValueError(f"histogram range [{lo!r}, {hi!r}] is not a "
                             "finite interval")
        if lo == hi:
            lo, hi = lo - 0.5, hi + 0.5
        e = np.linspace(lo, hi, n + 1)
        f = v - lo
        f *= n / (hi - lo)
        k = np.clip(f, 0, n - 1, out=f).astype(np.intp)
        del f
        k -= v < e[k]
        k += (v >= e[1:][k]) & (k != n - 1)
        if flat is None:
            flat = k
        else:
            flat *= n
            flat += k
        outside = outside | (v < lo) | (v > hi)
        edges.append(e)
    nbins = bins1 * bins2
    flat[outside] = nbins
    counts = np.bincount(flat, minlength=nbins + 1)[:nbins]
    return counts.reshape(bins1, bins2).astype(float), edges[0], edges[1]


def _expit(t: float) -> float:
    """Logistic function 1 / (1 + e^-t); below -700 that is e^t to rounding,
    and e^-t would overflow."""
    return 1.0 / (1.0 + math.exp(-t)) if t > -700.0 else math.exp(t)


def _theta_to_shape(theta):
    rho = math.tanh(theta[0])
    return rho, math.exp(theta[1]), math.exp(theta[2]), theta[3], theta[4]


def _gauss_terms(u1, u2, c1, c2, rho, w1, w2, out=(None,) * 6):
    """Bivariate normal centered on (c1, c2) at (u1, u2), with the terms its
    derivatives are built from.

    Returns x = (u1 - c1)/w1, y = (u2 - c2)/w2, a = x - rho y,
    b = y - rho x and the density phi, whose quadratic form is x a + y b.
    ``out`` may hold six same-shaped arrays to write x, y, a, b, phi and a
    scratch term into, so that repeated passes over the events allocate
    nothing.
    """
    x, y, a, b, phi, tmp = out
    x = np.subtract(u1, c1, out=x)
    x /= w1
    y = np.subtract(u2, c2, out=y)
    y /= w2
    a = np.subtract(x, np.multiply(y, rho, out=a), out=a)
    b = np.subtract(y, np.multiply(x, rho, out=b), out=b)
    phi = np.add(np.multiply(x, a, out=phi), np.multiply(y, b, out=tmp),
                 out=phi)
    om = 1.0 - rho * rho
    phi *= -0.5 / om
    np.exp(phi, out=phi)
    phi *= 1.0 / (2.0 * math.pi * w1 * w2 * math.sqrt(om))
    return x, y, a, b, phi


def _shape_scores(x, y, a, b, rho, w1, w2):
    """Gradient of log phi in (atanh rho, log w1, log w2, c1, c2)."""
    om = 1.0 - rho * rho
    ax = a * x
    by = b * y
    return (x * y - (rho / om) * (ax + by) + rho, ax / om - 1.0,
            by / om - 1.0, a / (om * w1), b / (om * w2))


def _wsum(*factors) -> float:
    """Sum over events of the product of the factors, with no temporaries.

    ``np.einsum`` without ``optimize`` runs its own loops; ``np.dot`` would
    hand vectors this long to BLAS threads, many times slower there.
    """
    return float(np.einsum(",".join("i" * len(factors)) + "->", *factors))


def _theta_std(cov_theta):
    """Per-coordinate standard errors from an internal covariance, or None."""
    var = np.diag(cov_theta)
    if not np.all(np.isfinite(var)) or np.any(var < 0):
        return None
    return np.sqrt(var)


def _theta_errors(curvature, shape_block: bool):
    """Standard errors of theta from the inverse curvature, and their path.

    The path is "full", "shape-block" (the inverse of the 5x5 shape block
    alone, tried only when ``shape_block`` and the full inverse failed) or
    "none".
    """
    blocks = [("full", curvature)]
    if shape_block:
        blocks.append(("shape-block", curvature[:5, :5]))
    for path, block in blocks:
        try:
            se = _theta_std(np.linalg.inv(block))
        except np.linalg.LinAlgError:
            continue
        if se is not None:
            return se, path
    return None, "none"


def _reduced_chisq(model, counts, n_params):
    """Pearson chi-square per degree of freedom over populated bins.

    Bins whose expectation is below one count carry no statistical weight
    (for a narrow correlated ridge most of the box is empty) and would only
    dilute the statistic, so they are excluded.
    """
    used = model >= 1.0
    dof = max(int(used.sum()) - n_params, 1)
    return float(np.sum((model[used] - counts[used]) ** 2 / model[used]) / dof)


def _fit_result(loss, opt, scales, weight_grads, shape_block, amplitude,
                background_level, reduced_chisq, n_events) -> FitResult:
    """Assemble a FitResult from the solver's stop ``opt`` for either loss.

    Standard errors follow from the inverse curvature ``opt.hess`` by the
    delta method through the diagonal internal-to-external transform of the
    shape coordinates; ``weight_grads`` maps "amplitude" and "background" to
    the (theta index, derivative) their errors come from, used on the full
    path only.
    """
    m1, m2, s1, s2 = scales
    rho, w1, w2, cc1, cc2 = _theta_to_shape(opt.x)
    se, se_path = _theta_errors(opt.hess, shape_block)
    errors = None
    if se is not None:
        grads = dict(zip(PARAM_NAMES, ((0, 1.0 - rho * rho), (1, w1 * s1),
                                       (2, w2 * s2), (3, s1), (4, s2))))
        if se_path == "full":
            grads.update(weight_grads)
        errors = {name: float(se[i] * abs(d)) for name, (i, d) in grads.items()}
    return FitResult(
        cov=TemporalCovariance(rho_t=rho, tau1=w1 * s1, tau2=w2 * s2,
                               mu1=m1 + cc1 * s1, mu2=m2 + cc2 * s2),
        background_level=float(background_level),
        amplitude=float(amplitude),
        std_errors=errors,
        reduced_chisq=reduced_chisq,
        converged=opt.converged,
        iterations=opt.nfev if loss == "hist-ls" else opt.nit,
        degenerate_signal=background_level > _DEGENERATE_BACKGROUND,
        loss=loss,
        n_events=n_events,
        message=opt.message,
        nfev=opt.nfev,
        njev=opt.nfev,
        se_path=se_path,
    )


# --------------------------------------------------------------------------
# The damped Newton (Levenberg-Marquardt) solver both losses share
# --------------------------------------------------------------------------

_MAX_STEP = 1.0           # largest step of any theta coordinate
_N_SHAPE = 5              # theta starts with the five shape coordinates
_SHAPE_DECREMENT = 5e-9   # half the squared distance, in standard errors,
                          # of the shape coordinates from the optimum
_LAMBDA0 = 1e-3
_EIGEN_FLOOR = 1e-12      # smallest curvature eigenvalue, relative


@dataclass(frozen=True)
class _NewtonResult:
    """Where :func:`_damped_newton` stopped.

    x, fun, grad, hess: the last accepted point and the loss, gradient and
    curvature there (one evaluation of ``full``).  nit counts accepted
    steps and nfev evaluations of ``full``, each of which also returned the
    gradient and the curvature.
    """

    x: np.ndarray
    fun: float
    grad: np.ndarray
    hess: np.ndarray
    converged: bool
    message: str
    nit: int
    nfev: int


def _newton_decrements(g, h, n_shape):
    """Curvature |h| (eigenvalues of h by magnitude, floored at
    ``_EIGEN_FLOOR`` of the largest), the Newton decrement g^T |h|^-1 g / 2,
    and the shape decrement: half the squared length of the Newton step's
    first ``n_shape`` coordinates, measured in their standard errors."""
    eig, vec = np.linalg.eigh(h)
    eig = np.abs(eig)
    eig = np.maximum(eig, _EIGEN_FLOOR * eig.max(initial=1e-300))
    cov = (vec / eig) @ vec.T
    newton = -cov @ g
    ds = newton[:n_shape]
    shape = 0.5 * ds @ np.linalg.solve(cov[:n_shape, :n_shape], ds)
    return (vec * eig) @ vec.T, -0.5 * g @ newton, shape


def _damped_newton(full, x0, tolerance, max_nfev, lower=None, upper=None,
                   max_step=math.inf) -> _NewtonResult:
    """Minimize a smooth loss from ``x0`` within the box [lower, upper].

    ``full(x)`` returns the loss f, its gradient g and its curvature H.
    Each step solves (|H| + lambda D) p = -g (Levenberg-Marquardt): |H|
    takes the eigenvalues of H by magnitude, so every step descends, and D
    is the diagonal of |H| (Marquardt's scaling).  Lambda falls or rises
    with the gain ratio of actual to predicted decrease (Nielsen's rule).
    ``max_step`` caps every coordinate of a step, every trial point is
    projected onto the box, and a coordinate at a bound whose gradient
    points out of the box is held there.  Each trial point costs one call
    of ``full``.

    For a log-likelihood the Newton decrement g^T |H|^-1 g / 2 is half the
    squared distance to the optimum in standard errors.  The solver stops,
    converged, once the decrement over the free coordinates is at most
    ``tolerance * max(|f|, 1)`` and the shape decrement of the first
    ``_N_SHAPE`` coordinates is at most ``_SHAPE_DECREMENT``, that is, the
    Newton step moves none of them by more than 1e-4 standard errors.
    Where the loss has kinks (clipped histogram bins), the decrement need
    not shrink; there a step damped to at most about half a Newton step
    (lambda >= 1) that lowers f by at most ``tolerance * max(|f|, 1)`` also
    counts as converged.  The solver stops unconverged after ``max_nfev``
    calls of ``full``, or when a step no longer moves x.
    """
    n = len(x0)
    lower = np.full(n, -np.inf) if lower is None else np.asarray(lower, float)
    upper = np.full(n, np.inf) if upper is None else np.asarray(upper, float)
    x = np.clip(np.asarray(x0, float), lower, upper)
    f, g, h = full(x)
    nfev, nit = 1, 0
    lam, nu = _LAMBDA0, 2.0

    def stop(converged, message):
        return _NewtonResult(x=x, fun=f, grad=g, hess=h, converged=converged,
                             message=message, nit=nit, nfev=nfev)

    while True:
        free = ~(((x <= lower) & (g > 0)) | ((x >= upper) & (g < 0)))
        if not free.any():
            return stop(True, "every coordinate held at a bound")
        gf = g[free]
        habs, dec, shape_dec = _newton_decrements(
            gf, h[np.ix_(free, free)], int(free[:_N_SHAPE].sum()))
        if (dec <= tolerance * max(abs(f), 1.0)
                and shape_dec <= _SHAPE_DECREMENT):
            return stop(True, "Newton decrement below tolerance")
        scale = np.diag(np.diag(habs))
        step = np.zeros(n)
        while True:
            if nfev >= max_nfev:
                return stop(False, "evaluation limit reached")
            p = np.linalg.solve(habs + lam * scale, -gf)
            p /= max(1.0, np.max(np.abs(p)) / max_step)
            step[free] = p
            trial = np.clip(x + step, lower, upper)
            moved = (trial - x)[free]
            if not moved.any():
                return stop(False, "step too small to move x")
            predicted = -(gf @ moved + 0.5 * moved @ habs @ moved)
            f_new, g_new, h_new = full(trial)
            nfev += 1
            actual = f - f_new
            # below the rounding of f the gain ratio is noise; take the
            # step unless it clearly went uphill
            noise = 64 * np.finfo(float).eps * abs(f)
            if predicted <= noise:
                ratio = 1.0 if actual >= -noise else -1.0
            else:
                ratio = actual / predicted
            if ratio > 1e-4:
                damped = lam >= 1.0
                lam *= max(1.0 / 3.0, 1.0 - (2.0 * ratio - 1.0) ** 3)
                nu = 2.0
                x, f, g, h = trial, f_new, g_new, h_new
                nit += 1
                if damped and actual <= tolerance * max(abs(f), 1.0):
                    return stop(True, "damped step lowered the loss by "
                                      "less than the tolerance")
                break
            lam *= nu
            nu *= 2.0


# --------------------------------------------------------------------------
# Histogram least squares
# --------------------------------------------------------------------------

def _hist_ls_loss(counts, nodes, area):
    """Residual and Jacobian callables of the histogram fit.

    ``nodes`` holds the (bins1, 1) and (1, bins2) coordinates of the four
    Gauss-Legendre nodes per bin.  Both callables read the node densities
    of one theta from a one-entry cache, so the Jacobian at an accepted
    step costs no second model evaluation.
    """
    cache = {}
    counted = counts > 0

    def model_terms(theta):
        key = theta.tobytes()
        if cache.get("key") != key:
            rho, w1, w2, cc1, cc2 = _theta_to_shape(theta)
            terms = [_gauss_terms(g1, g2, cc1, cc2, rho, w1, w2)
                     for g1, g2 in nodes]
            scale = math.exp(theta[5]) * area / 4.0
            model = scale * sum(t[4] for t in terms) + theta[6]
            m = np.maximum(model, 1e-12)
            dev = 2.0 * (m - counts + counts * np.log(
                np.where(counted, counts / m, 1.0)))
            res = np.sign(m - counts) * np.sqrt(np.maximum(dev, 0.0))
            cache.update(key=key, shape=(rho, w1, w2), terms=terms,
                         scale=scale, model=model, res=res)
        return cache

    def residuals(theta):
        return model_terms(theta)["res"].ravel()

    def jac(theta):
        c = model_terms(theta)
        model, res = c["model"], c["res"]
        dm = np.zeros((7,) + model.shape)
        for x, y, a, b, phi in c["terms"]:
            for k, s in enumerate(_shape_scores(x, y, a, b, *c["shape"])):
                dm[k] += phi * s
        dm[:5] *= c["scale"]
        dm[5] = model - theta[6]
        dm[6] = 1.0
        # d(signed root deviance)/dm = (1 - counts/m) / res; where m and
        # the counts agree to 1e-5 that ratio cancels, and its limit
        # 1/sqrt(m) is closer than the rounding; clipped bins are flat
        m = np.maximum(model, 1e-12)
        close = np.abs(m - counts) <= 1e-5 * m
        drdm = np.where(close, 1.0 / np.sqrt(m),
                        (1.0 - counts / m) / np.where(close, 1.0, res))
        drdm[model < 1e-12] = 0.0
        return (drdm * dm).reshape(7, -1).T

    return residuals, jac, model_terms


def _fit_hist_ls(u, scales, cfg: FitConfig, guess: TemporalCovariance):
    m1, m2, s1, s2 = scales
    box1, box2 = _box_in_u(cfg, u, scales)
    counts, e1, e2 = _bin_counts(u, box1, box2, cfg.bins1, cfg.bins2)
    c1 = 0.5 * (e1[:-1] + e1[1:])
    c2 = 0.5 * (e2[:-1] + e2[1:])
    h1 = e1[1] - e1[0]
    h2 = e2[1] - e2[0]
    n_box = counts.sum()
    nbins = counts.size

    # Bin-mean model via 2x2 Gauss-Legendre nodes per bin.  Evaluating the
    # density only at bin centers attenuates the fitted correlation by
    # O(bin_width^2), a couple of reported standard errors at default
    # binning; the quadrature nodes remove that error.
    d1 = 0.5 * h1 / math.sqrt(3.0)
    d2 = 0.5 * h2 / math.sqrt(3.0)
    nodes = [((c1 + o1)[:, None], (c2 + o2)[None, :])
             for o1 in (-d1, d1) for o2 in (-d2, d2)]

    # theta = [atanh rho, log w1, log w2, c1, c2, log A, B]
    rho0 = float(np.clip(guess.rho_t, -_RHO_CLAMP, _RHO_CLAMP))
    x0 = np.array([math.atanh(rho0), math.log(guess.tau1 / s1),
                   math.log(guess.tau2 / s2), (guess.mu1 - m1) / s1,
                   (guess.mu2 - m2) / s2, math.log(max(n_box, 1.0)), 0.0])
    residuals, jac, model_terms = _hist_ls_loss(counts, nodes, h1 * h2)

    def full(theta):
        # f = |r|^2 / 2 is half the Poisson deviance, so J^T J is the
        # Fisher information of the binned likelihood
        r, jm = residuals(theta), jac(theta)
        return (0.5 * _wsum(r, r), np.einsum("ik,i->k", jm, r),
                np.einsum("ik,il->kl", jm, jm))

    res = _damped_newton(full, x0, cfg.tolerance, cfg.max_iterations,
                         max_step=_MAX_STEP)
    theta = res.x
    model = np.maximum(model_terms(theta)["model"], 1e-12)
    total_model = float(model.sum())
    bg_level = float(np.clip(theta[6] * nbins / total_model, 0.0, 1.0)) \
        if total_model > 0 else 1.0
    amp = math.exp(theta[5])
    return _fit_result(
        "hist-ls", res, scales,
        {"amplitude": (5, amp), "background": (6, 1.0)}, shape_block=False,
        amplitude=amp, background_level=bg_level,
        reduced_chisq=_reduced_chisq(model, counts, theta.size),
        n_events=u.shape[0])


# --------------------------------------------------------------------------
# Event-wise maximum likelihood
# --------------------------------------------------------------------------

_ML_CHUNK = 8192     # events per pass; the work arrays stay in cache


def _ml_sums(u1, u2, shape, wb, ws, area_box, work, curvature):
    """Per-event sums the mixture NLL and its derivatives are built from.

    With r = (1-w) phi / g the signal responsibility of each event, the
    score needs the NLL, r-weighted sums of 1, a, b, a x, b y and x y and
    the sum of 1/g.  The curvature adds r-weighted x, y, x^2 and y^2, the
    weight-coordinate sums, and the r (1-r)-weighted products of the shape
    scores s = grad log phi.  Where the density clips at 1e-300 the loss
    is flat, so those events add nothing to the derivatives.
    """
    rho, w1, w2, cc1, cc2 = shape
    x, y, a, b, phi = _gauss_terms(u1, u2, cc1, cc2, rho, w1, w2, work[:6])
    g = np.multiply(phi, ws, out=work[5])
    g += wb / area_box
    kept = g >= 1e-300
    np.maximum(g, 1e-300, out=g)
    nll = -float(np.log(g, out=work[6]).sum())
    inv = np.divide(kept, g, out=g)
    r = np.multiply(phi, inv, out=phi)
    r *= ws
    sums = [nll, float(r.sum()), _wsum(r, a), _wsum(r, b), _wsum(r, a, x),
            _wsum(r, b, y), _wsum(r, x, y), float(inv.sum())]
    if not curvature:
        return np.array(sums)
    sums += [_wsum(r, x), _wsum(r, y), _wsum(r, x, x), _wsum(r, y, y)]
    s = _shape_scores(x, y, a, b, rho, w1, w2)
    # G_w = d log g / d logit w = w ((1-w)/(A g) - r)
    g_w = np.subtract(inv * (ws / area_box), r, out=inv)
    g_w *= wb
    sums += [_wsum(g_w, g_w), float(g_w.sum())]
    g_w += wb
    sums += [_wsum(r, sk, g_w) for sk in s]
    rr = np.multiply(r, 1.0 - r, out=g_w)
    sums += [_wsum(rr, s[k], s[j]) for k in range(5) for j in range(k, 5)]
    return np.array(sums)


def _ml_loss(theta, u1, u2, area_box, curvature=False):
    """Negative log-likelihood of the Gaussian-plus-uniform mixture and its
    gradient; with ``curvature``, also its Hessian (observed information).

    theta = [atanh rho, log w1, log w2, c1, c2, logit background-weight].
    The events are summed in chunks of ``_ML_CHUNK``, all written into one
    set of seven chunk-long work arrays.
    """
    work = np.empty((7, _ML_CHUNK))
    shape = _theta_to_shape(theta)
    rho, w1, w2 = shape[:3]
    wb, ws = _expit(theta[5]), _expit(-theta[5])
    om = 1.0 - rho * rho
    n = u1.shape[0]
    total = sum(_ml_sums(u1[i:i + _ML_CHUNK], u2[i:i + _ML_CHUNK], shape, wb,
                         ws, area_box, work[:, :min(_ML_CHUNK, n - i)],
                         curvature)
                for i in range(0, n, _ML_CHUNK))
    nll, sr, sa, sb, sax, sby, sxy, sinv = total[:8]
    grad = -np.array([sxy - (rho / om) * (sax + sby) + rho * sr,
                      sax / om - sr, sby / om - sr,
                      sa / (om * w1), sb / (om * w2),
                      wb * ws / area_box * sinv - wb * sr])
    if not curvature:
        return nll, grad

    # H = sum G G^T - sum (Hessian of g)/g with G = grad log g.  On the
    # shape block that is -sum r (1-r) s s^T - sum r T, with T the Hessian
    # of log phi, whose entries are polynomials in x, y, a, b.  Across the
    # shape and weight coordinates it is sum r s (G_w + w), on the weight
    # sum G_w^2 - (1 - 2w) G_w.
    sx, sy, sxx, syy, gww, gw = total[8:14]
    p = rho / om
    hess = np.zeros((6, 6))
    hess[0, :5] = (2 * rho * sxy - (1 + rho * rho) / om * (sax + sby) + om * sr,
                   2 * p * sax - sxy, 2 * p * sby - sxy,
                   (2 * p * sa - sy) / w1, (2 * p * sb - sx) / w2)
    hess[1, 1:5] = (-(sxx + sax) / om, p * sxy, -(sx + sa) / (om * w1),
                    p * sx / w2)
    hess[2, 2:5] = (-(syy + sby) / om, p * sy / w1, -(sy + sb) / (om * w2))
    hess[3, 3:5] = (-sr / (om * w1 * w1), p * sr / (w1 * w2))
    hess[4, 4] = -sr / (om * w2 * w2)
    iu = np.triu_indices(5)
    hess[iu] = -hess[iu] - total[19:]
    hess[:5, 5] = total[14:19]
    hess[5, 5] = gww - (ws - wb) * gw
    il = np.tril_indices(6, -1)
    hess[il] = hess.T[il]
    return nll, grad, hess


def _fit_ml(u, scales, cfg: FitConfig, guess: TemporalCovariance):
    m1, m2, s1, s2 = scales
    n = u.shape[0]
    u1, u2 = u[:, 0], u[:, 1]
    # the uniform component must cover every event, otherwise far background
    # events are forced onto the Gaussian tail and inflate the widths; use
    # the (slightly padded) data bounding box as its support
    pad1 = 1e-9 * max(1.0, float(np.ptp(u1)))
    pad2 = 1e-9 * max(1.0, float(np.ptp(u2)))
    lo1, hi1 = u1.min() - pad1, u1.max() + pad1
    lo2, hi2 = u2.min() - pad2, u2.max() + pad2
    area_box = (hi1 - lo1) * (hi2 - lo2)

    rho0 = float(np.clip(guess.rho_t, -_RHO_CLAMP, _RHO_CLAMP))
    # theta = [atanh rho, log w1, log w2, c1, c2, logit background-weight]
    x0 = np.array([math.atanh(rho0), math.log(guess.tau1 / s1),
                   math.log(guess.tau2 / s2), (guess.mu1 - m1) / s1,
                   (guess.mu2 - m2) / s2, math.log(1e-3 / (1 - 1e-3))])
    # the logit weight is kept in [-30, 30]; max_iterations caps the steps
    res = _damped_newton(
        lambda t: _ml_loss(t, u1, u2, area_box, curvature=True), x0,
        cfg.tolerance, cfg.max_iterations + 1, lower=[-np.inf] * 5 + [-30.0],
        upper=[np.inf] * 5 + [30.0], max_step=_MAX_STEP)
    theta = res.x
    rho, w1, w2, cc1, cc2 = _theta_to_shape(theta)
    w = _expit(theta[5])

    # histogram goodness of fit for reporting, same binning as hist-ls
    counts, e1, e2 = _bin_counts(u, (lo1, hi1), (lo2, hi2),
                                 cfg.bins1, cfg.bins2)
    c1 = 0.5 * (e1[:-1] + e1[1:])
    c2 = 0.5 * (e2[:-1] + e2[1:])
    area = (e1[1] - e1[0]) * (e2[1] - e2[0])
    phi = _gauss_terms(c1[:, None], c2[None, :], cc1, cc2, rho, w1, w2)[4]
    model = n * ((1.0 - w) * phi + w / area_box) * area

    # the background weight is often unidentifiable on clean data (it runs
    # to the boundary); the errors then fall back to the shape block
    return _fit_result(
        "ml", res, scales,
        {"amplitude": (5, n * w * (1.0 - w)), "background": (5, w * (1.0 - w))},
        shape_block=True, amplitude=(1.0 - w) * n, background_level=w,
        reduced_chisq=_reduced_chisq(np.maximum(model, 1e-12), counts,
                                     theta.size),
        n_events=n)


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
