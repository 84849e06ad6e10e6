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
  the means, the SDs and the starting correlation come from one pass per
  statistic, shared with ``initial_guess``;
* ``fit`` and each refit of ``bootstrap_errors`` go through one entry,
  ``_fit_channels(t1, t2, cfg, out)``, which takes the two channels; a
  refit passes the gather buffer whose rows they are as ``out``, which is
  then standardized in place;
* parameters are transformed so every iterate stays in-domain: atanh for the
  correlation, log for the widths and the amplitude, logit (kept in
  [-30, 30]) for the likelihood's background weight; the histogram's flat
  background B is free in sign and starts at the mean count of the box's
  outer ring of bins;
* the histogram range is the 0.5-99.5 percentile box, robust against
  background tails.  It is ``np.percentile``'s to the bit, interpolated
  from the four order statistics it needs, which come from the few events
  beyond +-2 sd (the whole channel is partitioned only where too few lie
  there), so no channel is copied; events are binned by direct bin index
  and one padded ``np.bincount``, with the same counts as
  ``np.histogram2d``;
* both losses get closed-form derivatives in the transformed coordinates,
  never finite differences: the least-squares fit the Jacobian J of its
  signed-root deviance residuals, the likelihood fit the score and the
  exact Hessian (observed information) of the mixture.  The scores of the
  bivariate normal are linear in seven per-point terms (1, a, b, xy,
  x a + y b, a x, b y), so the histogram model and its derivatives take
  all four quadrature nodes in one broadcast pass and one sum over the
  nodes, and each likelihood chunk reduces to two matrix products over
  stacked per-event rows;
* one damped Newton solver minimizes both (Levenberg-Marquardt steps on the
  Fisher information sum dm dm^T / m of the binned likelihood for least
  squares, which J^T J underestimates in sparse bins; on the observed
  information for maximum likelihood).  For either loss the Newton
  decrement g^T H^-1 g / 2 is half the squared distance to the optimum in
  standard errors, so the solver stops once the Newton step would move
  none of the five shape parameters (rho_t, widths, centers) by more than
  1e-4 standard errors, and the whole decrement is below ``TOLERANCE``
  times the loss.  For least squares those are the standard errors of
  the Fisher information the steps take, not of the J^T J the errors
  come from (on the Table 1 sets the step is no longer in the latter).
  A least-squares trial point that drops a bin holding counts to the
  model floor is refused: the floor hides that bin's infinite deviance,
  and the loss there is flat and ~27 per count too high, a false
  minimum.  A bounded coordinate that walks toward its bound in Newton
  steps of constant length (the logit weight on data without background)
  jumps to where that walk would end;
* uncertainties come from the inverse curvature at the optimum, J^T J for
  least squares and the observed information for maximum likelihood,
  falling back to its 5x5 shape block when the likelihood's background
  weight is unidentified -- mapped to physical units by the delta method in
  the one helper that assembles every FitResult, which records the path
  taken as ``se_path`` and the curvature's condition number (a bootstrap
  cross-check is provided separately);
* the fits need NumPy alone; SciPy is never imported;
* no jitter deconvolution: fitting jittered data returns the jitter-broadened
  widths.  If the jitter j of a channel is known, the bare width is the
  post-processing formula sqrt(tau_fit^2 - j^2).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .analytic import narrowing_ratio_limit
from .params import HeraldtimeError, TemporalCovariance, _count
from .sampler import EventSet

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

# The one analysis every fit runs: BINS x BINS histogram bins over the
# PERCENTILES box of each channel, and a solver that stops at the relative
# TOLERANCE or after MAX_EVALUATIONS (residual evaluations for "hist-ls",
# steps for "ml").
BINS = 64
PERCENTILES = (0.5, 99.5)
TOLERANCE = 1e-10
MAX_EVALUATIONS = 1000


class DegenerateDataError(HeraldtimeError):
    """Raised when the events carry no usable variance."""


@dataclass(frozen=True)
class FitConfig:
    """The one setting of :func:`fit`, its loss: "hist-ls" (histogram least
    squares, default) or "ml" (event-wise maximum likelihood on the
    Gaussian-plus-uniform mixture).  Every fit bins, stops and caps its work
    alike: see ``BINS``, ``PERCENTILES``, ``TOLERANCE`` and
    ``MAX_EVALUATIONS``."""

    loss: str = "hist-ls"

    def __post_init__(self):
        if self.loss not in ("hist-ls", "ml"):
            raise ValueError(f"loss must be 'hist-ls' or 'ml', got {self.loss!r}")


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
    converged:         the solver met its stopping rule (see ``TOLERANCE``)
                       rather than its evaluation cap or a stall.
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
    condition_number:  largest over smallest eigenvalue magnitude of the
                       curvature at the stop, the one the errors come from;
                       None when that curvature is singular or not finite.
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
    condition_number: float | None = None

    def summary(self) -> dict:
        """Flat mapping of everything worth serializing: the covariance
        entries and their narrowing limit, then every other field, the
        standard errors only when there are some."""
        out = {name: getattr(self.cov, name) for name in PARAM_NAMES[:5]}
        out["narrowing_ratio_limit"] = narrowing_ratio_limit(self.cov)
        out.update((f.name, getattr(self, f.name)) for f in fields(self)
                   if f.name not in ("cov", "std_errors"))
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
    _, (m1, m2, s1, s2), r = _moments(events.t1, events.t2)
    return TemporalCovariance(rho_t=r, tau1=s1, tau2=s2, mu1=m1, mu2=m2)


# --------------------------------------------------------------------------
# Shared machinery
# --------------------------------------------------------------------------

def _check_varies(t: np.ndarray) -> None:
    """DegenerateDataError for a constant channel, caught on its raw times:
    their mean may round off the one value and leave a tiny SD that is not
    zero."""
    if not (t != t[0]).any():
        raise DegenerateDataError("events have zero variance on a channel")


def _moments(t1, t2, out=None):
    """Standardized events, their scales and their clamped correlation.

    Returns u, an (n, 2) view of the (2, n) array ``out`` (a new one if
    None), so that each channel u[:, k] = (t_k - mean) / sd is contiguous;
    the scales (m1, m2, s1, s2), the values np.mean and np.std(ddof=1)
    return; and the sample correlation clamped to +-_RHO_CLAMP.  t1 and t2
    may be the rows of ``out``, which are then standardized in place.
    """
    n = t1.shape[0]
    u = np.empty((2, n)) if out is None else out
    sq = np.empty(n)
    scales = []
    for row, t in zip(u, (t1, t2)):
        _check_varies(t)
        m = float(np.mean(t))
        np.subtract(t, m, out=row)
        scales.append((m, math.sqrt(
            float(np.multiply(row, row, out=sq).sum()) / (n - 1))))
    (m1, s1), (m2, s2) = scales
    if s1 == 0.0 or s2 == 0.0:
        raise DegenerateDataError("events have zero variance on a channel")
    u[0] /= s1
    u[1] /= s2
    r = float(np.einsum("i,i->", u[0], u[1])) / (n - 1)
    return u.T, (m1, m2, s1, s2), min(max(r, -_RHO_CLAMP), _RHO_CLAMP)


# np.percentile's fractions of PERCENTILES, and the standardized values
# beyond which _box_in_u looks for their order statistics first
_QUANTILES = tuple(p / 100 for p in PERCENTILES)
_TAIL = 2.0


def _order_stats(v: np.ndarray, low: list, high: list) -> list[float]:
    """The order statistics ``low + high`` of v (indices into sorted v).

    The k-th smallest of v is the k-th smallest of its values below -_TAIL
    when more than k lie there, and likewise from the top above _TAIL;
    when those few values hold every index asked for, only they are
    partitioned.  Otherwise all of v is, at the indices np.percentile
    partitions at, so that -0.0 and 0.0, which compare equal, come out in
    the same order.
    """
    below = v[v < -_TAIL]
    above = v[v > _TAIL]
    skip = v.shape[0] - above.size
    if max(low) < below.size and min(high) >= skip:
        top = [k - skip for k in high]
        return (np.partition(below, low)[low].tolist()
                + np.partition(above, top)[top].tolist())
    return np.partition(v, sorted({0, -1, *low, *high}))[low + high].tolist()


def _lerp(a: float, b: float, t: float) -> float:
    """np.percentile's linear interpolation from a (t = 0) to b (t = 1)."""
    diff = b - a
    return b - diff * (1 - t) if t >= 0.5 else a + diff * t


def _box_in_u(u: np.ndarray) -> tuple[tuple[float, float], ...]:
    """``np.percentile(u[:, k], PERCENTILES)`` of each channel k, bit for bit.

    Each percentile interpolates between the two order statistics around
    its virtual index (n - 1) q, as np.percentile does; :func:`_order_stats`
    finds them without a copy of the channel.  u holds at least two events.
    """
    virtual = [(u.shape[0] - 1) * q for q in _QUANTILES]
    below = [math.floor(v) for v in virtual]
    low, high = ([k, k + 1] for k in below)
    boxes = []
    for k in range(u.shape[1]):
        a0, b0, a1, b1 = _order_stats(u[:, k], low, high)
        boxes.append((_lerp(a0, b0, virtual[0] - below[0]),
                      _lerp(a1, b1, virtual[1] - below[1])))
    return tuple(boxes)


# Events binned per pass of ``_bin_counts``: bounds its temporaries to
# ~0.4 MB, and bins 82k events no slower than blocks of 65 536 did.
_BIN_BLOCK = 1 << 13


def _bin_counts(u, box1, box2, bins1, bins2):
    """``np.histogram2d(u[:, 0], u[:, 1], (bins1, bins2), (box1, box2))``.

    Each event's bin comes straight from its offset in the box, then moves
    one bin down or up where the linspace edges disagree, as np.histogram
    does for uniform bins.  That reproduces the edge search of
    np.histogram2d exactly: bins are closed on the left, the last one also
    on the right.  An event below the box lands in bin -1 and one above it
    in bin n (the upper edge of the last bin is read as the next float
    past the box), so one padded bincount drops them.  The events go in
    blocks of ``_BIN_BLOCK``, whose integer counts add up exactly.
    """
    axes = []
    for (lo, hi), n in ((box1, bins1), (box2, bins2)):
        lo, hi = float(lo), float(hi)
        if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
            raise ValueError(f"histogram range [{lo!r}, {hi!r}] is not a "
                             "finite interval")
        if lo == hi:
            lo, hi = lo - 0.5, hi + 0.5
        e = np.linspace(lo, hi, n + 1)
        upper = e[1:].copy()
        upper[-1] = np.nextafter(hi, math.inf)
        axes.append((lo, hi, n, e, upper))
    padded = (bins1 + 2) * (bins2 + 2)
    counts = np.zeros(padded, dtype=np.intp)
    for start in range(0, len(u), _BIN_BLOCK):
        block = u[start:start + _BIN_BLOCK]
        flat = None
        for v, (lo, hi, n, e, upper) in zip((block[:, 0], block[:, 1]), axes):
            f = np.subtract(v, lo)
            f *= n / (hi - lo)
            k = np.clip(f, 0, n - 1, out=f).astype(np.intp)
            k -= v < e[k]
            k += v >= upper[k]
            # shift into the padded grid of (bins1 + 2) x (bins2 + 2)
            k += 1
            if flat is None:
                flat = k
            else:
                flat *= n + 2
                flat += k
        counts += np.bincount(flat, minlength=padded)
    counts = counts.reshape(bins1 + 2, bins2 + 2)[1:-1, 1:-1]
    return counts.astype(float), axes[0][3], axes[1][3]


def _expit(t: float) -> float:
    """Logistic function 1 / (1 + e^-t); below -700 that is e^t to rounding,
    and e^-t would overflow."""
    return 1.0 / (1.0 + math.exp(-t)) if t > -700.0 else math.exp(t)


def _theta_to_shape(theta):
    rho = math.tanh(theta[0])
    return rho, math.exp(theta[1]), math.exp(theta[2]), theta[3], theta[4]


def _gauss_terms(u1, u2, c1, c2, rho, w1, w2, out=(None,) * 8):
    """Bivariate normal centered on (c1, c2) at (u1, u2), with the terms its
    derivatives are built from.

    Returns x = (u1 - c1)/w1, y = (u2 - c2)/w2, a = x - rho y,
    b = y - rho x, the density phi, and the products ax = a x, by = b y
    and c = ax + by, phi's quadratic form.  ``out`` may hold eight arrays
    of the result shapes to write these into, so that repeated passes over
    the events allocate nothing.
    """
    x, y, a, b, phi, ax, by, c = out
    x = np.subtract(u1, c1, out=x)
    x /= w1
    y = np.subtract(u2, c2, out=y)
    y /= w2
    a = np.subtract(x, y * rho, out=a)
    b = np.subtract(y, x * rho, out=b)
    ax = np.multiply(x, a, out=ax)
    by = np.multiply(y, b, out=by)
    c = np.add(ax, by, out=c)
    om = 1.0 - rho * rho
    phi = np.multiply(c, -0.5 / om, out=phi)
    np.exp(phi, out=phi)
    phi *= 1.0 / (2.0 * math.pi * w1 * w2 * math.sqrt(om))
    return x, y, a, b, phi, ax, by, c


def _score_map(rho, w1, w2):
    """The 5x7 matrix M with s = M q: the gradient s of log phi in
    (atanh rho, log w1, log w2, c1, c2) as a linear map of the terms
    q = (1, a, b, xy, c, ax, by) of :func:`_gauss_terms`.

    s = (xy - rho c / om + rho, ax / om - 1, by / om - 1, a / (om w1),
    b / (om w2)) with om = 1 - rho^2.  Sums of phi s or of r s s^T over
    events or nodes are then M times the same sums of q or q q^T.
    """
    om = 1.0 - rho * rho
    m = np.zeros((5, 7))
    m[0, [0, 3, 4]] = rho, 1.0, -rho / om
    m[1, [0, 5]] = -1.0, 1.0 / om
    m[2, [0, 6]] = -1.0, 1.0 / om
    m[3, 1] = 1.0 / (om * w1)
    m[4, 2] = 1.0 / (om * w2)
    return m


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


def _condition_number(curvature):
    """max |eigenvalue| / min |eigenvalue| of a symmetric matrix, or None
    when it is singular or not finite."""
    if not np.all(np.isfinite(curvature)):
        return None
    eig = np.abs(np.linalg.eigvalsh(curvature))
    cond = float(eig.max() / eig.min()) if eig.min() > 0 else math.inf
    return cond if math.isfinite(cond) else None


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
        condition_number=_condition_number(opt.hess),
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


def _exponential_jump(x, g, h, last, lower, upper, candidates, small):
    """A jump along one coordinate whose loss falls off exponentially.

    Along a coordinate where the loss falls like c e^-kt toward a bound
    (the likelihood's logit weight on data without background) every
    Newton step has the same length 1/k, and the solver would walk toward
    the bound one step at a time.  Its mark: convex along the coordinate,
    and after a step toward the bound of about the previous 1-D Newton
    step (within half of it), the new Newton step still points there and
    is shorter than the previous one by at most a tenth of the distance
    moved; on a quadratic it would be shorter by the whole distance.  The
    jump goes as far as the exponential takes the coordinate's own Newton
    decrement g^2 / 2h down to ``small``, or to the bound if that is
    nearer.

    ``last`` holds x and the 1-D Newton steps at the previous accepted
    point; ``candidates`` masks the coordinates that may jump.  Returns
    (index, target) or None, and the 1-D Newton steps at x.
    """
    hd = np.diag(h)
    newton = np.divide(-g, hd, out=np.zeros_like(g), where=hd > 0)
    if last is None:
        return None, newton
    x_old, n_old = last
    moved = (x - x_old) * np.sign(n_old)
    walk = (candidates & (newton * n_old > 0)
            & (np.abs(moved - np.abs(n_old)) <= 0.5 * np.abs(n_old))
            & (np.abs(newton) >= np.abs(n_old) - 0.1 * moved))
    if not walk.any():
        return None, newton
    j = int(np.argmax(walk))
    decrement = -0.5 * g[j] * newton[j]
    distance = math.log(max(decrement / small, 1.0)) * abs(newton[j])
    target = x[j] + math.copysign(distance, newton[j])
    return (j, float(np.clip(target, lower[j], upper[j]))), newton


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
    of ``full``; one where it returns f = inf (with any g and H) is
    refused like one that raised f.  A coordinate that walks toward a
    finite bound in Newton steps of constant length is tried once where
    that walk would end (see :func:`_exponential_jump`), and kept there if
    that lowers f and the gradient along it still points the same way.

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
    # coordinates with a finite bound that have not jumped yet
    may_jump = np.isfinite(lower) | np.isfinite(upper)
    last = None

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
        if may_jump.any():
            jump, newton = _exponential_jump(
                x, g, h, last, lower, upper, may_jump & free,
                0.25 * tolerance * max(abs(f), 1.0))
            last = x, newton
            if jump is not None and nfev < max_nfev:
                j, target = jump
                may_jump[j] = False
                trial = x.copy()
                trial[j] = target
                f_new, g_new, h_new = full(trial)
                nfev += 1
                # kept only if it lowers f without passing a minimum in j
                if f_new < f and g_new[j] * g[j] > 0:
                    x, f, g, h = trial, f_new, g_new, h_new
                    nit += 1
                    continue
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

def _hist_ls_terms(theta, g1, g2, counts, area):
    """The histogram model at theta and the terms its loss is built from.

    ``g1`` and ``g2`` hold the (4, bins1, 1) and (4, 1, bins2) coordinates
    of the four Gauss-Legendre nodes per bin; all four are evaluated in one
    broadcast (4, bins1, bins2) pass.  Returns the model, its floor-clipped
    copy m, counts / m, the signed-root deviance residuals and the model's
    derivatives dm (7, bins).
    """
    shape = _theta_to_shape(theta)
    # the node terms q = (a, b, xy, c, ax, by) the scores are linear in,
    # stacked for one sum over the nodes
    q = np.empty((6, g1.shape[0]) + counts.shape)
    x, y, _, _, phi, _, _, _ = _gauss_terms(
        g1, g2, *shape[3:], *shape[:3],
        out=(None, None, q[0], q[1], None, q[4], q[5], q[3]))
    np.multiply(x, y, out=q[2])
    # node sums of phi q, after the plain density sum, so that the model's
    # shape derivatives are scale * M times them
    z = np.empty((7,) + counts.shape)
    phi.sum(axis=0, out=z[0])
    np.einsum("knij,nij->kij", q, phi, out=z[1:])
    scale = math.exp(theta[5]) * area / 4.0
    model = scale * z[0] + theta[6]
    dm = np.empty((7, counts.size))
    np.matmul(scale * _score_map(*shape[:3]), z.reshape(7, -1), out=dm[:5])
    dm[5] = (model - theta[6]).ravel()
    dm[6] = 1.0
    m = np.maximum(model, 1e-12)
    ratio = counts / m
    dev = 2.0 * (m - counts
                 + counts * np.log(np.where(counts > 0, ratio, 1.0)))
    res = np.sign(m - counts) * np.sqrt(np.maximum(dev, 0.0))
    return model, m, ratio, res, dm


def _hist_ls_jacobian(terms, counts):
    """The Jacobian of the residuals from :func:`_hist_ls_terms`' terms."""
    model, m, ratio, res, dm = terms
    # d(signed root deviance)/dm = (1 - counts/m) / res; where m and the
    # counts agree to 1e-5 that ratio cancels, and its limit 1/sqrt(m) is
    # closer than the rounding; clipped bins are flat
    close = np.abs(m - counts) <= 1e-5 * m
    drdm = np.where(close, 1.0 / np.sqrt(m),
                    (1.0 - ratio) / np.where(close, 1.0, res))
    drdm[model < 1e-12] = 0.0
    return (dm * drdm.ravel()).T


def _fit_hist_ls(u, scales, rho0: float):
    box1, box2 = _box_in_u(u)
    counts, e1, e2 = _bin_counts(u, box1, box2, BINS, BINS)
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
    # node k of each bin sits at (g1[k], g2[k])
    g1 = np.stack([(c1 + o)[:, None] for o in (-d1, -d1, d1, d1)])
    g2 = np.stack([(c2 + o)[None, :] for o in (-d2, d2, -d2, d2)])
    area = h1 * h2

    # theta = [atanh rho, log w1, log w2, c1, c2, log A, B], starting from
    # the sample moments and, for B, the mean count of the box's outer
    # ring of bins (at least one count over the whole box, so that every
    # bin's model starts positive): from B = 0 the empty bins' model tends
    # to 0, where their curvature 1/m is huge and B would grow only a
    # little per step
    ring = np.concatenate([counts[0], counts[-1], counts[1:-1, 0],
                           counts[1:-1, -1]])
    x0 = np.array([math.atanh(rho0), 0.0, 0.0, 0.0, 0.0,
                   math.log(max(n_box, 1.0)),
                   max(float(ring.mean()), 1.0 / nbins)])
    counted = (counts > 0).ravel()

    def full(theta):
        # f = |r|^2 / 2 is half the Poisson deviance sum m - c + c log(c/m),
        # whose gradient is sum (1 - c/m) dm.  Steps take its Fisher
        # information sum dm dm^T / m as curvature: J^T J is that only
        # where counts are large, and in sparse bins it underestimates the
        # background's curvature so much that the steps in B overshoot and
        # converge only linearly.  Clipped bins are flat.  A bin with counts
        # c whose model falls to the floor has the deviance c log(c/m) ->
        # inf that the floor hides; clipped, it would stay flat at a loss
        # ~27 c too high, a false minimum, so such a trial point is refused.
        model, m, ratio, r, dm = _hist_ls_terms(theta, g1, g2, counts, area)
        live = (model >= 1e-12).ravel()
        if not live[counted].all():
            return math.inf, None, None
        m = m.ravel()
        score = np.where(live, 1.0 - ratio.ravel(), 0.0)
        fisher = (dm * np.where(live, 1.0 / m, 0.0)) @ dm.T
        r = r.ravel()
        return 0.5 * _wsum(r, r), dm @ score, 0.5 * (fisher + fisher.T)

    res = _damped_newton(full, x0, TOLERANCE, MAX_EVALUATIONS,
                         max_step=_MAX_STEP)
    # the errors come from J^T J, the Gauss-Newton curvature of the
    # residuals, as in a least-squares fit
    theta = res.x
    terms = _hist_ls_terms(theta, g1, g2, counts, area)
    jm = _hist_ls_jacobian(terms, counts).T
    res = replace(res, hess=jm @ jm.T)
    model = terms[1]
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

# rows of the likelihood's per-chunk work array: the terms q = (1, a, b,
# xy, c, ax, by) the shape scores are linear in, x and y, the per-event
# weights G_w, r and r (G_w + w), the signal density (1-w) phi, the
# mixture density g, and seven rows for r (1 - r) q
_Q = slice(0, 7)
_X, _Y, _GW, _R, _RG, _PHI, _G = range(7, 14)
_RRQ = slice(14, 21)


def _ml_sums(u1, u2, shape, wb, ws, area_box, work, kept):
    """Per-event sums the mixture NLL and its derivatives are built from.

    With r = (1-w) phi / g the signal responsibility of each event, the
    score needs the NLL, the sum of 1/g and the r-weighted sums of q.  The
    curvature adds r-weighted x and y, the sums of G_w and G_w^2 with
    G_w = d log g / d logit w, the (G_w + w) r-weighted sums of q and the
    r (1-r)-weighted sums of q q^T.  Each group is one matrix product over
    rows of ``work``.  Where the density clips at 1e-300 the loss is flat,
    so those events add nothing to the derivatives.

    Returns the flat vector (nll, sum 1/g, the 3x10 sums of (G_w, r,
    r (G_w + w)) times rows 0-9 (q, x, y, G_w), the 7x7 sums of
    r (1-r) q q^T).
    """
    rho, w1, w2, cc1, cc2 = shape
    x, y, _, _, phi, _, _, _ = _gauss_terms(
        u1, u2, cc1, cc2, rho, w1, w2,
        out=(work[_X], work[_Y], work[1], work[2], work[_PHI], work[5],
             work[6], work[4]))
    phi *= ws
    g = np.add(phi, wb / area_box, out=work[_G])
    np.greater_equal(g, 1e-300, out=kept)
    np.maximum(g, 1e-300, out=g)
    nll = -float(np.log(g, out=work[_R]).sum())
    inv = np.divide(kept, g, out=g)
    r = np.multiply(phi, inv, out=work[_R])
    np.multiply(x, y, out=work[3])
    q = work[_Q]
    head = [nll, float(inv.sum())]
    # G_w = w ((1-w)/(A g) - r)
    g_w = np.multiply(inv, ws / area_box, out=work[_GW])
    g_w -= r
    g_w *= wb
    np.add(g_w, wb, out=work[_RG])
    work[_RG] *= r
    rr = np.subtract(1.0, r, out=work[_PHI])
    rr *= r
    rrq = np.multiply(q, rr, out=work[_RRQ])
    return np.concatenate([head, (work[_GW:_RG + 1] @ work[:_R].T).ravel(),
                           (rrq @ q.T).ravel()])


def _ml_loss(theta, u1, u2, area_box):
    """Negative log-likelihood of the Gaussian-plus-uniform mixture, its
    gradient and its Hessian (observed information).

    theta = [atanh rho, log w1, log w2, c1, c2, logit background-weight].
    The events are summed in chunks of ``_ML_CHUNK``, all written into one
    work array.
    """
    work = np.empty((_RRQ.stop, _ML_CHUNK))
    work[0] = 1.0
    kept = np.empty(_ML_CHUNK, bool)
    shape = _theta_to_shape(theta)
    rho, w1, w2 = shape[:3]
    wb, ws = _expit(theta[5]), _expit(-theta[5])
    om = 1.0 - rho * rho
    n = u1.shape[0]
    total = sum(_ml_sums(u1[i:i + _ML_CHUNK], u2[i:i + _ML_CHUNK], shape, wb,
                         ws, area_box, work[:, :min(_ML_CHUNK, n - i)],
                         kept[:min(_ML_CHUNK, n - i)])
                for i in range(0, n, _ML_CHUNK))
    nll, sinv = total[:2]
    sums = total[2:32].reshape(3, 10)
    sr, sa, sb, sxy, _, sax, sby, sx, sy, _ = sums[1]
    # x^2 = ax + rho xy and y^2 = by + rho xy
    sxx, syy = sax + rho * sxy, sby + rho * sxy
    grad = -np.array([sxy - (rho / om) * (sax + sby) + rho * sr,
                      sax / om - sr, sby / om - sr,
                      sa / (om * w1), sb / (om * w2),
                      wb * ws / area_box * sinv - wb * sr])

    # H = sum G G^T - sum (Hessian of g)/g with G = grad log g.  On the
    # shape block that is -sum r (1-r) s s^T - sum r T, with T the Hessian
    # of log phi, whose entries are polynomials in x, y, a, b.  Across the
    # shape and weight coordinates it is sum r s (G_w + w), on the weight
    # sum G_w^2 - (1 - 2w) G_w.  The score sums are M times sums of q.
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
    m = _score_map(rho, w1, w2)
    rrss = m @ total[32:].reshape(7, 7) @ m.T
    iu = np.triu_indices(5)
    hess[iu] = -hess[iu] - rrss[iu]
    hess[:5, 5] = m @ sums[2, :7]
    hess[5, 5] = sums[0, 9] - (ws - wb) * sums[0, 0]
    il = np.tril_indices(6, -1)
    hess[il] = hess.T[il]
    return nll, grad, hess


def _fit_ml(u, scales, rho0: float):
    n = u.shape[0]
    u1, u2 = u[:, 0], u[:, 1]
    # the uniform component must cover every event, otherwise far background
    # events are forced onto the Gaussian tail and inflate the widths; use
    # the (slightly padded) data bounding box as its support
    lo1, hi1, lo2, hi2 = u1.min(), u1.max(), u2.min(), u2.max()
    pad1 = 1e-9 * max(1.0, float(hi1 - lo1))
    pad2 = 1e-9 * max(1.0, float(hi2 - lo2))
    lo1, hi1, lo2, hi2 = lo1 - pad1, hi1 + pad1, lo2 - pad2, hi2 + pad2
    area_box = (hi1 - lo1) * (hi2 - lo2)

    # theta = [atanh rho, log w1, log w2, c1, c2, logit background-weight],
    # starting from the sample moments
    x0 = np.array([math.atanh(rho0), 0.0, 0.0, 0.0, 0.0,
                   math.log(1e-3 / (1 - 1e-3))])
    # the logit weight is kept in [-30, 30]; MAX_EVALUATIONS caps the steps
    res = _damped_newton(
        lambda t: _ml_loss(t, u1, u2, area_box), x0, TOLERANCE,
        MAX_EVALUATIONS + 1, lower=[-np.inf] * 5 + [-30.0],
        upper=[np.inf] * 5 + [30.0], max_step=_MAX_STEP)
    theta = res.x
    rho, w1, w2, cc1, cc2 = _theta_to_shape(theta)
    w = _expit(theta[5])

    # histogram goodness of fit for reporting, same binning as hist-ls
    counts, e1, e2 = _bin_counts(u, (lo1, hi1), (lo2, hi2), BINS, BINS)
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
    return _fit_channels(events.t1, events.t2, cfg)


def _fit_channels(t1, t2, cfg, out=None) -> FitResult:
    """:func:`fit` on the channels t1 and t2, the one entry of every fit.

    ``out`` is passed to :func:`_moments`: a (2, n) array that t1 and t2
    may be the rows of, standardized in place.
    """
    n = t1.shape[0]
    if n < 100:
        raise DegenerateDataError(f"need at least 100 events to fit, got {n}")
    u, scales, rho0 = _moments(t1, t2, out)
    if cfg is not None and cfg.loss == "ml":
        return _fit_ml(u, scales, rho0)
    return _fit_hist_ls(u, scales, rho0)


def bootstrap_errors(events: EventSet, cfg: FitConfig | None = None,
                     n_resamples: int = 200, seed: int = 0) -> dict[str, float]:
    """Bootstrap standard errors of the fitted parameters (validation aid).

    Resamples events with replacement and refits; returns the standard
    deviation (``ddof=1``) of each recovered parameter across resamples,
    resample k being row k of ``default_rng(seed).integers(0, n, size=
    (n_resamples, n))``.  Each resample's channels are gathered straight
    from the events, which were checked when their EventSet was made, into
    the one (2, n) array whose rows every refit takes as its channels and
    standardizes in place (through :func:`fit`'s own entry, without an
    EventSet); the resample's indices are dropped before it is refitted.
    ValueError unless ``n_resamples`` >= 2.
    """
    _count(n_resamples, "the number of resamples", "be an integer >= 2", 2)
    rng, n, params = np.random.default_rng(seed), events.count, []
    # t1 and t2 of event i sit at 2i and 2i + 1: np.take would copy a
    # strided channel whole, and with mode "raise" buffer its output too
    flat = events.events.reshape(-1)
    u = np.empty((2, n))
    for _ in range(n_resamples):
        idx = rng.integers(0, n, size=n)
        idx *= 2
        np.take(flat, idx, out=u[0], mode="clip")
        idx += 1
        np.take(flat, idx, out=u[1], mode="clip")
        del idx
        res = _fit_channels(u[0], u[1], cfg, u)
        params.append([res.cov.rho_t, res.cov.tau1, res.cov.tau2, res.cov.mu1,
                       res.cov.mu2, res.amplitude, res.background_level])
    return dict(zip(PARAM_NAMES, map(float, np.std(params, axis=0, ddof=1))))
