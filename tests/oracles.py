"""Independent numerical oracles used to validate the closed forms.

Nothing in here reuses the closed-form widths or correlation from the
package; each oracle goes back to a defining integral or to first-principles
phase-space sampling so the tests genuinely cross-check the implementation.
The mpmath oracles (``*_mp``) restate a closed form at 50 digits instead, to
check its rounding.
"""

from __future__ import annotations

import math

import numpy as np

from heraldtime.params import TemporalCovariance

trapezoid = getattr(np, "trapezoid", None) or np.trapz


# --------------------------------------------------------------------------
# Quadrature oracles for the joint / conditional densities
# --------------------------------------------------------------------------

def joint_total_mass(cov: TemporalCovariance, half_span: float = 8.0) -> float:
    """Integral of the joint density over +/- half_span standard deviations.

    Integrates in standardized coordinates so the integrand is O(1).
    """
    from scipy.integrate import dblquad

    from heraldtime.analytic import joint_density

    def integrand(z2, z1):
        return float(joint_density(cov.mu1 + cov.tau1 * z1,
                                   cov.mu2 + cov.tau2 * z2, cov)) \
            * cov.tau1 * cov.tau2

    value, _ = dblquad(integrand, -half_span, half_span,
                       lambda _: -half_span, lambda _: half_span,
                       epsabs=1e-10, epsrel=1e-10)
    return value


def conditional_pdf_quad(t1_grid, center: float, width: float,
                         cov: TemporalCovariance,
                         half_span: float = 8.0) -> np.ndarray:
    """Windowed conditional density from the defining ratio of integrals.

    numerator(t1)  = integral of the joint density over the window in t2
    denominator    = integral of the numerator over all t1

    evaluated by adaptive quadrature on the joint density alone.
    """
    from scipy.integrate import quad

    from heraldtime.analytic import joint_density

    lo = center - 0.5 * width
    hi = center + 0.5 * width

    def numerator(t1):
        def integrand(z2):
            return float(joint_density(t1, cov.mu2 + cov.tau2 * z2, cov)) \
                * cov.tau2
        a = (lo - cov.mu2) / cov.tau2
        b = (hi - cov.mu2) / cov.tau2
        value, _ = quad(integrand, a, b, epsabs=1e-14, epsrel=1e-12, limit=200)
        return value

    def denominator():
        def integrand(z1):
            return numerator(cov.mu1 + cov.tau1 * z1) * cov.tau1
        value, _ = quad(integrand, -half_span, half_span, epsabs=1e-12,
                        epsrel=1e-10, limit=200)
        return value

    den = denominator()
    return np.array([numerator(t) for t in np.asarray(t1_grid)]) / den


def conditional_moments_quad(cov: TemporalCovariance, center: float,
                             width: float, half_span: float = 8.0):
    """Mean and standard deviation of the windowed conditional by quadrature."""
    from scipy.integrate import quad

    from heraldtime.analytic import conditional_density

    def moment(k):
        def integrand(z1):
            t1 = cov.mu1 + cov.tau1 * z1
            return (t1 ** k) * float(conditional_density(t1, center, width,
                                                         cov)) * cov.tau1
        value, _ = quad(integrand, -half_span, half_span, epsabs=1e-12,
                        epsrel=1e-10, limit=400)
        return value

    m0 = moment(0)
    m1 = moment(1) / m0
    m2 = moment(2) / m0
    return m1, math.sqrt(m2 - m1 * m1)


# --------------------------------------------------------------------------
# Spectral-intensity moments of the two-photon Gaussian amplitude
# --------------------------------------------------------------------------

def truncated_normal_moments_mp(mu: float, sd: float, lo: float,
                                hi: float, dps: int = 50):
    """Mean and variance of N(mu, sd^2) on [lo, hi] at ``dps`` digits."""
    import mpmath

    with mpmath.workdps(dps):
        mu, sd = mpmath.mpf(mu), mpmath.mpf(sd)
        a, b = (mpmath.mpf(lo) - mu) / sd, (mpmath.mpf(hi) - mu) / sd
        # mpf carries an exponent, so only the tail away from 1 cancels.
        mass = (mpmath.ncdf(b) - mpmath.ncdf(a) if a + b < 0
                else mpmath.ncdf(-a) - mpmath.ncdf(-b))
        pa, pb = mpmath.npdf(a), mpmath.npdf(b)
        ta = a * pa if mpmath.isfinite(a) else 0
        tb = b * pb if mpmath.isfinite(b) else 0
        shift = (pa - pb) / mass
        var = 1 + (ta - tb) / mass - shift ** 2
        return float(mu + sd * shift), float(sd ** 2 * var)


def conditional_density_mp(t1: float, center: float, width: float,
                           cov: TemporalCovariance, dps: int = 50) -> float:
    """Windowed conditional density from its closed form at ``dps`` digits.

    pdf(t1; tau1) times the normal mass of the window about the regression
    mean of t2, divided by the window's own mass.
    """
    import mpmath

    def mass(lo, hi):
        return (mpmath.ncdf(hi) - mpmath.ncdf(lo) if lo + hi < 0
                else mpmath.ncdf(-lo) - mpmath.ncdf(-hi))

    with mpmath.workdps(dps):
        rho = mpmath.mpf(cov.rho_t)
        tau1, tau2 = mpmath.mpf(cov.tau1), mpmath.mpf(cov.tau2)
        x1 = mpmath.mpf(t1) - mpmath.mpf(cov.mu1)
        half = mpmath.mpf(width) / 2
        a = mpmath.mpf(center) - half - mpmath.mpf(cov.mu2)
        b = mpmath.mpf(center) + half - mpmath.mpf(cov.mu2)
        m = rho * (tau2 / tau1) * x1
        s = tau2 * mpmath.sqrt(1 - rho ** 2)
        return float(mpmath.npdf(x1, 0, tau1) * mass((a - m) / s, (b - m) / s)
                     / mass(a / tau2, b / tau2))


def closed_forms_mp(sigma: float, tau_p: float, beta_l: float, dps: int = 50):
    """The source-to-observable closed forms of ``heraldtime.analytic`` as
    ``dps``-digit mpf values: tau1, tau1h_0, tau1h_dt_0, rho_t and the
    narrowing limit sqrt(1 - rho_t^2), from the exact values of the float
    inputs.  The formulas are the module's own, so this checks rounding only.
    """
    import mpmath

    with mpmath.workdps(dps):
        s2 = mpmath.mpf(sigma) ** 2
        tp2 = mpmath.mpf(tau_p) ** 2
        b2 = mpmath.mpf(beta_l) ** 2
        tau1_sq = (s2 * tp2 ** 2 + (b2 * s2 ** 2 + 4) * tp2
                   + 4 * b2 * s2) / (4 * s2 * tp2)
        rho = ((s2 * tp2 - 4) * (tp2 - b2 * s2)
               / ((s2 * tp2 + 4) * (tp2 + b2 * s2)))
        return {
            "tau1": mpmath.sqrt(tau1_sq),
            "tau1h_0": mpmath.sqrt((b2 * s2 ** 2 + 4) * (tp2 ** 2 + 4 * b2)
                                   / (4 * s2 * tp2 * tau1_sq)),
            "tau1h_dt_0": mpmath.sqrt(b2 * s2 ** 2 + 4) / mpmath.sqrt(s2),
            "rho_t": rho,
            "narrowing_ratio_limit": mpmath.sqrt(1 - rho ** 2),
        }


def spectral_intensity_moments(sigma: float, tau_p: float):
    """(Var(nu1), Cov(nu1, nu2)) of |phi|^2 by 2-D quadrature.

    phi(nu1, nu2) ~ exp(-(nu1 - nu2)^2 / sigma^2 - (nu1 + nu2)^2 tau_p^2 / 4)
    evaluated in scaled coordinates for a well-conditioned integrand.
    """
    from scipy.integrate import dblquad

    # scale each axis by a conservative width estimate
    s_minus = sigma / 2.0
    s_plus = 1.0 / tau_p
    scale = math.sqrt(s_minus ** 2 + s_plus ** 2)

    def intensity(x1, x2):
        n1 = x1 * scale
        n2 = x2 * scale
        return math.exp(-2.0 * (n1 - n2) ** 2 / sigma ** 2
                        - (n1 + n2) ** 2 * tau_p ** 2 / 2.0)

    span = 10.0

    def integrate(f):
        value, _ = dblquad(f, -span, span, lambda _: -span, lambda _: span,
                           epsabs=1e-12, epsrel=1e-10)
        return value

    mass = integrate(intensity)
    var = integrate(lambda x1, x2: x1 * x1 * intensity(x1, x2)) / mass
    cov = integrate(lambda x1, x2: x1 * x2 * intensity(x1, x2)) / mass
    return var * scale ** 2, cov * scale ** 2


# --------------------------------------------------------------------------
# Phase-space (Wigner) Monte-Carlo oracle for dispersed arrival times
# --------------------------------------------------------------------------

def wigner_pairs(sigma: float, tau_p: float, beta: float, length: float,
                 n: int, rng: np.random.Generator) -> np.ndarray:
    """Sample dispersed arrival-time pairs from first principles.

    The chronocyclic (Wigner) distribution of a real Gaussian amplitude
    exp(-nu^T A nu / 2) is a product of two independent Gaussians: frequency
    covariance A^{-1}/2 (the spectral intensity moments) and emission-time
    covariance A/2 (the transform-limited envelope).  Propagation through a
    fiber with quadratic spectral phase beta*L*nu^2 shears the distribution:
    each frequency component acquires the group delay 2*beta*L*nu.  Arrival
    times are therefore t = t0 + 2*beta*L*nu with (t0, nu) drawn from the
    initial Wigner product.  For Gaussian states the Wigner function is a
    true probability density, so this sampling is exact.

    For the amplitude exp(-(nu1-nu2)^2/sigma^2 - (nu1+nu2)^2 tau_p^2/4) the
    matrix A/2 is [[c, d], [d, c]] with c = 1/sigma^2 + tau_p^2/4 and
    d = tau_p^2/4 - 1/sigma^2, and A^{-1}/2 = [[c, -d], [-d, c]] * sigma^2 /
    (4 tau_p^2).
    """
    c = 1.0 / sigma ** 2 + tau_p ** 2 / 4.0
    d = tau_p ** 2 / 4.0 - 1.0 / sigma ** 2
    cov_t0 = np.array([[c, d], [d, c]])
    cov_nu = np.array([[c, -d], [-d, c]]) * sigma ** 2 / (4.0 * tau_p ** 2)
    t0 = rng.multivariate_normal([0.0, 0.0], cov_t0, size=n, method="cholesky")
    nu = rng.multivariate_normal([0.0, 0.0], cov_nu, size=n, method="cholesky")
    return t0 + 2.0 * beta * length * nu


# --------------------------------------------------------------------------
# Brute-force Fourier oracle (validates the Wigner construction itself)
# --------------------------------------------------------------------------

def _chirped_profile_var(env_width: float, chirp: float,
                         n_t: int = 801) -> float:
    """Variance of |integral of exp(-nu^2/env_width^2 + i chirp nu^2 - i nu t)|^2.

    Direct numerical Fourier transform on dense grids; no Gaussian-integral
    shortcuts.  env_width is the 1/e half-width of the *amplitude* envelope.
    The frequency grid is refined until the trapezoid sum resolves the
    oscillations of the kernel over the whole time span (dnu * t_max << pi).
    """
    nu_max = 8.0 * env_width
    # conservative time span: transform-limited core plus group-delay sweep
    t_half = 10.0 * (1.0 / env_width + 2.0 * abs(chirp) * env_width)
    n_nu = 1 << max(12, math.ceil(math.log2(4.0 * nu_max * t_half / math.pi)))
    nu = np.linspace(-nu_max, nu_max, n_nu)
    dn = nu[1] - nu[0]
    assert dn * t_half < math.pi / 2.0, "frequency grid too coarse"
    amp = np.exp(-(nu / env_width) ** 2 + 1j * chirp * nu ** 2)
    t = np.linspace(-t_half, t_half, n_t)
    profile = np.empty(n_t)
    for i in range(0, n_t, 128):
        block = t[i:i + 128]
        kernel = np.exp(-1j * np.outer(block, nu))
        profile[i:i + 128] = np.abs(kernel @ amp * dn) ** 2
    mass = trapezoid(profile, t)
    mean = trapezoid(t * profile, t) / mass
    var = trapezoid((t - mean) ** 2 * profile, t) / mass
    # the profile must have decayed at the grid edges for the result to hold
    assert profile[0] < 1e-10 * profile.max()
    assert profile[-1] < 1e-10 * profile.max()
    return float(var)


def fourier_time_moments(sigma: float, tau_p: float, beta: float,
                         length: float):
    """(Var(t1), Cov(t1, t2)) from the dispersed two-photon amplitude.

    In sum/difference coordinates nu_pm = nu1 +/- nu2 the amplitude
    factorizes into exp(-nu_-^2/sigma^2) * exp(-nu_+^2 tau_p^2/4), the
    quadratic phase splits as beta*L*(nu1^2 + nu2^2) = beta*L*(nu_+^2 +
    nu_-^2)/2, and the transform kernel exp(-i(nu1 t1 + nu2 t2)) becomes
    exp(-i nu_+ s_+) exp(-i nu_- s_-) with s_pm = (t1 +/- t2)/2.  The joint
    time profile is therefore a product of two 1-D chirped transforms in the
    half-coordinates; since t1 = s_+ + s_- and t2 = s_+ - s_-,

        Var(t1) = Var(s_+) + Var(s_-)
        Cov(t1, t2) = Var(s_+) - Var(s_-).

    Each 1-D profile is evaluated by brute-force numerical Fourier
    integration with no Gaussian-integral shortcuts.
    """
    chirp = beta * length / 2.0
    # s_- transform: envelope exp(-nu^2/sigma^2); s_+ : exp(-nu^2 tau_p^2/4)
    var_minus = _chirped_profile_var(sigma, chirp)
    var_plus = _chirped_profile_var(2.0 / tau_p, chirp)
    return (var_plus + var_minus, var_plus - var_minus)


# --------------------------------------------------------------------------
# Reference windows
# --------------------------------------------------------------------------
# Every window is the closed interval lo <= t2 <= hi with lo, hi =
# center -/+ width / 2, the rule of herald.select (0.1.0 tested
# |t2 - center| <= width / 2, which differs by one rounding at a window
# edge).

def in_window(t2, center, width):
    """Mask of the closed window [center - width/2, center + width/2]."""
    return (t2 >= center - 0.5 * width) & (t2 <= center + 0.5 * width)


# --------------------------------------------------------------------------
# Reference influence functions: the closed-form errors event by event
# --------------------------------------------------------------------------
# The delta-method standard error of a statistic T over n events is
# sqrt(sum_i IF_i**2) / n, with IF_i the empirical influence function of
# event i (Efron & Tibshirani 1993, ch. 21).  These evaluate IF_i for every
# event of every window from its mask, with no moment algebra, in extended
# precision where the platform has it: IF_i subtracts two near-equal terms
# for the events of a window that holds nearly every event.

def narrowing_influence_direct(t1, t2, center, widths):
    """Width ratios s_W / s and their influence-function errors."""
    x = np.asarray(t1, dtype=np.longdouble)
    n = x.size
    mu = np.mean(x)
    v = np.mean((x - mu) ** 2)
    full = ((x - mu) ** 2 - v) / v
    ratios, errs = [], []
    for w in widths:
        mask = in_window(t2, center, w)
        sel = x[mask]
        mu_w = np.mean(sel)
        v_w = np.mean((sel - mu_w) ** 2)
        p_w = np.longdouble(sel.size) / n
        infl = 0.5 * (np.where(mask, ((x - mu_w) ** 2 - v_w) / (p_w * v_w), 0)
                      - full)
        ratio = np.std(t1[mask], ddof=1) / np.std(t1, ddof=1)
        ratios.append(ratio)
        errs.append(float(ratio * np.sqrt(np.sum(infl * infl)) / n))
    return np.array(ratios), np.array(errs)


def width_influence_direct(x):
    """Sample SD of x and the influence-function error of that SD."""
    d = np.asarray(x, dtype=np.longdouble)
    d = d - np.mean(d)
    v = np.mean(d * d)
    infl = (d * d - v) / (2 * np.sqrt(v))
    return float(np.std(x, ddof=1)), float(np.sqrt(np.sum(infl * infl)) / d.size)


def window_replicates(t1, t2, windows, n_boot, seed):
    """Bootstrap replicates of each window's mean and SD, and the full SD.

    ``windows`` is a list of (center, width).  Resample k holds event i
    ``w[i]`` times, with w the counts of ``rng.integers(0, n, size=n)``; the
    window moments are weighted sums over fixed masks.  Returns arrays
    (means, sds) of shape (n_boot, len(windows)) and full_sds (n_boot,).
    """
    x = t1 - np.mean(t1)
    masks = np.array([in_window(t2, c, w) for c, w in windows], dtype=float)
    rng = np.random.default_rng(seed)
    means = np.empty((n_boot, len(windows)))
    sds = np.empty_like(means)
    full_sds = np.empty(n_boot)
    for k in range(n_boot):
        w = np.bincount(rng.integers(0, x.size, size=x.size),
                        minlength=x.size).astype(float)
        wx = w * x
        m, s1, s2 = masks @ w, masks @ wx, masks @ (wx * x)
        means[k] = s1 / m
        sds[k] = np.sqrt((s2 - s1 * s1 / m) / (m - 1))
        full_sds[k] = math.sqrt((wx @ x - wx.sum() ** 2 / x.size)
                                / (x.size - 1))
    return means + np.mean(t1), sds, full_sds


# --------------------------------------------------------------------------
# Reference refit bootstrap: the resampling loop of release 0.1.0
# --------------------------------------------------------------------------
# fitting.bootstrap_errors must reproduce its output bit for bit.

def refit_bootstrap_loop(events, cfg, n_resamples, seed):
    """Spread of refitted parameters over resamples drawn row by row."""
    from heraldtime.fitting import PARAM_NAMES, fit
    from heraldtime.sampler import EventSet

    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n_resamples):
        idx = rng.integers(0, events.count, size=events.count)
        res = fit(EventSet(events.events[idx], events.metadata), cfg)
        rows.append([res.cov.rho_t, res.cov.tau1, res.cov.tau2,
                     res.cov.mu1, res.cov.mu2, res.amplitude,
                     res.background_level])
    spread = np.std(np.asarray(rows), axis=0, ddof=1)
    return dict(zip(PARAM_NAMES, map(float, spread)))


# --------------------------------------------------------------------------
# Cramer-Rao bound of a clean bivariate normal
# --------------------------------------------------------------------------

def clean_cramer_rao(cov: TemporalCovariance, n: int) -> dict[str, float]:
    """Smallest standard errors any unbiased estimator of the five
    parameters can reach from n events of the bivariate normal ``cov``.

    The inverse Fisher information of n draws: the means decouple from the
    second moments, with variances tau_k^2 / n, and the second-moment block
    inverts to tau_k^2 / 2n for the widths and (1 - rho^2)^2 / n for the
    correlation, the sample correlation's asymptotic variance.
    """
    rho, t1, t2 = cov.rho_t, cov.tau1, cov.tau2
    return {"rho_t": (1.0 - rho * rho) / math.sqrt(n),
            "tau1": t1 / math.sqrt(2 * n), "tau2": t2 / math.sqrt(2 * n),
            "mu1": t1 / math.sqrt(n), "mu2": t2 / math.sqrt(n)}


# --------------------------------------------------------------------------
# Reference sampler: each chunk its own array, then one concatenation
# --------------------------------------------------------------------------
# The package fills one preallocated array chunk by chunk; its events must
# equal these bit for bit.

def sample_concatenated(cov, det, n, seed):
    """The events of ``sample(cov, det, n, seed)``, built chunk by chunk."""
    from heraldtime.sampler import CHUNK_SIZE, _chunk_rng

    chunks = []
    for k in range(math.ceil(n / CHUNK_SIZE)):
        m = min(CHUNK_SIZE, n - k * CHUNK_SIZE)
        rng = _chunk_rng(seed, k)
        z = rng.standard_normal((m, 2))
        t1 = cov.mu1 + cov.tau1 * z[:, 0]
        t2 = cov.mu2 + cov.tau2 * (cov.rho_t * z[:, 0]
                                   + math.sqrt(1.0 - cov.rho_t ** 2) * z[:, 1])
        if det.jitter1 > 0:
            t1 = t1 + det.jitter1 * rng.standard_normal(m)
        if det.jitter2 > 0:
            t2 = t2 + det.jitter2 * rng.standard_normal(m)
        if det.reference_jitter > 0:
            common = det.reference_jitter * rng.standard_normal(m)
            t1 = t1 + common
            t2 = t2 + common
        out = np.column_stack([t1, t2])
        if det.background_rate > 0:
            is_bg = rng.random(m) < det.background_rate
            lo, hi = det.window
            uniform = lo + (hi - lo) * rng.random((m, 2))
            out[is_bg] = uniform[is_bg]
        chunks.append(out)
    return np.concatenate(chunks, axis=0)


# --------------------------------------------------------------------------
# Reference event-file codec: a row-by-row writer and a line-by-line reader
# --------------------------------------------------------------------------
# The writer is release 0.1.0's loop, with one departure the package shares:
# a ``units`` key in ``meta`` is not written.  The reader states the grammar
# of the package's event files one line at a time; the package's reader must
# give the same arrays, decisions and messages.

def write_events_loop(events, path, unit="s"):
    """Format an event file one row at a time."""
    import json
    from pathlib import Path

    from heraldtime.dataio import EVENT_MAGIC, TIME_UNITS, ReportError

    if unit not in TIME_UNITS:
        raise ValueError(f"unknown time unit {unit!r}; known: {sorted(TIME_UNITS)}")
    scale = TIME_UNITS[unit]
    path = Path(path)
    meta = {k: v for k, v in events.metadata.items() if k != "units"}
    lines = [EVENT_MAGIC, f"# units = {unit}", f"# count = {events.count}"]
    if meta:
        lines.append("# meta = " + json.dumps(meta, sort_keys=True,
                                              allow_nan=False, default=str))
    for t1, t2 in events.events:
        lines.append(f"{float(t1 / scale)!r},{float(t2 / scale)!r}")
    try:
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    except OSError as exc:
        raise ReportError(f"cannot write event file {path}: {exc}") from exc


def _number(field):
    """A field as np.loadtxt reads a float: what float() reads from it once
    stripped, if that is ASCII without an underscore; else None."""
    field = field.strip()
    if not field.isascii() or "_" in field:
        return None
    try:
        return float(field)
    except ValueError:
        return None


def read_events_loop(path):
    r"""Parse an event file one line at a time by the grammar: lines end at
    "\n", "\r\n" or "\r"; line 1 is the magic line; the header runs up to
    the first line that, stripped, is neither empty nor starts with "#",
    each header line a "# key = value" with no key repeated, ``units``
    mandatory and ``count``, if given, ASCII digits equal to the number of
    rows; after it every non-empty line is a row of two finite
    comma-separated numbers."""
    import json
    import re
    from pathlib import Path

    from heraldtime.dataio import EVENT_MAGIC, TIME_UNITS, EventFileError
    from heraldtime.sampler import EventSet

    path = Path(path)
    try:
        text = path.read_bytes().decode("utf-8", "surrogateescape")
    except OSError as exc:
        raise EventFileError(f"cannot read event file {path}: {exc}") from exc
    lines = re.split(r"\r\n|\r|\n", text)
    if lines[-1] == "":  # the break that ends the last line
        lines.pop()
    if not lines or lines[0].strip() != EVENT_MAGIC:
        raise EventFileError(
            f"{path}:1: missing magic header {EVENT_MAGIC!r}")
    unit_scale = None
    declared = {}  # header key -> its line number
    declared_count = None
    metadata: dict = {}
    # the index of the first row: the header block runs up to it
    end = next((i for i, line in enumerate(lines) if i and line.strip()
                and not line.strip().startswith("#")), len(lines))
    for lineno, line in enumerate(lines[1:end], start=2):
        line = line.strip()
        if not line:
            continue
        try:
            line.encode("utf-8")
        except UnicodeEncodeError:
            raise EventFileError(f"{path}:{lineno}: not UTF-8 text") from None
        body = line[1:].strip()
        if "=" not in body:
            raise EventFileError(
                f"{path}:{lineno}: header line must be '# key = value'")
        key, _, value = body.partition("=")
        key = key.strip()
        value = value.strip()
        if key in declared:
            raise EventFileError(
                f"{path}:{lineno}: header key {key!r} repeats line "
                f"{declared[key]}")
        declared[key] = lineno
        if key == "units":
            if value not in TIME_UNITS:
                raise EventFileError(
                    f"{path}:{lineno}: unknown unit {value!r}; known: "
                    f"{sorted(TIME_UNITS)}")
            unit_scale = TIME_UNITS[value]
            metadata["units"] = value
        elif key == "count":
            # ASCII digits only, as in the rows: int() would also take
            # "1_0", "+2" and full-width digits
            if not (value.isascii() and value.isdigit()):
                raise EventFileError(
                    f"{path}:{lineno}: count must be a non-negative "
                    f"integer in ASCII digits, got {value!r}")
            declared_count = int(value)
        elif key == "meta":
            try:
                parsed = json.loads(value)
            except json.JSONDecodeError as exc:
                raise EventFileError(
                    f"{path}:{lineno}: meta is not valid JSON: {exc}") from exc
            if not isinstance(parsed, dict):
                raise EventFileError(
                    f"{path}:{lineno}: meta must be a JSON object")
            parsed.pop("units", None)
            metadata.update(parsed)
        else:
            metadata[key] = value
    if unit_scale is None:  # named at the first row, or the last line
        raise EventFileError(
            f"{path}:{min(end + 1, len(lines))}: the header ends without the "
            f"mandatory '# units = ...' line")
    rows: list[tuple[float, float]] = []
    for lineno, line in enumerate(lines[end:], start=end + 1):
        if not line:
            continue
        values = [_number(field) for field in line.split(",")]
        if (len(values) != 2 or None in values
                or not all(map(math.isfinite, values))):
            raise EventFileError(
                f"{path}:{lineno}: expected two finite comma-separated "
                f"numbers, got {line!r}")
        rows.append((values[0] * unit_scale, values[1] * unit_scale))
    if declared_count is not None and declared_count != len(rows):
        raise EventFileError(
            f"{path}:{declared['count']}: header declares count = "
            f"{declared_count} but file has {len(rows)} rows")
    arr = np.array(rows, dtype=float).reshape(len(rows), 2)
    return EventSet(arr, metadata)


# --------------------------------------------------------------------------
# Reference fits: the finite-difference fit paths of release 0.1.0
# --------------------------------------------------------------------------
# Both losses as 0.1.0 ran them: finite-difference optimizer derivatives,
# np.histogram2d binning and, for ML, a fixed-step finite-difference Hessian
# of the negative log-likelihood.  Each returns the fitted parameters and
# the standard errors keyed like ``fitting.PARAM_NAMES`` (None when the
# curvature was singular).  The package's analytic-derivative fits must
# land on the same optimum and reproduce these errors.

def _gauss2_ref(u1, u2, rho, w1, w2, c1, c2):
    x = (u1 - c1) / w1
    y = (u2 - c2) / w2
    om = 1.0 - rho * rho
    return np.exp(-0.5 * (x * x + y * y - 2.0 * rho * x * y) / om) / (
        2.0 * math.pi * w1 * w2 * math.sqrt(om))


def _theta_std_ref(cov_theta):
    var = np.diag(cov_theta)
    if not np.all(np.isfinite(var)) or np.any(var < 0):
        return None
    return np.sqrt(var)


def _fit_params_ref(theta, scales, amplitude, background_level):
    from heraldtime.fitting import PARAM_NAMES

    m1, m2, s1, s2 = scales
    rho = math.tanh(theta[0])
    w1, w2 = math.exp(theta[1]), math.exp(theta[2])
    values = (rho, w1 * s1, w2 * s2, m1 + theta[3] * s1, m2 + theta[4] * s2,
              amplitude, background_level)
    return dict(zip(PARAM_NAMES, values)), (1.0 - rho * rho, w1 * s1,
                                            w2 * s2, s1, s2)


def fit_hist_ls_reference(events):
    """Histogram least squares with a 2-point finite-difference Jacobian."""
    from scipy.optimize import least_squares
    from scipy.special import xlogy

    from heraldtime.fitting import (BINS, MAX_EVALUATIONS, PARAM_NAMES,
                                    TOLERANCE, _box_in_u, _moments,
                                    initial_guess)

    guess = initial_guess(events)
    u, scales, _ = _moments(events.t1, events.t2)
    m1, m2, s1, s2 = scales
    box1, box2 = _box_in_u(u)
    counts, e1, e2 = np.histogram2d(u[:, 0], u[:, 1], bins=(BINS, BINS),
                                    range=(tuple(box1), tuple(box2)))
    c1 = 0.5 * (e1[:-1] + e1[1:])
    c2 = 0.5 * (e2[:-1] + e2[1:])
    h1, h2 = e1[1] - e1[0], e2[1] - e2[0]
    d1, d2 = 0.5 * h1 / math.sqrt(3.0), 0.5 * h2 / math.sqrt(3.0)
    nodes = [np.meshgrid(c1 + o1, c2 + o2, indexing="ij")
             for o1 in (-d1, d1) for o2 in (-d2, d2)]
    rho0 = float(np.clip(guess.rho_t, -0.999, 0.999))
    x0 = np.array([math.atanh(rho0), math.log(guess.tau1 / s1),
                   math.log(guess.tau2 / s2), (guess.mu1 - m1) / s1,
                   (guess.mu2 - m2) / s2, math.log(max(counts.sum(), 1.0)),
                   0.0])

    def model_counts(theta):
        rho, w1, w2 = math.tanh(theta[0]), math.exp(theta[1]), math.exp(theta[2])
        dens = sum(_gauss2_ref(a, b, rho, w1, w2, theta[3], theta[4])
                   for a, b in nodes) / 4.0
        return math.exp(theta[5]) * dens * h1 * h2 + theta[6]

    def residuals(theta):
        m = np.maximum(model_counts(theta), 1e-12)
        dev = 2.0 * (m - counts + xlogy(counts, counts / m))
        return (np.sign(m - counts) * np.sqrt(np.maximum(dev, 0.0))).ravel()

    res = least_squares(residuals, x0, method="trf", xtol=TOLERANCE,
                        ftol=TOLERANCE, gtol=TOLERANCE,
                        max_nfev=MAX_EVALUATIONS)
    theta = res.x
    model = np.maximum(model_counts(theta), 1e-12)
    total = float(model.sum())
    bg_level = float(np.clip(theta[6] * counts.size / total, 0.0, 1.0)) \
        if total > 0 else 1.0
    amp = math.exp(theta[5])
    params, shape_jac = _fit_params_ref(theta, scales, amp, bg_level)
    try:
        se = _theta_std_ref(np.linalg.inv(res.jac.T @ res.jac))
    except np.linalg.LinAlgError:
        se = None
    if se is None:
        return params, None
    return params, {name: float(s * abs(g)) for name, s, g in
                    zip(PARAM_NAMES, se, shape_jac + (amp, 1.0))}


def fit_ml_reference(events):
    """Mixture maximum likelihood: L-BFGS-B on finite-difference gradients,
    errors from a finite-difference Hessian (5x5 shape block as fallback)."""
    from scipy.optimize import minimize
    from scipy.special import expit

    from heraldtime.fitting import (MAX_EVALUATIONS, PARAM_NAMES, TOLERANCE,
                                    _moments, initial_guess)

    guess = initial_guess(events)
    u, scales, _ = _moments(events.t1, events.t2)
    m1, m2, s1, s2 = scales
    n = u.shape[0]
    pad1 = 1e-9 * max(1.0, float(np.ptp(u[:, 0])))
    pad2 = 1e-9 * max(1.0, float(np.ptp(u[:, 1])))
    area_box = ((u[:, 0].max() + pad1) - (u[:, 0].min() - pad1)) * (
        (u[:, 1].max() + pad2) - (u[:, 1].min() - pad2))
    rho0 = float(np.clip(guess.rho_t, -0.999, 0.999))
    x0 = np.array([math.atanh(rho0), math.log(guess.tau1 / s1),
                   math.log(guess.tau2 / s2), (guess.mu1 - m1) / s1,
                   (guess.mu2 - m2) / s2, math.log(1e-3 / (1 - 1e-3))])

    def nll(theta):
        rho, w1, w2 = math.tanh(theta[0]), math.exp(theta[1]), math.exp(theta[2])
        w = float(expit(theta[5]))
        dens = (1.0 - w) * _gauss2_ref(u[:, 0], u[:, 1], rho, w1, w2,
                                       theta[3], theta[4]) + w / area_box
        return -float(np.sum(np.log(np.maximum(dens, 1e-300))))

    res = minimize(nll, x0, method="L-BFGS-B",
                   bounds=[(None, None)] * 5 + [(-30.0, 30.0)],
                   options={"maxiter": MAX_EVALUATIONS,
                            "ftol": TOLERANCE, "gtol": 1e-8})
    theta = res.x
    w = float(expit(theta[5]))
    params, shape_jac = _fit_params_ref(theta, scales, (1.0 - w) * n, w)

    step, k = 1e-5, theta.size
    hess = np.empty((k, k))
    for i in range(k):
        for j in range(i, k):
            ei = np.zeros(k); ei[i] = step
            ej = np.zeros(k); ej[j] = step
            hess[i, j] = hess[j, i] = (
                nll(theta + ei + ej) - nll(theta + ei - ej)
                - nll(theta - ei + ej) + nll(theta - ei - ej)) / (4 * step ** 2)

    def std_of(block):
        try:
            return _theta_std_ref(np.linalg.inv(block))
        except np.linalg.LinAlgError:
            return None

    se = std_of(hess)
    full = se is not None
    if not full:
        se = std_of(hess[:5, :5])
    if se is None:
        return params, None
    errors = {name: float(s * abs(g))
              for name, s, g in zip(PARAM_NAMES[:5], se[:5], shape_jac)}
    if full:
        errors["amplitude"] = float(se[5] * n * w * (1.0 - w))
        errors["background"] = float(se[5] * w * (1.0 - w))
    return params, errors


# --------------------------------------------------------------------------
# Reference fit kernels: one pass per node and one sum per product
# --------------------------------------------------------------------------
# The histogram model and Jacobian evaluated node by node, and the
# likelihood sums taken one weighted product at a time, as the fits computed
# them before the kernels were batched and fused.  The package's kernels
# must match these to rounding.

def _gauss_terms_per_array(u1, u2, c1, c2, rho, w1, w2):
    x = (u1 - c1) / w1
    y = (u2 - c2) / w2
    a = x - rho * y
    b = y - rho * x
    om = 1.0 - rho * rho
    phi = np.exp((x * a + y * b) * (-0.5 / om)) * (
        1.0 / (2.0 * math.pi * w1 * w2 * math.sqrt(om)))
    return x, y, a, b, phi


def _shape_scores_ref(x, y, a, b, rho, w1, w2):
    """Gradient of log phi in (atanh rho, log w1, log w2, c1, c2)."""
    om = 1.0 - rho * rho
    ax = a * x
    by = b * y
    return (x * y - (rho / om) * (ax + by) + rho, ax / om - 1.0,
            by / om - 1.0, a / (om * w1), b / (om * w2))


def _theta_shape_ref(theta):
    return (math.tanh(theta[0]), math.exp(theta[1]), math.exp(theta[2]),
            theta[3], theta[4])


def hist_ls_kernel_reference(counts, nodes, area, theta):
    """Model counts, signed-root deviance residuals (per bin) and their
    (bins, 7) Jacobian, with each Gauss-Legendre node evaluated on its
    own."""
    rho, w1, w2, cc1, cc2 = _theta_shape_ref(theta)
    terms = [_gauss_terms_per_array(g1, g2, cc1, cc2, rho, w1, w2)
             for g1, g2 in nodes]
    scale = math.exp(theta[5]) * area / 4.0
    model = scale * sum(t[4] for t in terms) + theta[6]
    m = np.maximum(model, 1e-12)
    counted = counts > 0
    dev = 2.0 * (m - counts + counts * np.log(
        np.where(counted, counts / m, 1.0)))
    res = np.sign(m - counts) * np.sqrt(np.maximum(dev, 0.0))
    dm = np.zeros((7,) + model.shape)
    for x, y, a, b, phi in terms:
        for k, s in enumerate(_shape_scores_ref(x, y, a, b, rho, w1, w2)):
            dm[k] += phi * s
    dm[:5] *= scale
    dm[5] = model - theta[6]
    dm[6] = 1.0
    close = np.abs(m - counts) <= 1e-5 * m
    drdm = np.where(close, 1.0 / np.sqrt(m),
                    (1.0 - counts / m) / np.where(close, 1.0, res))
    drdm[model < 1e-12] = 0.0
    return model, res.ravel(), (drdm * dm).reshape(7, -1).T


def _expit_ref(t):
    return 1.0 / (1.0 + math.exp(-t)) if t > -700.0 else math.exp(t)


def _ml_sums_ref(u1, u2, shape, wb, ws, area_box):
    rho, w1, w2, cc1, cc2 = shape
    x, y, a, b, phi = _gauss_terms_per_array(u1, u2, cc1, cc2, rho, w1, w2)
    g = phi * ws + wb / area_box
    kept = g >= 1e-300
    g = np.maximum(g, 1e-300)
    nll = -float(np.log(g).sum())
    inv = kept / g
    r = phi * inv * ws
    sums = [nll, r.sum(), (r * a).sum(), (r * b).sum(), (r * a * x).sum(),
            (r * b * y).sum(), (r * x * y).sum(), inv.sum()]
    sums += [(r * x).sum(), (r * y).sum(), (r * x * x).sum(),
             (r * y * y).sum()]
    s = _shape_scores_ref(x, y, a, b, rho, w1, w2)
    g_w = wb * (inv * (ws / area_box) - r)
    sums += [(g_w * g_w).sum(), g_w.sum()]
    sums += [(r * sk * (g_w + wb)).sum() for sk in s]
    rr = r * (1.0 - r)
    sums += [(rr * s[k] * s[j]).sum() for k in range(5) for j in range(k, 5)]
    return np.array(sums)


def ml_loss_reference(theta, u1, u2, area_box, chunk=8192):
    """Mixture negative log-likelihood, its gradient and its Hessian, from
    one event sum per weighted product."""
    shape = _theta_shape_ref(theta)
    rho, w1, w2 = shape[:3]
    wb, ws = _expit_ref(theta[5]), _expit_ref(-theta[5])
    om = 1.0 - rho * rho
    total = sum(_ml_sums_ref(u1[i:i + chunk], u2[i:i + chunk], shape, wb, ws,
                             area_box)
                for i in range(0, u1.shape[0], chunk))
    nll, sr, sa, sb, sax, sby, sxy, sinv = total[:8]
    grad = -np.array([sxy - (rho / om) * (sax + sby) + rho * sr,
                      sax / om - sr, sby / om - sr,
                      sa / (om * w1), sb / (om * w2),
                      wb * ws / area_box * sinv - wb * sr])
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
