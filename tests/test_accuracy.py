"""Accuracy of the closed forms against 50-digit mpmath.

Draws sigma, tau_p and beta*L log-uniformly over the box below, plus
beta*L = 0, and compares ``tau1``, ``tau1h_0``, ``tau1h_dt_0``, ``rho_t_of``
and ``narrowing_ratio_limit(temporal_covariance(...))`` with the expanded
polynomial forms at 50 digits (``oracles.closed_forms_mp``): the package
reads them from two variances, so the algebra is checked with the
rounding.  Then draws covariances and windows and compares the window
quantities ``conditional_moments`` and ``conditional_density`` with
``oracles.truncated_normal_moments_mp``, composed with the regression, and
``oracles.conditional_density_mp``.  The bounds are the README's "Accuracy"
table.
"""

import math
import re

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from heraldtime.analytic import (
    conditional_density,
    conditional_moments,
    narrowing_ratio_limit,
    rho_t_of,
    tau1,
    tau1h_0,
    tau1h_dt_0,
    temporal_covariance,
)
from heraldtime.params import LinkParams, SourceParams, TemporalCovariance

from oracles import (
    closed_forms_mp,
    conditional_density_mp,
    truncated_normal_moments_mp,
)

EPS = 2.0 ** -52

# Decades of the drawn box: sigma in 1/s, tau_p in s, |beta*L| in s^2.
BOX = {"sigma": (10, 14), "tau_p": (-14, -3), "beta_l": (-26, -20)}

# quantity -> (error measure, stated bound, worst case measured for the
# two-variance forms: 200 000 draws over BOX, one in ten with beta*L = 0, as
# when the bounds were set).  The narrowing limit sqrt(1 - rho_t^2) takes
# rho_t's absolute error relative to 1 - |rho_t|: its relative error alone
# reached 0.83 at 1 - |rho_t| ~ 1e-16, the loss region near |rho_t| = 1.
# Where rho_t rounds to +-1, temporal_covariance refuses the settings.
ACCURACY = {
    "tau1": ("relative", 2.5 * EPS, 3.02e-16),
    "tau1h_0": ("relative", 2.5 * EPS, 3.32e-16),
    "tau1h_dt_0": ("relative", 2.5 * EPS, 3.15e-16),
    "rho_t": ("absolute", 2.0 * EPS, 2.89e-16),
    "narrowing_ratio_limit": ("relative x (1 - |rho_t|)", 2.0 * EPS, 1.43e-16),
}


def decades(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


@settings(max_examples=400, deadline=None)
@given(sigma=decades(*BOX["sigma"]), tau_p=decades(*BOX["tau_p"]),
       beta_l=st.one_of(st.just(0.0), st.builds(
           math.copysign, decades(*BOX["beta_l"]), st.sampled_from([1, -1]))))
def test_closed_forms_within_stated_bounds(sigma, tau_p, beta_l):
    src, link = SourceParams(sigma=sigma, tau_p=tau_p), LinkParams(beta_l, 1.0)
    want = closed_forms_mp(sigma, tau_p, beta_l)

    def error(got, name):
        return float(abs(mpmath.mpf(got) - want[name]))

    for name, closed_form in (("tau1", tau1), ("tau1h_0", tau1h_0),
                              ("tau1h_dt_0", tau1h_dt_0)):
        rel = error(closed_form(src, link), name) / float(want[name])
        assert rel <= ACCURACY[name][1], name
    rho = rho_t_of(src, link)
    assert error(rho, "rho_t") <= ACCURACY["rho_t"][1]
    if abs(rho) == 1.0:
        with pytest.raises(ValueError,
                           match="give no valid temporal covariance"):
            temporal_covariance(src, link)
        return
    limit = narrowing_ratio_limit(temporal_covariance(src, link))
    name = "narrowing_ratio_limit"
    rel = error(limit, name) / float(want[name])
    assert rel * float(1 - abs(want["rho_t"])) <= ACCURACY[name][1]


# Where the closed forms leave the float range at the reference crystal
# (3.29 THz) and link (-1.15e-26 s^2/m, 10 km), bisected in tau_p for the
# two-variance forms: below the lower pump tau_p^2 underflows, above the
# upper one (beta L / tau_p)^2 does.
FLOAT_RANGE = {"tau1": (1.49e-154, 7.71e131), "tau1h_0": (1.49e-154, 7.71e131),
               "rho_t": (1.49e-154, 7.71e131)}


@pytest.mark.parametrize("name, closed_form", [
    ("tau1", tau1), ("tau1h_0", tau1h_0), ("rho_t", rho_t_of)])
def test_pumps_at_the_float_range_edges(name, closed_form):
    sigma, link = 3.29e12, LinkParams(-1.15e-26, 1e4)
    lo, hi = FLOAT_RANGE[name]
    for tau_p in (lo * 1.1, hi / 1.1):
        want = closed_forms_mp(sigma, tau_p, link.beta * link.length)[name]
        err = float(abs(mpmath.mpf(closed_form(SourceParams(sigma, tau_p),
                                               link)) - want))
        if ACCURACY[name][0] == "relative":
            err /= float(want)
        assert err <= ACCURACY[name][1]
    for tau_p in (1e-200, lo / 1.1, hi * 1.1, 1e140):
        with pytest.raises(ValueError, match="^" + re.escape(
                f"sigma=3290000000000.0 1/s, tau_p={tau_p!r} s and "
                f"beta*L={link.beta * link.length!r} s^2 take the closed "
                f"form of {name} outside the float range (")):
            closed_form(SourceParams(sigma, tau_p), link)
    for tau_p in (1e-200, 1e140):
        with pytest.raises(ValueError, match="outside the float range"):
            temporal_covariance(SourceParams(sigma, tau_p), link)


# Window quantities: (error measure, stated bound, worst case measured when
# the bound was set, over 200 000 draws like the test's and the 3645 corners
# of its box).  The loss regions are in the bounds, not left out: the far
# tail's truncated variance (ROADMAP item 4) sets the mean's and the SD's
# worst cases, at windows about 1 sd wide some 35 sd out with |rho_t| near
# 0.99; the density's normalizing mass cancels in windows of 1e-6 sd,
# worst some 35 sd out.
WINDOW_ACCURACY = {
    "conditional mean": ("absolute / conditional SD", 5e-11, 1.33e-11),
    "conditional SD": ("relative", 5e-9, 1.68e-9),
    "conditional_density": ("relative", 5e-8, 1.44e-8),
}


def window_errors(rho_t, tau1, tau2, center, width, k):
    """Errors of ``conditional_moments`` and of ``conditional_density`` at
    t1 = mean + k sd, for the covariance (rho_t, tau1, tau2) with zero
    means and the window of ``center`` and ``width`` (in tau2), against
    50-digit mpmath."""
    cov = TemporalCovariance(rho_t=rho_t, tau1=tau1, tau2=tau2)
    center, width = center * tau2, width * tau2
    mean, sd = conditional_moments(cov, center, width)
    # the window is analytic._window's [center - width/2, center + width/2]
    m2, v2 = truncated_normal_moments_mp(0.0, tau2, center - 0.5 * width,
                                         center + 0.5 * width)
    t1 = mean + k * sd
    density = float(conditional_density(t1, center, width, cov))
    density_mp = conditional_density_mp(t1, center, width, cov)
    with mpmath.workdps(50):
        rho, tau1, tau2 = map(mpmath.mpf, (rho_t, tau1, tau2))
        slope = rho * tau1 / tau2
        mean_mp = slope * mpmath.mpf(m2)
        sd_mp = mpmath.sqrt(tau1 ** 2 * (1 - rho ** 2) + slope ** 2 * v2)
        return (float(abs(mean - mean_mp) / sd_mp),
                float(abs(sd - sd_mp) / sd_mp),
                abs(density - density_mp) / density_mp)


@settings(max_examples=1000, deadline=None)
@given(rho_t=st.floats(-0.99, 0.99), tau1=decades(-13, -8),
       tau2=decades(-13, -8), center=st.floats(-37.0, 37.0),
       width=st.one_of(st.just(math.inf), decades(-6, 3)),
       k=st.floats(-6.0, 6.0))
def test_window_quantities_within_stated_bounds(rho_t, tau1, tau2, center,
                                                width, k):
    # centers out to 37 sd and widths from 1e-6 sd to infinite, in tau2
    errors = window_errors(rho_t, tau1, tau2, center, width, k)
    for (name, (_, bound, _)), error in zip(WINDOW_ACCURACY.items(), errors):
        assert error <= bound, name
