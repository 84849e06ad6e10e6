"""Accuracy of the source-to-observable closed forms against 50-digit mpmath.

Draws sigma, tau_p and beta*L log-uniformly over the box below, plus
beta*L = 0, and compares ``tau1``, ``tau1h_0``, ``tau1h_dt_0``, ``rho_t_of``
and ``narrowing_ratio_limit(temporal_covariance(...))`` with the same
formulas at 50 digits (``oracles.closed_forms_mp``), so only rounding is
checked.  The bounds are the README's "Accuracy" table.
"""

import math

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from heraldtime.analytic import (
    narrowing_ratio_limit,
    rho_t_of,
    tau1,
    tau1h_0,
    tau1h_dt_0,
    temporal_covariance,
)
from heraldtime.params import LinkParams, SourceParams

from oracles import closed_forms_mp

EPS = 2.0 ** -52

# Decades of the drawn box: sigma in 1/s, tau_p in s, |beta*L| in s^2.
BOX = {"sigma": (10, 14), "tau_p": (-14, -3), "beta_l": (-26, -20)}

# quantity -> (error measure, stated bound, worst case measured when the
# bound was set: 200 000 draws over BOX, one in ten with beta*L = 0).  The
# narrowing limit sqrt(1 - rho_t^2) takes rho_t's absolute error relative to
# 1 - |rho_t|: its relative error alone reached 0.83 at 1 - |rho_t| ~ 1e-16,
# the loss region near |rho_t| = 1.  Where rho_t rounds to +-1,
# temporal_covariance refuses the settings.
ACCURACY = {
    "tau1": ("relative", 2.5 * EPS, 3.14e-16),
    "tau1h_0": ("relative", 2.5 * EPS, 3.72e-16),
    "tau1h_dt_0": ("relative", 2.5 * EPS, 3.83e-16),
    "rho_t": ("absolute", 3.0 * EPS, 4.95e-16),
    "narrowing_ratio_limit": ("relative x (1 - |rho_t|)", 2.0 * EPS, 2.69e-16),
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
