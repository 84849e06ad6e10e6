import math
import re

import numpy as np
import pytest

from heraldtime.analytic import (
    NoDispersionError,
    WidthDivergesError,
    landscape,
    optimum,
    rho_t_of,
    tau1,
    tau1h_0,
    tau1h_dt_0,
    temporal_covariance,
)
from heraldtime.params import LinkParams, SourceParams, SourceParamsRho, from_rho_form

from conftest import REFERENCE_LINK, REFERENCE_SIGMA
from oracles import fourier_time_moments, wigner_pairs


def random_draws(n, seed=0):
    rng = np.random.default_rng(seed)
    sigma = 10.0 ** rng.uniform(10, 13.5, n)
    tau_p = 10.0 ** rng.uniform(-14, -9.5, n)
    beta = -(10.0 ** rng.uniform(-27, -25, n))
    length = 10.0 ** rng.uniform(2, 5, n)
    return sigma, tau_p, beta, length


class TestTau1:
    def test_minimum_matches_closed_form(self):
        link = REFERENCE_LINK
        tp_opt = math.sqrt(2 * link.abs_beta_length)
        for sigma in (5e10, 3.29e12, 8e13):
            value = tau1(SourceParams(sigma=sigma, tau_p=tp_opt), link)
            bls2 = link.abs_beta_length * sigma ** 2
            assert value == pytest.approx((bls2 + 2) / (2 * sigma), rel=1e-12)

    def test_no_dispersion_reduction(self):
        link = LinkParams(beta=0.0, length=1e4)
        for sigma, tau_p in [(1e12, 1e-12), (3e12, 5e-14), (5e10, 2e-11)]:
            value = tau1(SourceParams(sigma=sigma, tau_p=tau_p), link)
            assert value == pytest.approx(
                math.sqrt(tau_p ** 2 / 4 + 1 / sigma ** 2), rel=1e-12)

    def test_reference_point_value(self):
        value = tau1(SourceParams(sigma=3.29e12, tau_p=15.2e-12),
                     REFERENCE_LINK)
        assert value == pytest.approx(1.8947895445614557e-10, rel=1e-12)
        assert value == pytest.approx(1.895e-10, rel=1e-3)

    def test_cw_pump_diverges(self):
        with pytest.raises(WidthDivergesError):
            tau1(SourceParams.cw_pump(1e12), REFERENCE_LINK)


class TestTau1h:
    def test_minimum_matches_closed_form(self):
        link = REFERENCE_LINK
        tp_opt = math.sqrt(2 * link.abs_beta_length)
        bl = link.abs_beta_length
        for sigma in (5e10, 3.29e12, 8e13):
            value = tau1h_0(SourceParams(sigma=sigma, tau_p=tp_opt), link)
            bls2 = bl * sigma ** 2
            expected = 2 * math.sqrt(bl * (bls2 ** 2 + 4)) / (bls2 + 2)
            assert value == pytest.approx(expected, rel=1e-12)

    def test_central_ratio_at_reference_crystal(self):
        src = SourceParams(sigma=REFERENCE_SIGMA,
                           tau_p=math.sqrt(2 * REFERENCE_LINK.abs_beta_length))
        ratio = tau1h_0(src, REFERENCE_LINK) / tau1(src, REFERENCE_LINK)
        assert ratio == pytest.approx(0.113, abs=2e-3)
        assert ratio == pytest.approx(0.11301114470130047, rel=1e-12)

    def test_no_narrowing_at_special_pump_durations(self):
        # floating-point-exact inputs: sigma * tau_p == 2 and
        # tau_p == |beta| L sigma
        link = LinkParams(beta=-0.25, length=4.0)
        src = SourceParams(sigma=2.0, tau_p=1.0)           # sigma tau_p = 2
        assert tau1h_0(src, link) == pytest.approx(tau1(src, link), rel=1e-14)
        src = SourceParams(sigma=3.0, tau_p=3.0)           # |beta| L sigma = 3
        assert tau1h_0(src, link) == pytest.approx(tau1(src, link), rel=1e-14)

    def test_cw_equals_pump_free_width(self):
        cw = SourceParams.cw_pump(2.7e12)
        assert tau1h_0(cw, REFERENCE_LINK) == tau1h_dt_0(cw, REFERENCE_LINK)


class TestTau1hDt:
    def test_independent_of_pump_duration(self):
        link = REFERENCE_LINK
        values = {tau1h_dt_0(SourceParams(sigma=1.3e12, tau_p=tp), link)
                  for tp in (1e-15, 1e-12, 1e-9)}
        assert len(values) == 1

    def test_absolute_minimum_at_optimal_crystal(self):
        link = REFERENCE_LINK
        sigma_opt = math.sqrt(2 / link.abs_beta_length)
        value = tau1h_dt_0(SourceParams(sigma=sigma_opt, tau_p=1e-12), link)
        assert value == pytest.approx(2 * math.sqrt(link.abs_beta_length),
                                      rel=1e-12)

    def test_no_dispersion_substitution(self):
        link = LinkParams(beta=0.0, length=1e4)
        assert tau1h_dt_0(SourceParams(sigma=5e11, tau_p=1e-12), link) \
            == pytest.approx(2 / 5e11, rel=1e-14)


class TestRhoT:
    def test_exact_zero_at_decorrelation_point(self):
        link = LinkParams(beta=-0.25, length=4.0)
        assert rho_t_of(SourceParams(sigma=2.0, tau_p=1.0), link) == 0.0

    def test_exact_zero_at_dispersion_crossover(self):
        link = LinkParams(beta=-0.25, length=4.0)
        assert rho_t_of(SourceParams(sigma=3.0, tau_p=3.0), link) == 0.0

    def test_signs_across_regimes(self):
        link = REFERENCE_LINK
        sigma = REFERENCE_SIGMA
        crossover = link.abs_beta_length * sigma
        # short pump: both factors negative -> positive correlation
        assert rho_t_of(SourceParams(sigma=sigma, tau_p=0.5 / sigma), link) > 0
        # between the zeros: negative correlation
        assert rho_t_of(SourceParams(sigma=sigma, tau_p=5.0 / sigma), link) < 0
        # past the dispersion crossover: positive again
        assert rho_t_of(SourceParams(sigma=sigma, tau_p=3 * crossover),
                        link) > 0

    def test_cw_limit_is_unit_correlation(self):
        assert rho_t_of(SourceParams.cw_pump(1e12), REFERENCE_LINK) == 1.0

    def test_closes_loop_with_width_ratio(self):
        sigma, tau_p, beta, length = random_draws(10000, seed=3)
        from heraldtime.analytic import _rho_t, _tau1_sq, _tau1h_0_sq
        bl = beta * length
        rho = _rho_t(sigma, tau_p, bl)
        ratio_sq = _tau1h_0_sq(sigma, tau_p, bl) / _tau1_sq(sigma, tau_p, bl)
        np.testing.assert_allclose(rho ** 2 + ratio_sq, 1.0, atol=1e-10)

    def test_matches_wigner_monte_carlo(self):
        rng = np.random.default_rng(42)
        n = 200000
        for s, tp, b, ln in zip(*random_draws(10, seed=11)):
            pairs = wigner_pairs(s, tp, b, ln, n, rng)
            r_hat = np.corrcoef(pairs[:, 0], pairs[:, 1])[0, 1]
            r = rho_t_of(SourceParams(sigma=s, tau_p=tp),
                         LinkParams(beta=b, length=ln))
            z = (math.atanh(r_hat) - math.atanh(r)) * math.sqrt(n - 3)
            assert abs(z) < 3.0

    def test_wigner_and_closed_form_match_fourier_bruteforce(self):
        # validates both the closed forms and the phase-space oracle against
        # a direct numerical Fourier transform of the dispersed amplitude
        for s, tp, b, ln in [(3.29e12, 9.64e-13, -1.15e-26, 1e4),
                             (1e12, 5e-12, -2e-26, 5e3)]:
            var1, cov12 = fourier_time_moments(s, tp, b, ln)
            src = SourceParams(sigma=s, tau_p=tp)
            link = LinkParams(beta=b, length=ln)
            assert math.sqrt(var1) == pytest.approx(tau1(src, link), rel=1e-9)
            assert cov12 / var1 == pytest.approx(rho_t_of(src, link),
                                                 abs=1e-9)
            rng = np.random.default_rng(5)
            pairs = wigner_pairs(s, tp, b, ln, 400000, rng)
            assert np.var(pairs[:, 0]) == pytest.approx(var1, rel=0.02)


class TestOrderings:
    def test_heralded_never_exceeds_unconditional(self):
        from heraldtime.analytic import _tau1_sq, _tau1h_0_sq, _tau1h_dt_0
        sigma, tau_p, beta, length = random_draws(10000, seed=7)
        bl = beta * length
        t1 = np.sqrt(_tau1_sq(sigma, tau_p, bl))
        t1h = np.sqrt(_tau1h_0_sq(sigma, tau_p, bl))
        t1hdt = _tau1h_dt_0(sigma, bl)
        assert np.all(t1h <= t1 * (1 + 1e-12))
        assert np.all(t1h <= t1hdt * (1 + 1e-12))

    def test_temporal_covariance_symmetric_link(self):
        src = SourceParams(sigma=2e12, tau_p=3e-12)
        cov = temporal_covariance(src, REFERENCE_LINK)
        assert cov.tau1 == cov.tau2 == tau1(src, REFERENCE_LINK)
        assert cov.rho_t == rho_t_of(src, REFERENCE_LINK)

    def test_temporal_covariance_names_settings_where_rho_t_rounds_to_one(self):
        # 1 - rho_t = 1.45e-17 here, below the rounding of 1
        src = SourceParams(sigma=2.23e12, tau_p=334e-6)
        link = LinkParams(beta=-1.15e-26, length=2.8)
        assert rho_t_of(src, link) == 1.0
        with pytest.raises(ValueError) as info:
            temporal_covariance(src, link)
        assert str(info.value) == (
            f"sigma=2230000000000.0 1/s, tau_p=0.000334 s and "
            f"beta*L={-1.15e-26 * 2.8!r} s^2 give no valid temporal "
            "covariance: rho_t must lie strictly inside (-1, 1), got 1.0")


class TestOptimum:
    def test_reference_link_values(self):
        rep = optimum(REFERENCE_LINK)
        assert rep.tau_p_opt == pytest.approx(15.2e-12, rel=0.01)
        assert rep.sigma_opt == pytest.approx(1.32e11, rel=0.01)
        assert rep.tau1_abs == pytest.approx(15.2e-12, rel=0.01)
        assert rep.tau1h_dt_abs == pytest.approx(21.4e-12, rel=0.01)
        assert rep.tau1_min == rep.tau1h_min == rep.tau1_abs
        assert rep.rho_opt == 0.0

    def test_fixed_sigma_mode(self):
        rep = optimum(REFERENCE_LINK, sigma_fixed=REFERENCE_SIGMA)
        assert rep.sigma_opt is None and rep.tau1_abs is None
        assert rep.tau1_min == pytest.approx(1.894789513677812e-10, rel=1e-12)
        assert rep.tau1h_min / rep.tau1_min == pytest.approx(0.113, abs=2e-3)
        src = SourceParams(sigma=REFERENCE_SIGMA, tau_p=rep.tau_p_opt)
        assert rep.tau1h_dt_abs == tau1h_dt_0(src, REFERENCE_LINK)

    def test_rho_opt_limits(self):
        # |beta| L sigma^2 == 2 exactly -> decorrelated optimum
        link = LinkParams(beta=-0.5, length=1.0)
        assert optimum(link, sigma_fixed=2.0).rho_opt == 0.0
        # strong-dispersion limit approaches -1 (|beta| L sigma^2 = 1e8)
        assert optimum(LinkParams(beta=-1e-24, length=1e6),
                       sigma_fixed=1e13).rho_opt == pytest.approx(-1.0,
                                                                  abs=1e-7)

    def test_minima_are_true_minima(self):
        rep = optimum(REFERENCE_LINK)
        link = REFERENCE_LINK
        for which, best in (("tau1", rep.tau1_abs), ("tau1h_0", rep.tau1h_min)):
            for dp in (-1, 0, 1):
                for ds in (-1, 0, 1):
                    if dp == ds == 0:
                        continue
                    grid = landscape([rep.tau_p_opt * (1 + 0.01 * dp)],
                                     [rep.sigma_opt * (1 + 0.01 * ds)],
                                     link, which)
                    assert grid[0, 0] > best

    @pytest.mark.parametrize("sigma", [math.inf, math.nan, 0.0, -1e12, "1e12"])
    def test_fixed_sigma_must_be_finite_positive(self, sigma):
        # the rule SourceParams applies to sigma: an infinite sigma would
        # give a report of NaNs
        with pytest.raises(ValueError, match="sigma_fixed must be a finite "
                                             "positive number"):
            optimum(REFERENCE_LINK, sigma_fixed=sigma)

    @pytest.mark.parametrize("sigma, error", [(1e200, "overflow"),
                                              (1e-200, "underflow")])
    def test_fixed_sigma_outside_the_float_range_names_the_settings(
            self, sigma, error):
        # 1e200 returned rho_opt=nan and tau1_min=inf; 1e-200 returned a
        # tau1_min whose |beta| L sigma^2 term had underflowed to 0
        bl = REFERENCE_LINK.beta * REFERENCE_LINK.length
        tau_p = optimum(REFERENCE_LINK).tau_p_opt
        with pytest.raises(ValueError, match="^" + re.escape(
                f"sigma={sigma!r} 1/s, tau_p={tau_p!r} s and beta*L={bl!r} "
                "s^2 take the closed form of the fixed-sigma optimum outside "
                f"the float range ({error} encountered")):
            optimum(REFERENCE_LINK, sigma_fixed=sigma)

    def test_no_dispersion_degenerate(self):
        with pytest.raises(NoDispersionError):
            optimum(LinkParams(beta=0.0, length=1e4))
        with pytest.raises(NoDispersionError):
            optimum(LinkParams(beta=-1e-26, length=0.0))


class TestLandscape:
    def test_orientation_and_values(self):
        tau_p = np.array([1e-12, 2e-12, 4e-12])
        sigma = np.array([1e11, 1e12])
        grid = landscape(tau_p, sigma, REFERENCE_LINK, "tau1")
        assert grid.shape == (2, 3)
        assert grid[1, 2] == pytest.approx(
            tau1(SourceParams(sigma=1e12, tau_p=4e-12), REFERENCE_LINK),
            rel=1e-14)

    def test_argmin_within_one_cell_of_analytic_optimum(self):
        rep = optimum(REFERENCE_LINK)
        tau_p = np.geomspace(rep.tau_p_opt / 3, rep.tau_p_opt * 3, 400)
        sigma = np.geomspace(rep.sigma_opt / 3, rep.sigma_opt * 3, 400)
        for which in ("tau1", "tau1h_0"):
            grid = landscape(tau_p, sigma, REFERENCE_LINK, which)
            i, j = np.unravel_index(np.argmin(grid), grid.shape)
            i_opt = np.argmin(np.abs(np.log(sigma) - np.log(rep.sigma_opt)))
            j_opt = np.argmin(np.abs(np.log(tau_p) - np.log(rep.tau_p_opt)))
            assert abs(int(i) - int(i_opt)) <= 1
            assert abs(int(j) - int(j_opt)) <= 1

    def test_pump_free_width_is_constant_along_rows(self):
        tau_p = np.geomspace(1e-14, 1e-9, 50)
        sigma = np.geomspace(1e10, 1e13, 40)
        grid = landscape(tau_p, sigma, REFERENCE_LINK, "tau1h_dt_0")
        assert float(np.max(grid.max(axis=1) - grid.min(axis=1))) == 0.0

    def test_rho_loci_land_on_known_lines(self):
        # the decorrelated locus satisfies sigma * tau_p = 2; the correlated
        # loci bracket it on either side
        for rho, side in ((0.9, -1), (0.0, 0), (-0.9, 1)):
            for sigma0 in np.geomspace(1e10, 1e13, 7):
                src = from_rho_form(SourceParamsRho(sigma0=float(sigma0),
                                                    rho=rho))
                product = src.sigma * src.tau_p
                if side == 0:
                    assert product == pytest.approx(2.0, rel=1e-12)
                elif side < 0:
                    assert product < 2.0
                else:
                    assert product > 2.0

    @pytest.mark.parametrize("tau_p, sigma, named", [
        ([1e-12, math.inf], [1e11], r"tau_p_grid\[1\] = inf"),
        ([1e-12], [1e11, math.nan, -1.0], r"sigma_grid\[1\] = nan"),
        ([1e-12, 0.0], [1e11], r"tau_p_grid\[1\] = 0\.0"),
    ], ids=["inf", "nan", "zero"])
    def test_refuses_axis_values_naming_the_first(self, tau_p, sigma, named):
        with pytest.raises(ValueError, match="^grid values must be finite "
                           "and positive, got " + named + "$"):
            landscape(tau_p, sigma, REFERENCE_LINK, "tau1")

    @pytest.mark.parametrize("which", ["tau1", "tau1h_0"])
    def test_refuses_cells_out_of_float_range_naming_the_first(self, which):
        # tau_p = 1e-200 s divided by zero and wrote inf cells, 1e80 s
        # overflowed to inf and NaN; the first row's cell is named
        for tau_p in (1e-200, 1e80):
            bl = REFERENCE_LINK.beta * REFERENCE_LINK.length
            with pytest.raises(ValueError, match="^" + re.escape(
                    f"sigma=1000000000000.0 1/s, tau_p={tau_p!r} s and "
                    f"beta*L={bl!r} s^2 take the closed form of {which} "
                    "outside the float range (")):
                landscape([1e-12, tau_p, 1e-11], [1e12, 1e11, 2e11],
                          REFERENCE_LINK, which)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            landscape([1e-12], [1e11], REFERENCE_LINK, "nope")
        with pytest.raises(ValueError):
            landscape([], [1e11], REFERENCE_LINK, "tau1")
        with pytest.raises(ValueError):
            landscape([1e-12, -1e-12], [1e11], REFERENCE_LINK, "tau1")
