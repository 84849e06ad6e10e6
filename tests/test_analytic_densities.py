import math

import numpy as np
import pytest
from scipy.integrate import quad

from heraldtime import analytic
from heraldtime.analytic import (
    conditional_density,
    conditional_limit_density,
    joint_density,
    narrowing_ratio_limit,
)
from heraldtime.params import TemporalCovariance

from conftest import REFERENCE_SETS
from oracles import (conditional_density_mp, conditional_pdf_quad,
                     joint_total_mass)


def gaussian_pdf(x, mu, sd):
    return np.exp(-0.5 * ((x - mu) / sd) ** 2) / (math.sqrt(2 * math.pi) * sd)


class TestJointDensity:
    def test_zero_correlation_factorizes(self):
        cov = TemporalCovariance(rho_t=0.0, tau1=2e-10, tau2=3e-10,
                                 mu1=1e-11, mu2=-2e-11)
        rng = np.random.default_rng(1)
        t1 = rng.normal(cov.mu1, 3 * cov.tau1, 100)
        t2 = rng.normal(cov.mu2, 3 * cov.tau2, 100)
        joint = joint_density(t1, t2, cov)
        product = gaussian_pdf(t1, cov.mu1, cov.tau1) \
            * gaussian_pdf(t2, cov.mu2, cov.tau2)
        np.testing.assert_allclose(joint, product, rtol=1e-12)

    def test_normalizes_to_one_reference_set1(self):
        mass = joint_total_mass(REFERENCE_SETS[0])
        assert mass == pytest.approx(1.0, abs=1e-6)

    def test_marginal_is_gaussian_of_width_tau1(self):
        cov = REFERENCE_SETS[0]

        def marginal(t1):
            val, _ = quad(lambda z2: float(
                joint_density(t1, cov.mu2 + cov.tau2 * z2, cov)) * cov.tau2,
                -8, 8, epsabs=1e-14, epsrel=1e-10)
            return val

        for z in (-2.0, -0.5, 0.0, 1.0, 2.5):
            t1 = cov.mu1 + z * cov.tau1
            assert marginal(t1) == pytest.approx(
                float(gaussian_pdf(t1, cov.mu1, cov.tau1)), rel=1e-6)


class TestConditionalDensity:
    def test_zero_correlation_equals_marginal(self):
        cov = TemporalCovariance(rho_t=0.0, tau1=2e-10, tau2=3e-10)
        grid = np.linspace(-8 * cov.tau1, 8 * cov.tau1, 101)
        marginal = gaussian_pdf(grid, 0.0, cov.tau1)
        for center, width in [(0.0, 1e-10), (2e-10, 5e-11), (-4e-10, 1e-9)]:
            np.testing.assert_allclose(
                conditional_density(grid, center, width, cov), marginal,
                rtol=1e-12)

    def test_matches_defining_integral_set1(self):
        cov = REFERENCE_SETS[0]
        grid = np.linspace(-6 * cov.tau1, 6 * cov.tau1, 1001)
        ours = conditional_density(grid, 0.0, 100e-12, cov)
        oracle = conditional_pdf_quad(grid, 0.0, 100e-12, cov)
        scale = np.max(np.abs(oracle))
        assert np.max(np.abs(ours - oracle)) / scale < 1e-6

    def test_wide_window_converges_to_marginal(self):
        cov = REFERENCE_SETS[1]
        grid = np.linspace(-6 * cov.tau1, 6 * cov.tau1, 501)
        wide = conditional_density(grid, 0.0, 20 * cov.tau2, cov)
        marginal = conditional_density(grid, 0.0, math.inf, cov)
        assert np.max(np.abs(wide - marginal)) / np.max(marginal) < 1e-9

    def test_infinite_window_is_marginal(self):
        cov = REFERENCE_SETS[2]
        grid = np.linspace(-4e-9, 4e-9, 101)
        np.testing.assert_allclose(
            conditional_density(grid, 1e-10, math.inf, cov),
            gaussian_pdf(grid, cov.mu1, cov.tau1), rtol=1e-12)

    def test_degenerate_window_rejected(self):
        cov = REFERENCE_SETS[0]
        with pytest.raises(ValueError):
            conditional_density(0.0, 0.0, 0.0, cov)
        with pytest.raises(ValueError):
            conditional_density(0.0, 0.0, -1e-12, cov)

    def test_far_tail_window_reported(self):
        cov = REFERENCE_SETS[0]
        with pytest.raises(ValueError, match="tail"):
            conditional_density(0.0, 50 * cov.tau2, 1e-13, cov)

    @pytest.mark.parametrize("center", [math.nan, math.inf, -math.inf])
    def test_non_finite_center_rejected(self, center):
        cov = REFERENCE_SETS[0]
        for width in (1e-10, math.inf):
            with pytest.raises(ValueError, match="center must be finite"):
                conditional_density(np.zeros(3), center, width, cov)

    def test_raises_on_the_same_windows_as_the_moments(self):
        # One underflow rule: near 38 sd, where the window mass turns
        # subnormal, the density and the window moments refuse exactly the
        # same windows, in either tail.
        cov = TemporalCovariance(rho_t=0.6, tau1=2e-10, tau2=3e-10,
                                 mu1=1e-11, mu2=-2e-11)
        refused = []
        for side in (1.0, -1.0):
            for z in np.arange(37.0, 38.6, 0.02):
                for w in (0.003, 0.05, 0.6):
                    center = cov.mu2 + side * z * cov.tau2
                    width = w * cov.tau2
                    lo, hi = center - 0.5 * width, center + 0.5 * width
                    try:
                        analytic._truncated_normal_moments(cov.mu2, cov.tau2,
                                                           lo, hi)
                        moments_raise = False
                    except ValueError:
                        moments_raise = True
                    try:
                        conditional_density(cov.mu1, center, width, cov)
                        density_raises = False
                    except ValueError as exc:
                        assert "no probability mass" in str(exc)
                        density_raises = True
                    assert density_raises == moments_raise, (z, w, side)
                    refused.append(moments_raise)
        # the scan crosses the threshold: some windows pass, some raise
        assert 0 < sum(refused) < len(refused)

    def test_normalizes_over_t1(self):
        cov = REFERENCE_SETS[0]
        for center, width in [(0.0, 1e-10), (1.5e-9, 3e-10), (-1e-9, 1e-9)]:
            val, _ = quad(lambda z: float(conditional_density(
                cov.mu1 + cov.tau1 * z, center, width, cov)) * cov.tau1,
                -8, 8, epsabs=1e-12, epsrel=1e-10)
            assert val == pytest.approx(1.0, abs=1e-8)

    def test_swap_symmetry_gives_other_direction(self):
        # conditioning photon one and analyzing photon two is the same
        # density with the roles (tau1, mu1) <-> (tau2, mu2) exchanged,
        # verified against the defining integral of the swapped joint
        cov = TemporalCovariance(rho_t=-0.7, tau1=2e-10, tau2=3.5e-10,
                                 mu1=5e-11, mu2=-4e-11)
        grid = np.linspace(cov.mu2 - 5 * cov.tau2, cov.mu2 + 5 * cov.tau2, 301)
        ours = conditional_density(grid, 1e-10, 8e-11, cov.swapped())
        oracle = conditional_pdf_quad(grid, 1e-10, 8e-11, cov.swapped())
        assert np.max(np.abs(ours - oracle)) / np.max(np.abs(oracle)) < 1e-6


class TestConditionalDensityTails:
    """Windows deep in either tail against the closed form at 50 digits."""

    COV = TemporalCovariance(rho_t=0.6, tau1=2e-10, tau2=3e-10)

    @pytest.mark.parametrize("side", [1.0, -1.0])
    @pytest.mark.parametrize("z, width", [(2.0, 0.5), (6.0, 0.01), (8.0, 0.1),
                                          (10.0, 0.5), (20.0, 0.2),
                                          (35.0, 0.01)])
    def test_matches_mpmath(self, z, width, side):
        cov = self.COV
        center, w = side * z * cov.tau2, width * cov.tau2
        mean = cov.rho_t * cov.tau1 / cov.tau2 * center
        sd = cov.tau1 * math.sqrt(1.0 - cov.rho_t ** 2)
        grid = mean + sd * np.linspace(-4.0, 4.0, 9)
        ours = conditional_density(grid, center, w, cov)
        want = [conditional_density_mp(t, center, w, cov) for t in grid]
        np.testing.assert_allclose(ours, want, rtol=1e-9)

    @pytest.mark.parametrize("z", [6.0, 10.0, 35.0])
    def test_mirror_symmetric(self, z):
        cov = self.COV
        center = z * cov.tau2
        grid = cov.rho_t * cov.tau1 / cov.tau2 * center \
            + cov.tau1 * np.linspace(-3.0, 3.0, 13)
        np.testing.assert_array_equal(
            conditional_density(-grid, -center, 0.1 * cov.tau2, cov),
            conditional_density(grid, center, 0.1 * cov.tau2, cov))


class TestConditionalLimit:
    def test_centered_gaussian_at_origin(self):
        cov = REFERENCE_SETS[0]
        grid = np.linspace(-3e-9, 3e-9, 201)
        expected = gaussian_pdf(grid, 0.0,
                                cov.tau1 * math.sqrt(1 - cov.rho_t ** 2))
        np.testing.assert_allclose(conditional_limit_density(grid, 0.0, cov),
                                   expected, rtol=1e-12)

    def test_small_window_converges_to_limit_set3(self):
        cov = REFERENCE_SETS[2]
        grid = np.linspace(-6 * cov.tau1, 6 * cov.tau1, 501)
        center = 0.3 * cov.tau2
        small = conditional_density(grid, center, cov.tau2 * 1e-4, cov)
        limit = conditional_limit_density(grid, center, cov)
        assert np.max(np.abs(small - limit)) / np.max(limit) < 1e-6

    def test_mean_is_linear_in_center(self):
        cov = REFERENCE_SETS[0]
        centers = np.linspace(-2 * cov.tau2, 2 * cov.tau2, 11)
        means = []
        for c in centers:
            val, _ = quad(lambda z: (cov.mu1 + cov.tau1 * z) * float(
                conditional_limit_density(cov.mu1 + cov.tau1 * z, c, cov))
                * cov.tau1, -9, 9, epsabs=1e-14, epsrel=1e-12)
            means.append(val)
        slope, intercept = np.polyfit(centers, means, 1)
        expected = cov.rho_t * cov.tau1 / cov.tau2
        assert slope == pytest.approx(expected, rel=1e-9)
        # regression residual in seconds; quadrature noise sits far below
        residual = np.max(np.abs(np.polyval([slope, intercept], centers)
                                 - np.array(means)))
        assert residual < 1e-15


class TestNarrowingLimit:
    def test_no_correlation_means_no_narrowing(self):
        cov = TemporalCovariance(rho_t=0.0, tau1=1e-10, tau2=1e-10)
        assert narrowing_ratio_limit(cov) == 1.0

    @pytest.mark.parametrize("rho,expected,measured,band", [
        (0.9551, 0.2962836310024571, 0.2949, 0.0041),
        (-0.4443, 0.8958780664800317, 0.879, 0.005),
    ])
    def test_frozen_values_against_measured_bands(self, rho, expected,
                                                  measured, band):
        cov = TemporalCovariance(rho_t=rho, tau1=1e-9, tau2=1e-9)
        value = narrowing_ratio_limit(cov)
        assert value == pytest.approx(expected, rel=1e-12)
        # measured ratios sit within a few error bars of the limit
        assert abs(value - measured) < 4 * band


def test_erf_backend_accuracy():
    """The erf of the closed forms, erf(x) = P(|Z| <= x sqrt(2)) from the
    package's normal kernel over arrays, must be good to 1e-12 on [-6, 6]."""
    mpmath = pytest.importorskip("mpmath")

    def erf(x):
        z = math.sqrt(2.0) * np.asarray(x, dtype=float)
        return np.asarray(analytic._normal_mass(-z, z), dtype=float)

    xs = np.linspace(-6.0, 6.0, 241)
    ours = erf(xs)
    reference = np.array([float(mpmath.erf(mpmath.mpf(repr(float(x)))))
                          for x in xs])
    assert ours.dtype == float and ours.shape == xs.shape
    assert np.max(np.abs(ours - reference)) < 1e-12
    # beyond +/-6 the double-precision value saturates at +/-1 exactly
    assert erf(6.5) == 1.0 and erf(-7.0) == -1.0


def test_herald_normal_cdf_accuracy():
    """The math.erfc Phi of the normal kernel (the window moments' scalar
    path), as the mass of (-inf, x]: 1e-12 absolute on [-6, 6], and relative
    precision down to -37 limited only by rounding x/sqrt(2)."""
    mpmath = pytest.importorskip("mpmath")

    def phi(x):
        return analytic._tail_window(-math.inf, float(x))[3]

    xs = np.linspace(-6.0, 6.0, 241)
    reference = [float(mpmath.ncdf(mpmath.mpf(repr(float(x))))) for x in xs]
    assert max(abs(phi(x) - r) for x, r in zip(xs, reference)) < 1e-12
    with mpmath.workdps(40):
        for x in np.linspace(-37.0, 0.0, 371):
            exact = mpmath.ncdf(mpmath.mpf(float(x)))
            # Rounding x/sqrt(2) moves Phi(x) by ~x^2 ulps (1.8e-13 at -37).
            assert abs(phi(x) - exact) / exact < 5e-16 * (1.0 + x * x), x
    assert phi(-math.inf) == 0.0 and phi(math.inf) == 1.0
