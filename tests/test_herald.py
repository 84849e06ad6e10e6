import functools
import math
import warnings
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from heraldtime import analytic, herald
from heraldtime.fitting import (DegenerateDataError, FitConfig,
                                bootstrap_errors)
from heraldtime.herald import (
    HeraldWindow,
    TooFewEventsError,
    centroid_curve,
    conditional_moments,
    heralded_width,
    narrowing_curve,
    select,
)
from heraldtime.params import SourceParams, TemporalCovariance
from heraldtime.sampler import DetectorModel, EventSet, sample

from conftest import REFERENCE_LINK, REFERENCE_SETS, REFERENCE_SIGMA
from oracles import (
    conditional_moments_quad,
    in_window,
    narrowing_influence_direct,
    refit_bootstrap_loop,
    truncated_normal_moments_mp,
    width_influence_direct,
    window_replicates,
)


class TestWindow:
    def test_validation(self):
        with pytest.raises(ValueError):
            HeraldWindow(center=0.0, width=0.0)
        with pytest.raises(ValueError):
            HeraldWindow(center=math.nan, width=1e-10)
        with pytest.raises(ValueError):
            HeraldWindow(center=0.0, width=1e-10, herald_on=3)

    def test_validation_is_the_window_and_channel_rule(self):
        # the window rule of the model paths and the channel rule of the
        # curves, with their messages
        with pytest.raises(ValueError, match="window width must be positive"):
            HeraldWindow(center=0.0, width=-1e-10)
        with pytest.raises(ValueError, match="window center must be finite"):
            HeraldWindow(center=math.inf, width=1e-10)
        with pytest.raises(ValueError, match="herald_on must be 1 or 2"):
            HeraldWindow(center=0.0, width=1e-10, herald_on=0)

    def test_bounds(self):
        w = HeraldWindow(center=1e-10, width=4e-11)
        assert w.bounds == (pytest.approx(8e-11), pytest.approx(1.2e-10))


class TestSelect:
    def test_infinite_window_is_identity(self):
        es = sample(REFERENCE_SETS[0], DetectorModel.ideal(), 5000, seed=1)
        out = select(es, HeraldWindow(center=0.0, width=math.inf))
        np.testing.assert_array_equal(out.events, es.events)
        assert out.metadata["selection"]["selected"] == 5000

    def test_far_tail_window_empty_flagged(self):
        cov = REFERENCE_SETS[0]
        es = sample(cov, DetectorModel.ideal(), 5000, seed=2)
        out = select(es, HeraldWindow(center=20 * cov.tau2, width=1e-11))
        assert out.count == 0
        assert out.metadata["selection"]["empty"] is True

    def test_closed_interval_semantics(self):
        es = EventSet(np.array([[0.0, 1.0], [0.0, 2.0], [0.0, 3.0]]))
        out = select(es, HeraldWindow(center=2.0, width=2.0))
        assert out.count == 3  # both endpoints included

    def test_selection_cut_recorded(self):
        es = sample(REFERENCE_SETS[1], DetectorModel.ideal(), 1000, seed=3)
        out = select(es, HeraldWindow(center=1e-10, width=5e-11))
        cut = out.metadata["selection"]
        assert cut["center"] == 1e-10 and cut["width"] == 5e-11
        assert cut["total"] == 1000 and cut["selected"] == out.count

    def test_herald_on_one_selects_first_channel(self):
        es = EventSet(np.array([[0.0, 9.0], [5.0, 9.0]]))
        out = select(es, HeraldWindow(center=0.0, width=1.0, herald_on=1))
        assert out.count == 1
        assert out.events.tolist() == [[0.0, 9.0]]

    def test_result_is_one_read_only_copy_of_the_rows(self):
        import tracemalloc

        es = EventSet(np.random.default_rng(5).standard_normal((1_000_000, 2)))
        w = HeraldWindow(center=0.0, width=2.0)
        tracemalloc.start()
        try:
            out = select(es, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0.6 < out.count / es.count < 0.75
        np.testing.assert_array_equal(
            out.events, es.events[np.abs(es.t2) <= 1.0])
        assert not out.events.flags.writeable
        assert not np.shares_memory(out.events, es.events)
        # the selected rows are held once: no second copy, no index array
        assert peak < 1.25 * out.events.nbytes


class TestHeraldedWidth:
    def test_reference_set1_narrowed_width(self):
        cov = REFERENCE_SETS[0]
        es = sample(cov, DetectorModel.ideal(), 82000, seed=10)
        width, err = heralded_width(es, HeraldWindow(center=0.0, width=1e-10))
        expected = cov.tau1 * math.sqrt(1 - cov.rho_t ** 2)  # 0.3366 ns
        assert expected == pytest.approx(0.337e-9, rel=2e-3)
        assert abs(width - expected) < 4 * err

    def test_uncorrelated_data_width_is_tau1(self):
        cov = TemporalCovariance(rho_t=0.0, tau1=2e-10, tau2=3e-10)
        es = sample(cov, DetectorModel.ideal(), 60000, seed=4)
        for center, win in [(0.0, 1e-10), (2e-10, 5e-11)]:
            width, err = heralded_width(es, HeraldWindow(center, win))
            assert abs(width - cov.tau1) < 4 * err

    def test_too_few_events(self):
        cov = REFERENCE_SETS[0]
        es = sample(cov, DetectorModel.ideal(), 5000, seed=5)
        with pytest.raises(TooFewEventsError):
            heralded_width(es, HeraldWindow(center=10 * cov.tau2,
                                            width=1e-12))

    def test_matches_conditional_moments_on_random_windows(self):
        cov = REFERENCE_SETS[2]
        es = sample(cov, DetectorModel.ideal(), 200000, seed=7)
        rng = np.random.default_rng(0)
        for _ in range(10):
            center = rng.uniform(-1.5, 1.5) * cov.tau2
            width = 10 ** rng.uniform(-10.5, -9.3)
            mc, err = heralded_width(es, HeraldWindow(center, width))
            _, theory = conditional_moments(cov, center, width)
            assert abs(mc - theory) < 3.5 * err


class TestConditionalMoments:
    def test_one_object_under_every_import_path(self):
        # the window moments live in analytic; herald and the package
        # re-export the same function
        import heraldtime

        assert (heraldtime.conditional_moments is herald.conditional_moments
                is analytic.conditional_moments)

    def test_matches_quadrature(self):
        cov = TemporalCovariance(rho_t=-0.62, tau1=1.7e-10, tau2=2.9e-10,
                                 mu1=2e-11, mu2=-3e-11)
        for center, width in [(0.0, 1e-10), (2e-10, 3e-11), (-3e-10, 6e-10)]:
            mean_q, std_q = conditional_moments_quad(cov, center, width)
            mean, std = conditional_moments(cov, center, width)
            assert mean == pytest.approx(mean_q, abs=1e-6 * cov.tau1)
            assert std == pytest.approx(std_q, rel=1e-6)

    def test_infinite_window_gives_unconditional(self):
        cov = REFERENCE_SETS[0]
        mean, std = conditional_moments(cov, 0.0, math.inf)
        assert mean == cov.mu1
        assert std == pytest.approx(cov.tau1, rel=1e-12)

    @pytest.mark.parametrize("center", [math.nan, math.inf, -math.inf])
    def test_non_finite_center_rejected(self, center):
        cov = REFERENCE_SETS[0]
        for width in (1e-10, math.inf):
            with pytest.raises(ValueError, match="center must be finite"):
                conditional_moments(cov, center, width)
        with pytest.raises(ValueError, match="center must be finite"):
            centroid_curve(cov, width=1e-10, centers=[-1e-10, center, 1e-10])
        with pytest.raises(ValueError, match="center must be finite"):
            narrowing_curve(cov, center=center, widths=[1e-11, 1e-10, 1e-9])

    def test_bounded_between_limit_and_tau1(self):
        cov = REFERENCE_SETS[0]
        floor = cov.tau1 * math.sqrt(1 - cov.rho_t ** 2)
        for width in np.geomspace(1e-12, 1e-8, 25):
            _, std = conditional_moments(cov, 0.0, float(width))
            assert floor - 1e-15 <= std <= cov.tau1 * (1 + 1e-12)


class TestTruncatedNormalTails:
    """Window moments against 50-digit mpmath, mirrored in both tails."""

    @pytest.mark.parametrize("lo,hi", [
        (-1.0, 2.0), (0.0, 0.3), (2.0, 3.0), (3.0, 4.0), (6.0, 6.01),
        (8.0, 8.1), (10.0, 10.5), (20.0, 20.5), (30.0, math.inf),
        (20.0, 20.001), (35.0, 35.5), (37.0, math.inf),
        *((lo, lo + w) for lo in (0.5, 8.0, 35.0) for w in (1e-6, 1e-3)),
    ])
    @pytest.mark.parametrize("mirror", [False, True])
    @pytest.mark.parametrize("mu,sd", [(0.0, 1.0), (3e-11, 2e-10)])
    def test_matches_mpmath(self, lo, hi, mirror, mu, sd):
        pytest.importorskip("mpmath")
        if mirror:
            lo, hi = -hi, -lo
        mean, var = analytic._truncated_normal_moments(mu, sd, mu + sd * lo,
                                                       mu + sd * hi)
        mean_mp, var_mp = truncated_normal_moments_mp(mu, sd, mu + sd * lo,
                                                      mu + sd * hi)
        assert mean == pytest.approx(mean_mp, rel=1e-13, abs=1e-13 * sd)
        # Windows narrower than 0.1 sd are integrated about their midpoint;
        # the closed form cancels there (0.1.0: 4.7e-2 at [35, 35.001]).
        narrow = hi - lo < analytic._NARROW
        assert var == pytest.approx(var_mp, rel=1e-12 if narrow else 1e-6)

    @pytest.mark.parametrize("lo,hi", [(3.0, 4.0), (8.0, 8.1), (10.0, 10.5),
                                       (8.0, 8.001)])
    def test_upper_tail_mirrors_lower_tail(self, lo, hi):
        upper = analytic._truncated_normal_moments(0.0, 1.0, lo, hi)
        lower = analytic._truncated_normal_moments(0.0, 1.0, -hi, -lo)
        assert upper == (-lower[0], lower[1])

    @pytest.mark.parametrize("lo,hi", [(50.0, 51.0), (-51.0, -50.0),
                                       (38.0, 38.1), (-math.inf, -37.8)])
    def test_underflowing_mass_still_raises(self, lo, hi):
        with pytest.raises(ValueError, match="no probability mass"):
            analytic._truncated_normal_moments(0.0, 1.0, lo, hi)


class TestNarrowingCurve:
    def test_analytic_monotone_and_asymptote(self):
        cov = REFERENCE_SETS[0]
        widths = np.geomspace(cov.tau2 / 1000, 10 * cov.tau2, 30)
        curve = narrowing_curve(cov, center=0.0, widths=widths)
        assert curve.std_errors is None
        assert np.all(np.diff(curve.ratios) >= -1e-12)
        assert curve.asymptote == pytest.approx(
            math.sqrt(1 - cov.rho_t ** 2), rel=1e-12)
        assert curve.ratios[0] == pytest.approx(curve.asymptote, abs=1e-6)

    def test_flattening_matches_reference_threshold(self):
        # within one percentage point of the asymptote for every window
        # below 300 ps, and more than five points above it at 1 ns
        cov = REFERENCE_SETS[0]
        widths = np.linspace(1e-12, 300e-12, 40)
        curve = narrowing_curve(cov, center=0.0, widths=widths)
        assert np.max(curve.ratios - curve.asymptote) < 0.01
        _, std_1ns = conditional_moments(cov, 0.0, 1e-9)
        assert std_1ns / cov.tau1 - curve.asymptote > 0.05

    def test_empirical_infinite_window_ratio_is_one(self):
        es = sample(REFERENCE_SETS[1], DetectorModel.ideal(), 20000, seed=8)
        widths = np.array([1e-10, 1e-9, math.inf])
        curve = narrowing_curve(es, center=0.0, widths=widths)
        assert curve.ratios[-1] == 1.0

    def test_empirical_matches_analytic_pointwise(self):
        cov = REFERENCE_SETS[2]
        es = sample(cov, DetectorModel.ideal(), 82000, seed=9)
        widths = np.geomspace(5e-11, 1.5e-9, 8)
        emp = narrowing_curve(es, center=0.0, widths=widths)
        ana = narrowing_curve(cov, center=0.0, widths=widths)
        for e, a, se in zip(emp.ratios, ana.ratios, emp.std_errors):
            assert abs(e - a) < 3 * se + 0.01

    def test_needs_three_widths(self):
        with pytest.raises(ValueError):
            narrowing_curve(REFERENCE_SETS[0], center=0.0, widths=[1e-10])

    def test_too_few_selected_propagates(self):
        es = sample(REFERENCE_SETS[0], DetectorModel.ideal(), 1000, seed=10)
        with pytest.raises(TooFewEventsError):
            narrowing_curve(es, center=0.0, widths=[1e-13, 1e-12, 1e-11])

    @pytest.mark.parametrize("constant", [0, 1], ids=["analyzed", "heralding"])
    @pytest.mark.parametrize("herald_on", [2, 1])
    def test_constant_channel_refused_as_fit_refuses_it(self, constant,
                                                       herald_on):
        # 2000 events with one channel at 1 ns: its mean rounds off the
        # value, and the ratios and asymptote would be 0/0
        events = np.random.default_rng(0).normal(0.0, 1e-10, (2000, 2))
        events[:, constant if herald_on == 2 else 1 - constant] = 1e-9
        center = 1e-9 if constant else 0.0
        with pytest.raises(DegenerateDataError,
                           match="^events have zero variance on a channel$"):
            narrowing_curve(EventSet(events), center, [1e-11, 1e-10, 1e-9],
                            herald_on=herald_on)

    def test_refused_windows_named_as_plain_floats(self):
        # grid points are NumPy scalars, which NumPy 2 reprs as
        # np.float64(...); each curve, and heralded_width given a window of
        # NumPy scalars, names its window by the float.  No
        # event lies within 4 ps of 0 or of -100 ps, and the model has no
        # mass 5e9 sd out.
        x = np.geomspace(1e-11, 1e-9, 50)
        es = EventSet(np.column_stack([np.r_[-x, x]] * 2))
        with pytest.raises(TooFewEventsError,
                           match=r"^window width 1e-12 selects 0 events"):
            narrowing_curve(es, center=0.0, widths=[1e-12, 1e-11, 1e-9])
        with pytest.raises(TooFewEventsError,
                           match=r"^window center -1e-10 selects 0 events"):
            centroid_curve(es, width=1e-12, centers=[-1e-10, 0.0, 1e-10])
        with pytest.raises(TooFewEventsError, match=r"^window \(center=0\.0, "
                                                    r"width=1e-12\) selects 0"):
            heralded_width(es, HeraldWindow(np.float64(0.0), np.float64(1e-12)))
        cov = TemporalCovariance(rho_t=0.5, tau1=1e-10, tau2=1e-10)
        with pytest.raises(ValueError, match=r"^window \[0\.5, 1\.5\] carries "
                                             "no probability mass"):
            centroid_curve(cov, width=1.0, centers=[1.0, 2.0, 3.0])


class TestCentroidCurve:
    def test_analytic_small_window_slope(self):
        cov = REFERENCE_SETS[0]
        centers = np.linspace(-2 * cov.tau2, 2 * cov.tau2, 11)
        curve = centroid_curve(cov, width=cov.tau2 / 1000, centers=centers)
        expected = cov.rho_t * cov.tau1 / cov.tau2
        assert curve.slope() == pytest.approx(expected, rel=1e-4)

    def test_uncorrelated_curve_is_flat_at_zero(self):
        cov = TemporalCovariance(rho_t=0.0, tau1=1e-10, tau2=1e-10)
        centers = np.linspace(-2e-10, 2e-10, 7)
        curve = centroid_curve(cov, width=1e-11, centers=centers)
        np.testing.assert_allclose(curve.means, 0.0, atol=1e-20)

    def test_finite_window_matches_quadrature_first_moment(self):
        cov = REFERENCE_SETS[0]
        centers = np.linspace(-1.5 * cov.tau2, 1.5 * cov.tau2, 5)
        curve = centroid_curve(cov, width=1e-10, centers=centers)
        for c, m in zip(centers, curve.means):
            mean_q, _ = conditional_moments_quad(cov, float(c), 1e-10)
            assert m == pytest.approx(mean_q, abs=1e-6 * cov.tau1)

    def test_empirical_matches_analytic(self):
        cov = REFERENCE_SETS[2]
        es = sample(cov, DetectorModel.ideal(), 82000, seed=11)
        centers = np.linspace(-cov.tau2, cov.tau2, 5)
        emp = centroid_curve(es, width=1e-10, centers=centers)
        ana = centroid_curve(cov, width=1e-10, centers=centers)
        for e, a, se in zip(emp.means, ana.means, emp.std_errors):
            assert abs(e - a) < 4 * se


class TestInvalidGridPoints:
    """Both curves reject a grid point the window rule refuses, or a
    heralding channel other than 1 or 2, on both paths, before any events
    are counted."""

    @pytest.fixture(scope="class")
    def sources(self):
        cov = REFERENCE_SETS[0]
        return cov, sample(cov, DetectorModel.ideal(), 5000, seed=12)

    @pytest.mark.parametrize("bad", [math.nan, 0.0, -1e-10, -math.inf])
    def test_narrowing_width(self, sources, bad):
        for source in sources:
            with pytest.raises(ValueError, match="width must be positive"):
                narrowing_curve(source, 0.0, [1e-10, bad, 1e-9])

    @pytest.mark.parametrize("bad", [3, 0, "2"])
    def test_narrowing_herald_on(self, sources, bad):
        for source in sources:
            with pytest.raises(ValueError, match="herald_on must be 1 or 2"):
                narrowing_curve(source, 0.0, [1e-10, 3e-10, 1e-9],
                                herald_on=bad)

    @pytest.mark.parametrize("bad", [3, 0, "2"])
    def test_centroid_herald_on(self, sources, bad):
        for source in sources:
            with pytest.raises(ValueError, match="herald_on must be 1 or 2"):
                centroid_curve(source, 1e-10, [-1e-10, 0.0, 1e-10],
                               herald_on=bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_centroid_center(self, sources, bad):
        for source in sources:
            with pytest.raises(ValueError, match="center must be finite"):
                centroid_curve(source, 1e-10, [-1e-10, bad, 1e-10])

    def test_other_sources_rejected(self):
        # one rule for every entry point: an EventSet or a covariance
        raw = np.zeros((100, 2))
        message = "source must be an EventSet or TemporalCovariance"
        with pytest.raises(TypeError, match=message):
            narrowing_curve(raw, 0.0, [1e-10, 3e-10, 1e-9])
        with pytest.raises(TypeError, match=message):
            centroid_curve(raw, 1e-10, [-1e-10, 0.0, 1e-10])
        with pytest.raises(TypeError, match=message):
            select(raw, HeraldWindow(0.0, 1e-10))
        with pytest.raises(TypeError, match=message):
            heralded_width(raw, HeraldWindow(0.0, 1e-10))

    @pytest.mark.parametrize("bad", [math.nan, 0.0, -1e-10])
    def test_centroid_width(self, sources, bad):
        for source in sources:
            with pytest.raises(ValueError, match="width must be positive"):
                centroid_curve(source, bad, [-1e-10, 0.0, 1e-10])


class TestDirectionSymmetry:
    def test_herald_on_one_equals_transposed_herald_on_two(self):
        es = sample(REFERENCE_SETS[0], DetectorModel.ideal(), 30000, seed=12)
        w1 = heralded_width(es, HeraldWindow(0.0, 2e-10, herald_on=1))
        w2 = heralded_width(EventSet(es.events[:, ::-1]),
                            HeraldWindow(0.0, 2e-10, herald_on=2))
        assert w1 == w2  # bit-exact: same events, same estimator

    def test_analytic_swap_consistency(self):
        cov = REFERENCE_SETS[2]
        widths = np.geomspace(1e-11, 1e-9, 5)
        one = narrowing_curve(cov, center=0.0, widths=widths, herald_on=1)
        two = narrowing_curve(cov.swapped(), center=0.0, widths=widths,
                              herald_on=2)
        np.testing.assert_array_equal(one.ratios, two.ratios)


class TestResamplingMatchesReference:
    """The refit bootstrap against the 0.1.0 loop kept in oracles.py: it
    draws and sums exactly as before and must be bit-identical."""

    def test_refit_bootstrap_bit_identical(self):
        es = sample(REFERENCE_SETS[1], DetectorModel.ideal(), 3000, seed=22)
        cfg = FitConfig()
        assert bootstrap_errors(es, cfg, n_resamples=4, seed=8) == \
            refit_bootstrap_loop(es, cfg, 4, 8)


# The source, link and detector of the command-line pipeline benchmark:
# 3.29 THz crystal, 964 fs pump, 10 km per arm; 30 ps jitter per channel,
# 10 ps reference jitter and 1 % background over +-1 ns.
PIPELINE_COV = analytic.temporal_covariance(
    SourceParams(sigma=REFERENCE_SIGMA, tau_p=964e-15), REFERENCE_LINK)
PIPELINE_DETECTOR = DetectorModel(jitter1=3e-11, jitter2=3e-11,
                                  reference_jitter=1e-11,
                                  background_rate=0.01, window=(-1e-9, 1e-9))

# Each statistical check below fails a correct package with probability at
# most this, split over its comparisons (Bonferroni).
FALSE_FAIL = 1e-3


@functools.cache
def pipeline_events():
    return sample(PIPELINE_COV, PIPELINE_DETECTOR, 5000, seed=51)


def oriented(es: EventSet, herald_on: int):
    """(analyzed, heralding) columns."""
    return (es.t1, es.t2) if herald_on == 2 else (es.t2, es.t1)


class TestClosedFormErrors:
    """The error bars: delta-method standard errors."""

    @given(center=st.floats(-4e-10, 4e-10),
           widths=st.lists(st.floats(5e-11, 3e-9), min_size=3, max_size=6),
           left_out=st.integers(-1, 3), herald_on=st.sampled_from([1, 2]))
    @settings(max_examples=60, deadline=None)
    def test_narrowing_matches_direct_influence(self, center, widths,
                                                left_out, herald_on):
        es = pipeline_events()
        analyzed, heralding = oriented(es, herald_on)
        if left_out >= 0:  # a width holding all but left_out events
            reach = np.sort(np.abs(heralding - center))[-1 - left_out]
            widths = widths + [2.0 * reach * (1.0 + 1e-9)]
        assume(min(in_window(heralding, center, w).sum() for w in widths)
               >= herald.MIN_EVENTS)
        curve = narrowing_curve(es, center, widths, herald_on=herald_on)
        ratios, errs = narrowing_influence_direct(analyzed, heralding, center,
                                                  widths)
        np.testing.assert_allclose(curve.ratios, ratios, rtol=0, atol=1e-12)
        np.testing.assert_allclose(curve.std_errors, errs, rtol=1e-12, atol=0)

    @given(center=st.floats(-4e-10, 4e-10), width=st.floats(5e-11, 3e-9),
           herald_on=st.sampled_from([1, 2]))
    @settings(max_examples=60, deadline=None)
    def test_window_statistics_match_direct_influence(self, center, width,
                                                      herald_on):
        es = pipeline_events()
        analyzed, heralding = oriented(es, herald_on)
        x = analyzed[in_window(heralding, center, width)]
        assume(x.size >= herald.MIN_EVENTS)
        sd, err = heralded_width(es, HeraldWindow(center, width, herald_on))
        sd_ref, err_ref = width_influence_direct(x)
        assert sd == sd_ref
        assert err == pytest.approx(err_ref, rel=1e-12)
        curve = centroid_curve(es, width, [center] * 3, herald_on=herald_on)
        assert curve.means[1] == np.mean(x)
        assert curve.std_errors[1] == pytest.approx(
            np.std(x, ddof=1) / math.sqrt(x.size), rel=1e-12)

    @pytest.mark.parametrize("herald_on", [1, 2])
    def test_all_events_width_has_zero_error(self, herald_on):
        es = pipeline_events()
        reach = np.max(np.abs(oriented(es, herald_on)[1]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            curve = narrowing_curve(es, 0.0, [1e-10, 2.5 * reach, math.inf],
                                    herald_on=herald_on)
        assert curve.std_errors[0] > 0
        assert curve.std_errors[1] == 0.0 and curve.std_errors[2] == 0.0
        assert curve.ratios[1] == curve.ratios[2] == 1.0

    def test_narrowing_far_from_time_origin(self):
        # arrival times offset by 1000 widths: the moments are taken about
        # a window mean, so the offset does not cancel away the digits
        cov = TemporalCovariance(rho_t=0.9, tau1=2e-10, tau2=2.5e-10,
                                 mu1=2e-7, mu2=-1e-7)
        es = sample(cov, DetectorModel.ideal(), 20000, seed=23)
        widths = np.geomspace(2e-11, 1e-9, 9)
        curve = narrowing_curve(es, -1e-7, widths)
        ratios, errs = narrowing_influence_direct(es.t1, es.t2, -1e-7, widths)
        np.testing.assert_allclose(curve.ratios, ratios, rtol=0, atol=1e-12)
        np.testing.assert_allclose(curve.std_errors, errs, rtol=1e-12, atol=0)

    def test_narrowing_window_of_identical_times(self):
        # the narrowest window holds one repeated t1, so its width and the
        # error of that width are 0; the wider windows are unaffected
        rng = np.random.default_rng(24)
        ev = rng.normal(0.0, 1e-9, size=(3000, 2))
        ev[:40] = [1.1e-9, 0.0]
        curve = narrowing_curve(EventSet(ev), 0.0, [1e-13, 1e-9, 1e-8])
        assert curve.ratios[0] == 0.0 and curve.std_errors[0] == 0.0
        ratios, errs = narrowing_influence_direct(ev[:, 0], ev[:, 1], 0.0,
                                                  [1e-9, 1e-8])
        np.testing.assert_allclose(curve.ratios[1:], ratios, rtol=0,
                                   atol=1e-12)
        np.testing.assert_allclose(curve.std_errors[1:], errs, rtol=1e-12,
                                   atol=0)

    @pytest.mark.parametrize("detector", [PIPELINE_DETECTOR,
                                          DetectorModel.ideal()],
                             ids=["pipeline", "ideal"])
    def test_agrees_with_a_2000_resample_bootstrap(self, detector):
        # A bootstrap SE from B resamples is itself uncertain, by the relative
        # SD sqrt((kurtosis - 1) / (4 B)) of a sample SD, with the kurtosis
        # of its own replicates.  Every window holds 300+ events, so the
        # delta method and the infinite bootstrap differ by O(1/m), below
        # 1e-2 of that band.
        es = sample(PIPELINE_COV, detector, 20000, seed=52)
        widths = np.geomspace(2e-11, 1e-9, 10)
        centers = np.linspace(-3e-10, 3e-10, 7)
        closed = np.concatenate([
            narrowing_curve(es, 0.0, widths).std_errors,
            centroid_curve(es, 1e-10, centers).std_errors,
            [heralded_width(es, HeraldWindow(0.0, 1e-10))[1]]])
        n_boot = 2000
        means, sds, full_sds = window_replicates(
            es.t1, es.t2, [(0.0, w) for w in widths]
            + [(c, 1e-10) for c in centers], n_boot, seed=53)
        reps = np.column_stack([sds[:, :widths.size] / full_sds[:, None],
                                means[:, widths.size:],
                                sds[:, widths.size + centers.size // 2]])
        dev = reps - np.mean(reps, axis=0)
        kurtosis = np.mean(dev ** 4, axis=0) / np.mean(dev ** 2, axis=0) ** 2
        band = np.sqrt((kurtosis - 1.0) / (4.0 * n_boot))
        z = NormalDist().inv_cdf(1.0 - FALSE_FAIL / (2 * closed.size))
        boot = np.std(reps, axis=0, ddof=1)
        assert np.all(np.abs(closed / boot - 1.0) <= z * band)

    def test_pulls_against_the_exact_model(self):
        # On an ideal detector the model is exact, so over independent seeds
        # (empirical - model) / SE has mean 0 and SD 1 at every point: the
        # mean within z / sqrt(N), the variance within the chi-square
        # quantiles of N - 1 degrees of freedom.
        cov, seeds = PIPELINE_COV, range(1000, 1064)
        widths = np.geomspace(2e-11, 1e-9, 6)
        centers = np.linspace(-3e-10, 3e-10, 5)
        model = np.concatenate([
            narrowing_curve(cov, 0.0, widths).ratios,
            centroid_curve(cov, 1e-10, centers).means,
            [conditional_moments(cov, 0.0, 1e-10)[1]]])
        pulls = []
        for seed in seeds:
            es = sample(cov, DetectorModel.ideal(), 20000, seed=seed)
            nar = narrowing_curve(es, 0.0, widths)
            cen = centroid_curve(es, 1e-10, centers)
            sd, err = heralded_width(es, HeraldWindow(0.0, 1e-10))
            pulls.append((np.concatenate([nar.ratios, cen.means, [sd]])
                          - model)
                         / np.concatenate([nar.std_errors, cen.std_errors,
                                           [err]]))
        pulls = np.array(pulls)
        n = len(seeds)
        alpha = FALSE_FAIL / (2 * model.size)  # a mean and an SD per point
        chi2 = pytest.importorskip("scipy.stats").chi2
        assert np.all(np.abs(np.mean(pulls, axis=0))
                      <= NormalDist().inv_cdf(1 - alpha / 2) / math.sqrt(n))
        var = np.var(pulls, axis=0, ddof=1) * (n - 1)
        assert np.all(var >= chi2.ppf(alpha / 2, n - 1))
        assert np.all(var <= chi2.ppf(1 - alpha / 2, n - 1))


def test_window_edge_follows_select():
    # a point where |t2 - center| <= width / 2 and lo <= t2 <= hi disagree
    # by one rounding: every statistic leaves the event out, as select does
    center, width = 2.3643249400513398e-11, 9.50959059362676e-10
    edge = -4.518362802808247e-10
    assert abs(edge - center) <= 0.5 * width
    rng = np.random.default_rng(0)
    inner = np.column_stack([rng.normal(0.0, 1e-10, 100), np.full(100, center)])
    es = EventSet(np.vstack([inner, [[1e-6, edge]]]))
    chosen = select(es, HeraldWindow(center, width)).t1
    assert chosen.size == 100
    assert heralded_width(es, HeraldWindow(center, width))[0] == \
        np.std(chosen, ddof=1)
    assert centroid_curve(es, width, [center] * 3).means[1] == np.mean(chosen)
    ratio = narrowing_curve(es, center, [width, 2 * width, 4e-6]).ratios[0]
    assert ratio == pytest.approx(np.std(chosen, ddof=1)
                                  / np.std(es.t1, ddof=1), rel=1e-9)


HERALD_ENTRIES = {
    "heralded_width": lambda es, **kw: heralded_width(
        es, HeraldWindow(0.0, 1e-10), **kw),
    "narrowing_curve": lambda es, **kw: narrowing_curve(
        es, 0.0, [1e-10, 1e-9, 1e-8], **kw),
    "centroid_curve": lambda es, **kw: centroid_curve(
        es, 1e-10, [-1e-10, 0.0, 1e-10], **kw),
}


def errors_of(out) -> np.ndarray:
    return np.atleast_1d(out[1] if isinstance(out, tuple) else out.std_errors)


@pytest.mark.parametrize("entry, n_boot", [
    *((entry, n) for entry in HERALD_ENTRIES for n in (1, 0, -1, 2, 200)),
    *(("bootstrap_errors", n) for n in (1, 0, -1))])
def test_fewer_than_two_resamples_rejected(entry, n_boot, monkeypatch):
    # a spread of fewer than two resamples is undefined: an error, not NaN;
    # the herald statistics draw none, so they take only n_boot=0, their
    # default, and no seed
    es = sample(REFERENCE_SETS[0], DetectorModel.ideal(), 5000, seed=31)
    if entry == "bootstrap_errors":
        with pytest.raises(ValueError, match="number of resamples"):
            bootstrap_errors(es, n_resamples=n_boot)
        return
    if n_boot != 0:
        with pytest.raises(ValueError, match="number of resamples"):
            HERALD_ENTRIES[entry](es, n_boot=n_boot)
        return
    with pytest.raises(TypeError, match="seed"):
        HERALD_ENTRIES[entry](es, seed=0)

    def no_resampling(*args, **kwargs):
        raise AssertionError("n_boot=0 made a random generator")

    # every generator in the package is made by default_rng
    monkeypatch.setattr(np.random, "default_rng", no_resampling)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        errs = errors_of(HERALD_ENTRIES[entry](es, n_boot=0))
    assert np.all(np.isfinite(errs)) and np.all(errs >= 0)
    np.testing.assert_array_equal(errs, errors_of(HERALD_ENTRIES[entry](es)))
