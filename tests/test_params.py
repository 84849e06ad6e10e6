import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heraldtime.analytic import (
    conditional_density,
    conditional_limit_density,
    conditional_moments,
    landscape,
    optimum,
)
from heraldtime.dataio import RunConfig
from heraldtime.fitting import bootstrap_errors
from heraldtime.herald import (
    HeraldWindow,
    centroid_curve,
    heralded_width,
    narrowing_curve,
)
from heraldtime.params import (
    CWPumpError,
    LinkParams,
    SourceParams,
    SourceParamsRho,
    TemporalCovariance,
    _show,
    from_rho_form,
    to_rho_form,
)
from heraldtime.sampler import DetectorModel, EventSet, sample

from oracles import spectral_intensity_moments


class TestValidation:
    def test_source_requires_positive_sigma(self):
        with pytest.raises(ValueError):
            SourceParams(sigma=-1.0, tau_p=1e-12)
        with pytest.raises(ValueError):
            SourceParams(sigma=0.0, tau_p=1e-12)

    def test_source_requires_tau_p_unless_cw(self):
        with pytest.raises(ValueError):
            SourceParams(sigma=1e12)
        with pytest.raises(ValueError):
            SourceParams(sigma=1e12, tau_p=math.inf)

    def test_cw_flag_excludes_tau_p(self):
        cw = SourceParams.cw_pump(2e12)
        assert cw.cw and cw.tau_p is None
        with pytest.raises(ValueError):
            SourceParams(sigma=2e12, tau_p=1e-12, cw=True)

    def test_rho_form_bounds(self):
        with pytest.raises(ValueError):
            SourceParamsRho(sigma0=1e12, rho=-1.0)
        with pytest.raises(ValueError):
            SourceParamsRho(sigma0=1e12, rho=1.0)
        with pytest.raises(ValueError):
            SourceParamsRho(sigma0=-1e12, rho=0.0)

    def test_link_allows_negative_beta_and_zero_length(self):
        link = LinkParams(beta=-1.15e-26, length=0.0)
        assert link.abs_beta_length == 0.0
        with pytest.raises(ValueError):
            LinkParams(beta=math.nan, length=1.0)
        with pytest.raises(ValueError):
            LinkParams(beta=1e-26, length=-1.0)

    def test_temporal_covariance_bounds(self):
        with pytest.raises(ValueError):
            TemporalCovariance(rho_t=1.0, tau1=1e-9, tau2=1e-9)
        with pytest.raises(ValueError):
            TemporalCovariance(rho_t=0.0, tau1=-1e-9, tau2=1e-9)

    def test_swapped_exchanges_roles(self):
        cov = TemporalCovariance(rho_t=0.5, tau1=1e-10, tau2=2e-10,
                                 mu1=1e-11, mu2=-1e-11)
        sw = cov.swapped()
        assert (sw.tau1, sw.tau2, sw.mu1, sw.mu2) == (2e-10, 1e-10, -1e-11, 1e-11)
        assert sw.rho_t == cov.rho_t


COV = TemporalCovariance(rho_t=0.5, tau1=1e-9, tau2=1e-9)
LINK = LinkParams(beta=-1.15e-26, length=1e4)
EVENTS = sample(COV, DetectorModel(), 200, 3)

# Every real field: (name in the message, a valid value, a call that takes
# the value for that field alone).
REAL_FIELDS = [
    ("sigma", 3.29e12, lambda v: SourceParams(sigma=v, tau_p=1e-12)),
    ("tau_p", 1e-12, lambda v: SourceParams(sigma=3.29e12, tau_p=v)),
    ("sigma0", 1e12, lambda v: SourceParamsRho(sigma0=v, rho=0.5)),
    ("rho", 0.5, lambda v: SourceParamsRho(sigma0=1e12, rho=v)),
    ("beta", -1.15e-26, lambda v: LinkParams(beta=v, length=1e4)),
    ("length", 1e4, lambda v: LinkParams(beta=-1.15e-26, length=v)),
    ("rho_t", 0.5, lambda v: TemporalCovariance(rho_t=v, tau1=1e-9, tau2=1e-9)),
    ("tau1", 1e-9, lambda v: TemporalCovariance(rho_t=0.5, tau1=v, tau2=1e-9)),
    ("tau2", 1e-9, lambda v: TemporalCovariance(rho_t=0.5, tau1=1e-9, tau2=v)),
    ("mu1", 1e-12, lambda v: TemporalCovariance(0.5, 1e-9, 1e-9, mu1=v)),
    ("mu2", 1e-12, lambda v: TemporalCovariance(0.5, 1e-9, 1e-9, mu2=v)),
    ("jitter1", 3e-11, lambda v: DetectorModel(jitter1=v)),
    ("jitter2", 3e-11, lambda v: DetectorModel(jitter2=v)),
    ("reference_jitter", 1e-11, lambda v: DetectorModel(reference_jitter=v)),
    ("background_rate", 0.01,
     lambda v: DetectorModel(background_rate=v, window=(-1e-9, 1e-9))),
    ("window", -1e-9,
     lambda v: DetectorModel(background_rate=0.01, window=(v, 1e-9))),
    ("window", 1e-9,
     lambda v: DetectorModel(background_rate=0.01, window=(-1e-9, v))),
    ("sigma_fixed", 3.29e12, lambda v: optimum(LINK, sigma_fixed=v)),
    ("delta_lambda", 1.2e-8,
     lambda v: RunConfig({"meta.delta_lambda": v}).meta()),
]

# Every count field, in the same form, with its least value.
COUNT_FIELDS = [
    ("n", 1, lambda v: sample(COV, DetectorModel(), v, 1)),
    ("seed", 0, lambda v: sample(COV, DetectorModel(), 3, v)),
    ("n", 1, lambda v: RunConfig({"sample.n": v}).sample()),
    ("seed", 0, lambda v: RunConfig({"sample.seed": v}).sample()),
    ("the number of resamples", 2,
     lambda v: bootstrap_errors(EVENTS, n_resamples=v)),
    ("herald_on", 1, lambda v: HeraldWindow(0.0, 1e-9, v)),
    ("herald_on", 1,
     lambda v: narrowing_curve(COV, 0.0, [1e-10, 1e-9, 1e-8], herald_on=v)),
    ("the number of resamples", 0,
     lambda v: heralded_width(EVENTS, HeraldWindow(0.0, math.inf), n_boot=v)),
]


# Every window field: (name in the message, a valid int, whether a width of
# inf, every event, is taken, a call that takes the value for that field
# alone).  A 1 s window holds every event of EVENTS.
WINDOW_FIELDS = [
    ("window center", 0, False, lambda v: HeraldWindow(v, 1e-9)),
    ("window width", 1, True, lambda v: HeraldWindow(0.0, v)),
    ("window center", 0, False, lambda v: conditional_moments(COV, v, 1e-9)),
    ("window width", 1, True, lambda v: conditional_moments(COV, 0.0, v)),
    ("window center", 0, False,
     lambda v: conditional_density(0.0, v, 1e-9, COV)),
    ("window width", 1, True,
     lambda v: conditional_density(0.0, 0.0, v, COV)),
    ("window center", 0, False,
     lambda v: conditional_limit_density(0.0, v, COV)),
    ("window center", 0, False,
     lambda v: narrowing_curve(COV, v, [1e-9, 2e-9, 4e-9])),
    ("window center", 0, False,
     lambda v: narrowing_curve(EVENTS, v, [1e-9, 2e-9, 4e-9])),
    ("window width", 1, True,
     lambda v: centroid_curve(COV, v, [-1e-10, 0.0, 1e-10])),
    ("window width", 1, True,
     lambda v: centroid_curve(EVENTS, v, [-1e-10, 0.0, 1e-10])),
]

# Every grid: (name in the grid's message, name in a value's message, a
# valid grid of ints, of the fewest values the grid takes, whether inf
# values are taken, a call that takes the grid alone).  A 3 s window holds
# every event of EVENTS.
GRID_FIELDS = [
    ("widths", "window width", [1, 2, 4], True,
     lambda g: narrowing_curve(COV, 0.0, g)),
    ("widths", "window width", [1, 2, 4], True,
     lambda g: narrowing_curve(EVENTS, 0.0, g)),
    ("centers", "window center", [-1, 0, 1], False,
     lambda g: centroid_curve(COV, 3, g)),
    ("centers", "window center", [-1, 0, 1], False,
     lambda g: centroid_curve(EVENTS, 3, g)),
    ("tau_p_grid and sigma_grid", "grid values", [1], False,
     lambda g: landscape(g, [1e12], LINK, "tau1")),
    ("tau_p_grid and sigma_grid", "grid values", [1], False,
     lambda g: landscape([1e-12], g, LINK, "tau1")),
]


def ids(fields):
    return [f"{field[0]}-{i}" for i, field in enumerate(fields)]


class TestNumberRules:
    """One rule for a real and one for a count, pinned per field."""

    @pytest.mark.parametrize("name, valid, make", REAL_FIELDS,
                             ids=ids(REAL_FIELDS))
    def test_real_field(self, name, valid, make):
        make(valid)
        make(np.float64(valid))
        # 10**400 overflowed in math.isfinite, an OverflowError
        for bad in (True, False, math.nan, math.inf, -math.inf,
                    np.int64(1), np.float32(valid), str(valid), 10 ** 400):
            with pytest.raises(ValueError, match=f"{name} must .*, got"):
                make(bad)

    @pytest.mark.parametrize("name, valid, make", COUNT_FIELDS,
                             ids=ids(COUNT_FIELDS))
    def test_count_field(self, name, valid, make):
        make(valid)
        make(np.int64(valid))
        make(np.uint8(valid))
        for bad in (True, False, math.nan, math.inf, -math.inf,
                    float(valid), np.float64(valid), valid - 1, str(valid)):
            with pytest.raises(ValueError, match=f"{name} must .*, got"):
                make(bad)

    @pytest.mark.parametrize("name, valid, inf_ok, make", WINDOW_FIELDS,
                             ids=ids(WINDOW_FIELDS))
    def test_window_field(self, name, valid, inf_ok, make):
        for good in (valid, float(valid), np.float64(valid)):
            make(good)
        if inf_ok:
            make(math.inf)
            make(np.float64(math.inf))
        for bad in (True, False, np.int64(valid), np.float32(valid),
                    str(valid), math.nan, -math.inf, np.array([True]),
                    10 ** 400, *([] if inf_ok else [math.inf])):
            with pytest.raises(ValueError, match=f"^{name} must .*, got"):
                make(bad)

    @pytest.mark.parametrize("name, value_name, valid, inf_ok, make",
                             GRID_FIELDS, ids=ids(GRID_FIELDS))
    def test_grid_field(self, name, value_name, valid, inf_ok, make):
        floats = [float(v) for v in valid]
        for good in (valid, floats, np.array(valid), np.array(floats),
                     np.array(floats, dtype=np.float32)):
            make(good)
        if inf_ok:
            make(floats[:-1] + [math.inf])
        for bad in (True, np.int64(valid[0]), np.float32(valid[0]),
                    str(valid), [True] * len(valid), np.array(valid) > 0,
                    np.array(valid, dtype=str), np.array(valid, dtype=object),
                    floats[:-1], [floats]):
            with pytest.raises(ValueError,
                               match=f"^{re.escape(name)} must .*, got"):
                make(bad)
        for bad in (math.nan, -math.inf, *([] if inf_ok else [math.inf])):
            with pytest.raises(ValueError, match=f"^{value_name} must .*, got"):
                make(floats[:-1] + [bad])

    @pytest.mark.parametrize("value, shown", [
        (True, "True"), (3, "3"), (0.1, "0.1"), (math.nan, "nan"),
        (np.float64(0.1), "0.1"), (np.float32(0.5), "np.float32(0.5)"),
        (np.int64(0), "np.int64(0)"), (np.bool_(True), "np.bool(True)"),
        ("2", "'2'")])
    def test_values_read_the_same_on_numpy_1_and_2(self, value, shown):
        assert _show(value) == shown

    def test_messages_name_the_value(self):
        with pytest.raises(ValueError, match=r"^rho_t must lie strictly "
                           r"inside \(-1, 1\), got np\.int64\(0\)$"):
            TemporalCovariance(rho_t=np.int64(0), tau1=1e-9, tau2=1e-9)
        with pytest.raises(ValueError, match=r"^sigma must be a finite "
                           r"positive number, got True$"):
            SourceParams(sigma=True, tau_p=1e-12)
        with pytest.raises(ValueError, match=r"^herald_on must be 1 or 2, "
                           r"got True$"):
            HeraldWindow(0.0, 1e-9, herald_on=True)
        with pytest.raises(ValueError, match=r"^n must be a positive "
                           r"integer, got True$"):
            sample(COV, DetectorModel(), True, 1)

    def test_numpy_integers_stay_out_of_the_closed_forms(self):
        # squared in int64, 3.29e12 overflows with only a RuntimeWarning
        with pytest.raises(ValueError, match="sigma must be a finite"):
            SourceParams(sigma=np.int64(3290000000000), tau_p=1e-12)


class TestConversions:
    def test_decorrelation_locus_maps_to_zero_exactly(self):
        # sigma * tau_p == 2 exactly in floating point
        for sigma, tau_p in [(2.0, 1.0), (4.0, 0.5), (8.0, 0.25)]:
            assert to_rho_form(SourceParams(sigma=sigma, tau_p=tau_p)).rho == 0.0

    def test_zero_rho_substitution(self):
        s = 1.7e12
        src = from_rho_form(SourceParamsRho(sigma0=s, rho=0.0))
        assert src.tau_p == pytest.approx(1.0 / s, rel=1e-15)
        assert src.sigma == pytest.approx(2.0 * s, rel=1e-15)

    def test_sigma_vanishes_monotonically_as_rho_approaches_one(self):
        sigmas = [from_rho_form(SourceParamsRho(sigma0=1e12, rho=r)).sigma
                  for r in (0.0, 0.5, 0.9, 0.99, 0.999999)]
        assert all(a > b for a, b in zip(sigmas, sigmas[1:]))
        assert sigmas[-1] < 1e12 * 0.003

    @settings(max_examples=1000, deadline=None)
    @given(st.floats(min_value=9.0, max_value=14.0),
           st.floats(min_value=-2.0, max_value=2.3))
    def test_round_trip_identity(self, log_sigma, log_product):
        # draw sigma and the product sigma*tau_p; the product range spans the
        # regime where the correlation representation resolves 1 -+ rho
        # (|rho| up to ~1 - 5e-5), centered on the decorrelation point at 2
        sigma = 10.0 ** log_sigma
        src = SourceParams(sigma=sigma, tau_p=10.0 ** log_product / sigma)
        back = from_rho_form(to_rho_form(src))
        assert back.sigma == pytest.approx(src.sigma, rel=1e-12)
        assert back.tau_p == pytest.approx(src.tau_p, rel=1e-12)

    def test_round_trip_degrades_gracefully_at_extreme_products(self):
        # far outside that regime, 1 -+ rho hits the floating-point spacing
        # around one and precision is limited by the representation itself
        for sigma, tau_p in [(1e9, 10.0 ** -14.5), (1e14, 1e-9)]:
            src = SourceParams(sigma=sigma, tau_p=tau_p)
            back = from_rho_form(to_rho_form(src))
            assert back.sigma == pytest.approx(src.sigma, rel=1e-6)
            assert back.tau_p == pytest.approx(src.tau_p, rel=1e-6)

    @settings(max_examples=1000, deadline=None)
    @given(st.floats(min_value=9.0, max_value=14.0),
           st.floats(min_value=-0.999, max_value=0.999))
    def test_round_trip_identity_other_composition(self, log_sigma0, rho):
        p = SourceParamsRho(sigma0=10.0 ** log_sigma0, rho=rho)
        back = to_rho_form(from_rho_form(p))
        assert back.sigma0 == pytest.approx(p.sigma0, rel=1e-12)
        assert back.rho == pytest.approx(p.rho, rel=1e-12, abs=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(min_value=9.0, max_value=14.0),
           st.floats(min_value=-14.5, max_value=-9.0))
    def test_rho_always_strictly_inside_unit_interval(self, log_sigma,
                                                      log_tau_p):
        rho = to_rho_form(SourceParams(sigma=10.0 ** log_sigma,
                                       tau_p=10.0 ** log_tau_p)).rho
        assert -1.0 < rho < 1.0

    def test_cw_has_no_rho_representation(self):
        with pytest.raises(CWPumpError):
            to_rho_form(SourceParams.cw_pump(1e12))


class TestQuadratureOracles:
    def test_to_rho_form_matches_spectral_intensity_correlation(self):
        # shortest reference pump setting
        sigma, tau_p = 3.29e12, 71.82e-15
        var1, cov12 = spectral_intensity_moments(sigma, tau_p)
        rho_oracle = cov12 / var1
        rho = to_rho_form(SourceParams(sigma=sigma, tau_p=tau_p)).rho
        assert rho == pytest.approx(rho_oracle, abs=1e-8)

    def test_from_rho_form_matches_single_photon_moments(self):
        # strongly anticorrelated source: intensity covariance of the
        # sigma0/rho description is sigma0^2/2 * [[1, rho], [rho, 1]]
        sigma0, rho = 1e12, -0.9
        src = from_rho_form(SourceParamsRho(sigma0=sigma0, rho=rho))
        var1, cov12 = spectral_intensity_moments(src.sigma, src.tau_p)
        assert var1 == pytest.approx(sigma0 ** 2 / 2.0, rel=1e-8)
        assert cov12 == pytest.approx(rho * sigma0 ** 2 / 2.0, rel=1e-7)
        # frozen expected values of the transformation itself
        assert src.tau_p == pytest.approx(3.1622776601683795e-12, rel=1e-12)
        assert src.sigma == pytest.approx(2.756809750418044e12, rel=1e-12)
