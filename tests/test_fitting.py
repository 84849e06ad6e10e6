import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from heraldtime import fitting
from heraldtime.analytic import narrowing_ratio_limit, temporal_covariance
from heraldtime.fitting import (
    PARAM_NAMES,
    DegenerateDataError,
    FitConfig,
    bootstrap_errors,
    fit,
    initial_guess,
)
from heraldtime.params import SourceParams, TemporalCovariance
from heraldtime.sampler import (DetectorModel, EventSet, sample,
                                sample_from_source)

from conftest import REFERENCE_LINK, REFERENCE_SETS
from oracles import (clean_cramer_rao, fit_hist_ls_reference,
                     fit_ml_reference, hist_ls_kernel_reference,
                     ml_loss_reference)


def synthetic(cov, n, seed, det=None):
    return sample(cov, det or DetectorModel.ideal(), n, seed)


class TestConfig:
    def test_loss_is_the_only_setting(self):
        # binning, tolerance and evaluation cap are fitting constants
        assert [f.name for f in dataclasses.fields(FitConfig)] == ["loss"]
        with pytest.raises(TypeError):
            FitConfig(bins1=64)

    def test_loss_values(self):
        with pytest.raises(ValueError):
            FitConfig(loss="huber")


class TestInitialGuess:
    def test_moments_close_to_truth_on_large_sample(self):
        cov = REFERENCE_SETS[1]
        guess = initial_guess(synthetic(cov, 200000, seed=2))
        assert guess.rho_t == pytest.approx(cov.rho_t, abs=0.01)
        assert guess.tau1 == pytest.approx(cov.tau1, rel=0.01)
        assert guess.tau2 == pytest.approx(cov.tau2, rel=0.01)

    def test_two_point_degenerate_rejected(self):
        events = EventSet(np.array([[1.0, 1.0]] * 12))
        with pytest.raises(DegenerateDataError):
            initial_guess(events)

    def test_too_few_events_rejected(self):
        with pytest.raises(DegenerateDataError):
            initial_guess(EventSet(np.random.default_rng(0).normal(
                size=(5, 2))))

    def test_heavy_background_guess_finite_and_fit_recovers(self):
        cov = TemporalCovariance(rho_t=0.7, tau1=1e-10, tau2=1.5e-10)
        det = DetectorModel(background_rate=0.5,
                            window=(-1.2e-9, 1.2e-9))
        events = synthetic(cov, 60000, seed=5, det=det)
        guess = initial_guess(events)
        assert math.isfinite(guess.rho_t) and guess.tau1 > 0
        # the moment guess is strongly biased by the flat pedestal, but the
        # full fit still lands on the truth
        result = fit(events, FitConfig())
        se = result.std_errors
        assert abs(result.cov.rho_t - cov.rho_t) < 3 * se["rho_t"]
        assert abs(result.cov.tau1 - cov.tau1) < 3 * se["tau1"]
        assert abs(result.cov.tau2 - cov.tau2) < 3 * se["tau2"]
        assert result.background_level == pytest.approx(0.5, abs=0.05)


def constant_channel_events(n=200):
    # t1 = 1 ns throughout: the mean of 200 copies rounds off 1e-9, which
    # leaves a standard deviation of ~1e-25 s that is not zero
    return EventSet(np.column_stack([np.full(n, 1e-9),
                                     2e-12 * np.arange(n)]))


def refit_gathered(events):
    # a bootstrap refit: the channels are the rows of the buffer that it
    # standardizes in place
    u = events.events.T.copy()
    return fitting._fit_channels(u[0], u[1], None, u)


@pytest.mark.parametrize("run", [
    fit, lambda ev: fit(ev, FitConfig(loss="ml")), initial_guess,
    refit_gathered], ids=["hist-ls", "ml", "initial_guess", "refit"])
def test_constant_channel_rejected(run):
    with pytest.raises(DegenerateDataError,
                       match="events have zero variance on a channel"):
        run(constant_channel_events())


class TestHistogramFit:
    def test_requires_hundred_events(self):
        with pytest.raises(DegenerateDataError):
            fit(synthetic(REFERENCE_SETS[0], 99, seed=1))

    def test_round_trip_reference_set2(self):
        cov = REFERENCE_SETS[1]
        result = fit(synthetic(cov, 82000, seed=31))
        assert result.converged
        se = result.std_errors
        assert abs(result.cov.rho_t - (-0.1483)) < 3 * se["rho_t"]
        assert abs(result.cov.tau1 - 0.23607e-9) < 3 * se["tau1"]
        assert abs(result.cov.tau2 - 0.25285e-9) < 3 * se["tau2"]

    def test_centroids_recovered(self):
        cov = TemporalCovariance(rho_t=0.3, tau1=1e-10, tau2=2e-10,
                                 mu1=4e-11, mu2=-7e-11)
        result = fit(synthetic(cov, 50000, seed=8))
        se = result.std_errors
        assert abs(result.cov.mu1 - cov.mu1) < 4 * se["mu1"]
        assert abs(result.cov.mu2 - cov.mu2) < 4 * se["mu2"]

    def test_reduced_chisq_near_one(self):
        result = fit(synthetic(REFERENCE_SETS[0], 82000, seed=3))
        assert 0.7 < result.reduced_chisq < 1.3

    def test_translation_invariance(self):
        events = synthetic(REFERENCE_SETS[2], 40000, seed=11)
        shifted = EventSet(events.events + 3.7e-4, events.metadata)
        a = fit(events)
        b = fit(shifted)
        assert b.cov.rho_t == pytest.approx(a.cov.rho_t, rel=1e-9, abs=1e-12)
        assert b.cov.tau1 == pytest.approx(a.cov.tau1, rel=1e-9)
        assert b.cov.tau2 == pytest.approx(a.cov.tau2, rel=1e-9)
        assert b.cov.mu1 - a.cov.mu1 == pytest.approx(3.7e-4, rel=1e-9)

    def test_errors_shrink_like_sqrt_n(self):
        cov = REFERENCE_SETS[1]
        se_small = fit(synthetic(cov, 25000, seed=13)).std_errors
        se_large = fit(synthetic(cov, 100000, seed=13)).std_errors
        for key in ("rho_t", "tau1", "tau2"):
            ratio = se_small[key] / se_large[key]
            assert 2.0 * 0.8 < ratio < 2.0 * 1.2

    def test_uniform_data_flagged_degenerate(self):
        rng = np.random.default_rng(0)
        events = EventSet(rng.uniform(-1e-9, 1e-9, size=(20000, 2)))
        result = fit(events)
        assert result.degenerate_signal
        assert result.background_level > 0.9
        assert result.amplitude < 0.1 * events.count

    def test_jitter_not_deconvolved(self):
        cov = REFERENCE_SETS[2]
        jitter = 45e-12
        result = fit(synthetic(cov, 82000, seed=6,
                               det=DetectorModel(jitter1=jitter)))
        broadened = math.hypot(cov.tau1, jitter)
        se = result.std_errors
        assert abs(result.cov.tau1 - broadened) < 3 * se["tau1"]
        # and definitely not the bare width
        assert result.cov.tau1 - cov.tau1 > 5 * se["tau1"]

    def test_non_convergence_reported_not_raised(self, monkeypatch):
        monkeypatch.setattr(fitting, "MAX_EVALUATIONS", 1)
        result = fit(synthetic(REFERENCE_SETS[0], 5000, seed=2))
        assert not result.converged
        assert result.iterations >= 1
        assert math.isfinite(result.cov.tau1)

    def test_summary_fields(self):
        check_summary_fields("hist-ls")

    def test_summary_names_shape_block_errors(self):
        # on clean data the ml background weight can run to its bound,
        # where the curvature falls back to the shape block and the weight
        # errors are left out; the summary says so instead of going silent
        flat = np.zeros((6, 6))
        flat[:5, :5] = np.eye(5)
        assert fitting._theta_errors(flat, shape_block=False) == (None, "none")
        opt = fitting._NewtonResult(x=np.zeros(6), fun=0.0, grad=np.zeros(6),
                                    hess=flat, converged=True, message="",
                                    nit=1, nfev=1)
        shaped = fitting._fit_result(
            "ml", opt, (0.0, 0.0, 1.0, 1.0),
            {"amplitude": (5, 1.0), "background": (5, 1.0)}, True, 1.0, 0.0,
            1.0, 100)
        assert shaped.summary()["se_path"] == "shape-block"
        assert set(shaped.std_errors) == set(PARAM_NAMES[:5])


def check_summary_fields(loss):
    result = fit(synthetic(REFERENCE_SETS[0], 5000, seed=2),
                 FitConfig(loss=loss))
    summary = result.summary()
    for key in ("rho_t", "tau1", "tau2", "narrowing_ratio_limit",
                "amplitude", "background_level", "reduced_chisq",
                "converged", "std_errors", "nfev", "njev", "se_path"):
        assert key in summary
    # analytic derivatives: at most one gradient (Jacobian) per evaluation,
    # none spent on finite differences
    assert 1 <= summary["njev"] <= summary["nfev"] <= 200
    assert summary["se_path"] == "full"
    assert set(summary["std_errors"]) == set(PARAM_NAMES)


class TestMaximumLikelihood:
    def test_summary_fields(self):
        check_summary_fields("ml")

    def test_round_trip(self):
        cov = REFERENCE_SETS[2]
        result = fit(synthetic(cov, 30000, seed=19), FitConfig(loss="ml"))
        assert result.converged and result.loss == "ml"
        se = result.std_errors
        assert abs(result.cov.rho_t - cov.rho_t) < 3 * se["rho_t"]
        assert abs(result.cov.tau1 - cov.tau1) < 3 * se["tau1"]

    def test_recovers_background_weight(self):
        cov = TemporalCovariance(rho_t=0.4, tau1=1e-10, tau2=1e-10)
        det = DetectorModel(background_rate=0.2, window=(-8e-10, 8e-10))
        result = fit(synthetic(cov, 40000, seed=23, det=det),
                     FitConfig(loss="ml"))
        assert result.background_level == pytest.approx(0.2, abs=0.02)

    def test_agrees_with_histogram_fit_on_twenty_sets(self):
        rng = np.random.default_rng(101)
        disagreements = 0
        for k in range(20):
            rho = rng.uniform(-0.9, 0.9)
            t1 = 10 ** rng.uniform(-10.5, -9)
            t2 = 10 ** rng.uniform(-10.5, -9)
            cov = TemporalCovariance(rho_t=rho, tau1=t1, tau2=t2)
            events = synthetic(cov, 12000, seed=1000 + k)
            ls = fit(events, FitConfig())
            ml = fit(events, FitConfig(loss="ml"))
            for key in ("rho_t", "tau1", "tau2"):
                delta = abs(getattr(ls.cov, key) - getattr(ml.cov, key))
                mutual = math.hypot(ls.std_errors[key], ml.std_errors[key])
                if delta > 2 * mutual:
                    disagreements += 1
        assert disagreements == 0

    @pytest.mark.parametrize("which", [0, 1, 2])
    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_errors_at_the_clean_cramer_rao_bound(self, which, seed):
        # on clean data the likelihood's errors are the inverse Fisher
        # information of the bivariate normal, taken at the fitted
        # covariance; a fitted background weight can only widen them
        # (over 60 random seeds per set the ratios ran 1.00000-1.0248)
        n = 82000
        result = fit(synthetic(REFERENCE_SETS[which], n, seed),
                     FitConfig(loss="ml"))
        bound = clean_cramer_rao(result.cov, n)
        for key, value in bound.items():
            assert 0.999 <= result.std_errors[key] / value <= 1.05, key


class TestBootstrap:
    def test_matches_curvature_errors_roughly(self):
        cov = REFERENCE_SETS[1]
        events = synthetic(cov, 8000, seed=41)
        curvature = fit(events).std_errors
        boot = bootstrap_errors(events, n_resamples=40, seed=1)
        for key in ("rho_t", "tau1", "tau2"):
            assert boot[key] == pytest.approx(curvature[key], rel=0.6)

    def test_ml_curvature_matches_bootstrap_roughly(self):
        cov = REFERENCE_SETS[1]
        events = synthetic(cov, 20000, seed=41)
        cfg = FitConfig(loss="ml")
        curvature = fit(events, cfg).std_errors
        boot = bootstrap_errors(events, cfg, n_resamples=20, seed=1)
        for key in ("rho_t", "tau1", "tau2"):
            assert boot[key] == pytest.approx(curvature[key], rel=0.6)

    @pytest.mark.parametrize("n", [1, 2, 7, 30, 1001])
    def test_bootstrap_rows_follow_the_block_stream(self, n, monkeypatch):
        # the resamples bootstrap_errors draws one at a time and refits
        # are the rows of one block draw, also for odd row lengths, and
        # its errors are the spread of the fitted values across them
        rows = []

        def recording(t1, t2, cfg, out=None):
            idx = t1.astype(np.intp)  # t1 of event i is i
            rows.append(idx)
            p = [idx.sum(), idx[0], idx[-1], idx.min(), idx.max(), idx.mean(),
                 idx @ idx]
            cov = SimpleNamespace(rho_t=p[0], tau1=p[1], tau2=p[2],
                                  mu1=p[3], mu2=p[4])
            return SimpleNamespace(cov=cov, amplitude=p[5],
                                   background_level=p[6])

        monkeypatch.setattr(fitting, "_fit_channels", recording)
        events = EventSet(np.column_stack([np.arange(n), np.zeros(n)]))
        errors = bootstrap_errors(events, n_resamples=9, seed=3)
        block = np.random.default_rng(3).integers(0, n, size=(9, n))
        np.testing.assert_array_equal(np.array(rows), block)
        fitted = [[r.sum(), r[0], r[-1], r.min(), r.max(), r.mean(), r @ r]
                  for r in block]
        assert list(errors.values()) == \
            np.std(fitted, axis=0, ddof=1).tolist()
        assert list(errors) == list(PARAM_NAMES)

    def test_resamples_share_one_buffer(self):
        # every resample is gathered into the one (2, n) array its refit
        # standardizes in place, and its indices (half the events) are
        # dropped before the refit: the peak is that of one fit, ~1.64
        # times the events here.  A copy of both channels, each resample's
        # indices and its gathered channels, then the fit's own array took
        # ~4.2.
        events = jittered_events(200_000)
        bootstrap_errors(jittered_events(5000), n_resamples=2)  # set-up
        errors, peak = traced_peak(bootstrap_errors, events, n_resamples=2,
                                   seed=1)
        assert all(math.isfinite(v) for v in errors.values())
        assert peak < 1.75 * events.events.nbytes


def central_diff(f, theta, step):
    """Derivatives of f (scalar or vector valued) in each theta: central
    differences at step and step/2, Richardson-extrapolated."""
    def central(h):
        cols = []
        for k in range(theta.size):
            e = np.zeros(theta.size)
            e[k] = h
            cols.append((np.asarray(f(theta + e)) - np.asarray(f(theta - e)))
                        / (2 * h))
        return np.stack(cols, axis=-1)

    return (4 * central(step / 2) - central(step)) / 3


def hist_ls_terms(theta, counts, nodes, area):
    """``fitting._hist_ls_terms`` on a list of (bins1, 1), (1, bins2) nodes."""
    g1 = np.stack([n1 for n1, _ in nodes])
    g2 = np.stack([n2 for _, n2 in nodes])
    return fitting._hist_ls_terms(np.asarray(theta, float), g1, g2, counts,
                                  area)


def hist_ls_jacobian(theta, counts, nodes, area):
    """The histogram fit's residual Jacobian at theta."""
    return fitting._hist_ls_jacobian(
        hist_ls_terms(theta, counts, nodes, area), counts)


def residuals_of(counts, nodes, area):
    """The histogram fit's signed-root deviance residuals at theta."""
    return lambda theta: hist_ls_terms(theta, counts, nodes, area)[3].ravel()


class TestAnalyticDerivatives:
    """Closed-form scores, curvature and Jacobian against finite differences."""

    @staticmethod
    def events(n=3000, seed=3):
        rng = np.random.default_rng(seed)
        u = rng.multivariate_normal([0.1, -0.2], [[1.0, 0.5], [0.5, 1.2]], n)
        u = np.vstack([u, rng.uniform(-4, 4, size=(n // 20, 2))])
        return np.ascontiguousarray(u[:, 0]), np.ascontiguousarray(u[:, 1])

    @pytest.mark.parametrize("theta", [
        [0.3, -0.1, 0.2, 0.05, -0.1, -3.0],
        [math.atanh(0.999), 0.1, -0.3, 0.2, 0.1, -1.0],
        [math.atanh(-0.999), -0.5, 0.4, -0.1, 0.3, 0.5],
        [-0.4, 0.2, 0.1, 0.0, 0.0, -29.5],
        [0.2, -0.2, 0.3, 0.1, 0.0, 29.5],
    ])
    def test_ml_score_and_curvature(self, theta):
        u1, u2 = self.events()
        theta = np.array(theta)
        nll, grad, hess = fitting._ml_loss(theta, u1, u2, 64.0)

        def f(t):
            return fitting._ml_loss(t, u1, u2, 64.0)[0]

        def g(t):
            return fitting._ml_loss(t, u1, u2, 64.0)[1]

        scale = np.abs(grad).max() + 1e-3 * abs(nll)
        np.testing.assert_allclose(grad, central_diff(f, theta, 1e-5),
                                   rtol=0, atol=1e-6 * scale)
        fd_hess = central_diff(g, theta, 1e-5)
        np.testing.assert_allclose(hess, 0.5 * (fd_hess + fd_hess.T), rtol=0,
                                   atol=1e-6 * np.abs(hess).max())
        np.testing.assert_array_equal(hess, hess.T)

    def test_ml_clipped_density_adds_no_gradient(self):
        # a background this diluted puts every far event below the 1e-300
        # floor, where the loss is flat
        u1, u2 = self.events()
        u1[:40] += 60.0
        area = 1e295
        theta = np.array([0.2, 0.0, 0.0, 0.0, 0.0, -25.0])
        phi = fitting._gauss_terms(u1, u2, 0.0, 0.0, math.tanh(0.2), 1.0,
                                   1.0)[4]
        assert np.sum(phi < 1e-300) >= 40

        def f(t):
            return fitting._ml_loss(t, u1, u2, area)[0]

        nll, grad, hess = fitting._ml_loss(theta, u1, u2, area)
        assert np.all(np.isfinite(grad)) and np.all(np.isfinite(hess))
        np.testing.assert_allclose(grad, central_diff(f, theta, 1e-5),
                                   rtol=0, atol=1e-6 * np.abs(grad).max())
        # the clipped events add exactly nothing
        kept = np.ones(u1.size, bool)
        kept[:40] = False
        got = fitting._ml_loss(theta, u1[kept], u2[kept], area)
        assert nll == pytest.approx(got[0] + 40 * 300 * math.log(10),
                                    rel=1e-13)
        np.testing.assert_allclose(grad, got[1], rtol=1e-12, atol=1e-12)

    @staticmethod
    def hist_ls(seed=5):
        rng = np.random.default_rng(seed)
        e1 = np.linspace(-3.0, 3.0, 17)
        e2 = np.linspace(-2.5, 3.5, 13)
        c1 = 0.5 * (e1[:-1] + e1[1:])
        c2 = 0.5 * (e2[:-1] + e2[1:])
        d1, d2 = (e1[1] - e1[0]) / (2 * math.sqrt(3)), \
            (e2[1] - e2[0]) / (2 * math.sqrt(3))
        nodes = [((c1 + o1)[:, None], (c2 + o2)[None, :])
                 for o1 in (-d1, d1) for o2 in (-d2, d2)]
        area = (e1[1] - e1[0]) * (e2[1] - e2[0])
        counts = rng.poisson(30.0 * np.exp(-0.3 * (c1[:, None] ** 2
                                                   + c2[None, :] ** 2)))
        return counts.astype(float), nodes, area

    @pytest.mark.parametrize("theta", [
        [0.3, -0.1, 0.2, 0.05, -0.1, math.log(2000.0), 0.5],
        [math.atanh(0.999), 0.1, -0.3, 0.2, 0.1, math.log(3000.0), 0.3],
        [math.atanh(-0.999), -0.2, 0.1, -0.1, 0.3, math.log(500.0), 2.0],
    ])
    def test_hist_ls_jacobian(self, theta):
        counts, nodes, area = self.hist_ls()
        theta = np.array(theta)
        # a few bins whose counts equal the model exactly (zero residual)
        model = hist_ls_terms(theta, counts, nodes, area)[0].ravel()
        pick = np.flatnonzero(model > 1.0)[::3]
        counts.flat[pick] = model[pick]
        residuals = residuals_of(counts, nodes, area)
        zero = residuals(theta) == 0.0
        assert zero.sum() >= 4
        got = hist_ls_jacobian(theta, counts, nodes, area)
        fd = central_diff(residuals, theta, 1e-6)
        np.testing.assert_allclose(got[~zero], fd[~zero], rtol=0,
                                   atol=1e-6 * np.abs(fd).max())
        # next to a zero residual its rounding swamps small steps
        fd = central_diff(residuals, theta, 1e-3)
        np.testing.assert_allclose(got[zero], fd[zero], rtol=0,
                                   atol=1e-5 * np.abs(fd).max())

    def test_hist_ls_clipped_bins_are_flat(self):
        counts, nodes, area = self.hist_ls()
        residuals = residuals_of(counts, nodes, area)
        theta = np.array([0.2, -0.5, -0.5, 0.0, 0.0, math.log(500.0), -2.0])
        model = hist_ls_terms(theta, counts, nodes, area)[0].ravel()
        clipped = model < 1e-12
        assert 10 <= clipped.sum() < model.size - 10
        got = hist_ls_jacobian(theta, counts, nodes, area)
        assert np.all(got[clipped] == 0.0)
        # bins safely away from the floor match finite differences
        far = np.abs(model - 1e-12) > 1e-3
        fd = central_diff(residuals, theta, 1e-6)
        np.testing.assert_allclose(got[far], fd[far], rtol=0,
                                   atol=1e-6 * np.abs(fd).max())


def _histogram2d(u, box1, box2, bins1, bins2):
    return np.histogram2d(u[:, 0], u[:, 1], bins=(bins1, bins2),
                          range=(tuple(box1), tuple(box2)))


def jittered_events(n, seed=8):
    """Set 2 with 30 ps jitter per channel, 10 ps reference jitter and 1 %
    flat background over +-5 widths."""
    half = 5.0 * REFERENCE_SETS[1].tau2
    det = DetectorModel(jitter1=30e-12, jitter2=30e-12,
                        reference_jitter=10e-12, background_rate=0.01,
                        window=(-half, half))
    return synthetic(REFERENCE_SETS[1], n, seed, det)


def traced_peak(call, *args, **kwargs):
    """call(*args, **kwargs) and the peak of the memory it allocated."""
    import tracemalloc

    tracemalloc.start()
    try:
        result = call(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# Columns for the percentile box: the tails hold its order statistics
# ("normal", "ties", "pool"), or they do not and it partitions the whole
# channel ("one-sided", "uniform", "zeros": -0.0 and 0.0, which the
# box must leave in the order np.percentile's partition leaves them).
BOX_COLUMNS = {
    "normal": lambda rng, n: rng.standard_normal(n),
    "ties": lambda rng, n: np.round(rng.standard_normal(n), 1),
    "pool": lambda rng, n: rng.choice([-3.5, -2.5, -2.0, -0.0, 0.0, 2.0,
                                       2.5, 3.5], n),
    "one-sided": lambda rng, n: np.abs(rng.standard_normal(n)),
    "uniform": lambda rng, n: rng.uniform(-1.7, 1.7, n),
    "zeros": lambda rng, n: np.where(rng.random(n) < rng.random(), -0.0, 0.0),
}
BOX_SPECIALS = [-0.0, 0.0, -2.0, 2.0, math.nextafter(-2.0, 0.0),
                math.nextafter(2.0, 0.0), -1e300, 1e300, 5e-324]


def assert_box_is_percentile(u):
    got = fitting._box_in_u(u)
    for k in range(u.shape[1]):
        want = np.percentile(u[:, k], fitting.PERCENTILES)
        assert np.array(got[k]).tobytes() == want.tobytes(), (k, got, want)


class TestPercentileBox:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(100, 5000), st.sampled_from(sorted(BOX_COLUMNS)),
           st.sampled_from(sorted(BOX_COLUMNS)), st.integers(0, 2**32 - 1),
           st.lists(st.sampled_from(BOX_SPECIALS), max_size=30))
    def test_bit_identical_to_percentile(self, n, kind1, kind2, seed,
                                         specials):
        rng = np.random.default_rng(seed)
        u = np.empty((2, n))
        for row, kind in zip(u, (kind1, kind2)):
            row[:] = BOX_COLUMNS[kind](rng, n)
        # the specials go into the first channel only, so that the second
        # keeps the column's own order statistics
        u[0, rng.integers(0, n, size=len(specials))] = specials
        assert_box_is_percentile(u.T)

    def test_signed_zeros_as_percentile_orders_them(self):
        # -0.0 and 0.0 compare equal, so which one sits at an order
        # statistic depends on where the partition pivots; the whole-channel
        # partition must pivot where np.percentile's does
        for seed in range(60):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(100, 5000))
            u = np.column_stack([BOX_COLUMNS["zeros"](rng, n),
                                 BOX_COLUMNS["zeros"](rng, n)])
            assert_box_is_percentile(u)

    def test_fallback_partitions_the_whole_channel(self, monkeypatch):
        # the normal channel's order statistics come from its tails alone,
        # the uniform one has none beyond +-2 sd and is partitioned whole
        sizes = []
        partition = np.partition

        def recording(a, kth, *args, **kwargs):
            sizes.append(np.shape(a)[0])
            return partition(a, kth, *args, **kwargs)

        n = 3000
        rng = np.random.default_rng(5)
        u = np.column_stack([rng.standard_normal(n),
                             rng.uniform(-1.7, 1.7, n)])
        monkeypatch.setattr(np, "partition", recording)
        fitting._box_in_u(u)
        monkeypatch.undo()
        assert len(sizes) == 3 and max(sizes[:2]) < n / 10 and sizes[2] == n
        assert_box_is_percentile(u)


class TestDirectBinning:
    def assert_same(self, u, box1, box2, bins1=8, bins2=11):
        got = fitting._bin_counts(u, box1, box2, bins1, bins2)
        want = _histogram2d(u, box1, box2, bins1, bins2)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            np.testing.assert_array_equal(g, w)

    def test_edges_top_and_outside(self):
        box1, box2 = (-1.3, 2.9), (0.1, 0.7)
        e1 = np.linspace(*box1, 9)
        e2 = np.linspace(*box2, 12)
        rng = np.random.default_rng(0)
        t1 = np.concatenate([e1, np.nextafter(e1, -np.inf),
                             np.nextafter(e1, np.inf), [-7.0, 1e300, -1e300],
                             rng.uniform(-2, 4, 500)])
        t2 = np.concatenate([np.resize(e2, t1.size - 500),
                             rng.uniform(0, 0.8, 500)])
        u = np.column_stack([t1, t2])
        self.assert_same(u, box1, box2)
        self.assert_same(u[:, ::-1], box2, box1, 11, 8)

    def test_several_blocks(self):
        # edges, next floats and far outliers spread over every block
        box1, box2 = (-1.3, 2.9), (0.1, 0.7)
        rng = np.random.default_rng(1)
        n = 3 * fitting._BIN_BLOCK + 123
        u = np.column_stack([rng.uniform(-2, 4, n), rng.uniform(0, 0.8, n)])
        for col, (lo, hi), bins in ((0, box1, 64), (1, box2, 48)):
            e = np.linspace(lo, hi, bins + 1)
            special = np.concatenate([e, np.nextafter(e, -np.inf),
                                      np.nextafter(e, np.inf),
                                      [-7.0, 1e300, -1e300]])
            at = rng.choice(n, size=10 * special.size, replace=False)
            u[at, col] = np.resize(special, at.size)
        assert (u[:, 0] == box1[1]).any() and (u[:, 1] == box2[1]).any()
        self.assert_same(u, box1, box2, 64, 48)
        self.assert_same(u[:, ::-1], box2, box1, 48, 64)

    def test_sampled_events_in_percentile_box(self):
        events = synthetic(REFERENCE_SETS[2], 20000, seed=4)
        u, _, _ = fitting._moments(events.t1, events.t2)
        box1, box2 = fitting._box_in_u(u)
        self.assert_same(u, box1, box2, fitting.BINS, fitting.BINS)

    def test_hist_ls_fit_holds_no_event_sized_bin_temporaries(self):
        # The fit holds the standardized events (as large as the events),
        # for a while the squares their SDs are summed from (half that), and
        # the solver's ~2 MB of bin-sized arrays: ~1.64 times the events
        # here.  Binning every event at once took ~2.6.
        events = jittered_events(200_000)
        fit(jittered_events(5000))  # first-call set-up
        result, peak = traced_peak(fit, events)
        assert result.converged
        assert peak < 1.75 * events.events.nbytes

    def test_percentile_box_copies_no_channel(self):
        # the box reads each channel through a mask (1/16 of the events)
        # and copies only the ~2 % of events beyond +-2 sd; np.percentile
        # copied a whole channel, half the events
        events = jittered_events(200_000)
        u, _, _ = fitting._moments(events.t1, events.t2)
        _, peak = traced_peak(fitting._box_in_u, u)
        assert peak < 0.125 * events.events.nbytes
        assert_box_is_percentile(u)

    def test_point_box_widens_like_numpy(self):
        u = np.array([[2.0, 2.0], [2.4, 1.6], [2.6, 2.0], [1.0, 2.5]])
        self.assert_same(u, (2.0, 2.0), (1.6, 2.4), 8, 8)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.floats(-10, 10), st.floats(-10, 10)),
                    min_size=1, max_size=60),
           st.floats(-5, 5), st.floats(1e-6, 10), st.integers(1, 40))
    def test_matches_histogram2d(self, rows, lo, span, bins):
        u = np.array(rows, dtype=float)
        box = (lo, lo + span)
        # include the box edges themselves among the values
        u = np.vstack([u, [[box[0], box[1]], [box[1], box[0]]]])
        self.assert_same(u, box, box, bins, bins + 3)


# Table 1 sets as the benchmark samples them: 30 ps jitter on each channel,
# 10 ps reference jitter, 1 % flat background over +-5 widths
def table1_events(cov, seed, background=0.01):
    half = 5.0 * max(cov.tau1, cov.tau2)
    det = DetectorModel(jitter1=30e-12, jitter2=30e-12,
                        reference_jitter=10e-12, background_rate=background,
                        window=(-half, half))
    return synthetic(cov, 82000, seed, det)


class TestMatchesFiniteDifferenceFits:
    """The analytic-derivative fits land where the 0.1.0 fits did."""

    @pytest.mark.parametrize("seed", [3, 17])
    @pytest.mark.parametrize("which", [0, 1, 2])
    @pytest.mark.parametrize("loss, reference", [
        ("hist-ls", fit_hist_ls_reference), ("ml", fit_ml_reference)])
    def test_table1_sets(self, which, seed, loss, reference):
        events = table1_events(REFERENCE_SETS[which], seed)
        result = fit(events, FitConfig(loss=loss))
        params, errors = reference(events)
        assert result.converged and result.se_path == "full"
        for key in PARAM_NAMES[:5]:
            got = getattr(result.cov, key)
            assert abs(got - params[key]) < 1e-3 * errors[key]
        assert set(result.std_errors) == set(errors)
        for key in PARAM_NAMES[:5]:
            assert result.std_errors[key] == pytest.approx(errors[key],
                                                           rel=1e-4)
        # the 0.1.0 ml Hessian took fixed 1e-5 steps on an NLL of ~2e5,
        # whose rounding moves its weight-coordinate curvature by up to a
        # few 1e-4 relative; the amplitude and background errors rest on it
        weight_rtol = 1e-3 if loss == "ml" else 1e-4
        for key in PARAM_NAMES[5:]:
            assert result.std_errors[key] == pytest.approx(
                errors[key], rel=weight_rtol)


class TestDampedNewton:
    """The Levenberg-Marquardt solver both losses share."""

    @staticmethod
    def quadratic(minimum, seed=0):
        rng = np.random.default_rng(seed)
        q = rng.normal(size=(minimum.size, minimum.size))
        a = q @ q.T + np.eye(minimum.size)

        def full(x):
            d = x - minimum
            return 0.5 * d @ a @ d + 3.0, a @ d, a

        return full

    def test_quadratic_minimum(self):
        # on a quadratic the Newton decrement is exactly f - min f
        minimum = np.array([0.3, -1.2, 2.0, 0.0, 5.0, -0.7])
        res = fitting._damped_newton(self.quadratic(minimum), np.zeros(6),
                                     1e-10, 100)
        assert res.converged
        assert 0.0 <= res.fun - 3.0 <= 1e-10 * res.fun
        _, dec, shape_dec = fitting._newton_decrements(res.grad, res.hess, 5)
        assert dec == pytest.approx(res.fun - 3.0, rel=1e-6, abs=1e-15)
        assert shape_dec <= fitting._SHAPE_DECREMENT
        np.testing.assert_allclose(res.x, minimum, rtol=0, atol=1e-4)
        # the first step is the Newton step damped by lambda = 1e-3 only
        assert res.nfev <= 4 and res.nit == res.nfev - 1

    def test_projection_holds_a_bound(self):
        minimum = np.array([0.5, 2.0, -1.0])
        res = fitting._damped_newton(self.quadratic(minimum, seed=1),
                                     np.zeros(3), 1e-10, 100,
                                     upper=[np.inf, 1.0, np.inf])
        assert res.converged
        assert res.x[1] == 1.0
        # the free coordinates sit at their minimum with x[1] pinned, where
        # the gradient points out of the box on x[1] only
        free = [0, 2]
        _, dec, _ = fitting._newton_decrements(
            res.grad[free], res.hess[np.ix_(free, free)], 2)
        assert dec <= 1e-10 * res.fun
        assert res.grad[1] < 0

    def test_evaluation_limit_not_converged(self):
        minimum = np.array([1.0, 2.0])
        res = fitting._damped_newton(self.quadratic(minimum), np.zeros(2),
                                     1e-10, 1)
        assert not res.converged and res.nfev == 1 and res.nit == 0
        np.testing.assert_array_equal(res.x, 0.0)
        assert "limit" in res.message

    def test_every_coordinate_held_at_a_bound(self):
        # the minimum lies outside the box on both coordinates: the first
        # step is clipped onto the corner, where both gradients point out
        res = fitting._damped_newton(
            self.quadratic(np.array([2.0, 3.0])), np.zeros(2), 1e-10, 100,
            upper=[1.0, 1.0])
        assert res.converged
        assert res.message == "every coordinate held at a bound"
        np.testing.assert_array_equal(res.x, 1.0)
        assert np.all(res.grad < 0) and res.nit == 1

    def test_step_too_small_to_move_x(self):
        # the minimum is 1 away from x = 1e20, less than half its spacing
        # of 16384, and the decrement 5e3 is far above the tolerance
        def full(x):
            d = (x[0] - 1e20) - 1.0
            return 5e3 * d * d, np.array([1e4 * d]), np.array([[1e4]])

        res = fitting._damped_newton(full, np.array([1e20]), 1e-10, 100)
        assert not res.converged
        assert res.message == "step too small to move x"
        assert res.x[0] == 1e20 and res.nit == 0 and res.nfev == 1

    def test_decrease_below_rounding_is_taken(self):
        # at f ~ 1e20 every decrease is below the rounding of f, so the
        # gain ratio is noise: a step that does not go uphill is taken, and
        # the solver walks to the minimum with every step accepted
        def full(x):
            d = x[0] - 1.0
            return 1e20 + 0.5 * d * d, np.array([d]), np.array([[1.0]])

        res = fitting._damped_newton(full, np.zeros(1), 0.0, 100)
        assert res.converged
        assert res.message == "Newton decrement below tolerance"
        assert res.x[0] == 1.0 and res.nit == res.nfev - 1

    def test_indefinite_start_descends(self):
        # double well (x^2 - 1)^2 / 4 + y^2: the curvature at x = 0.1 is
        # negative along x, where a plain Newton step would climb to x = 0
        losses = []

        def full(v):
            x, y = v
            f = 0.25 * (x * x - 1.0) ** 2 + y * y
            losses.append(f)
            return f, np.array([x * (x * x - 1.0), 2.0 * y]), \
                np.array([[3.0 * x * x - 1.0, 0.0], [0.0, 2.0]])

        res = fitting._damped_newton(full, np.array([0.1, 0.0]), 1e-12, 100)
        assert res.converged
        np.testing.assert_allclose(res.x, [1.0, 0.0], atol=1e-4)
        # the first step already descends, and the solver ends at the
        # lowest point it evaluated
        assert losses[1] < losses[0]
        assert res.fun == min(losses)
        assert res.nfev <= 30

    def test_clean_data_weight_runs_to_bound_within_budget(self):
        # without background the ml weight has its optimum at w -> 0: each
        # Newton step moves the logit weight by about one unit, and the
        # solver must still stop at a converged shape within a pass budget
        events = synthetic(REFERENCE_SETS[0], 82000, seed=29)
        result = fit(events, FitConfig(loss="ml"))
        assert result.converged
        assert result.background_level < 1e-6
        assert result.nfev <= 25

    def test_ml_iteration_cap_reported_not_raised(self, monkeypatch):
        monkeypatch.setattr(fitting, "MAX_EVALUATIONS", 1)
        result = fit(synthetic(REFERENCE_SETS[0], 5000, seed=2),
                     FitConfig(loss="ml"))
        assert not result.converged
        assert result.iterations <= 1 and result.nfev <= 2
        assert math.isfinite(result.cov.tau1)


@pytest.mark.parametrize("loss", ["hist-ls", "ml"])
@pytest.mark.parametrize("which", [0, 1, 2])
def test_fits_return_within_shape_decrement(monkeypatch, which, loss):
    # on the Table 1 sets each fit stops with its shape coordinates within
    # 1e-4 standard errors of the optimum its own Newton step points at
    stops = []
    solver = fitting._damped_newton

    def recording(*args, **kwargs):
        stops.append(solver(*args, **kwargs))
        return stops[-1]

    monkeypatch.setattr(fitting, "_damped_newton", recording)
    reported = []
    builder = fitting._fit_result

    def recording_result(loss, opt, *args, **kwargs):
        reported.append(opt)
        return builder(loss, opt, *args, **kwargs)

    monkeypatch.setattr(fitting, "_fit_result", recording_result)
    result = fit(table1_events(REFERENCE_SETS[which], 5), FitConfig(loss=loss))
    (res,), (opt,) = stops, reported
    assert result.converged and res.converged
    assert res.message == "Newton decrement below tolerance"
    _, dec, shape_dec = fitting._newton_decrements(res.grad, res.hess, 5)
    assert shape_dec <= fitting._SHAPE_DECREMENT
    assert dec <= 1e-10 * abs(res.fun)
    # hist-ls steps on the Fisher information but reports errors from
    # J^T J: its last Newton step is within 1e-4 of those errors too
    step = -np.linalg.solve(res.hess, res.grad)[:5]
    cov = np.linalg.inv(opt.hess)[:5, :5]
    assert 0.5 * step @ np.linalg.solve(cov, step) <= fitting._SHAPE_DECREMENT


def max_rel(got, want, axis=None):
    """Largest deviation relative to the largest entry of ``want``, over the
    whole array or, with ``axis``, the worst of its slices along it."""
    got, want = np.asarray(got, float), np.asarray(want, float)
    if axis is None:
        return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))
    return max(max_rel(g, w) for g, w in zip(np.moveaxis(got, axis, 0),
                                             np.moveaxis(want, axis, 0)))


def table1_hist_ls_inputs(events):
    """Counts, Gauss-Legendre nodes and bin area of the default hist-ls fit."""
    u, _, _ = fitting._moments(events.t1, events.t2)
    box1, box2 = fitting._box_in_u(u)
    counts, e1, e2 = fitting._bin_counts(u, box1, box2, fitting.BINS,
                                         fitting.BINS)
    c1 = 0.5 * (e1[:-1] + e1[1:])
    c2 = 0.5 * (e2[:-1] + e2[1:])
    d1, d2 = (e1[1] - e1[0]) / (2 * math.sqrt(3)), \
        (e2[1] - e2[0]) / (2 * math.sqrt(3))
    nodes = [((c1 + o1)[:, None], (c2 + o2)[None, :])
             for o1 in (-d1, d1) for o2 in (-d2, d2)]
    return counts, nodes, (e1[1] - e1[0]) * (e2[1] - e2[0])


class TestKernelsMatchReference:
    """The batched histogram kernel and the fused likelihood sums give what
    the node-by-node and sum-by-sum kernels they replaced gave, to
    rounding: at most 1e-12 of the largest entry of each quantity, of each
    Hessian row and of each Jacobian column."""

    TOL = 1e-12

    def assert_ml_matches(self, theta, u1, u2, area):
        theta = np.asarray(theta, float)
        nll, grad, hess = fitting._ml_loss(theta, u1, u2, area)
        want_nll, want_grad, want_hess = ml_loss_reference(theta, u1, u2, area)
        assert max_rel(nll, want_nll) <= self.TOL
        assert max_rel(grad, want_grad) <= self.TOL
        assert max_rel(hess, want_hess, axis=0) <= self.TOL

    def assert_hist_ls_matches(self, theta, counts, nodes, area):
        theta = np.asarray(theta, float)
        terms = hist_ls_terms(theta, counts, nodes, area)
        model, res, jm = hist_ls_kernel_reference(counts, nodes, area, theta)
        assert max_rel(terms[0], model) <= self.TOL
        assert max_rel(terms[3].ravel(), res) <= self.TOL
        assert max_rel(fitting._hist_ls_jacobian(terms, counts), jm,
                       axis=1) <= self.TOL
        return model

    # the thetas of TestAnalyticDerivatives
    @pytest.mark.parametrize("theta", [
        [0.3, -0.1, 0.2, 0.05, -0.1, -3.0],
        [math.atanh(0.999), 0.1, -0.3, 0.2, 0.1, -1.0],
        [math.atanh(-0.999), -0.5, 0.4, -0.1, 0.3, 0.5],
        [-0.4, 0.2, 0.1, 0.0, 0.0, -29.5],
        [0.2, -0.2, 0.3, 0.1, 0.0, 29.5],
    ])
    def test_ml_sums(self, theta):
        u1, u2 = TestAnalyticDerivatives.events()
        self.assert_ml_matches(theta, u1, u2, 64.0)

    def test_ml_density_floor(self):
        u1, u2 = TestAnalyticDerivatives.events()
        u1[:40] += 60.0
        self.assert_ml_matches([0.2, 0.0, 0.0, 0.0, 0.0, -25.0], u1, u2,
                               1e295)

    @pytest.mark.parametrize("theta", [
        [0.3, -0.1, 0.2, 0.05, -0.1, math.log(2000.0), 0.5],
        [math.atanh(0.999), 0.1, -0.3, 0.2, 0.1, math.log(3000.0), 0.3],
        [math.atanh(-0.999), -0.2, 0.1, -0.1, 0.3, math.log(500.0), 2.0],
    ])
    def test_hist_ls_nodes(self, theta):
        self.assert_hist_ls_matches(theta, *TestAnalyticDerivatives.hist_ls())

    def test_hist_ls_clipped_bins(self):
        model = self.assert_hist_ls_matches(
            [0.2, -0.5, -0.5, 0.0, 0.0, math.log(500.0), -2.0],
            *TestAnalyticDerivatives.hist_ls())
        assert np.sum(model < 1e-12) >= 10

    @pytest.mark.parametrize("which", [0, 1])
    def test_table1_set(self, which):
        # both kernels at the moment start of a Table 1 fit
        events = table1_events(REFERENCE_SETS[which], 3)
        guess = initial_guess(events)
        rho0 = math.atanh(guess.rho_t)
        counts, nodes, area = table1_hist_ls_inputs(events)
        self.assert_hist_ls_matches(
            [rho0, 0.0, 0.0, 0.0, 0.0, math.log(counts.sum()), 0.05], counts,
            nodes, area)
        u, _, _ = fitting._moments(events.t1, events.t2)
        u1, u2 = u[:, 0], u[:, 1]
        area_box = float(np.ptp(u1) * np.ptp(u2))
        self.assert_ml_matches([rho0, 0.0, 0.0, 0.0, 0.0, -6.9], u1, u2,
                               area_box)


def test_moments_match_numpy():
    events = table1_events(REFERENCE_SETS[2], 8)
    u, (m1, m2, s1, s2), r = fitting._moments(events.t1, events.t2)
    # the scales the previous implementation took from np.mean and np.std
    assert (m1, m2) == (np.mean(events.t1), np.mean(events.t2))
    assert (s1, s2) == (np.std(events.t1, ddof=1), np.std(events.t2, ddof=1))
    np.testing.assert_array_equal(u[:, 0], (events.t1 - m1) / s1)
    assert r == pytest.approx(np.corrcoef(events.t1, events.t2)[0, 1],
                              rel=1e-13)
    assert initial_guess(events) == TemporalCovariance(
        rho_t=r, tau1=s1, tau2=s2, mu1=m1, mu2=m2)


# residual evaluations the hist-ls fits took when they started the background
# B at 0 and stepped on J^T J, on Table 1 sets 1 and 2 at seeds 3, 17, 700,
# 701, 702
ZERO_START_NFEV = {1: [7, 11, 5, 7, 7], 2: [14, 15, 9, 8, 12]}
WALK_SEEDS = [3, 17, 700, 701, 702]


class TestBackgroundStart:
    """hist-ls starts B at the mean count of the box's outer ring of bins."""

    @pytest.mark.parametrize("seed", WALK_SEEDS)
    def test_set0_within_twelve_evaluations(self, seed):
        # from B = 0 this set took 18-19 residual evaluations
        result = fit(table1_events(REFERENCE_SETS[0], seed))
        assert result.converged
        assert result.nfev <= 12

    @pytest.mark.parametrize("which", [1, 2])
    def test_sets_1_2_no_more_evaluations(self, which):
        nfev = [fit(table1_events(REFERENCE_SETS[which], seed)).nfev
                for seed in WALK_SEEDS]
        assert max(nfev) <= 12
        assert sum(nfev) <= sum(ZERO_START_NFEV[which])

    @pytest.mark.parametrize("seed", [700, 701, 702])
    def test_set0_lands_on_reference(self, seed):
        events = table1_events(REFERENCE_SETS[0], seed)
        result = fit(events)
        params, errors = fit_hist_ls_reference(events)
        for key in PARAM_NAMES[:5]:
            assert abs(getattr(result.cov, key) - params[key]) \
                < 1e-3 * errors[key]
            assert result.std_errors[key] == pytest.approx(errors[key],
                                                           rel=1e-4)

    @pytest.mark.parametrize("which, seed", [(2, 3), (1, 17)])
    def test_clean_data_lands_on_reference(self, which, seed):
        # without background B starts far above its optimum near 0.  On
        # set 2 seed 3 a step past it would leave one counted bin at the
        # model floor, a false minimum of the loss; on set 1 seed 17 the
        # optimum lies at B ~ -0.05, where empty bins clip
        events = table1_events(REFERENCE_SETS[which], seed, background=0.0)
        result = fit(events)
        params, errors = fit_hist_ls_reference(events)
        assert result.converged
        for key in PARAM_NAMES:
            got = getattr(result.cov, key, None)
            if got is None:
                got = (result.amplitude if key == "amplitude"
                       else result.background_level)
            assert abs(got - params[key]) < 1e-3 * errors[key]
        # below B = 0 the J^T J errors depend on which empty bins sit just
        # above the model floor where the solver stops, so they are
        # compared only where B is positive
        if result.background_level > 0:
            for key in PARAM_NAMES[:5]:
                assert result.std_errors[key] == pytest.approx(
                    errors[key], rel=1e-4)


class TestWeightJump:
    """On data without background the ml logit weight reaches the end of
    its exponential walk in one jump instead of one Newton step per pass."""

    @pytest.mark.parametrize("seed", WALK_SEEDS)
    def test_clean_set0(self, monkeypatch, seed):
        events = table1_events(REFERENCE_SETS[0], seed, background=0.0)
        cfg = FitConfig(loss="ml")
        result = fit(events, cfg)
        assert result.converged and result.se_path == "full"
        assert result.nfev <= 9
        assert result.background_level < 1e-6
        # the walk the solver took without jumps
        jump = fitting._exponential_jump
        monkeypatch.setattr(fitting, "_exponential_jump",
                            lambda *args: (None, jump(*args)[1]))
        walk = fit(events, cfg)
        assert walk.converged and walk.nfev > result.nfev
        for key in PARAM_NAMES[:5]:
            assert abs(getattr(result.cov, key) - getattr(walk.cov, key)) \
                < 1e-3 * walk.std_errors[key]

    @pytest.mark.parametrize("which", [1, 2])
    def test_interior_weight_costs_at_most_one_pass(self, monkeypatch,
                                                     which):
        # on these sets the weight's optimum (~1e-5 to 1e-4) lies inside
        # the walk; a jump past it is refused, at the price of one pass
        jump = fitting._exponential_jump
        cfg = FitConfig(loss="ml")
        for seed in (3, 17):
            events = table1_events(REFERENCE_SETS[which], seed, background=0.0)
            result = fit(events, cfg)
            with monkeypatch.context() as m:
                m.setattr(fitting, "_exponential_jump",
                          lambda *args: (None, jump(*args)[1]))
                walk = fit(events, cfg)
            assert result.converged
            assert result.nfev <= walk.nfev + 1
            for key in PARAM_NAMES[:5]:
                assert abs(getattr(result.cov, key) - getattr(walk.cov, key)) \
                    < 1e-3 * walk.std_errors[key]

    def test_exponential_loss_jumps(self):
        # f = e^x0 + (x1 - 1)^2 falls toward x0's bound at -30 in Newton
        # steps of exactly one unit
        seen = []

        def full(v):
            seen.append(v.copy())
            e = math.exp(v[0])
            return (e + (v[1] - 1.0) ** 2, np.array([e, 2 * (v[1] - 1.0)]),
                    np.array([[e, 0.0], [0.0, 2.0]]))

        res = fitting._damped_newton(full, np.zeros(2), 1e-10, 100,
                                     lower=[-30.0, -np.inf],
                                     upper=[30.0, np.inf], max_step=1.0)
        assert res.converged
        assert res.nfev <= 6
        # the jump lands where the decrement e^x0 / 2 is a quarter of the
        # tolerance times max(|f|, 1) = 1, about 24 unit steps from the start
        assert math.exp(res.x[0]) <= 0.5e-10 * 1.01
        assert res.x[0] > -27.0

    def test_quadratic_walk_does_not_jump(self):
        # capped steps toward a minimum at 10 shrink the Newton step by the
        # distance moved: no jump to the bound at 30
        seen = []

        def full(v):
            seen.append(v.copy())
            return 0.5 * (v[0] - 10.0) ** 2, np.array([v[0] - 10.0]), \
                np.eye(1)

        res = fitting._damped_newton(full, np.zeros(1), 1e-10, 100,
                                     lower=[-30.0], upper=[30.0],
                                     max_step=1.0)
        assert res.converged
        np.testing.assert_allclose(res.x, [10.0])
        assert max(v[0] for v in seen) <= 10.0 + 1e-9


class TestFitObservability:
    """The summary names why the solver stopped and how well conditioned
    the curvature of the errors was."""

    @pytest.mark.parametrize("loss", ["hist-ls", "ml"])
    def test_summary_reports_stop_and_condition(self, loss):
        result = fit(synthetic(REFERENCE_SETS[1], 5000, seed=2),
                     FitConfig(loss=loss))
        summary = result.summary()
        assert summary["message"] == result.message
        assert summary["message"] in ("Newton decrement below tolerance",
                                      "damped step lowered the loss by less "
                                      "than the tolerance")
        assert 1.0 <= summary["condition_number"] < 1e12

    def test_condition_number_of_curvature(self):
        opt = fitting._NewtonResult(
            x=np.zeros(7), fun=0.0, grad=np.zeros(7),
            hess=np.diag([4.0, -2.0, 1.0, 1.0, 1.0, 0.5, 1.0]),
            converged=True, message="m", nit=1, nfev=1)
        args = ((0.0, 0.0, 1.0, 1.0), {"amplitude": (5, 1.0),
                                       "background": (6, 1.0)}, False, 1.0,
                0.0, 1.0, 100)
        assert fitting._fit_result("hist-ls", opt, *args).summary()[
            "condition_number"] == 8.0
        singular = fitting._NewtonResult(
            x=np.zeros(7), fun=0.0, grad=np.zeros(7),
            hess=np.diag([1.0] * 6 + [0.0]), converged=True, message="m",
            nit=1, nfev=1)
        summary = fitting._fit_result("hist-ls", singular, *args).summary()
        assert summary["condition_number"] is None
        assert summary["message"] == "m"


class TestQuasiCW:
    """ROADMAP item 12's quasi-CW table: the reference crystal and link, an
    ideal detector and 82k events, at pumps of 1 ns to 1 us, where
    1 - rho_t runs from 0.25 down to 2.9e-7.  Each fit's narrowing limit
    sqrt(1 - rho_t^2) lies within 5 of its own SEs (propagated from
    rho_t's) of the model's.  If those pulls are standard normal, a row
    fails with probability 5.7e-7 per seed, 7e-6 for the 12 seeds that the
    passing rows draw in a run.
    On seeds 11, 5 and 123, ML's pulls lay within +-1.6 at every pump;
    hist-ls was off by +99 % (about 120 SEs) at 100 ns and by +1300 % (134
    to 154 SEs) at 1 us, each fit reporting converged."""

    @pytest.mark.parametrize("loss, tau_p", [
        ("ml", 1e-9), ("ml", 1e-8), ("ml", 1e-7), ("ml", 1e-6),
        ("hist-ls", 1e-9), ("hist-ls", 1e-8),
        *(pytest.param("hist-ls", tau_p, marks=pytest.mark.xfail(
            strict=True, raises=AssertionError, reason="ROADMAP item 12: the 64 x 64 bins of the "
            "percentile box do not resolve the ridge of width "
            "sqrt(2 (1 - rho_t))")) for tau_p in (1e-7, 1e-6))])
    @settings(max_examples=2, deadline=None,
              phases=[Phase.explicit, Phase.reuse, Phase.generate])
    @given(seed=st.integers(0, 2**32 - 1))
    def test_narrowing_limit_within_five_own_errors(self, loss, tau_p, seed):
        src = SourceParams(sigma=3.29e12, tau_p=tau_p)
        model = narrowing_ratio_limit(temporal_covariance(src,
                                                          REFERENCE_LINK))
        result = fit(sample_from_source(src, REFERENCE_LINK,
                                        DetectorModel.ideal(), 82000, seed),
                     FitConfig(loss=loss))
        limit = narrowing_ratio_limit(result.cov)
        error = abs(result.cov.rho_t) / limit * result.std_errors["rho_t"]
        assert result.converged
        assert abs(limit - model) <= 5.0 * error
