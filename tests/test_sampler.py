import itertools
import math

import numpy as np
import pytest
from scipy import stats

from heraldtime.analytic import WidthDivergesError, optimum
from heraldtime.dataio import read_events, write_events
from heraldtime.herald import HeraldWindow, select
from heraldtime.params import LinkParams, SourceParams, TemporalCovariance
from heraldtime.sampler import (
    CHUNK_SIZE,
    DetectorModel,
    EventSet,
    sample,
    sample_from_source,
)

from conftest import REFERENCE_LINK, REFERENCE_SETS
from oracles import sample_concatenated

# Every detector effect on, so that every draw of a chunk is exercised.
FULL_DETECTOR = DetectorModel(jitter1=30e-12, jitter2=20e-12,
                              reference_jitter=10e-12, background_rate=0.05,
                              window=(-2e-9, 2e-9))


class TestEventSet:
    def test_shape_and_count(self):
        es = EventSet(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert es.count == 2
        assert es.t1.tolist() == [1.0, 3.0]

    def test_empty_allowed(self):
        es = EventSet(np.empty((0, 2)))
        assert es.count == 0

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            EventSet(np.array([[1.0, math.nan]]))
        with pytest.raises(ValueError):
            EventSet(np.array([[1.0, math.inf]]))

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            EventSet(np.zeros((3, 3)))

    def test_array_is_read_only(self):
        es = EventSet(np.array([[1.0, 2.0]]))
        with pytest.raises(ValueError):
            es.events[0, 0] = 5.0

    def test_caller_array_is_copied(self):
        arr = np.array([[1.0, 2.0], [3.0, 4.0]])
        es = EventSet(arr)
        assert not np.shares_memory(es.events, arr)
        assert arr.flags.writeable
        arr[0, 0] = 9.0
        assert es.events[0, 0] == 1.0

    def test_package_built_sets_are_read_only(self, tmp_path):
        es = sample(REFERENCE_SETS[0], FULL_DETECTOR, 500, seed=3)
        write_events(es, tmp_path / "ev.csv", unit="ps")
        built = [es, read_events(tmp_path / "ev.csv"),
                 select(es, HeraldWindow(0.0, 1e-9))]
        for made in built:
            assert not made.events.flags.writeable
            assert made.events.shape[1] == 2
            with pytest.raises(ValueError):
                made.events[0, 0] = 5.0

    def test_adopt_keeps_the_checks(self):
        with pytest.raises(ValueError, match="finite"):
            EventSet._adopt(np.array([[1.0, math.nan]]), {})
        with pytest.raises(ValueError, match="shape"):
            EventSet._adopt(np.zeros((3, 3)), {})


class TestDetectorModel:
    def test_defaults_are_noiseless(self):
        det = DetectorModel.ideal()
        assert det.jitter1 == det.jitter2 == det.reference_jitter == 0.0
        assert det.background_rate == 0.0

    def test_background_requires_window(self):
        with pytest.raises(ValueError):
            DetectorModel(background_rate=0.1)
        DetectorModel(background_rate=0.1, window=(-1e-9, 1e-9))

    def test_rate_bounds(self):
        with pytest.raises(ValueError):
            DetectorModel(background_rate=1.0, window=(-1, 1))
        # just below one is allowed
        DetectorModel(background_rate=1.0 - 1e-9, window=(-1.0, 1.0))

    def test_negative_jitter_rejected(self):
        with pytest.raises(ValueError):
            DetectorModel(jitter1=-1e-12)

    def test_degenerate_window_rejected(self):
        with pytest.raises(ValueError):
            DetectorModel(window=(1.0, 1.0))


class TestDeterminism:
    def test_identical_seed_identical_events(self):
        cov = REFERENCE_SETS[0]
        a = sample(cov, DetectorModel.ideal(), 10000, seed=99)
        b = sample(cov, DetectorModel.ideal(), 10000, seed=99)
        np.testing.assert_array_equal(a.events, b.events)

    def test_different_seed_differs(self):
        cov = REFERENCE_SETS[0]
        a = sample(cov, DetectorModel.ideal(), 1000, seed=1)
        b = sample(cov, DetectorModel.ideal(), 1000, seed=2)
        assert not np.array_equal(a.events, b.events)

    def test_chunking_is_transparent(self):
        # a run longer than one chunk reproduces its prefix chunks exactly
        cov = REFERENCE_SETS[1]
        long = sample(cov, DetectorModel.ideal(), CHUNK_SIZE + 123, seed=5)
        short = sample(cov, DetectorModel.ideal(), CHUNK_SIZE, seed=5)
        np.testing.assert_array_equal(long.events[:CHUNK_SIZE], short.events)

    @pytest.mark.parametrize("n", [1, CHUNK_SIZE - 1, CHUNK_SIZE,
                                   CHUNK_SIZE + 1, 2 * CHUNK_SIZE + 77])
    @pytest.mark.parametrize("seed", [0, 7, 901])
    def test_matches_concatenated_chunks(self, n, seed):
        # filling one array in place keeps every chunk's stream and bits
        cov = REFERENCE_SETS[1]
        for det in (DetectorModel.ideal(), FULL_DETECTOR):
            got = sample(cov, det, n, seed=seed).events
            want = sample_concatenated(cov, det, n, seed)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [CHUNK_SIZE + 1, CHUNK_SIZE + 4097])
    @pytest.mark.parametrize("effects", list(itertools.product((0, 1),
                                                               repeat=4)))
    def test_each_detector_effect_matches_concatenated(self, n, effects):
        # every subset of the detector effects keeps the stream and bits of
        # whole-array draws; the odd tail chunks (1 and 4097 rows) split
        # their background draw into pieces of unequal length
        j1, j2, common, bg = effects
        det = DetectorModel(jitter1=j1 * 30e-12, jitter2=j2 * 20e-12,
                            reference_jitter=common * 10e-12,
                            background_rate=bg * 0.05, window=(-2e-9, 2e-9))
        cov = REFERENCE_SETS[2]
        got = sample(cov, det, n, seed=13).events
        assert got.tobytes() == sample_concatenated(cov, det, n, 13).tobytes()

    def test_sample_holds_one_array(self):
        # The output, one chunk's scratch column and its background mask;
        # whole-array draws held ~4.5 MiB a chunk besides the output, and a
        # list of chunks, their concatenation and a copy of it held three
        # times the output.
        import tracemalloc

        cov = REFERENCE_SETS[1]
        sample(cov, FULL_DETECTOR, 10, seed=1)  # first-call set-up
        tracemalloc.start()
        try:
            es = sample(cov, FULL_DETECTOR, 200_000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one float64 column of a chunk and a slack of four bytes per event
        # of one chunk: its byte mask and the selected background rows
        assert peak < es.events.nbytes + 8 * CHUNK_SIZE + 4 * CHUNK_SIZE

    def test_metadata_records_provenance(self):
        cov = REFERENCE_SETS[0]
        es = sample(cov, DetectorModel.ideal(), 10, seed=7)
        assert es.metadata["seed"] == 7
        assert es.metadata["cov"]["rho_t"] == cov.rho_t
        assert es.metadata["generator"] == "philox-chunked-v1"

    def test_n_must_be_positive(self):
        with pytest.raises(ValueError):
            sample(REFERENCE_SETS[0], DetectorModel.ideal(), 0, seed=1)

    @pytest.mark.parametrize("seed", [-1, 1.0, None])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(ValueError, match="seed must be a non-negative"):
            sample(REFERENCE_SETS[0], DetectorModel.ideal(), 10, seed=seed)


class TestStatistics:
    def test_reference_set1_moments(self):
        cov = REFERENCE_SETS[0]
        es = sample(cov, DetectorModel.ideal(), 82000, seed=12)
        r = np.corrcoef(es.t1, es.t2)[0, 1]
        assert abs(r - cov.rho_t) < 0.003
        assert np.std(es.t1, ddof=1) == pytest.approx(cov.tau1, rel=0.01)
        assert np.std(es.t2, ddof=1) == pytest.approx(cov.tau2, rel=0.01)

    def test_moments_converge_with_n(self):
        cov = TemporalCovariance(rho_t=-0.6, tau1=1e-10, tau2=2e-10,
                                 mu1=3e-11, mu2=-1e-11)
        errs = []
        for n in (2000, 32000, 512000):
            es = sample(cov, DetectorModel.ideal(), n, seed=4)
            errs.append(abs(np.std(es.t1, ddof=1) - cov.tau1) / cov.tau1)
        # 1/sqrt(n) trend over a 256x range: expect a ~16x drop, allow slack
        assert errs[2] < errs[0] / 3

    def test_marginals_pass_ks(self):
        cov = REFERENCE_SETS[2]
        es = sample(cov, DetectorModel.ideal(), 100000, seed=21)
        p1 = stats.kstest(es.t1, "norm", args=(cov.mu1, cov.tau1)).pvalue
        p2 = stats.kstest(es.t2, "norm", args=(cov.mu2, cov.tau2)).pvalue
        assert p1 > 0.01 and p2 > 0.01

    def test_jitter_adds_in_quadrature(self):
        cov = REFERENCE_SETS[2]  # tau1 = 214.6 ps
        det = DetectorModel(jitter1=45e-12)
        es = sample(cov, det, 200000, seed=8)
        expected = math.hypot(cov.tau1, 45e-12)
        assert expected == pytest.approx(2.1927e-10, rel=1e-4)  # frozen
        assert np.std(es.t1, ddof=1) == pytest.approx(expected, rel=0.005)
        # channel 2 untouched
        assert np.std(es.t2, ddof=1) == pytest.approx(cov.tau2, rel=0.005)

    def test_reference_jitter_is_common_mode(self):
        cov = TemporalCovariance(rho_t=0.0, tau1=1e-10, tau2=1e-10)
        ref = 5e-11
        es = sample(cov, DetectorModel(reference_jitter=ref), 400000, seed=9)
        emp_cov = np.cov(es.t1, es.t2)
        # off-diagonal picks up ref^2; diagonals get the quadrature sum
        assert emp_cov[0, 1] == pytest.approx(ref ** 2, rel=0.05)
        assert emp_cov[0, 0] == pytest.approx(cov.tau1 ** 2 + ref ** 2,
                                              rel=0.01)

    def test_background_fraction_and_uniformity(self):
        cov = TemporalCovariance(rho_t=0.2, tau1=1e-10, tau2=1e-10)
        window = (-5e-10, 5e-10)
        det = DetectorModel(background_rate=0.999, window=window)
        es = sample(cov, det, 50000, seed=14)
        inside = (es.t1 >= window[0]) & (es.t1 <= window[1])
        assert inside.mean() > 0.995
        counts, _ = np.histogram(es.t1[inside], bins=20, range=window)
        assert stats.chisquare(counts).pvalue > 0.01

    def test_background_events_replace_signal(self):
        cov = TemporalCovariance(rho_t=0.0, tau1=1e-12, tau2=1e-12)
        det = DetectorModel(background_rate=0.5, window=(-1e-9, 1e-9))
        es = sample(cov, det, 100000, seed=15)
        # background fraction lands near the requested rate
        far = np.abs(es.t1) > 1e-11  # > 10 sigma: must be background
        expected_far = 0.5 * (1.0 - 1e-11 / 1e-9)
        assert far.mean() == pytest.approx(expected_far, abs=0.01)


class TestSampleFromSource:
    def test_decorrelated_source_without_dispersion(self):
        src = SourceParams(sigma=2e12, tau_p=1e-12)  # sigma tau_p = 2
        link = LinkParams(beta=0.0, length=1e4)
        es = sample_from_source(src, link, DetectorModel.ideal(), 100000,
                                seed=3)
        r = np.corrcoef(es.t1, es.t2)[0, 1]
        assert abs(r) < 3.0 / math.sqrt(100000)

    def test_metadata_carries_source_and_link(self):
        src = SourceParams(sigma=2e12, tau_p=1e-12)
        es = sample_from_source(src, REFERENCE_LINK, DetectorModel.ideal(),
                                100, seed=1)
        assert es.metadata["source"]["sigma"] == 2e12
        assert es.metadata["link"]["length"] == 1e4

    def test_cw_divergence_propagates(self):
        with pytest.raises(WidthDivergesError):
            sample_from_source(SourceParams.cw_pump(1e12), REFERENCE_LINK,
                               DetectorModel.ideal(), 100, seed=1)

    def test_heralded_width_at_optimum_matches_closed_form(self):
        # end-to-end: tiny heralding window on sampled data reproduces the
        # minimum heralded width of the optimal pump
        link = REFERENCE_LINK
        rep = optimum(link, sigma_fixed=3.29e12)
        src = SourceParams(sigma=3.29e12, tau_p=rep.tau_p_opt)
        es = sample_from_source(src, link, DetectorModel.ideal(), 400000,
                                seed=17)
        width = np.std(es.t2, ddof=1)
        sel = es.t1[np.abs(es.t2) < width / 100]
        assert sel.size > 1000
        mc = np.std(sel, ddof=1)
        se = mc / math.sqrt(2 * (sel.size - 1))
        assert abs(mc - rep.tau1h_min) < 4 * se + 1e-4 * rep.tau1h_min
