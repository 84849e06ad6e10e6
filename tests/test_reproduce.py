import dataclasses
import math
from statistics import NormalDist

import numpy as np
import pytest

from heraldtime import reproduce
from heraldtime.reproduce import RECIPES, load_targets, run_recipe


def test_targets_file_is_versioned_with_provenance():
    targets = load_targets()
    assert targets["version"] == 1
    assert {s["source"] for s in targets["table1"]} == {"measured"}
    sources = {spec["source"] for spec in targets["optimum"].values()}
    assert sources <= {"measured", "derived"}


def test_recipe_names():
    assert set(RECIPES) == {"table1", "fig3a", "fig3b", "fig4", "fig5"}
    with pytest.raises(ValueError, match="unknown recipe"):
        run_recipe("fig99")


@pytest.mark.parametrize("name", sorted(RECIPES))
def test_every_recipe_passes_its_checks(name):
    bundle = run_recipe(name)
    failed = [c.line() for c in bundle.checks if not c.passed]
    assert bundle.passed, "\n".join(failed)
    assert bundle.tables
    for header, rows in bundle.tables.values():
        # one finite float64 block per table, a column per header name
        assert isinstance(rows, np.ndarray) and rows.dtype == np.float64
        assert rows.ndim == 2 and rows.shape[1] == len(header)
        assert np.isfinite(rows).all()
    summary = bundle.summary()
    assert summary["recipe"] == name
    assert all("name" in c and "tolerance" in c for c in summary["checks"])


def test_table1_recovers_reference_parameters():
    bundle = run_recipe("table1")
    header, rows = bundle.tables["table1_recovered"]
    assert len(rows) == 3
    rho_idx = header.index("rho_t")
    assert rows[0][rho_idx] == pytest.approx(0.9551, abs=0.002)
    assert rows[1][rho_idx] == pytest.approx(-0.1483, abs=0.01)


def test_fig5_loci_cover_requested_correlations():
    bundle = run_recipe("fig5")
    header, rows = bundle.tables["fig5_rho_loci"]
    rhos = {row[0] for row in rows}
    assert rhos == {0.9, 0.0, -0.9}


def test_recipes_are_deterministic():
    a = run_recipe("fig3b")
    b = run_recipe("fig3b")
    assert a.summary() == b.summary()
    assert a.tables.keys() == b.tables.keys()
    for name, (header, rows) in a.tables.items():
        assert header == b.tables[name][0]
        assert np.array_equal(rows, b.tables[name][1]), name


def test_fig3a_asymptote_checks_compare_the_sample_with_the_model():
    # each set's sample sqrt(1 - r^2) against the model limit, within
    # Phi^-1(1 - 1e-3/6) delta-method errors |rho_t| sqrt(1 - rho_t^2)/sqrt(n)
    z = NormalDist().inv_cdf(1.0 - 1e-3 / 6)
    checks = {c.name: c for c in run_recipe("fig3a").checks}
    for i, entry in enumerate(load_targets()["table1"], start=1):
        check = checks[f"set{i}.asymptote"]
        limit = math.sqrt(1.0 - entry["rho_t"] ** 2)
        assert check.target == pytest.approx(limit, rel=1e-15)
        assert check.tolerance == pytest.approx(
            z * abs(entry["rho_t"]) * limit / math.sqrt(82000), rel=1e-12)
        assert check.value != check.target
        assert check.passed


def test_fig3a_asymptote_checks_fail_on_another_correlation(monkeypatch):
    # events drawn with |rho_t| 0.05 smaller than the model's miss every
    # asymptote check
    real_sample = reproduce.sample

    def shifted(cov, detector, n, seed):
        rho_t = cov.rho_t - math.copysign(0.05, cov.rho_t)
        return real_sample(dataclasses.replace(cov, rho_t=rho_t), detector,
                           n=n, seed=seed)

    monkeypatch.setattr(reproduce, "sample", shifted)
    checks = {c.name: c for c in run_recipe("fig3a").checks}
    assert not any(checks[f"set{i}.asymptote"].passed for i in (1, 2, 3))
