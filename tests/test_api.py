"""The public interface is stated once: the package's names are its modules'
``__all__``, and a fit summary is its record's fields."""

from dataclasses import fields, replace

import pytest

import heraldtime
from heraldtime import analytic, dataio, fitting, herald, params, sampler
from heraldtime.fitting import PARAM_NAMES, FitResult

MODULES = (params, analytic, sampler, fitting, herald, dataio)


def test_package_exports_each_modules_all_in_order():
    expected = ["__version__"]
    for module in MODULES:
        expected += [name for name in module.__all__ if name not in expected]
    assert heraldtime.__all__ == expected
    for module in MODULES:
        for name in module.__all__:
            assert getattr(heraldtime, name) is getattr(module, name), name
    assert {"CHUNK_SIZE", "CONFIG_SCHEMA",
            "format_schema_help"} <= set(heraldtime.__all__)


RESULT = FitResult(
    cov=heraldtime.TemporalCovariance(rho_t=-0.4, tau1=2e-10, tau2=3e-10,
                                      mu1=1e-11, mu2=-2e-11),
    background_level=0.03, amplitude=81000.0,
    std_errors={name: 0.01 * (i + 1) for i, name in enumerate(PARAM_NAMES)},
    reduced_chisq=1.07, converged=True, iterations=12,
    degenerate_signal=False, loss="ml", n_events=82000, message="stopped",
    nfev=12, njev=12, se_path="full", condition_number=45.0)


@pytest.mark.parametrize("result", [RESULT, replace(RESULT, std_errors=None,
                                                    se_path="none",
                                                    condition_number=None)],
                         ids=["std-errors", "no-std-errors"])
def test_fit_summary_holds_every_field(result):
    summary = result.summary()
    record = [f.name for f in fields(result)
              if f.name not in ("cov", "std_errors")]
    for name in record:
        assert summary[name] == getattr(result, name), name
    for name in PARAM_NAMES[:5]:
        assert summary[name] == getattr(result.cov, name), name
    assert summary["narrowing_ratio_limit"] == \
        analytic.narrowing_ratio_limit(result.cov)
    if result.std_errors is None:
        assert "std_errors" not in summary
    else:
        assert summary["std_errors"] == result.std_errors
        assert summary["std_errors"] is not result.std_errors
    assert set(summary) == {*record, *PARAM_NAMES[:5], "narrowing_ratio_limit",
                            *(["std_errors"] if result.std_errors else [])}
