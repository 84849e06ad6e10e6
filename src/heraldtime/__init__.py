"""heraldtime: arrival-time statistics of photon pairs in dispersive links.

Simulate coincidence data from the joint Gaussian arrival-time model, recover
its parameters by fitting, analyze heralded (windowed conditional) narrowing,
and find the photon-pair-source settings that minimize temporal widths for a
given fiber link.
"""

from .params import (
    CWPumpError,
    HeraldtimeError,
    LinkParams,
    SourceParams,
    SourceParamsRho,
    TemporalCovariance,
    from_rho_form,
    to_rho_form,
)
from .analytic import (
    NoDispersionError,
    OptimumReport,
    WidthDivergesError,
    conditional_density,
    conditional_limit_density,
    joint_density,
    landscape,
    narrowing_ratio_limit,
    optimum,
    rho_t_of,
    tau1,
    tau1h_0,
    tau1h_dt_0,
    temporal_covariance,
)
from .sampler import DetectorModel, EventSet, sample, sample_from_source
from .fitting import (
    DegenerateDataError,
    FitConfig,
    FitResult,
    bootstrap_errors,
    fit,
    initial_guess,
)
from .herald import (
    CentroidCurve,
    HeraldWindow,
    NarrowingCurve,
    TooFewEventsError,
    centroid_curve,
    conditional_moments,
    heralded_width,
    narrowing_curve,
    select,
)
from .dataio import (
    ConfigError,
    EventFileError,
    ReportError,
    RunConfig,
    load_config,
    parse_quantity,
    read_events,
    write_events,
    write_report,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # params
    "HeraldtimeError", "CWPumpError", "SourceParams", "SourceParamsRho",
    "LinkParams", "TemporalCovariance", "to_rho_form", "from_rho_form",
    # analytic
    "WidthDivergesError", "NoDispersionError", "OptimumReport",
    "joint_density", "conditional_density", "conditional_limit_density",
    "narrowing_ratio_limit", "tau1", "tau1h_0", "tau1h_dt_0", "rho_t_of",
    "temporal_covariance", "optimum", "landscape",
    # sampler
    "DetectorModel", "EventSet", "sample", "sample_from_source",
    # fitting
    "DegenerateDataError", "FitConfig", "FitResult", "initial_guess", "fit",
    "bootstrap_errors",
    # herald
    "TooFewEventsError", "HeraldWindow", "NarrowingCurve", "CentroidCurve",
    "select", "heralded_width", "conditional_moments", "narrowing_curve",
    "centroid_curve",
    # dataio
    "EventFileError", "ConfigError", "ReportError", "RunConfig",
    "read_events", "write_events", "write_report", "load_config",
    "parse_quantity",
]
