"""The four benchmark workloads, their inputs and their output checks.

Two workloads drive the ``heraldtime`` command as subprocesses (what users
run); two call the library in process (where one layer dominates).  Every
input comes from the run's seed.  Each operation is one CLI command or one
library call; it fails on a nonzero exit, an exception or a missed check.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import heraldtime.analytic as analytic
import heraldtime.dataio as dataio
import heraldtime.fitting as fitting
import heraldtime.herald as herald
import heraldtime.reproduce as reproduce
import heraldtime.sampler as sampler
from heraldtime.params import TemporalCovariance

PAPER_EVENTS = 82_000        # Table 1 data-set size
FIT_TOLERANCE_SE = 5.0       # fitted values within this many standard errors
RATIO_TOLERANCE_SE = 5.0     # narrowing ratios within this many errors
MODEL_RTOL = 1e-12           # model-mode curves against conditional_moments
ROUND_TRIP_RTOL = 1e-15      # events written in ps and read back
BOOTSTRAP_RESAMPLES = 10     # fit-validate's fixed bootstrap size
WARMUP_EVENTS = 5_000

# The reference source of the CLI pipeline: 3.29 THz crystal, 964 fs pump,
# 10 km per arm, with the detector of a typical timing setup.
SOURCE_AND_LINK = {
    "source.sigma": "3.29 THz",
    "source.tau_p": "964 fs",
    "link.beta": "-1.15e-26 s^2/m",
    "link.length": "10 km",
}
DETECTOR = {
    "detector.jitter1": "30 ps",
    "detector.jitter2": "30 ps",
    "detector.reference_jitter": "10 ps",
    "detector.background_rate": "0.01",
    "detector.window_lo": "-1 ns",
    "detector.window_hi": "1 ns",
}
HERALD_GRIDS = {
    "herald.width": "100 ps",
    "herald.width_min": "10 ps",
    "herald.width_max": "1 ns",
    "herald.width_points": "25",
    "herald.center_min": "-300 ps",
    "herald.center_max": "300 ps",
    "herald.center_points": "11",
}


class CheckFailed(Exception):
    """An output did not match what the model predicts."""


def config_text(values: dict) -> str:
    return "".join(f"{k} = {v}\n" for k, v in values.items())


# --------------------------------------------------------------------------
# Truth computed in the benchmark
# --------------------------------------------------------------------------

def jittered(cov, det):
    """The joint Gaussian after jitter: tau_eff^2 = tau^2 + j^2 + j_ref^2 per
    channel, and the covariance gains j_ref^2 from the common mode."""
    jr2 = det.reference_jitter ** 2
    t1 = math.sqrt(cov.tau1 ** 2 + det.jitter1 ** 2 + jr2)
    t2 = math.sqrt(cov.tau2 ** 2 + det.jitter2 ** 2 + jr2)
    c = cov.rho_t * cov.tau1 * cov.tau2 + jr2
    return type(cov)(rho_t=c / (t1 * t2), tau1=t1, tau2=t2,
                     mu1=cov.mu1, mu2=cov.mu2)


def _phi(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def expected_in_window(truth, det, n: int, center: float, width: float) -> float:
    """Expected events whose heralding time (t2) falls in the window."""
    lo, hi = center - 0.5 * width, center + 0.5 * width
    b = det.background_rate
    signal = _phi((hi - truth.mu2) / truth.tau2) - _phi((lo - truth.mu2) / truth.tau2)
    bg = 0.0
    if b > 0:
        wlo, whi = det.window
        bg = max(0.0, min(hi, whi) - max(lo, wlo)) / (whi - wlo)
    return n * ((1.0 - b) * signal + b * bg)


def require_window_counts(truth, det, n, windows) -> None:
    """Every window must expect at least 10 x MIN_EVENTS events."""
    need = 10 * herald.MIN_EVENTS
    for center, width in windows:
        got = expected_in_window(truth, det, n, center, width)
        if got < need:
            raise ValueError(f"window (center {center!r} s, width {width!r} s) "
                             f"expects {got:.0f} events; the grid needs >= {need}")


def ratio_floor(truth, det) -> float:
    """Lowest expected heralded-to-unconditional width ratio for the mixture.

    Inside any window the heralded variance is at least the smaller of the
    Gaussian limit tau1^2 (1 - rho^2) and the background's own variance,
    while the unconditional variance is the mixture's.
    """
    b = det.background_rate
    limit_var = truth.tau1 ** 2 * (1.0 - truth.rho_t ** 2)
    if b == 0:
        return math.sqrt(1.0 - truth.rho_t ** 2)
    lo, hi = det.window
    u_var = (hi - lo) ** 2 / 12.0
    full_var = ((1.0 - b) * truth.tau1 ** 2 + b * u_var
                + b * (1.0 - b) * (truth.mu1 - 0.5 * (lo + hi)) ** 2)
    return math.sqrt(min(limit_var, u_var) / full_var)


def check_fit(summary: dict, truth, what: str) -> None:
    se = summary.get("std_errors") or {}
    for key in ("rho_t", "tau1", "tau2"):
        err = se.get(key)
        if err is None or not (math.isfinite(err) and err > 0):
            raise CheckFailed(f"{what}: no standard error for {key}")
        dev = abs(summary[key] - getattr(truth, key))
        if dev > FIT_TOLERANCE_SE * err:
            raise CheckFailed(f"{what}: {key} = {summary[key]!r} is "
                              f"{dev / err:.1f} SE from the truth "
                              f"{getattr(truth, key)!r}")


def check_ratios(ratios, errors, floor: float, what: str) -> None:
    ratios, errors = np.asarray(ratios), np.asarray(errors)
    slack = RATIO_TOLERANCE_SE * errors
    bad = (ratios < floor - slack) | (ratios > 1.0 + slack) | ~(errors > 0)
    if bad.any():
        i = int(np.argmax(bad))
        raise CheckFailed(f"{what}: ratio {ratios[i]!r} +- {errors[i]!r} "
                          f"outside [{floor:.4f}, 1]")


def check_close(got, want, scale: float, what: str) -> None:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        raise CheckFailed(f"{what}: shape {got.shape} != {want.shape}")
    worst = float(np.max(np.abs(got - want))) / scale
    if not worst <= MODEL_RTOL:
        raise CheckFailed(f"{what}: off by {worst:.3g} (relative)")


# --------------------------------------------------------------------------
# Output files
# --------------------------------------------------------------------------

def read_table(path):
    """(header, float array) of a CSV table; raises CheckFailed on bad cells."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    try:
        rows = [[float(c) for c in line.split(",")] for line in lines[1:]]
    except ValueError as exc:
        raise CheckFailed(f"{path}: {exc}") from None
    data = np.array(rows, dtype=float).reshape(len(rows), len(header))
    if not np.all(np.isfinite(data)):
        raise CheckFailed(f"{path}: non-finite cell")
    return header, data


def parse_outputs(directory) -> None:
    """Every CSV and JSON output must parse (event files are read by the
    workload's own check)."""
    for path in sorted(Path(directory).iterdir()):
        if path.suffix == ".json":
            try:
                json.loads(path.read_text(encoding="utf-8"))
            except ValueError as exc:
                raise CheckFailed(f"{path}: {exc}") from None
        elif path.suffix == ".csv" and path.name != "events.csv":
            read_table(path)


def load_json(path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


# --------------------------------------------------------------------------
# Workloads
# --------------------------------------------------------------------------

class Workload:
    """One fixed set of inputs.  ``scale`` shrinks the event counts (tests)."""

    name = ""
    why = ""
    in_process = False
    uses_ml = False

    def __init__(self, scale: float = 1.0):
        self.scale = scale

    def scaled(self, n: int) -> int:
        return max(1000, round(n * self.scale))

    def config(self, seed: int) -> dict:
        raise NotImplementedError

    def prepare(self, cfg) -> None:
        """Derive the truth the checks compare against; validate the inputs."""

    def warm_up(self, cfg) -> None:
        """One call on a small input, so lazy set-up is not timed."""
        cov = analytic.temporal_covariance(cfg.source(), cfg.link())
        events = sampler.sample(cov, cfg.detector(), WARMUP_EVENTS, seed=0)
        fitting.fit(events)
        if self.uses_ml:
            fitting.fit(events, fitting.FitConfig(loss="ml"))


class CliWorkload(Workload):
    """A sequence of ``heraldtime`` commands; each writes to its own dir."""

    def commands(self, cfg_path, out) -> list[tuple[str, str, list[str]]]:
        """(command, output dir, argv) in run order."""
        raise NotImplementedError

    def check(self, cfg, out) -> dict[str, str]:
        """Failure message per output dir that missed a check."""
        raise NotImplementedError

    def _checked(self, out, checks) -> dict[str, str]:
        failures = {}
        for _, d, _ in self.commands("", out):
            try:
                parse_outputs(out / d)
                if d in checks:
                    checks[d]()
            except (CheckFailed, OSError, KeyError, ValueError) as exc:
                failures[d] = f"{type(exc).__name__}: {exc}"
        return failures


class CliPipeline(CliWorkload):
    name = "cli-pipeline"
    why = ("the README user flow simulate, fit (hist-ls and ml), herald as "
           "subprocesses: import, event I/O, fits and the herald bootstrap")
    uses_ml = True

    def config(self, seed):
        return {**SOURCE_AND_LINK, **DETECTOR, **HERALD_GRIDS,
                "sample.n": str(self.scaled(PAPER_EVENTS)),
                "sample.seed": str(seed)}

    def prepare(self, cfg):
        det = cfg.detector()
        self.truth = jittered(analytic.temporal_covariance(cfg.source(),
                                                           cfg.link()), det)
        self.floor = ratio_floor(self.truth, det)
        center, width = cfg.get("herald.center"), cfg.get("herald.width")
        windows = [(center, w) for w in cfg.grid("herald.width", "log")]
        windows += [(c, width) for c in cfg.grid("herald.center", "linear")]
        require_window_counts(self.truth, det, cfg.get("sample.n"), windows)

    def commands(self, cfg_path, out):
        events = str(out / "simulate" / "events.csv")
        return [
            ("simulate", "simulate",
             ["simulate", "--config", cfg_path, "--out", str(out / "simulate")]),
            ("fit", "fit", ["fit", events, "--out", str(out / "fit")]),
            ("fit", "fit-ml", ["fit", events, "--out", str(out / "fit-ml"),
                               "--set", "fit.loss=ml"]),
            ("herald", "herald",
             ["herald", events, "--config", cfg_path, "--out",
              str(out / "herald"), "--curve", "both"]),
        ]

    def check(self, cfg, out):
        def events():
            try:
                ev = dataio.read_events(out / "simulate" / "events.csv")
            except dataio.EventFileError as exc:
                raise CheckFailed(str(exc)) from None
            if ev.count != cfg.get("sample.n"):
                raise CheckFailed(f"simulate wrote {ev.count} events")

        def herald_curves():
            header, rows = read_table(out / "herald" / "narrowing_curve.csv")
            if header != ["width_s", "ratio", "std_error"]:
                raise CheckFailed(f"narrowing header {header}")
            check_close(rows[:, 0], cfg.grid("herald.width", "log"),
                        cfg.get("herald.width_max"), "narrowing widths")
            check_ratios(rows[:, 1], rows[:, 2], self.floor, "narrowing")
            _, cent = read_table(out / "herald" / "centroid_curve.csv")
            if cent.shape != (cfg.get("herald.center_points"), 3) \
                    or not np.all(cent[:, 2] > 0):
                raise CheckFailed("centroid curve shape or errors")

        return self._checked(out, {
            "simulate": events,
            "fit": lambda: check_fit(load_json(out / "fit" / "fit_report.json"),
                                     self.truth, "hist-ls fit"),
            "fit-ml": lambda: check_fit(
                load_json(out / "fit-ml" / "fit_report.json"), self.truth,
                "ml fit"),
            "herald": herald_curves,
        })


class ModelCli(CliWorkload):
    name = "model-cli"
    why = ("link design as subprocesses: model herald, optimize, landscapes, "
           "fig4 and fig5; import and table writing dominate, no sampling or "
           "fitting")
    WHICH = ("tau1", "tau1h_0", "tau1h_dt_0")

    def config(self, seed):
        # the source moves with the seed; every grid keeps its size
        rng = np.random.default_rng(seed)
        sigma = 3.29e12 * math.exp(rng.uniform(-0.1, 0.1))
        tau_p = 964e-15 * math.exp(rng.uniform(-0.2, 0.2))
        return {"source.sigma": f"{sigma!r} 1/s", "source.tau_p": f"{tau_p!r} s",
                "link.beta": SOURCE_AND_LINK["link.beta"],
                "link.length": SOURCE_AND_LINK["link.length"],
                **HERALD_GRIDS,
                "landscape.tau_p_min": "10 fs", "landscape.tau_p_max": "1 ns",
                "landscape.tau_p_points": "200",
                "landscape.sigma_min": "10 GHz", "landscape.sigma_max": "10 THz",
                "landscape.sigma_points": "200"}

    def prepare(self, cfg):
        self.cov = analytic.temporal_covariance(cfg.source(), cfg.link())

    def commands(self, cfg_path, out):
        cmds = [
            ("herald", "herald", ["herald", "--config", cfg_path, "--out",
                                  str(out / "herald"), "--curve", "both"]),
            ("optimize", "optimize",
             ["optimize", "--config", cfg_path, "--out", str(out / "optimize")]),
            ("optimize", "optimize-fix",
             ["optimize", "--config", cfg_path, "--fix-sigma", "--out",
              str(out / "optimize-fix")]),
        ]
        cmds += [("landscape", f"landscape-{w}",
                  ["landscape", "--config", cfg_path, "--which", w, "--out",
                   str(out / f"landscape-{w}")]) for w in self.WHICH]
        cmds += [("reproduce", r, ["reproduce", r, "--out", str(out / r)])
                 for r in ("fig4", "fig5")]
        return cmds

    def check(self, cfg, out):
        cov = self.cov

        def herald_model():
            _, nar = read_table(out / "herald" / "narrowing_curve.csv")
            want = [herald.conditional_moments(cov, cfg.get("herald.center"), w)[1]
                    / cov.tau1 for w in nar[:, 0]]
            check_close(nar[:, 1], want, 1.0, "model narrowing ratios")
            _, cen = read_table(out / "herald" / "centroid_curve.csv")
            want = [herald.conditional_moments(cov, c, cfg.get("herald.width"))[0]
                    for c in cen[:, 0]]
            check_close(cen[:, 1], want, cov.tau1, "model centroid means")

        def landscape(which):
            _, grid = read_table(out / f"landscape-{which}" / f"landscape_{which}.csv")
            if grid.shape != (cfg.get("landscape.sigma_points"),
                              cfg.get("landscape.tau_p_points") + 1) \
                    or not np.all(grid[:, 1:] > 0):
                raise CheckFailed(f"landscape {which}: shape {grid.shape}")

        def recipe(name):
            summary = load_json(out / name / f"{name}_summary.json")
            if not summary["passed"]:
                raise CheckFailed(f"{name}: " + ", ".join(
                    c["name"] for c in summary["checks"] if not c["passed"]))

        def optimum(d):
            report = load_json(out / d / "optimum.json")
            if not (report["tau_p_opt_s"] > 0 and report["tau1_min_s"] > 0):
                raise CheckFailed(f"{d}: {report}")

        checks = {"herald": herald_model,
                  "optimize": lambda: optimum("optimize"),
                  "optimize-fix": lambda: optimum("optimize-fix"),
                  "fig4": lambda: recipe("fig4"), "fig5": lambda: recipe("fig5")}
        checks.update({f"landscape-{w}": (lambda w=w: landscape(w))
                       for w in self.WHICH})
        return self._checked(out, checks)


class InProcessWorkload(Workload):
    """Library calls made in this process."""

    in_process = True

    def run_pass(self, cfg, seed, out, ops: list) -> None:
        """Run the calls, appending (operation, check thunk or None) after
        each one returns; the thunks run after the pass is timed."""
        raise NotImplementedError


class FitValidate(InProcessWorkload):
    name = "fit-validate"
    why = ("sample and fit each Table 1 set with both losses, then a fixed "
           "bootstrap: fitting does nearly all the work, no herald or file I/O")
    uses_ml = True

    def config(self, seed):
        return {**SOURCE_AND_LINK, **DETECTOR,
                "sample.n": str(self.scaled(PAPER_EVENTS)),
                "sample.seed": str(seed)}

    def prepare(self, cfg):
        base = cfg.detector()
        self.sets = []
        for s in reproduce.load_targets()["table1"]:
            cov = TemporalCovariance(rho_t=s["rho_t"], tau1=s["tau1_s"],
                                     tau2=s["tau2_s"])
            # the background spans +-5 widths of each set
            half = 5.0 * max(cov.tau1, cov.tau2)
            det = sampler.DetectorModel(
                jitter1=base.jitter1, jitter2=base.jitter2,
                reference_jitter=base.reference_jitter,
                background_rate=base.background_rate, window=(-half, half))
            self.sets.append((s["name"], cov, det, jittered(cov, det)))

    def run_pass(self, cfg, seed, out, ops):
        n = cfg.get("sample.n")
        for i, (name, cov, det, truth) in enumerate(self.sets):
            events = sampler.sample(cov, det, n, seed=seed * 3 + i)
            ops.append((f"sample.{name}", None))
            for loss in ("hist-ls", "ml"):
                result = fitting.fit(events, fitting.FitConfig(loss=loss))
                ops.append((f"fit.{loss}.{name}",
                            lambda r=result, t=truth, w=f"{name} {loss}":
                            check_fit(r.summary(), t, w)))
            if i == 1:
                kept = events
        errors = fitting.bootstrap_errors(kept, n_resamples=BOOTSTRAP_RESAMPLES,
                                          seed=seed)

        def bootstrap_ok():
            for key in ("rho_t", "tau1", "tau2"):
                if not (math.isfinite(errors[key]) and errors[key] > 0):
                    raise CheckFailed(f"bootstrap {key} error {errors[key]!r}")

        ops.append(("bootstrap_errors", bootstrap_ok))


class BulkEvents(InProcessWorkload):
    name = "bulk-events"
    why = ("one million events, 12x the paper: sample, event file write and "
           "read, a fit and heralded statistics; event I/O and memory dominate")

    def config(self, seed):
        return {**SOURCE_AND_LINK, **DETECTOR,
                "herald.width": "50 ps",
                "herald.center_min": "-300 ps", "herald.center_max": "300 ps",
                "herald.center_points": "11",
                "sample.n": str(self.scaled(1_000_000)),
                "sample.seed": str(seed)}

    def prepare(self, cfg):
        det = cfg.detector()
        self.truth = jittered(analytic.temporal_covariance(cfg.source(),
                                                           cfg.link()), det)
        self.floor = ratio_floor(self.truth, det)
        width = cfg.get("herald.width")
        windows = [(0.0, width)] + [(c, width)
                                    for c in cfg.grid("herald.center", "linear")]
        require_window_counts(self.truth, det, cfg.get("sample.n"), windows)

    def run_pass(self, cfg, seed, out, ops):
        width = cfg.get("herald.width")
        cov = analytic.temporal_covariance(cfg.source(), cfg.link())
        ops.append(("temporal_covariance", None))
        events = sampler.sample(cov, cfg.detector(), cfg.get("sample.n"),
                                seed=seed)
        ops.append(("sample", None))
        path = out / "events.csv"
        dataio.write_events(events, path, unit="ps")
        ops.append(("write_events", None))
        back = dataio.read_events(path)

        def round_trip():
            if back.count != events.count:
                raise CheckFailed(f"read {back.count} of {events.count} events")
            # ps on disk: one rounding each way
            worst = float(np.max(np.abs(back.events - events.events))
                          / np.max(np.abs(events.events)))
            if not worst <= ROUND_TRIP_RTOL:
                raise CheckFailed(f"event file round trip off by {worst:.3g}")

        ops.append(("read_events", round_trip))
        result = fitting.fit(back)
        ops.append(("fit", lambda: check_fit(result.summary(), self.truth,
                                             "hist-ls fit")))
        width_and_error = herald.heralded_width(back,
                                                herald.HeraldWindow(0.0, width))

        def heralded():
            sd = float(np.std(back.t1, ddof=1))
            check_ratios([width_and_error[0] / sd], [width_and_error[1] / sd],
                         self.floor, "heralded width")

        ops.append(("heralded_width", heralded))
        curve = herald.centroid_curve(back, width=width,
                                      centers=cfg.grid("herald.center", "linear"))

        def centroid():
            if not (np.all(np.isfinite(curve.means))
                    and np.all(curve.std_errors > 0)):
                raise CheckFailed("centroid curve means or errors")

        ops.append(("centroid_curve", centroid))


WORKLOADS = {w.name: w for w in (CliPipeline, FitValidate, ModelCli, BulkEvents)}
