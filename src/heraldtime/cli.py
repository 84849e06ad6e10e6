"""Command-line surface for the full pipeline.

Subcommands and the options each takes::

    heraldtime simulate   [OPTS] [--seed N] [--unit U]
    heraldtime fit        events.csv [OPTS] [--format csv|json]
    heraldtime herald     [events.csv] [OPTS] [--svg]
                          [--curve narrowing|centroid|both]
    heraldtime optimize   [OPTS] [--format csv|json] [--fix-sigma]
    heraldtime landscape  [OPTS] [--which tau1|tau1h_0|tau1h_dt_0] [--svg]
    heraldtime reproduce  table1|fig3a|fig3b|fig4|fig5 [--out D] [--seed N]

where OPTS is ``[--config F] [--set KEY=VALUE ...] [--out D]``.

Every subcommand is a pure function of its declared inputs: no hidden state,
no network, and reruns with the same config and seed produce byte-identical
output.  The run config is the ``--config`` file, if any, with each
``--set key=value`` applied on top; it is checked at load, every group it
names built, so a bad value even in a group the command never reads is a
configuration error, and so is a key the command needs but the config lacks.
``--help`` lists the full key table with units.

Exit codes: 0 success, 1 reproduction targets missed, out of memory or
unexpected error, 2 configuration error, 3 numerical non-convergence, 4 I/O
error.  Failures print a machine-readable JSON object to stderr; running
out of memory prints ``{"error": "memory", ...}``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, analytic, herald, reproduce
from .dataio import (
    ConfigError,
    EventFileError,
    ReportError,
    format_schema_help,
    load_config,
    read_events,
    write_events,
    write_report,
    write_table,
    RunConfig,
    _time_scale,
)
from .fitting import DegenerateDataError, fit as run_fit
from .params import HeraldtimeError, _count
from .sampler import sample_from_source

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_NONCONVERGENCE = 3
EXIT_IO = 4


def _engineering(value: float, unit: str) -> str:
    """Three-significant-figure engineering formatting, e.g. 15.2 ps."""
    prefixes = [(1e12, "T"), (1e9, "G"), (1e6, "M"), (1e3, "k"), (1.0, ""),
                (1e-3, "m"), (1e-6, "u"), (1e-9, "n"), (1e-12, "p"),
                (1e-15, "f")]
    mag = abs(value)
    for scale, prefix in prefixes:
        if mag >= scale or (scale, prefix) == prefixes[-1]:
            return f"{value / scale:.3g} {prefix}{unit}"


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load(args) -> RunConfig:
    """The --config file, if any, with the --set overrides applied."""
    return load_config(args.config, args.set or ())


def _write_summary(out: Path, stem: str, report: dict, fmt: str) -> Path:
    """Write a key/value report as JSON, or as a CSV table of dotted keys."""
    path = out / f"{stem}.{fmt}"
    if fmt == "csv":
        write_table(path, ["key", "value"],
                    [[k, json.dumps(v)] for k, v in sorted(_flat(report))])
    else:
        write_report(report, path)
    return path


def _flat(report: dict, prefix: str = "") -> list:
    """A report's values as (key, value) pairs, nested keys dotted."""
    return [pair for key, value in report.items() for pair in (
        _flat(value, f"{prefix}{key}.") if isinstance(value, dict)
        else [(prefix + key, value)])]


# --------------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------------

def _cmd_simulate(args) -> int:
    cfg = _load(args)
    n, seed = cfg.sample()
    _time_scale(args.unit)  # a bad --unit fails before any sampling
    events = sample_from_source(cfg.source(), cfg.link(), cfg.detector(), n=n,
                                seed=seed if args.seed is None else args.seed)
    events.metadata.update(cfg.meta())
    path = _out_dir(args) / "events.csv"
    write_events(events, path, unit=args.unit)
    print(f"wrote {events.count} events to {path}")
    return EXIT_OK


def _cmd_fit(args) -> int:
    cfg = _load(args)
    events = read_events(args.events)
    result = run_fit(events, cfg.fit_config())
    out = _out_dir(args)
    report = result.summary()
    meta = events.metadata
    source_meta = meta.get("source") if isinstance(meta.get("source"), dict) else {}
    report["input_delta_lambda"] = meta.get("delta_lambda")
    report["input_tau_p"] = source_meta.get("tau_p")
    for key in ("source", "link", "seed"):
        if key in meta:
            report[f"input_{key}"] = meta[key]
    path = _write_summary(out, "fit_report", report, args.format)
    c = result.cov
    print(f"rho_t = {c.rho_t:+.4f}   tau1 = {_engineering(c.tau1, 's')}   "
          f"tau2 = {_engineering(c.tau2, 's')}")
    print(f"narrowing limit sqrt(1-rho_t^2) = "
          f"{analytic.narrowing_ratio_limit(c):.4f}")
    print(f"background level = {result.background_level:.4g}   "
          f"reduced chi^2 = {result.reduced_chisq:.3f}")
    print(f"report: {path}")
    if not result.converged:
        print("fit did not converge", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    return EXIT_OK


def _cmd_herald(args) -> int:
    cfg = _load(args)
    plt = _matplotlib() if args.svg else None
    if args.events:
        source = read_events(args.events)
    else:
        source = analytic.temporal_covariance(cfg.source(), cfg.link())
    window = cfg.herald()
    tables = {}
    if args.curve in ("narrowing", "both"):
        curve = herald.narrowing_curve(source, center=window.center,
                                       widths=cfg.grid("herald.width"),
                                       herald_on=window.herald_on)
        tables["narrowing_curve"] = reproduce.narrowing_table(curve)
        print(f"narrowing asymptote = {curve.asymptote:.4f}")
    if args.curve in ("centroid", "both"):
        curve = herald.centroid_curve(source, width=window.width,
                                      centers=cfg.grid("herald.center"),
                                      herald_on=window.herald_on)
        tables["centroid_curve"] = reproduce.centroid_table(curve)
        print(f"centroid slope = {curve.slope():+.5g}")
    out = _out_dir(args)
    paths = [out / f"{name}.csv" for name in tables]
    for path, table in zip(paths, tables.values()):
        write_table(path, *table)
        print(f"table: {path}")
    if plt:
        _render_curves_svg(plt, paths)
    return EXIT_OK


def _cmd_optimize(args) -> int:
    cfg = _load(args)
    link = cfg.link()
    sigma_fixed = cfg.source().sigma if args.fix_sigma else None
    report = analytic.optimum(link, sigma_fixed=sigma_fixed)
    print(f"tau_p_opt = {_engineering(report.tau_p_opt, 's')}")
    if report.sigma_opt is not None:
        print(f"sigma_opt = {_engineering(report.sigma_opt, 'Hz')} "
              "(formula units 1/s)")
    print(f"rho_opt   = {report.rho_opt:+.4f}")
    print(f"tau1_min  = {_engineering(report.tau1_min, 's')}")
    print(f"tau1h_min = {_engineering(report.tau1h_min, 's')}")
    print(f"tau1h_dt  = {_engineering(report.tau1h_dt_abs, 's')}")
    out = _out_dir(args)
    payload = {
        "tau_p_opt_s": report.tau_p_opt,
        "sigma_opt_per_s": report.sigma_opt,
        "rho_opt": report.rho_opt,
        "tau1_min_s": report.tau1_min,
        "tau1h_min_s": report.tau1h_min,
        "tau1_abs_s": report.tau1_abs,
        "tau1h_dt_abs_s": report.tau1h_dt_abs,
        "link_beta_s2_per_m": link.beta,
        "link_length_m": link.length,
        "sigma_fixed_per_s": sigma_fixed,
    }
    path = _write_summary(out, "optimum", payload, args.format)
    print(f"report: {path}")
    return EXIT_OK


def _cmd_landscape(args) -> int:
    cfg = _load(args)
    plt = _matplotlib() if args.svg else None
    tau_p, sigma = cfg.landscape()
    grid = analytic.landscape(tau_p, sigma, cfg.link(), args.which)
    path = _out_dir(args) / f"landscape_{args.which}.csv"
    write_table(path, *reproduce.landscape_table(tau_p, sigma, grid))
    print(f"landscape table ({grid.shape[0]}x{grid.shape[1]} cells, widths "
          f"in s): {path}")
    if plt:
        _render_heatmap_svg(plt, path, tau_p, sigma, grid, args.which)
    return EXIT_OK


def _cmd_reproduce(args) -> int:
    # a bad --seed fails before any output is written
    _count(args.seed, "seed", "be a non-negative integer", 0)
    bundle = reproduce.run_recipe(args.name, seed=args.seed)
    out = _out_dir(args)
    for name, (header, rows) in sorted(bundle.tables.items()):
        write_table(out / f"{name}.csv", header, rows)
    write_report(bundle.summary(), out / f"{bundle.name}_summary.json")
    for check in bundle.checks:
        print(check.line())
    print(f"{bundle.name}: {'PASS' if bundle.passed else 'FAIL'} "
          f"({sum(c.passed for c in bundle.checks)}/{len(bundle.checks)} "
          f"checks), tables in {out}")
    return EXIT_OK if bundle.passed else EXIT_FAIL


# --------------------------------------------------------------------------
# Optional SVG rendering (static, data tables stay the primary output)
# --------------------------------------------------------------------------

def _matplotlib():
    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
        return plt
    except ImportError as exc:
        raise ConfigError(
            "--svg requires matplotlib (pip install heraldtime[plot])") from exc


def _render_curves_svg(plt, csv_paths) -> None:
    for path in csv_paths:
        rows = np.genfromtxt(path, delimiter=",", names=True)
        fields = rows.dtype.names
        fig, ax = plt.subplots(figsize=(5, 3.5))
        ax.plot(rows[fields[0]], rows[fields[1]], "-o", ms=3)
        ax.set_xlabel(fields[0])
        ax.set_ylabel(fields[1])
        fig.tight_layout()
        svg = Path(path).with_suffix(".svg")
        fig.savefig(svg)
        plt.close(fig)
        print(f"plot: {svg}")


def _render_heatmap_svg(plt, csv_path, tau_p, sigma, grid, which) -> None:
    fig, ax = plt.subplots(figsize=(5, 4))
    mesh = ax.pcolormesh(tau_p, sigma, np.log10(grid), shading="auto")
    ax.set_xscale("log")
    ax.set_yscale("log")
    ax.set_xlabel("tau_p [s]")
    ax.set_ylabel("sigma [1/s]")
    fig.colorbar(mesh, ax=ax, label=f"log10({which} / s)")
    fig.tight_layout()
    svg = Path(csv_path).with_suffix(".svg")
    fig.savefig(svg)
    plt.close(fig)
    print(f"plot: {svg}")


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heraldtime",
        description="Simulate, fit and optimize photon-pair arrival-time "
                    "statistics in dispersive fiber links.",
        epilog=format_schema_help(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, config=True):
        """A subparser with --out, and unless config is False, the run
        config options --config and --set."""
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)
        p.add_argument("--out", default=".", help="output directory")
        if config:
            p.add_argument("--config", help="run configuration file")
            p.add_argument("--set", action="append", metavar="KEY=VALUE",
                           help="override a config key (repeatable)")
        return p

    p = command("simulate", _cmd_simulate, "draw synthetic coincidence events")
    p.add_argument("--seed", type=int, help="override sample.seed")
    p.add_argument("--unit", default="ps", help="time unit for the event file")

    p = command("fit", _cmd_fit, "recover the joint Gaussian parameters")
    p.add_argument("events", help="event CSV file")
    p.add_argument("--format", choices=("csv", "json"), default="json",
                   help="fit report format")

    p = command("herald", _cmd_herald, "windowed conditional curves")
    p.add_argument("events", nargs="?", default=None,
                   help="event CSV file (omit to use the analytic model of "
                        "the config's source and link)")
    p.add_argument("--curve", choices=("narrowing", "centroid", "both"),
                   default="both")
    p.add_argument("--svg", action="store_true", help="also render SVG plots")

    p = command("optimize", _cmd_optimize, "optimal source settings for a link")
    p.add_argument("--format", choices=("csv", "json"), default="json",
                   help="optimum report format")
    p.add_argument("--fix-sigma", action="store_true",
                   help="hold the source's crystal width sigma fixed, "
                        "optimize the pump only")

    p = command("landscape", _cmd_landscape,
                "width landscape over (tau_p, sigma)")
    p.add_argument("--which", choices=tuple(analytic._LANDSCAPE_KERNELS),
                   default="tau1")
    p.add_argument("--svg", action="store_true", help="also render SVG heatmap")

    p = command("reproduce", _cmd_reproduce,
                "regenerate a headline result against stored targets",
                config=False)
    p.add_argument("name", choices=sorted(reproduce.RECIPES))
    p.add_argument("--seed", type=int, default=reproduce.DEFAULT_SEED,
                   help="seed of the recipe's samples")

    return parser


def _emit_error(kind: str, exc: Exception) -> None:
    print(json.dumps({"error": kind, "message": str(exc)}), file=sys.stderr)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (EventFileError, ReportError, OSError) as exc:
        _emit_error("io", exc)
        return EXIT_IO
    except DegenerateDataError as exc:
        _emit_error("numerical", exc)
        return EXIT_NONCONVERGENCE
    except (HeraldtimeError, ValueError) as exc:
        # ConfigError and every other rejected input
        _emit_error("config", exc)
        return EXIT_CONFIG
    except MemoryError as exc:
        # NumPy's message names the allocation it could not make, such as
        # the events of a sample.n too large for the machine
        _emit_error("memory", exc)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
