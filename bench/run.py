"""heraldtime benchmark: one workload, one seed, one run.

Run from the root of a checkout (the package is taken from ``src/``)::

    python3 bench/run.py --workload cli-pipeline --seed 1 --seconds 15 --trace 0

With ``--trace 0`` it times whole passes of the workload with tracing off
and reports the end-to-end metrics; with ``--trace 1`` it alternates
untraced and traced passes and reports the per-layer metrics.  Every output
is checked.  Metric lines go to stdout, followed by one JSON object on the
last line; the full report, the spans and the outputs are written under
``.bench_out/``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_PROBES = 3
MIN_PASSES = 3      # untraced passes per run, so the median is not one pass

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}

# per-layer metrics; every one is emitted on every workload (0 where the
# workload never calls the layer)
CLI_COMMANDS = ("simulate", "fit", "herald", "optimize", "landscape", "reproduce")
SPAN_SECONDS = (
    "herald.narrowing_curve.events", "herald.centroid_curve.events",
    "herald.heralded_width", "herald.narrowing_curve.model",
    "herald.centroid_curve.model", "analytic.landscape", "analytic.optimum",
    "analytic.temporal_covariance", "fitting.fit.hist-ls", "fitting.fit.ml",
    "fitting.bootstrap_errors", "dataio.write_events", "dataio.read_events",
    "dataio.write_table", "dataio.write_report", "dataio.load_config",
    "sampler.sample", "reproduce.fig4", "reproduce.fig5",
)
# "<span or span prefix>.<count key>": summed over the matching spans
SPAN_COUNTS = (
    "herald.resamples", "analytic.landscape.cells", "fitting.fit.hist-ls.calls",
    "fitting.fit.hist-ls.nfev", "fitting.fit.ml.calls", "fitting.fit.ml.nit",
    "fitting.bootstrap_errors.resamples", "dataio.write_events.bytes",
    "dataio.read_events.events", "dataio.write_table.bytes",
    "sampler.sample.events", "reproduce.checks_failed",
)
MODULES = ("cli", "herald", "analytic", "fitting", "dataio", "sampler", "reproduce")


def per_layer_units() -> dict[str, str]:
    units = {"cli.import_s": "s"}
    units.update({f"cli.{c}.s": "s" for c in CLI_COMMANDS})
    units.update({f"{name}.s": "s" for name in SPAN_SECONDS})
    units.update({name: "bytes" if name.endswith(".bytes") else "count"
                  for name in SPAN_COUNTS})
    units["fitting.fit.converged_ratio"] = "ratio"
    units.update({f"{m}.errors": "count" for m in MODULES})
    units["trace.overhead_s"] = "s"
    units["trace.coverage"] = "ratio"
    return units


def _median(values):
    return statistics.median(values) if values else 0.0


def _installed(tracer):
    return tracer.installed() if tracer is not None else contextlib.nullcontext()


def _fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


# --------------------------------------------------------------------------
# One pass of a workload
# --------------------------------------------------------------------------

class Run:
    """State of one benchmark run: the workload, its inputs and the tally
    of operations attempted and failed."""

    def __init__(self, workload, seed: int, out: Path):
        from heraldtime import dataio
        from workloads import config_text

        self.workload = workload
        self.seed = seed
        self.out = out
        self.cfg_path = out / "run.cfg"
        self.cfg_path.write_text(config_text(workload.config(seed)),
                                 encoding="utf-8")
        self.cfg = dataio.load_config(self.cfg_path)
        workload.prepare(self.cfg)
        self.attempted = 0
        self.failures: list[str] = []

    def _tally(self, name: str, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failures.append(f"{name}: {error}")

    def setup_probe(self) -> tuple[float, float]:
        """(seconds from a fresh interpreter to set-up done, import seconds)."""
        argv = [sys.executable, str(BENCH / "setup_child.py"),
                self.workload.name, str(self.cfg_path), repr(self.workload.scale)]
        start = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr}")
        return wall, float(proc.stdout.strip().splitlines()[-1])

    def cli_pass(self) -> tuple[float, dict[str, float], float]:
        """Commands as subprocesses: (wall s, wall s per command, peak MiB)."""
        per_command: dict[str, float] = {}
        peak_kib = 0
        codes = []
        start = time.perf_counter()
        for cmd, d, argv in self.workload.commands(str(self.cfg_path), self.out):
            t = time.perf_counter()
            with open(self.out / f"{d}.log", "wb") as log:
                proc = subprocess.Popen(
                    [sys.executable, "-m", "heraldtime", *argv], cwd=ROOT,
                    stdout=log, stderr=subprocess.STDOUT)
                _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            per_command[cmd] = per_command.get(cmd, 0.0) + time.perf_counter() - t
            peak_kib = max(peak_kib, usage.ru_maxrss)
            codes.append((d, proc.returncode))
        wall = time.perf_counter() - start
        self._check_cli(codes)
        return wall, per_command, peak_kib / 1024.0

    def cli_replay(self, tracer=None) -> float:
        """The same commands through ``cli.main`` in this process; traced
        when a tracer is given (the checks afterwards are not)."""
        from heraldtime import cli

        codes = []
        sink = io.StringIO()
        start = time.perf_counter()
        with _installed(tracer), contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            for cmd, d, argv in self.workload.commands(str(self.cfg_path),
                                                       self.out):
                span = tracer.span(f"cli.{cmd}") if tracer \
                    else contextlib.nullcontext([None] * len(tracing.FIELDS))
                with span as record:
                    try:
                        code = cli.main(argv)
                    except Exception:  # counted as a failed operation
                        code = traceback.format_exc()
                    record[tracing.FAILED] = code != 0
                codes.append((d, code))
        wall = time.perf_counter() - start
        self._check_cli(codes)
        return wall

    def _check_cli(self, codes) -> None:
        failed = self.workload.check(self.cfg, self.out)
        for d, code in codes:
            error = f"exit {code}" if code != 0 else failed.get(d)
            self._tally(d, error)

    def in_process_pass(self, tracer=None) -> float:
        """One pass of library calls, traced when a tracer is given; the
        checks run afterwards, untimed and untraced."""
        from workloads import CheckFailed

        ops: list = []
        aborted = None
        start = time.perf_counter()
        with _installed(tracer):
            try:
                self.workload.run_pass(self.cfg, self.seed, self.out, ops)
            except Exception:  # counted as a failed operation
                aborted = traceback.format_exc()
        wall = time.perf_counter() - start
        for name, check in ops:
            error = None
            if check is not None:
                try:
                    check()
                except CheckFailed as exc:
                    error = str(exc)
                except Exception:  # a check that cannot run is a failed check
                    error = traceback.format_exc()
            self._tally(name, error)
        if aborted is not None:
            self._tally("call after " + (ops[-1][0] if ops else "start"), aborted)
        return wall


# --------------------------------------------------------------------------
# Measurement
# --------------------------------------------------------------------------

def _repeat(seconds: float, one_pass, at_least: int) -> None:
    """Call ``one_pass`` until ``seconds`` have passed and it ran
    ``at_least`` times."""
    start = time.perf_counter()
    for count in itertools.count(1):
        one_pass()
        if count >= at_least and time.perf_counter() - start >= seconds:
            return


def end_to_end(run: Run, seconds: float, setup: list):
    walls, peaks = [], []
    if run.workload.in_process:
        run.workload.warm_up(run.cfg)
        _repeat(seconds, lambda: walls.append(run.in_process_pass()), MIN_PASSES)
        peaks.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    else:
        def one():
            wall, _, peak = run.cli_pass()
            walls.append(wall)
            peaks.append(peak)
        _repeat(seconds, one, MIN_PASSES)
    return {"wall_s": _median(walls), "setup_s": _median([s for s, _ in setup]),
            "peak_rss_mib": _median(peaks)}, walls


def per_layer(run: Run, seconds: float, setup: list):
    """Alternate untraced and traced passes; per-layer numbers come from the
    traced ones (medians over passes), overhead from the difference.  The
    spans are written to spans.json."""
    tracer = tracing.Tracer()
    plain, traced = [], []
    cli_walls: list[dict] = []
    run.workload.warm_up(run.cfg)

    one_pass = run.in_process_pass if run.workload.in_process else run.cli_replay

    def cycle():
        if not run.workload.in_process:
            cli_walls.append(run.cli_pass()[1])
        plain.append(one_pass())
        tracer.pass_id += 1
        traced.append(one_pass(tracer))
    _repeat(seconds, cycle, 1)

    tracer.dump(run.out / "spans.json")
    passes = list(range(1, tracer.pass_id + 1))
    stats = tracing.per_pass(tracer.spans, passes)
    units = per_layer_units()
    metrics = {name: 0.0 for name in units}
    metrics["cli.import_s"] = _median([i for _, i in setup])
    for c in CLI_COMMANDS:
        metrics[f"cli.{c}.s"] = _median([w.get(c, 0.0) for w in cli_walls])
    for name in SPAN_SECONDS:
        metrics[f"{name}.s"] = _median([stats[p]["s"].get(name, 0.0)
                                        for p in passes])

    def summed(p, prefix, key):
        return sum(c.get(key, 0) for n, c in stats[p]["counts"].items()
                   if n == prefix or n.startswith(prefix + "."))

    for name in SPAN_COUNTS:
        prefix, key = name.rsplit(".", 1)
        metrics[name] = _median([summed(p, prefix, key) for p in passes])
    calls = sum(summed(p, "fitting.fit", "calls") for p in passes)
    converged = sum(summed(p, "fitting.fit", "converged") for p in passes)
    metrics["fitting.fit.converged_ratio"] = converged / calls if calls else 1.0
    for m in MODULES:
        metrics[f"{m}.errors"] = _median([
            sum(v for n, v in stats[p]["failed"].items() if n.startswith(m + "."))
            for p in passes])
    coverage = [stats[p]["covered"] / w for p, w in zip(passes, traced)]
    metrics["trace.overhead_s"] = _median(traced) - _median(plain)
    metrics["trace.coverage"] = _median(coverage)
    return metrics, traced


# --------------------------------------------------------------------------
# Report
# --------------------------------------------------------------------------

def _git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "seed": seed,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "platform": platform.platform(),
    }


def digests(out: Path) -> dict[str, str]:
    """SHA-256 of every output file, for information: a legitimate change
    may move the last bits of an output."""
    result = {}
    for path in sorted(out.rglob("*")):
        if path.is_file() and path.suffix in (".csv", ".json"):
            h = hashlib.sha256()
            with open(path, "rb") as fh:
                for block in iter(lambda: fh.read(1 << 20), b""):
                    h.update(block)
            result[str(path.relative_to(out))] = h.hexdigest()
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="event-count factor; below 1 only for quick tests")
    args = parser.parse_args(argv)

    if not (SRC / "heraldtime" / "__init__.py").is_file():
        return _fail(f"no heraldtime package under {SRC}")
    for var in THREAD_VARS:
        os.environ[var] = str(NPROC)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    sys.path.insert(0, str(SRC))
    import heraldtime
    if SRC.resolve() not in Path(heraldtime.__file__).resolve().parents:
        return _fail(f"heraldtime was imported from {heraldtime.__file__}")
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; "
                     f"known: {sorted(WORKLOADS)}")
    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    try:
        run = Run(WORKLOADS[args.workload](args.scale), args.seed, out)
        setup = [run.setup_probe() for _ in range(SETUP_PROBES)]
    except Exception:  # a run that cannot start prints no result
        return _fail(traceback.format_exc())

    if args.trace:
        metrics, passes = per_layer(run, args.seconds, setup)
        units = per_layer_units()
    else:
        metrics, passes = end_to_end(run, args.seconds, setup)
        units = END_TO_END
    failed = len(run.failures)
    report = {
        "workload": args.workload,
        "why": run.workload.why,
        "trace": args.trace,
        "pass_walls_s": passes,
        "setup_probes": [{"setup_s": s, "import_s": i} for s, i in setup],
        "attempted": run.attempted,
        "failed": failed,
        "error_rate": failed / run.attempted,
        "failures": run.failures[:50],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "environment": environment(args.seed),
        "digests": digests(out),
    }
    for path in out.rglob("events.csv"):  # up to 38 MB each; digest kept
        path.unlink()
    (out / "report.json").write_text(json.dumps(report, indent=1) + "\n",
                                     encoding="utf-8")

    print(f"{args.workload} seed {args.seed} trace {args.trace}: {len(passes)} "
          f"passes, {run.attempted} operations, {failed} failed")
    for message in run.failures[:10]:
        print(f"  FAILED {message.strip().splitlines()[-1]}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(f"error_rate {failed / run.attempted:.6g} ratio "
          f"({failed}/{run.attempted})")
    print(json.dumps({"correct": failed == 0, "attempted": run.attempted,
                      "failed": failed, "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
