import argparse
import json
import sys
import warnings

import numpy as np
import pytest

from heraldtime import cli, fitting
from heraldtime.cli import build_parser, main
from heraldtime.dataio import load_config, read_events, write_events
from heraldtime.sampler import DetectorModel, EventSet

REFERENCE_CFG = """\
source.sigma   = 3.29 THz
source.tau_p   = 15.2 ps
link.beta      = -1.15e-26 s^2/m
link.length    = 10 km
sample.n       = 4000
sample.seed    = 11
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(REFERENCE_CFG)
    return path


def test_help_enumerates_config_keys():
    text = build_parser().format_help()
    for key in ("source.sigma", "source.tau_p", "link.two_beta",
                "link.length", "detector.jitter1", "sample.seed",
                "herald.width", "landscape.sigma_min", "fit.loss"):
        assert key in text
    # units are part of the help contract
    assert "GHz" in text and "ps" in text and "s^2/m" in text


def test_simulate_is_deterministic(tmp_path, config_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["simulate", "--config", str(config_path),
                 "--out", str(out1)]) == 0
    assert main(["simulate", "--config", str(config_path),
                 "--out", str(out2)]) == 0
    assert (out1 / "events.csv").read_bytes() == \
        (out2 / "events.csv").read_bytes()


def test_simulate_seed_override_changes_output(tmp_path, config_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    main(["simulate", "--config", str(config_path), "--out", str(out1)])
    main(["simulate", "--config", str(config_path), "--out", str(out2),
          "--seed", "99"])
    assert (out1 / "events.csv").read_bytes() != \
        (out2 / "events.csv").read_bytes()


def test_config_error_exit_code_and_json(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("source.sigma = 1 THz\nlink.length = 1 km\n")
    code = main(["simulate", "--config", str(bad), "--out", str(tmp_path)])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "config"


def test_simulate_unknown_unit_fails_before_sampling(tmp_path, config_path,
                                                     capsys, monkeypatch):
    # the unit is checked first: no event is drawn and no directory made
    from heraldtime import sampler
    from heraldtime.dataio import TIME_UNITS

    drawn = []
    draw = sampler.sample
    monkeypatch.setattr(sampler, "sample",
                        lambda *a, **k: drawn.append(a) or draw(*a, **k))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config_path), "--out", str(out),
                 "--unit", "parsec"]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err == {"error": "config", "message": "unknown time unit "
                   f"'parsec'; known: {sorted(TIME_UNITS)}"}
    assert drawn == []
    assert not out.exists()


# What each subcommand accepts: the options its code reads, no more.
OPTION_TABLE = {
    "simulate": {"--config", "--out", "--set", "--seed", "--unit"},
    "fit": {"events", "--config", "--out", "--set", "--format"},
    "herald": {"events", "--config", "--out", "--set", "--curve", "--svg"},
    "optimize": {"--config", "--out", "--set", "--format", "--fix-sigma"},
    "landscape": {"--config", "--out", "--set", "--which", "--svg"},
    "reproduce": {"name", "--out", "--seed"},
}


def test_parser_matches_option_table():
    parser = build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    options = {name: {a.option_strings[0] if a.option_strings else a.dest
                      for a in p._actions
                      if not isinstance(a, argparse._HelpAction)}
               for name, p in sub.choices.items()}
    assert options == OPTION_TABLE


@pytest.mark.parametrize("argv", [
    ["fit", "events.csv", "--seed", "3"],
    ["herald", "--seed", "3"],
    ["optimize", "--seed", "3"],
    ["landscape", "--seed", "3"],
    ["simulate", "--format", "csv"],
    ["herald", "--format", "csv"],
    ["landscape", "--format", "csv"],
    ["reproduce", "fig4", "--format", "csv"],
    ["reproduce", "fig4", "--config", "run.cfg"],
    ["reproduce", "fig4", "--set", "sample.n=1000"],
], ids=" ".join)
def test_options_a_command_does_not_read_are_rejected(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


MODEL_SETTINGS = ["link.beta=-1.15e-26 s^2/m", "link.length=10 km",
                  "herald.width=100 ps", "herald.width_min=10 ps",
                  "herald.width_max=1 ns", "herald.width_points=5",
                  "herald.center_min=-300 ps", "herald.center_max=300 ps",
                  "herald.center_points=5"]


@pytest.mark.parametrize("settings,message", [
    (["source.sigma0=1 THz"],
     "source.sigma0 and source.rho must be given together"),
    (["source.sigma=3.29 THz", "source.tau_p=964 fs",
      "link.two_beta=-2.3e-26 s^2/m"],
     "exactly one of link.beta / link.two_beta is required"),
], ids=["sigma0-without-rho", "beta-and-two-beta"])
def test_config_from_overrides_alone_is_validated(tmp_path, capsys, settings,
                                                  message):
    # --set without --config builds its config as a file does: validated
    # as a whole, and a config error writes nothing
    out = tmp_path / "out"
    argv = ["herald", "--out", str(out)]
    for setting in settings + MODEL_SETTINGS:
        argv += ["--set", setting]
    assert main(argv) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "config"
    assert message in err["message"]
    assert not out.exists()


LINK_CFG = "link.beta = -1.15e-26 s^2/m\nlink.length = 10 km\n"


@pytest.mark.parametrize("lines,message", [
    ("source.sigma0 = 2 THz\nsource.rho = -0.4\nsource.sigma = 3 THz\n",
     "source: exactly one source parametrization"),
    ("source.sigma0 = 2 THz\nsource.rho = -0.4\nsource.tau_p = 1 ps\n",
     "source: exactly one source parametrization"),
    ("source.sigma0 = 2 THz\nsource.rho = 1.5\n",
     "source: rho must lie strictly inside (-1, 1), got 1.5"),
    ("link.length = -1 km\n", "link: length must be finite and >= 0"),
    ("detector.jitter1 = -1 ps\n", "detector: jitter1 must be finite"),
    ("fit.loss = foo\n", "fit: loss must be 'hist-ls' or 'ml', got 'foo'"),
    ("sample.seed = -3\n", "sample: seed must be a non-negative integer"),
    ("herald.width = -5 ps\n", "herald: window width must be positive"),
    ("herald.center = inf ps\n", "herald: window center must be finite"),
    ("herald.width_min = -5 ps\nherald.width_max = 1 ns\n"
     "herald.width_points = 5\n",
     "herald: herald.width must be positive and finite"),
    ("herald.center_min = -1 ns\nherald.center_max = nan ps\n"
     "herald.center_points = 5\n", "herald: herald.center must be finite"),
    ("herald.width_min = 10 ps\nherald.width_max = 0 ps\n"
     "herald.width_points = 5\n",
     "herald: herald.width must be positive and finite"),
    ("herald.width_min = 10 ps\nherald.width_max = inf ps\n"
     "herald.width_points = 5\n",
     "herald: herald.width must be positive and finite"),
    ("landscape.tau_p_min = 0 fs\nlandscape.tau_p_max = 1 ns\n"
     "landscape.tau_p_points = 5\nlandscape.sigma_min = 1 THz\n"
     "landscape.sigma_max = 5 THz\nlandscape.sigma_points = 5\n",
     "landscape: landscape.tau_p must be positive and finite, got "
     "landscape.tau_p_min = 0.0"),
    ("herald.width_points = 5\n", "herald: the grid keys herald.width_min/"
     "herald.width_max/herald.width_points are all required"),
], ids=["rho-form-stray-sigma", "rho-form-stray-tau_p", "rho-out-of-range",
        "negative-length", "negative-jitter", "unknown-loss", "negative-seed",
        "negative-width", "infinite-center", "negative-width-grid-end",
        "nan-center-grid-end", "zero-width-grid-end", "infinite-width-grid-end",
        "zero-landscape-axis-end", "partial-grid"])
def test_config_checked_at_load_even_where_the_command_does_not_read(
        tmp_path, capsys, lines, message):
    # optimize reads only the link, yet a bad source, detector or fit
    # group, a bad seed, a bad herald window or a bad grid stops it at
    # load: one JSON config error, nothing written
    cfg = tmp_path / "run.cfg"
    cfg.write_text(LINK_CFG + lines)
    out = tmp_path / "out"
    assert main(["optimize", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["error"] == "config"
    assert message in json.loads(err[0])["message"]
    assert not out.exists()


def test_plain_values_checked_at_load_where_the_command_does_not_read(
        tmp_path, capsys):
    # optimize reads no sample, herald or landscape key, yet the rules of
    # the code that reads them stop it at load
    out = tmp_path / "out"
    assert main(["optimize", "--set", "link.beta=-1e-26 s^2/m",
                 "--set", "link.length=1 km", "--set", "herald.direction=3",
                 "--set", "sample.n=-5", "--set", "herald.width_points=1",
                 "--set", "landscape.sigma_points=0",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["error"] == "config"
    message = json.loads(err[0])["message"]
    for group in ("sample", "herald", "landscape"):
        assert f"\n  - {group}: " in message
    assert not out.exists()


def test_fit_with_a_bad_detector_block_writes_no_report(tmp_path,
                                                        config_path, capsys):
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config_path),
                 "--out", str(out)]) == 0
    bad = tmp_path / "bad.cfg"
    bad.write_text(REFERENCE_CFG + "detector.jitter1 = -1 ps\n")
    capsys.readouterr()
    assert main(["fit", str(out / "events.csv"), "--config", str(bad),
                 "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "config"
    assert "detector: jitter1 must be finite and >= 0" in err["message"]
    assert not (out / "fit_report.json").exists()


def test_simulate_from_overrides_alone_matches_config_file(tmp_path,
                                                           config_path):
    sets = []
    for line in REFERENCE_CFG.splitlines():
        key, _, value = line.partition("=")
        sets += ["--set", f"{key.strip()}={value.strip()}"]
    assert main(["simulate", "--out", str(tmp_path / "set"), *sets]) == 0
    assert main(["simulate", "--config", str(config_path),
                 "--out", str(tmp_path / "file")]) == 0
    assert (tmp_path / "set" / "events.csv").read_bytes() == \
        (tmp_path / "file" / "events.csv").read_bytes()


def test_unknown_override_rejected(tmp_path, config_path):
    code = main(["simulate", "--config", str(config_path),
                 "--out", str(tmp_path), "--set", "bogus.key=1"])
    assert code == 2


def test_fit_pipeline_report_fields(tmp_path, config_path):
    out = tmp_path / "out"
    main(["simulate", "--config", str(config_path), "--out", str(out),
          "--set", "sample.n=20000"])
    code = main(["fit", str(out / "events.csv"), "--out", str(out)])
    assert code == 0
    report = json.loads((out / "fit_report.json").read_text())
    for key in ("input_delta_lambda", "input_tau_p", "rho_t", "tau1", "tau2",
                "narrowing_ratio_limit", "background_level", "amplitude",
                "std_errors", "reduced_chisq"):
        assert key in report
    assert report["input_tau_p"] == pytest.approx(15.2e-12)


def test_fit_report_records_stop_and_condition(tmp_path, config_path):
    out = tmp_path / "out"
    main(["simulate", "--config", str(config_path), "--out", str(out),
          "--set", "sample.n=5000"])
    for loss in ("hist-ls", "ml"):
        assert main(["fit", str(out / "events.csv"), "--out", str(out / loss),
                     "--set", f"fit.loss={loss}"]) == 0
        report = json.loads((out / loss / "fit_report.json").read_text())
        assert report["message"] == "Newton decrement below tolerance"
        # finite, so the report stays valid JSON; on this config without
        # background the ml weight is barely identified, and the number
        # says so (~1e12)
        assert report["condition_number"] >= 1.0


def test_delta_lambda_annotation_flows_into_report(tmp_path, config_path):
    out = tmp_path / "out"
    main(["simulate", "--config", str(config_path), "--out", str(out),
          "--set", "meta.delta_lambda=12.47 nm",
          "--set", "sample.n=5000"])
    main(["fit", str(out / "events.csv"), "--out", str(out)])
    report = json.loads((out / "fit_report.json").read_text())
    assert report["input_delta_lambda"] == pytest.approx(12.47e-9)


@pytest.mark.parametrize("value", ["nan nm", "inf nm", "-1 nm", "0 nm"])
def test_delta_lambda_must_be_finite_and_positive_at_load(
        tmp_path, config_path, capsys, monkeypatch, value):
    # a config error before any event is drawn or directory made, where a
    # non-finite value once failed the event write after sampling (exit 4)
    from heraldtime import sampler

    drawn = []
    draw = sampler.sample
    monkeypatch.setattr(sampler, "sample",
                        lambda *a, **k: drawn.append(a) or draw(*a, **k))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config_path), "--out", str(out),
                 "--set", f"meta.delta_lambda={value}"]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "config"
    assert "meta: delta_lambda must be finite and positive" in err["message"]
    assert drawn == []
    assert not out.exists()


def test_config_background_window_reaches_the_events(tmp_path, config_path):
    # a background declared in the config brings its window, which the
    # simulated events record
    with open(config_path, "a") as fh:
        fh.write("detector.background_rate = 0.05\n"
                 "detector.window_lo = -1 ns\ndetector.window_hi = 1 ns\n")
    assert load_config(config_path).detector() == DetectorModel(
        background_rate=0.05, window=(-1e-9, 1e-9))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config_path),
                 "--out", str(out)]) == 0
    assert '"window": [-1e-09, 1e-09]' in (out / "events.csv").read_text()
    events = read_events(out / "events.csv")
    assert events.metadata["detector"]["window"] == [-1e-09, 1e-09]


def test_fit_nonconvergence_exit_code(tmp_path, config_path, monkeypatch):
    out = tmp_path / "out"
    main(["simulate", "--config", str(config_path), "--out", str(out)])
    monkeypatch.setattr(fitting, "MAX_EVALUATIONS", 1)
    code = main(["fit", str(out / "events.csv"), "--out", str(out)])
    assert code == 3


@pytest.mark.parametrize("n,constant,message", [
    (200, 0.0, "events have zero variance on a channel"),
    # the mean of 200 copies of 1 ns rounds off the value, but the channel
    # is refused on its raw times
    (200, 1e-9, "events have zero variance on a channel"),
    (50, None, "need at least 100 events to fit, got 50")])
def test_fit_degenerate_data_exit_code(tmp_path, capsys, n, constant,
                                       message):
    # the fit's DegenerateDataError is a numerical failure, exit 3
    t = np.arange(n) * 1e-12
    t1 = t if constant is None else np.full(n, constant)
    path = tmp_path / "events.csv"
    write_events(EventSet(np.column_stack([t1, 2.0 * t])), path)
    out = tmp_path / "out"
    assert main(["fit", str(path), "--out", str(out)]) == 3
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err == {"error": "numerical", "message": message}
    assert not (out / "fit_report.json").exists()


def _pump(tau_p: str) -> str:
    return f"source.sigma = 3.29 THz\nsource.tau_p = {tau_p}\n"


@pytest.mark.parametrize("command, settings, named", [
    ("simulate", _pump("1e-200 s"), "sigma=3290000000000.0 1/s, tau_p=1e-200"),
    ("herald", _pump("1e-200 s"), "sigma=3290000000000.0 1/s, tau_p=1e-200"),
    ("simulate", _pump("1e80 s"), "sigma=3290000000000.0 1/s, tau_p=1e+80"),
    ("landscape", "landscape.tau_p_min = 1e-200 s\n"
                  "landscape.tau_p_max = 1 ns\nlandscape.tau_p_points = 4\n"
                  "landscape.sigma_min = 1 THz\nlandscape.sigma_max = 5 THz\n"
                  "landscape.sigma_points = 3\n",
     "sigma=1000000000000.0 1/s, tau_p=1e-200")],
    ids=["simulate", "herald", "simulate-long", "landscape"])
def test_pumps_outside_the_float_range_name_the_settings(tmp_path, capsys,
                                                         command, settings,
                                                         named):
    # at 1e-200 s simulate and herald died in a ZeroDivisionError, and
    # landscape wrote inf cells and exited 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text("link.beta = -1.15e-26 s^2/m\nlink.length = 10 km\n"
                   "sample.n = 4000\n" + settings)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "config"
    assert err["message"].startswith(named + " s and beta*L=-1.15")
    assert "take the closed form of tau1 outside the float range" in \
        err["message"]
    assert not out.exists()


def test_herald_constant_channel_exit_code(tmp_path, capsys):
    # t1 = 1 ns on all 2000 events: the narrowing curve is refused as the
    # fit refuses the file, a numerical failure, exit 3, with no table
    t2 = np.random.default_rng(0).normal(0.0, 1e-10, 2000)
    path = tmp_path / "events.csv"
    write_events(EventSet(np.column_stack([np.full(2000, 1e-9), t2])), path)
    out = tmp_path / "out"
    assert main(["herald", str(path), "--curve", "narrowing", "--out",
                 str(out), "--set", "herald.width_min=10 ps", "--set",
                 "herald.width_max=1 ns", "--set",
                 "herald.width_points=5"]) == 3
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err == {"error": "numerical",
                   "message": "events have zero variance on a channel"}
    assert not (out / "narrowing_curve.csv").exists()


@pytest.mark.parametrize("command", ["simulate", "herald"])
def test_rho_t_rounding_to_one_names_the_settings(tmp_path, capsys, command):
    # 1 - rho_t is ~1e-17 here, below the rounding of 1
    cfg = tmp_path / "run.cfg"
    cfg.write_text("source.sigma = 2.23 THz\nsource.tau_p = 334 us\n"
                   "link.beta = -1.15e-26 s^2/m\nlink.length = 2.8 m\n"
                   "sample.n = 4000\n")
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "config"
    assert err["message"].startswith(
        "sigma=2230000000000.0 1/s, tau_p=0.000334 s and beta*L=")
    assert err["message"].endswith(
        "give no valid temporal covariance: rho_t must lie strictly inside "
        "(-1, 1), got 1.0")
    assert not out.exists()


@pytest.mark.parametrize("setting", [
    "fit.bins1=64", "fit.bins2=64", "fit.percentile_lo=0.5",
    "fit.percentile_hi=99.5", "fit.tolerance=1e-10",
    "fit.max_iterations=1000"])
def test_fixed_fit_settings_rejected(tmp_path, config_path, capsys, setting):
    # the binning, tolerance and evaluation cap are fixed; even their
    # values are refused as keys
    out = tmp_path / "out"
    main(["simulate", "--config", str(config_path), "--out", str(out)])
    capsys.readouterr()
    code = main(["fit", str(out / "events.csv"), "--out", str(out),
                 "--set", setting])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "config"
    assert f"unknown key {setting.split('=')[0]!r}" in err["message"]
    assert not (out / "fit_report.json").exists()


def test_fit_missing_file_exit_code(tmp_path):
    assert main(["fit", str(tmp_path / "none.csv"),
                 "--out", str(tmp_path)]) == 4


def test_fit_csv_report_holds_the_nested_values_under_dotted_keys(
        tmp_path, config_path):
    # the CSV report holds every value of the JSON one: a nested mapping's
    # under dotted keys, such as std_errors.rho_t and input_link.beta
    out = tmp_path / "out"
    main(["simulate", "--config", str(config_path), "--out", str(out)])
    for fmt in ("json", "csv"):
        assert main(["fit", str(out / "events.csv"), "--out", str(out),
                     "--format", fmt]) == 0
    report = json.loads((out / "fit_report.json").read_text())
    flat = {f"{key}.{name}": value for key, nested in report.items()
            if isinstance(nested, dict) for name, value in nested.items()}
    flat.update((key, value) for key, value in report.items()
                if not isinstance(value, dict))
    lines = (out / "fit_report.csv").read_text().splitlines()
    assert lines[0] == "key,value"
    assert lines[1:] == [f"{key},{json.dumps(flat[key])}"
                         for key in sorted(flat)]
    for key in ("std_errors.rho_t", "input_source.sigma", "input_link.beta"):
        assert key in flat


def test_fit_csv_format(tmp_path, config_path):
    out = tmp_path / "out"
    main(["simulate", "--config", str(config_path), "--out", str(out),
          "--set", "sample.n=5000"])
    code = main(["fit", str(out / "events.csv"), "--out", str(out),
                 "--format", "csv"])
    assert code == 0
    text = (out / "fit_report.csv").read_text()
    assert text.startswith("key,value")
    assert "rho_t" in text


def test_herald_model_mode(tmp_path, config_path):
    out = tmp_path / "out"
    with open(config_path, "a") as fh:
        fh.write("herald.width_min = 10 ps\nherald.width_max = 1 ns\n"
                 "herald.width_points = 7\nherald.width = 100 ps\n"
                 "herald.center_min = -300 ps\nherald.center_max = 300 ps\n"
                 "herald.center_points = 5\n")
    code = main(["herald", "--config", str(config_path), "--out", str(out)])
    assert code == 0
    narrowing = (out / "narrowing_curve.csv").read_text().splitlines()
    assert narrowing[0] == "width_s,ratio"
    assert len(narrowing) == 8
    centroid = (out / "centroid_curve.csv").read_text().splitlines()
    assert centroid[0] == "center_s,mean_s"
    assert len(centroid) == 6


@pytest.mark.parametrize("direction", ["0", "3"])
def test_herald_model_mode_invalid_direction_is_config_error(
        tmp_path, config_path, capsys, direction):
    # the model curves check the heralding channel as the event curves do
    with open(config_path, "a") as fh:
        fh.write("herald.width_min = 10 ps\nherald.width_max = 1 ns\n"
                 "herald.width_points = 7\nherald.width = 100 ps\n"
                 "herald.center_min = -300 ps\nherald.center_max = 300 ps\n"
                 "herald.center_points = 5\n")
    out = tmp_path / "out"
    code = main(["herald", "--config", str(config_path), "--out", str(out),
                 "--set", f"herald.direction={direction}"])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "config"
    assert "herald_on must be 1 or 2" in err["message"]
    assert not (out / "narrowing_curve.csv").exists()


@pytest.mark.parametrize("key", ["herald.center", "herald.center_max"])
def test_herald_non_finite_center_is_config_error(tmp_path, config_path,
                                                  capsys, key):
    # a NaN window center is a bad config, not a table that failed to write
    with open(config_path, "a") as fh:
        fh.write("herald.width_min = 10 ps\nherald.width_max = 1 ns\n"
                 "herald.width_points = 7\nherald.width = 100 ps\n"
                 "herald.center_min = -300 ps\nherald.center_max = 300 ps\n"
                 "herald.center_points = 5\n")
    code = main(["herald", "--config", str(config_path), "--out",
                 str(tmp_path), "--set", f"{key}=nan ps"])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "config"
    assert "center must be finite" in err["message"]


@pytest.mark.parametrize("curve,key,message", [
    ("centroid", "herald.center_max=nan ps", "center must be finite"),
    ("narrowing", "herald.width_max=nan ps", "width must be positive"),
])
def test_herald_event_mode_invalid_grid_is_config_error(
        tmp_path, config_path, capsys, curve, key, message):
    # the empirical curves apply the window rule of the model curves; a
    # NaN grid point is not a window that selected too few events
    out = tmp_path / "out"
    main(["simulate", "--config", str(config_path), "--out", str(out)])
    with open(config_path, "a") as fh:
        fh.write("herald.width_min = 100 ps\nherald.width_max = 2 ns\n"
                 "herald.width_points = 4\nherald.width = 100 ps\n"
                 "herald.center_min = -300 ps\nherald.center_max = 300 ps\n"
                 "herald.center_points = 5\n")
    capsys.readouterr()
    code = main(["herald", str(out / "events.csv"), "--config",
                 str(config_path), "--out", str(out), "--curve", curve,
                 "--set", key])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "config"
    assert message in err["message"]
    assert "selects" not in err["message"]


def test_herald_negative_width_end_is_config_error_without_warning(
        tmp_path, config_path, capsys):
    # a negative narrowing-grid end is refused at load, before NumPy's
    # log10 would warn about it: warnings as errors change nothing
    with open(config_path, "a") as fh:
        fh.write("herald.width_min = 10 ps\nherald.width_max = 1 ns\n"
                 "herald.width_points = 7\n")
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["herald", "--config", str(config_path), "--out",
                     str(out), "--curve", "narrowing",
                     "--set", "herald.width_min=-5 ps"])
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["error"] == "config"
    assert not out.exists()


def test_herald_event_mode(tmp_path, config_path):
    out = tmp_path / "out"
    main(["simulate", "--config", str(config_path), "--out", str(out),
          "--set", "sample.n=20000"])
    code = main(["herald", str(out / "events.csv"), "--config",
                 str(config_path), "--out", str(out), "--curve", "narrowing",
                 "--set", "herald.width_min=100 ps",
                 "--set", "herald.width_max=2 ns",
                 "--set", "herald.width_points=4"])
    assert code == 0
    lines = (out / "narrowing_curve.csv").read_text().splitlines()
    assert lines[0] == "width_s,ratio,std_error"


def test_optimize_prints_reference_values(tmp_path, config_path, capsys):
    out = tmp_path / "out"
    code = main(["optimize", "--config", str(config_path), "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "15.2 ps" in text
    assert "132 GHz" in text
    payload = json.loads((out / "optimum.json").read_text())
    assert payload["tau_p_opt_s"] == pytest.approx(1.51657508881031e-11)
    assert payload["sigma_opt_per_s"] == pytest.approx(1.3187609467915741e11)


def test_optimize_fix_sigma(tmp_path, config_path, capsys):
    out = tmp_path / "out"
    code = main(["optimize", "--config", str(config_path), "--out", str(out),
                 "--fix-sigma"])
    assert code == 0
    payload = json.loads((out / "optimum.json").read_text())
    assert payload["sigma_opt_per_s"] is None
    assert payload["tau1_min_s"] == pytest.approx(1.894789513677812e-10)


def test_optimize_csv_format(tmp_path, config_path):
    out = tmp_path / "out"
    code = main(["optimize", "--config", str(config_path), "--out", str(out),
                 "--format", "csv"])
    assert code == 0
    text = (out / "optimum.csv").read_text()
    assert text.startswith("key,value")
    assert "tau_p_opt_s" in text


def test_herald_svg(tmp_path, config_path):
    pytest.importorskip("matplotlib")
    out = tmp_path / "out"
    with open(config_path, "a") as fh:
        fh.write("herald.width_min = 10 ps\nherald.width_max = 1 ns\n"
                 "herald.width_points = 5\n")
    code = main(["herald", "--config", str(config_path), "--out", str(out),
                 "--curve", "narrowing", "--svg"])
    assert code == 0
    assert (out / "narrowing_curve.svg").exists()


@pytest.mark.parametrize("command,settings", [
    ("herald", ["--curve", "narrowing", "--set", "herald.width_min=10 ps",
                "--set", "herald.width_max=1 ns",
                "--set", "herald.width_points=5"]),
    ("landscape", ["--set", "landscape.tau_p_min=1 ps",
                   "--set", "landscape.tau_p_max=100 ps",
                   "--set", "landscape.tau_p_points=4",
                   "--set", "landscape.sigma_min=50 GHz",
                   "--set", "landscape.sigma_max=5 THz",
                   "--set", "landscape.sigma_points=4"]),
], ids=["herald", "landscape"])
def test_svg_without_matplotlib_writes_nothing(tmp_path, config_path, capsys,
                                               monkeypatch, command,
                                               settings):
    # a missing plotting library is found before any table is written
    monkeypatch.setitem(sys.modules, "matplotlib", None)
    out = tmp_path / "out"
    assert main([command, "--config", str(config_path), "--out", str(out),
                 "--svg", *settings]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "config"
    assert "--svg requires matplotlib" in err["message"]
    assert not out.exists() or not any(out.iterdir())


def test_optimize_no_dispersion_is_config_error(tmp_path):
    cfg = tmp_path / "flat.cfg"
    cfg.write_text("link.beta = 0 s^2/m\nlink.length = 10 km\n")
    assert main(["optimize", "--config", str(cfg), "--out", str(tmp_path)]) == 2


def test_optimize_fix_sigma_takes_rho_form_source(tmp_path):
    # (sigma0, rho) fixes the crystal width sigma = 2 sigma0 sqrt(1 - rho)
    link = "link.beta = -1.15e-26 s^2/m\nlink.length = 10 km\n"
    rho_form = tmp_path / "rho.cfg"
    rho_form.write_text("source.sigma0 = 2 THz\nsource.rho = -0.4\n" + link)
    source = load_config(rho_form).source()
    pulse_form = tmp_path / "pulse.cfg"
    pulse_form.write_text(f"source.sigma = {source.sigma!r} 1/s\n"
                          f"source.tau_p = {source.tau_p!r} s\n" + link)
    reports = []
    for cfg in (rho_form, pulse_form):
        out = tmp_path / cfg.stem
        assert main(["optimize", "--config", str(cfg), "--out", str(out),
                     "--fix-sigma"]) == 0
        reports.append((out / "optimum.json").read_bytes())
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["sigma_fixed_per_s"] == source.sigma


def test_optimize_fix_sigma_outside_the_float_range_is_config_error(
        tmp_path, capsys):
    # printed rho_opt = +nan, then exited 4 on the non-finite report
    out = tmp_path / "out"
    assert main(["optimize", "--fix-sigma", "--out", str(out),
                 "--set", "source.sigma=1e200 Hz", "--set", "source.tau_p=1 ps",
                 "--set", "link.beta=-1.15e-26 s^2/m",
                 "--set", "link.length=10 km"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err.strip().splitlines()[-1])
    assert err["error"] == "config"
    assert err["message"].startswith("sigma=1e+200 1/s, tau_p=")
    assert "the fixed-sigma optimum outside the float range" in err["message"]
    assert not out.exists()


def test_out_of_memory_is_a_json_error(tmp_path, config_path, capsys,
                                       monkeypatch):
    # a sample too large for the machine ended in a traceback from np.empty
    message = "Unable to allocate 14.6 TiB for an array"

    def no_memory(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "sample_from_source", no_memory)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config_path), "--out", str(out),
                 "--set", "sample.n=1000000000000"]) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err == {"error": "memory", "message": message}
    assert not out.exists()


def test_optimize_fix_sigma_requires_sigma(tmp_path):
    cfg = tmp_path / "nosigma.cfg"
    cfg.write_text("link.beta = -1.15e-26 s^2/m\nlink.length = 10 km\n")
    assert main(["optimize", "--config", str(cfg), "--out", str(tmp_path),
                 "--fix-sigma"]) == 2


def test_landscape_matrix_shape(tmp_path, config_path):
    out = tmp_path / "out"
    with open(config_path, "a") as fh:
        fh.write("landscape.tau_p_min = 1 ps\nlandscape.tau_p_max = 100 ps\n"
                 "landscape.tau_p_points = 12\n"
                 "landscape.sigma_min = 50 GHz\n"
                 "landscape.sigma_max = 5 THz\nlandscape.sigma_points = 9\n")
    code = main(["landscape", "--config", str(config_path), "--out", str(out),
                 "--which", "tau1h_dt_0"])
    assert code == 0
    rows = (out / "landscape_tau1h_dt_0.csv").read_text().splitlines()
    assert len(rows) == 10  # header + 9 sigma rows
    assert len(rows[1].split(",")) == 13  # sigma + 12 pump durations
    body = np.array([[float(x) for x in row.split(",")[1:]]
                     for row in rows[1:]])
    assert np.all(body.max(axis=1) == body.min(axis=1))


def test_landscape_svg(tmp_path, config_path):
    pytest.importorskip("matplotlib")
    out = tmp_path / "out"
    with open(config_path, "a") as fh:
        fh.write("landscape.tau_p_min = 1 ps\nlandscape.tau_p_max = 100 ps\n"
                 "landscape.tau_p_points = 8\nlandscape.sigma_min = 50 GHz\n"
                 "landscape.sigma_max = 5 THz\nlandscape.sigma_points = 8\n")
    code = main(["landscape", "--config", str(config_path), "--out", str(out),
                 "--svg"])
    assert code == 0
    assert (out / "landscape_tau1.svg").exists()


def test_reproduce_fig4(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["reproduce", "fig4", "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "[PASS]" in text and "FAIL" not in text.replace("PASS/FAIL", "")
    assert (out / "fig4_widths.csv").exists()
    summary = json.loads((out / "fig4_summary.json").read_text())
    assert summary["passed"] is True


@pytest.mark.parametrize("recipe", ["table1", "fig4"])
def test_reproduce_bad_seed_fails_before_any_output(tmp_path, capsys,
                                                    monkeypatch, recipe):
    # the seed is checked first, as simulate's --unit is: whether or not
    # the recipe samples, no recipe runs and no directory is made
    from heraldtime import reproduce

    ran = []
    monkeypatch.setattr(reproduce, "run_recipe",
                        lambda *a, **k: ran.append(a) or 1 / 0)
    out = tmp_path / "out"
    assert main(["reproduce", recipe, "--seed", "-1", "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err == {"error": "config", "message":
                   "seed must be a non-negative integer, got -1"}
    assert ran == []
    assert not out.exists()


def test_module_entry_point(config_path, tmp_path):
    import subprocess
    import sys
    res = subprocess.run(
        [sys.executable, "-m", "heraldtime", "optimize", "--config",
         str(config_path), "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=120)
    assert res.returncode == 0
    assert "15.2 ps" in res.stdout


def test_model_commands_leave_optimizer_unloaded(config_path, tmp_path):
    # scipy.optimize costs ~0.25 s of import; only the event fits need it.
    import subprocess
    import sys
    script = ("import sys, heraldtime.cli as cli\n"
              "print('scipy.optimize' in sys.modules)\n"
              f"cli.main(['optimize', '--config', {str(config_path)!r}, "
              f"'--out', {str(tmp_path)!r}])\n"
              "print('scipy.optimize' in sys.modules)\n")
    res = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    assert lines[0] == "False" and lines[-1] == "False"


def test_model_commands_run_without_scipy(config_path, tmp_path):
    # The link-design commands, simulate and the closed forms need NumPy
    # alone: with scipy blocked from import, each of them must still succeed.
    import subprocess
    import sys
    base = ["--config", str(config_path)]
    grids = {"herald.width_min": "10 ps", "herald.width_max": "1 ns",
             "herald.width_points": "7", "herald.width": "100 ps",
             "herald.center_min": "-300 ps", "herald.center_max": "300 ps",
             "herald.center_points": "5",
             "landscape.tau_p_min": "10 fs", "landscape.tau_p_max": "1 ns",
             "landscape.tau_p_points": "20", "landscape.sigma_min": "10 GHz",
             "landscape.sigma_max": "10 THz", "landscape.sigma_points": "20"}
    for key, value in grids.items():
        base += ["--set", f"{key}={value}"]
    commands = [
        ["herald", *base, "--curve", "both"],
        ["optimize", *base],
        ["optimize", *base, "--fix-sigma"],
        ["landscape", *base, "--which", "tau1"],
        ["reproduce", "fig4"],
        ["reproduce", "fig5"],
        ["simulate", *base],
    ]
    script = ("import sys\n"
              "sys.modules['scipy'] = None\n"
              "import numpy as np\n"
              "import heraldtime, heraldtime.cli as cli\n"
              f"for i, argv in enumerate({commands!r}):\n"
              f"    out = {str(tmp_path)!r} + f'/{{i}}'\n"
              "    print('exit', argv[0], cli.main(argv + ['--out', out]))\n"
              "cov = heraldtime.TemporalCovariance(rho_t=0.6, tau1=2e-10,\n"
              "                                    tau2=3e-10)\n"
              "grid = np.linspace(-6e-10, 6e-10, 5)\n"
              "dens = [heraldtime.conditional_density(grid, 0.0, 1e-10, cov),\n"
              "        heraldtime.conditional_density(1e-10, 0.0, 1e-10, cov),\n"
              "        heraldtime.conditional_density(grid + 2.4e-9, 6e-9, 3e-11,\n"
              "                                       cov)]\n"
              "print('density', [float(d.min()) > 0 for d in dens])\n"
              "mean, std = heraldtime.conditional_moments(cov, 6e-9, 3e-11)\n"
              "print('moments', mean > 0, 0 < std < cov.tau1)\n")
    res = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    codes = [line.split()[1:] for line in lines if line.startswith("exit ")]
    assert codes == [[c[0], "0"] for c in commands], res.stdout + res.stderr
    assert lines[-2:] == ["density [True, True, True]",
                          "moments True True"], res.stdout + res.stderr


def test_fit_pipeline_runs_without_scipy(config_path, tmp_path):
    # simulate -> fit (both losses) -> empirical herald, and the bootstrap
    # of the fit, with scipy blocked from import: none of them may need it
    import subprocess
    import sys
    out = str(tmp_path)
    events = f"{out}/sim/events.csv"
    herald_grids = ["--set", "herald.width_min=50 ps",
                    "--set", "herald.width_max=2 ns",
                    "--set", "herald.width_points=6",
                    "--set", "herald.width=300 ps",
                    "--set", "herald.center_min=-200 ps",
                    "--set", "herald.center_max=200 ps",
                    "--set", "herald.center_points=5"]
    commands = [
        ["simulate", "--config", str(config_path), "--out", f"{out}/sim"],
        ["fit", events, "--out", f"{out}/fit"],
        ["fit", events, "--out", f"{out}/fit-ml", "--set", "fit.loss=ml"],
        ["herald", events, "--curve", "both", "--out", f"{out}/herald",
         *herald_grids],
    ]
    script = ("import sys\n"
              "sys.modules['scipy'] = None\n"
              "import heraldtime.cli as cli\n"
              f"for argv in {commands!r}:\n"
              "    print('exit', argv[0], cli.main(argv))\n"
              "from heraldtime import FitConfig, bootstrap_errors, read_events\n"
              f"events = read_events({events!r})\n"
              "for loss in ('hist-ls', 'ml'):\n"
              "    errors = bootstrap_errors(events, FitConfig(loss=loss), 3)\n"
              "    print('bootstrap', loss, errors['rho_t'] > 0)\n")
    res = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    codes = [line.split()[1:] for line in lines if line.startswith("exit ")]
    assert codes == [[c[0], "0"] for c in commands], res.stdout + res.stderr
    assert [line for line in lines if line.startswith("bootstrap ")] == [
        "bootstrap hist-ls True", "bootstrap ml True"]


def test_closed_form_herald_never_imports_numpy_random(config_path, tmp_path):
    # The closed-form error bars draw nothing, so reading events and the
    # herald statistics with n_boot=0, the herald command's default, must
    # not import numpy.random: on a NumPy that loads it lazily, that import
    # alone costs the herald command ~5 MiB of its peak memory.
    import subprocess
    import sys
    out = str(tmp_path)
    events = f"{out}/sim/events.csv"
    assert main(["simulate", "--config", str(config_path),
                 "--out", f"{out}/sim"]) == 0
    script = (
        "import sys\n"
        "import numpy\n"
        "if 'numpy.random' in sys.modules:\n"
        "    sys.exit(print('numpy imports numpy.random itself'))\n"
        "import heraldtime.cli as cli\n"
        "from heraldtime import read_events\n"
        "from heraldtime.herald import (HeraldWindow, centroid_curve,\n"
        "                               heralded_width, narrowing_curve)\n"
        f"es = read_events({events!r})\n"
        "heralded_width(es, HeraldWindow(0.0, 3e-10), n_boot=0)\n"
        "narrowing_curve(es, 0.0, [5e-11, 3e-10, 2e-9], n_boot=0)\n"
        "centroid_curve(es, 3e-10, [-2e-10, 0.0, 2e-10], n_boot=0)\n"
        f"code = cli.main(['herald', {events!r}, '--curve', 'both',\n"
        f"                 '--out', {out + '/herald'!r},\n"
        "                 '--set', 'herald.width_min=50 ps',\n"
        "                 '--set', 'herald.width_max=2 ns',\n"
        "                 '--set', 'herald.width_points=6',\n"
        "                 '--set', 'herald.width=300 ps',\n"
        "                 '--set', 'herald.center_min=-200 ps',\n"
        "                 '--set', 'herald.center_max=200 ps',\n"
        "                 '--set', 'herald.center_points=5'])\n"
        "print('exit', code, 'numpy.random' in sys.modules)\n")
    res = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    if res.stdout.startswith("numpy imports numpy.random itself"):
        pytest.skip(res.stdout.strip())  # NumPy < 2 loads it eagerly
    assert res.stdout.splitlines()[-1] == "exit 0 False", \
        res.stdout + res.stderr


def test_only_event_writes_import_the_row_formatter(config_path, tmp_path):
    # the shortest round-trip kernel and its tables load with the first
    # event write: importing the CLI, and every command that writes no
    # events, leaves it out
    import subprocess
    import sys
    out = str(tmp_path)
    events = f"{out}/sim/events.csv"
    assert main(["simulate", "--config", str(config_path),
                 "--out", f"{out}/sim"]) == 0
    base = ["--config", str(config_path)]
    grids = {"herald.width_min": "50 ps", "herald.width_max": "2 ns",
             "herald.width_points": "6", "herald.width": "300 ps",
             "herald.center_min": "-200 ps", "herald.center_max": "200 ps",
             "herald.center_points": "5",
             "landscape.tau_p_min": "10 fs", "landscape.tau_p_max": "1 ns",
             "landscape.tau_p_points": "8", "landscape.sigma_min": "10 GHz",
             "landscape.sigma_max": "10 THz", "landscape.sigma_points": "8"}
    for key, value in grids.items():
        base += ["--set", f"{key}={value}"]
    commands = [
        ["fit", events, "--out", f"{out}/fit"],
        ["herald", events, *base, "--curve", "both", "--out", f"{out}/herald"],
        ["optimize", *base, "--out", f"{out}/optimize"],
        ["landscape", *base, "--which", "tau1", "--out", f"{out}/landscape"],
    ]
    script = ("import sys\n"
              "import heraldtime.cli as cli\n"
              "print('loaded: import',\n"
              "      'heraldtime._shortest' in sys.modules)\n"
              f"for argv in {commands!r}:\n"
              "    code = cli.main(argv)\n"
              "    print('loaded:', argv[0], code,\n"
              "          'heraldtime._shortest' in sys.modules)\n")
    res = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    loaded = [line for line in res.stdout.splitlines()
              if line.startswith("loaded: ")]
    assert loaded == ["loaded: import False", "loaded: fit 0 False",
                      "loaded: herald 0 False", "loaded: optimize 0 False",
                      "loaded: landscape 0 False"], res.stdout + res.stderr


def test_fit_and_herald_never_import_numpy_ma(config_path, tmp_path):
    # np.percentile and np.unique import numpy.ma on NumPy >= 2, at a cost
    # of ~1.2 MiB and ~16 ms in each fresh process; the fit's percentile
    # box and the narrowing curve's width grid use neither
    import subprocess
    import sys
    out = str(tmp_path)
    events = f"{out}/sim/events.csv"
    assert main(["simulate", "--config", str(config_path),
                 "--out", f"{out}/sim"]) == 0
    commands = [
        ["fit", events, "--out", f"{out}/fit"],
        ["herald", events, "--curve", "both", "--out", f"{out}/herald",
         "--set", "herald.width_min=50 ps", "--set", "herald.width_max=2 ns",
         "--set", "herald.width_points=6", "--set", "herald.width=300 ps",
         "--set", "herald.center_min=-200 ps",
         "--set", "herald.center_max=200 ps",
         "--set", "herald.center_points=5"],
    ]
    for argv in commands:
        script = ("import sys\n"
                  "import numpy\n"
                  "if 'numpy.ma' in sys.modules:\n"
                  "    sys.exit(print('numpy imports numpy.ma itself'))\n"
                  "import heraldtime.cli as cli\n"
                  f"code = cli.main({argv!r})\n"
                  "print('exit', code, 'numpy.ma' in sys.modules)\n")
        res = subprocess.run([sys.executable, "-c", script],
                             capture_output=True, text=True, timeout=300)
        assert res.returncode == 0, res.stderr
        if res.stdout.startswith("numpy imports numpy.ma itself"):
            pytest.skip(res.stdout.strip())  # NumPy < 2 loads it eagerly
        assert res.stdout.splitlines()[-1] == "exit 0 False", \
            argv[0] + ": " + res.stdout + res.stderr
