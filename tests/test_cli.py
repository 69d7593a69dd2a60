"""Command-line surface: flags, exit codes, output formats, determinism."""

import json
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cachegeo.analytic import (
    cache_hit_prob,
    content_outage,
    kappa,
    optimal_density,
    physical_content_outage,
)
from cachegeo.cli import build_parser, main
from cachegeo.model import (
    ParameterError,
    SystemParams,
    db_to_linear,
    validate,
    with_replication_ratio,
)
from cachegeo.sweep import FIGURE_NUMBERS, Axis, SweepSpec, read_json, spec_to_dict

P_FLAGS = [
    "--lambda", "0.1", "--alpha", "3", "--gamma-db", "-10",
    "--rth", "5", "--d", "2", "--library", "100",
]

FAST_FLAGS = [
    "--lambda", "0.01", "--alpha", "6", "--gamma-db", "-10",
    "--rth", "1", "--d", "2", "--library", "100",
]

REFERENCE = validate(
    SystemParams(
        lambda_s=0.1, alpha=3.0, gamma=db_to_linear(-10.0), r_th=5.0,
        cache_size_d=2, library_size=100,
    )
)


# -- analytic ---------------------------------------------------------------


def test_analytic_prints_reference_quantities(capsys):
    assert main(["analytic", *P_FLAGS]) == 0
    out = capsys.readouterr().out
    assert repr(0.02) in out
    assert repr(content_outage(REFERENCE)) in out
    assert repr(kappa(3.0)) in out


def test_analytic_json_carries_identical_numbers(capsys):
    assert main(["analytic", *P_FLAGS, "--epsilon", "0.5", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["replication_ratio"] == 0.02
    assert payload["kappa"] == kappa(3.0)
    assert payload["cache_hit_prob"] == cache_hit_prob(REFERENCE)
    assert payload["content_outage"] == content_outage(REFERENCE)
    assert payload["hit_target_feasible"] is False


def _dotted_leaves(payload: dict, prefix: str = ""):
    for key, value in payload.items():
        if isinstance(value, dict):
            yield from _dotted_leaves(value, f"{prefix}{key}.")
        else:
            yield prefix + key, value


REPORTS = {
    "analytic": ["analytic", *P_FLAGS],
    "analytic-epsilon": ["analytic", *P_FLAGS, "--epsilon", "0.5"],
    "simulate-emulated": ["simulate", *P_FLAGS, "--trials", "200", "--seed", "4", "--window", "20"],
    "simulate-physical": ["simulate", *P_FLAGS, "--trials", "200", "--seed", "4", "--window", "20",
                          "--mode", "physical"],
    "plan-pc": ["plan", "--epsilon", "0.9", "--pc", "0.1", "--rth", "10"],
    "plan-lambda": ["plan", "--epsilon", "0.9", "--lambda", "0.1", "--rth", "10"],
}


@pytest.mark.parametrize("argv", REPORTS.values(), ids=REPORTS.keys())
def test_analytic_human_and_json_agree(argv, capsys):
    # the text report has one line per leaf of the JSON object, in its
    # order: the dotted key, then the value, floats at full precision
    assert main(argv) == 0
    human = capsys.readouterr().out
    assert main([*argv, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    lines = [tuple(line.split(None, 1)) for line in human.splitlines()]
    assert lines == [(key, repr(value) if isinstance(value, float) else str(value))
                     for key, value in _dotted_leaves(payload)]


def test_analytic_outage_vanishes_at_tiny_threshold(capsys):
    assert main(["analytic", *P_FLAGS[:4], "--gamma-db", "-300",
                 *P_FLAGS[6:], "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["content_outage"] < 1e-9


def test_analytic_at_huge_threshold_distance(capsys):
    # r_th**2 overflows a float here; the hit is then certain and the outage
    # is its limit pc / (pc + kappa*gamma**(2/alpha))
    flags = [*P_FLAGS[:6], "--rth", "1e200", *P_FLAGS[8:], "--json"]
    assert main(["analytic", *flags]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["cache_hit_prob"] == 1.0
    limit = 1.0 - REFERENCE.pc / (REFERENCE.pc + kappa(3.0) * REFERENCE.gamma ** (2.0 / 3.0))
    assert payload["content_outage"] == pytest.approx(limit, rel=1e-12)


def test_analytic_at_tiny_threshold_distance(capsys):
    # lambda_s*pi*r_th**2 underflows to 0 here; the outage is its limit 0
    flags = [*P_FLAGS[:6], "--rth", "1e-200", *P_FLAGS[8:], "--json"]
    assert main(["analytic", *flags]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["cache_hit_prob"], payload["content_outage"]) == (0.0, 0.0)


@pytest.mark.parametrize("mode", ["emulated", "physical"])
def test_simulate_at_tiny_threshold_distance_exits_2(mode, capsys):
    # the serving-distance law cannot be normalised by a hit probability
    # that underflows: a named error before any draw, not a traceback
    flags = [*P_FLAGS[:6], "--rth", "1e-200", *P_FLAGS[8:]]
    assert main(["simulate", *flags, "--trials", "5", "--mode", mode]) == 2
    err = capsys.readouterr().err
    assert "(field: r_th)" in err and "Traceback" not in err


def test_analytic_validation_failure_exits_2(capsys):
    rc = main(["analytic", "--lambda", "0.1", "--alpha", "2", "--gamma-db", "-10",
               "--rth", "5", "--d", "2", "--library", "100"])
    assert rc == 2
    assert "alpha" in capsys.readouterr().err


# -- simulate ----------------------------------------------------------------


def test_simulate_defaults_to_5000_trials():
    args = build_parser().parse_args(["simulate", *P_FLAGS])
    assert args.trials == 5000
    assert args.mode == "emulated"


def test_simulate_default_trial_count_is_echoed(capsys):
    assert main(["simulate", *FAST_FLAGS, "--seed", "1", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["trials"] == 5000
    assert payload["estimate"]["n"] == 5000


def test_simulate_same_seed_twice_is_byte_identical(capsys):
    argv = ["simulate", *P_FLAGS, "--trials", "300", "--seed", "12",
            "--window", "60", "--json"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second


@pytest.mark.parametrize("mode", ["emulated", "physical"])
def test_simulate_json_key_layout_is_pinned(mode, capsys):
    # the benchmark's output checks (perfbench/checks.py) read these keys
    argv = ["simulate", *P_FLAGS, "--trials", "100", "--window", "20", "--mode", mode, "--json"]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert list(payload) == ["params", "mode", "trials", "master_seed", "window_radius",
                             "analytic_content_outage", "estimate", "verdict"]
    assert list(payload["estimate"]) == ["mean", "ci_low", "ci_high", "confidence", "n",
                                         "n_discarded"]


def test_simulate_emulated_agrees_with_closed_form(capsys):
    rc = main(["simulate", *P_FLAGS, "--trials", "2000", "--seed", "3",
               "--window", "100", "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "PASS"
    assert payload["analytic_content_outage"] == content_outage(REFERENCE)
    est = payload["estimate"]
    assert est["ci_low"] <= payload["analytic_content_outage"] <= est["ci_high"]


def test_simulate_physical_mode_reports_effective_samples(capsys):
    rc = main(["simulate", "--lambda", "0.3", "--alpha", "3", "--gamma-db", "-10",
               "--rth", "3", "--d", "4", "--library", "4", "--mode", "physical",
               "--trials", "300", "--seed", "2", "--window", "40", "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["estimate"]["n"] + payload["estimate"]["n_discarded"] == 300


def test_simulate_physical_verdict_uses_the_physical_law(capsys):
    # judged against the emulated closed form, 0.6109, this run read FAIL:
    # its mean 0.4338 and interval [0.4158, 0.4519] miss it
    flags = ["--lambda", "0.1", "--alpha", "4", "--gamma-db", "0", "--rth", "5",
             "--d", "100", "--library", "100"]
    rc = main(["simulate", *flags, "--mode", "physical", "--window", "80", "--trials", "5000",
               "--seed", "3", "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    params = validate(SystemParams(lambda_s=0.1, alpha=4.0, gamma=1.0, r_th=5.0,
                                   cache_size_d=100, library_size=100))
    assert payload["analytic_content_outage"] == physical_content_outage(params)
    assert payload["analytic_content_outage"] == pytest.approx(0.43968378532222907, rel=1e-12)
    assert payload["verdict"] == "PASS"


def test_simulate_degenerate_physical_exits_3(capsys):
    rc = main(["simulate", "--lambda", "0.01", "--alpha", "3", "--gamma-db", "-10",
               "--rth", "1", "--d", "1", "--library", "100", "--mode", "physical",
               "--trials", "40", "--seed", "5", "--window", "12"])
    assert rc == 3
    assert "effective sample size 0" in capsys.readouterr().err


def test_simulate_physical_oversized_window_exits_2_before_any_draw(monkeypatch, capsys):
    # a 20 km window holds 1.26e8 points per trial on average; physical mode
    # draws the r_th disc first, so the cap must hold the whole window to
    # account before any block opens its stream
    def no_draw(*args):
        raise AssertionError("a block stream was opened")

    monkeypatch.setattr("cachegeo.simulate.trial_stream", no_draw)
    rc = main(["simulate", *P_FLAGS, "--mode", "physical", "--window", "20000"])
    assert rc == 2
    assert "(field: window_radius)" in capsys.readouterr().err


@pytest.mark.parametrize("alpha", ["2.005", "2.1", "2.3"])
def test_simulate_near_pole_runs_at_a_50_m_window(alpha, capsys):
    # near alpha = 2 most of the interference comes from far away; the field
    # beyond the window is added in closed form, so a 50 m window suffices
    rc = main(["simulate", "--lambda", "0.1", "--alpha", alpha, "--gamma-db", "-10",
               "--rth", "5", "--d", "2", "--library", "100", "--window", "50", "--json"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["window_radius"] == 50.0


def test_simulate_near_pole_default_window_fits_a_small_run(capsys):
    # alpha = 2.5 runs at the default window of 10 * r_th
    rc = main(["simulate", "--lambda", "0.1", "--alpha", "2.5", "--gamma-db", "-10",
               "--rth", "5", "--d", "2", "--library", "100", "--trials", "5", "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["window_radius"] == 50.0
    assert "truncation_bias" not in payload


@pytest.mark.parametrize("mode", ["emulated", "physical"])
def test_simulate_window_below_threshold_distance_exits_2(mode, capsys):
    rc = main(["simulate", *P_FLAGS, "--trials", "5", "--mode", mode, "--window", "4.9"])
    assert rc == 2
    assert "(field: window_radius)" in capsys.readouterr().err


@pytest.mark.parametrize(
    "extra",
    [["--alpha", "400"],
     ["--alpha", "400", "--mode", "physical", "--window", "60"],
     ["--alpha", "500", "--mode", "physical", "--window", "60"]],
    ids=["emulated-400", "physical-400", "physical-500"],
)
def test_simulate_at_huge_alpha_runs_cleanly(extra, capsys):
    # an interferer much nearer than the server makes its path gain
    # overflow a float at these exponents; the run must neither raise nor warn
    argv = ["simulate", "--lambda", "0.1", "--gamma-db", "-10", "--rth", "5", "--d", "2",
            "--library", "100", "--trials", "5000", *extra]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(argv)
    assert rc == 0
    assert capsys.readouterr().err == ""


_FIELD_POINT_LIMIT = 2e5  # largest mean field a generated run may sample


# decimal exponents of a lambda_s or r_th down to 1e-300, where lambda_s*pi*r_th**2
# underflows to 0
_TINY_EXPONENTS = st.floats(-300.0, -4.0)


@st.composite
def model_flags(draw):
    """A valid parameter point and the six model flags that give it."""
    library = draw(st.integers(1, 1000))
    gamma_db = draw(st.floats(-60.0, 80.0))
    params = validate(SystemParams(
        lambda_s=10.0 ** draw(st.floats(-4.0, 0.0) | _TINY_EXPONENTS),
        alpha=draw(st.floats(2.05, 1000.0, exclude_min=True)),
        gamma=db_to_linear(gamma_db),
        r_th=10.0 ** draw(st.floats(-2.0, math.log10(20.0)) | _TINY_EXPONENTS),
        cache_size_d=draw(st.integers(0, library)),
        library_size=library,
    ))
    flags = ["--lambda", repr(params.lambda_s), "--alpha", repr(params.alpha),
             f"--gamma-db={gamma_db!r}", "--rth", repr(params.r_th),
             "--d", str(params.cache_size_d), "--library", str(library)]
    return params, flags


@st.composite
def simulate_argv(draw):
    params, flags = draw(model_flags())
    trials = draw(st.integers(1, 200))
    window = draw(st.none() | st.floats(0.5, 50.0).map(lambda k: k * params.r_th))
    radius = window or 10.0 * params.r_th
    assume(params.lambda_s * math.pi * radius**2 <= _FIELD_POINT_LIMIT)
    argv = ["simulate", *flags, "--trials", str(trials),
            "--seed", str(draw(st.integers(0, 2**64 - 1))),
            "--mode", draw(st.sampled_from(["emulated", "physical"]))]
    return argv if window is None else [*argv, "--window", repr(window)]


@settings(max_examples=60, deadline=None)
@given(argv=simulate_argv())
def test_simulate_exits_with_a_named_code(argv):
    # every documented input ends in success, a validation error, a
    # degenerate sample or an infeasible target, never an exception; a
    # RuntimeWarning is an error here too (pyproject.toml)
    assert main(argv) in (0, 2, 3, 4)


# -- sweep and figure -----------------------------------------------------------


def test_sweep_writes_requested_grid(tmp_path, capsys):
    rc = main(["sweep", "--axis", "gamma-db", "--from", "-20", "--to", "20",
               "--steps", "41", *P_FLAGS, "--out", str(tmp_path), "--name", "demo"])
    assert rc == 0
    out = capsys.readouterr().out
    assert str(tmp_path / "demo_0.csv") in out
    table = read_json(tmp_path / "demo_0.json")
    assert len(table.rows) == 41
    assert [r.axis_value for r in table.rows][:3] == [-20.0, -19.0, -18.0]


def test_sweep_records_oversized_fields_as_row_errors(tmp_path, capsys):
    rc = main(["sweep", "--quantity", "hit", "--axis", "pc", "--from", "0.02", "--to", "1",
               "--steps", "3", "--lambda", "1", "--alpha", "3", "--gamma-db", "-10",
               "--rth", "100000", "--d", "2", "--library", "100", "--trials", "10",
               "--out", str(tmp_path), "--name", "huge"])
    assert rc == 0
    assert "3 cell(s) recorded errors" in capsys.readouterr().err
    rows = read_json(tmp_path / "huge_0.json").rows
    assert all("window_radius" in row.error and row.sim_mean is None for row in rows)


def test_sweep_invalid_grid_exits_2(tmp_path):
    rc = main(["sweep", "--axis", "gamma-db", "--from", "-20", "--to", "20",
               "--steps", "0", *P_FLAGS, "--out", str(tmp_path)])
    assert rc == 2


def test_sweep_missing_flags_exit_2(tmp_path, capsys):
    rc = main(["sweep", "--axis", "gamma-db", "--out", str(tmp_path)])
    assert rc == 2
    assert "missing" in capsys.readouterr().err


def _write_config(tmp_path, spec):
    config = tmp_path / "spec.json"
    config.write_text(json.dumps(spec_to_dict(spec)), encoding="utf-8")
    return config


def test_sweep_config_file_with_flag_override(tmp_path, capsys):
    spec = SweepSpec(
        base=REFERENCE, axis=Axis.GAMMA_DB, values=(-10.0, 0.0), label="cfg"
    )
    config = _write_config(tmp_path, spec)
    rc = main(["sweep", "--config", str(config), "--out", str(tmp_path)])
    assert rc == 0
    capsys.readouterr()
    assert len(read_json(tmp_path / "cfg_0.json").rows) == 2
    # flags override the config grid
    rc = main(["sweep", "--config", str(config), "--from", "-20", "--to", "20",
               "--steps", "5", "--out", str(tmp_path), "--name", "cfg5"])
    assert rc == 0
    assert len(read_json(tmp_path / "cfg5_0.json").rows) == 5


def test_sweep_model_flags_override_the_config_base(tmp_path, capsys):
    spec = SweepSpec(base=REFERENCE, axis=Axis.GAMMA_DB, values=(-10.0, 0.0), label="cfg")
    rc = main(["sweep", "--config", str(_write_config(tmp_path, spec)),
               "--lambda", "0.5", "--rth", "9", "--out", str(tmp_path)])
    assert rc == 0
    base = read_json(tmp_path / "cfg_0.json").metadata["base_params"]
    assert (base["lambda_s"], base["r_th"]) == (0.5, 9.0)
    assert base["alpha"] == 3.0  # a field without a flag keeps its config value


def test_sweep_series_axis_flag_overrides_only_the_axis(tmp_path, capsys):
    spec = SweepSpec(base=REFERENCE, axis=Axis.GAMMA_DB, values=(-10.0, 0.0),
                     series_axis=Axis.PC, series_values=(0.02, 0.5), label="cfg")
    rc = main(["sweep", "--config", str(_write_config(tmp_path, spec)),
               "--series-axis", "rth", "--out", str(tmp_path)])
    assert rc == 0
    table = read_json(tmp_path / "cfg_0.json")
    assert table.metadata["series_axis"] == "r_th"
    assert sorted({row.series_value for row in table.rows}) == [0.02, 0.5]


@pytest.mark.parametrize("values", ["0.1,abc", ""])
def test_sweep_non_numeric_series_values_exit_2(values, tmp_path, capsys):
    rc = main(["sweep", "--axis", "gamma-db", "--from", "-20", "--to", "20", "--steps", "3",
               *P_FLAGS, "--series-axis", "pc", "--series-values", values,
               "--out", str(tmp_path)])
    assert rc == 2
    assert "(field: series)" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def _sim_config(tmp_path, **sim):
    config = tmp_path / "spec.json"
    config.write_text(json.dumps({
        "base": {"lambda_s": 0.1, "alpha": 3.0, "gamma": 0.1, "r_th": 5.0,
                 "cache_size_d": 2, "library_size": 100},
        "axis": "gamma_db", "values": [-10.0, 0.0], "label": "mc",
        "sim": {"trials": 20, "master_seed": 3, "window_radius": 50.0, **sim},
    }), encoding="utf-8")
    return config


@pytest.mark.parametrize("mode", [{}, {"mode": "emulated"}], ids=["absent", "emulated"])
def test_sweep_config_replays_emulated_or_modeless_sim(mode, tmp_path, capsys):
    rc = main(["sweep", "--config", str(_sim_config(tmp_path, **mode)),
               "--out", str(tmp_path)])
    assert rc == 0
    table = read_json(tmp_path / "mc_3.json")
    assert all(row.sim_mean is not None for row in table.rows)
    assert table.metadata["sim"] == {"trials": 20, "master_seed": 3, "window_radius": 50.0}


def test_sweep_config_physical_mode_exits_2(tmp_path, capsys):
    config = _sim_config(tmp_path, mode="physical")
    rc = main(["sweep", "--config", str(config), "--out", str(tmp_path)])
    assert rc == 2
    assert "(field: mode)" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [config]  # no table written


def test_sweep_config_that_is_not_json_exits_2(tmp_path, capsys):
    config = tmp_path / "spec.json"
    config.write_text("{", encoding="utf-8")
    rc = main(["sweep", "--config", str(config), "--out", str(tmp_path)])
    assert rc == 2
    assert "(field: config)" in capsys.readouterr().err


@pytest.mark.parametrize(
    "edit",
    [lambda c: [c], lambda c: {**c, "sim": 5}, lambda c: {**c, "base": [1]},
     lambda c: {**c, "values": "12"}],
    ids=["top-level-list", "sim-number", "base-list", "values-string"],
)
def test_sweep_config_with_non_object_fields_exits_2(edit, tmp_path, capsys):
    config = _sim_config(tmp_path)
    config.write_text(json.dumps(edit(json.loads(config.read_text()))), encoding="utf-8")
    rc = main(["sweep", "--config", str(config), "--out", str(tmp_path)])
    assert rc == 2
    assert "(field: config)" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [config]


def test_hit_sweep_at_tiny_threshold_distance(tmp_path, capsys):
    # lambda_s*pi*r_th**2 underflows to 0 in every cell: no field holds a
    # point, so the hit is 0 in closed form and in every estimate
    rc = main(["sweep", "--lambda", "5", "--alpha", "3", "--gamma-db", "0", "--rth", "1e-300",
               "--d", "1", "--library", "100", "--axis", "lambda-s", "--from", "0.01",
               "--to", "100", "--steps", "3", "--quantity", "hit", "--trials", "3",
               "--out", str(tmp_path)])
    assert rc == 0
    table = read_json(tmp_path / "sweep_0.json")
    assert [(row.analytic, row.sim_mean) for row in table.rows] == [(0.0, 0.0)] * 3


def test_figure_preset_writes_named_files(tmp_path, capsys):
    rc = main(["figure", "--fig", "2", "--seed", "7", "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "fig2_7.csv").exists()
    table = read_json(tmp_path / "fig2_7.json")
    series = {row.series_value for row in table.rows}
    assert series == {0.02, 0.1, 0.5}
    for sv in series:
        curve = [r.analytic for r in table.rows if r.series_value == sv]
        assert all(b >= a - 1e-12 for a, b in zip(curve, curve[1:]))


def test_figure_eight_has_no_sim_columns(tmp_path, capsys):
    rc = main(["figure", "--fig", "8", "--out", str(tmp_path)])
    assert rc == 0
    table = read_json(tmp_path / "fig8_0.json")
    assert all(row.sim_mean is None for row in table.rows)
    assert all(row.analytic > 0 for row in table.rows)


def test_figure_preset_with_trials_attaches_sim(tmp_path, capsys):
    rc = main(["figure", "--fig", "8", "--trials", "10", "--out", str(tmp_path)])
    assert rc == 2  # density presets have no Monte Carlo counterpart


def test_figure_preset_with_window_alone_attaches_sim(tmp_path, capsys):
    # --window attaches Monte Carlo columns as --trials does
    rc = main(["figure", "--fig", "8", "--window", "100", "--out", str(tmp_path)])
    assert rc == 2
    assert "(field: sim)" in capsys.readouterr().err


_SWEEP_POINT_LIMIT = 4e6  # most points a generated sweep may sample over all its cells

# flag value -> (range the generator draws from, the cell parameters it sets)
_SWEEP_AXES = {
    "lambda-s": (st.floats(1e-4, 1.0) | _TINY_EXPONENTS.map(lambda e: 10.0**e),
                 lambda p, v: replace(p, lambda_s=v)),
    "pc": (st.floats(0.0, 1.0), with_replication_ratio),
    "rth": (st.floats(0.01, 20.0) | _TINY_EXPONENTS.map(lambda e: 10.0**e),
            lambda p, v: replace(p, r_th=v)),
    "gamma-db": (st.floats(-60.0, 80.0), lambda p, v: replace(p, gamma=db_to_linear(v))),
    "epsilon": (st.floats(0.0, 0.99), lambda p, v: p),
}


def _cell_points(params, trials, window):
    """Mean points a Monte Carlo cell samples; 0 where the cell is refused before any draw."""
    try:
        params = validate(params)
    except ParameterError:
        return 0.0
    # a cache-hit cell samples the r_th disc even where the outage window is refused
    radius = max(window or 10.0 * params.r_th, params.r_th)
    return trials * params.lambda_s * math.pi * radius**2


@st.composite
def sweep_argv(draw):
    params, flags = draw(model_flags())
    axis = draw(st.sampled_from(sorted(_SWEEP_AXES)))
    axis_range, set_axis = _SWEEP_AXES[axis]
    start, stop = sorted(draw(st.lists(axis_range, min_size=2, max_size=2)))
    steps, log = draw(st.integers(1, 4)), draw(st.booleans())
    quantity = draw(st.sampled_from(["density"] if axis == "epsilon" else ["outage", "hit"])
                    | st.sampled_from(["outage", "hit", "density"]))
    # the NAME=VALUE form keeps a value such as -1e-05 from reading as a flag
    argv = ["sweep", *flags, "--axis", axis, f"--from={start!r}", f"--to={stop!r}",
            "--steps", str(steps), "--quantity", quantity, *(["--log"] if log else [])]
    curves = [params]
    if draw(st.booleans()):
        series_axis = draw(st.sampled_from(sorted(_SWEEP_AXES)))
        series_range, set_series = _SWEEP_AXES[series_axis]
        series = draw(st.lists(series_range, min_size=1, max_size=3))
        text = draw(st.just(",".join(map(repr, series)))
                    | st.sampled_from(["", "abc", "0.1,abc"]))
        argv += ["--series-axis", series_axis, f"--series-values={text}"]
        curves = [set_series(params, v) for v in series]
    trials = draw(st.none() | st.integers(1, 20))
    window = draw(st.none() | st.floats(0.5, 50.0).map(lambda k: k * params.r_th))
    seed = draw(st.none() | st.integers(0, 2**64 - 1))
    argv += [*(["--trials", str(trials)] if trials else []),
             *(["--window", repr(window)] if window else []),
             *(["--seed", str(seed)] if seed is not None else [])]
    if (trials or window) and not (log and start <= 0.0):
        # --window alone attaches Monte Carlo columns at the default 5000 trials
        if steps == 1:
            values = [start]
        elif log:
            lo, hi = math.log10(start), math.log10(stop)
            values = [10 ** (lo + (hi - lo) * i / (steps - 1)) for i in range(steps)]
        else:
            values = [start + (stop - start) * i / (steps - 1) for i in range(steps)]
        points = 0.0
        for curve in curves:
            for value in values:
                try:
                    cell = set_axis(curve, value)
                except ParameterError:
                    continue
                points += _cell_points(cell, trials or 5000, window)
        assume(points <= _SWEEP_POINT_LIMIT)
    return argv


@st.composite
def figure_argv(draw):
    fig = draw(st.sampled_from(FIGURE_NUMBERS))
    argv = ["figure", "--fig", str(fig), "--seed", str(draw(st.integers(0, 2**64 - 1)))]
    trials = draw(st.none() | st.integers(1, 2))
    if trials is not None:
        argv += ["--trials", str(trials)]
    # a window alone would attach 5000 trials per cell; the density presets refuse it
    if trials is not None or fig in (8, 9):
        window = draw(st.none() | st.floats(0.5, 100.0))
        argv += [] if window is None else ["--window", repr(window)]
    return argv


@st.composite
def plan_argv(draw):
    numbers = st.floats(-0.5, 1.5) | st.sampled_from([0.0, 1.0, math.inf, math.nan])
    unknown = draw(st.sampled_from(["--pc", "--lambda"]))
    return ["plan", f"--epsilon={draw(numbers)!r}", f"--rth={100.0 * draw(numbers)!r}",
            f"{unknown}={draw(numbers)!r}", *(["--json"] if draw(st.booleans()) else [])]


@st.composite
def analytic_argv(draw):
    _, flags = draw(model_flags())
    epsilon = draw(st.none() | st.floats(-0.5, 1.5))
    return ["analytic", *flags, *([] if epsilon is None else [f"--epsilon={epsilon!r}"]),
            *(["--json"] if draw(st.booleans()) else [])]


@settings(max_examples=40, deadline=None)
@given(argv=sweep_argv() | figure_argv() | plan_argv() | analytic_argv())
def test_sweep_figure_plan_analytic_exit_with_a_named_code(argv):
    # as for simulate: a named exit code for every generated input, never an
    # exception or a RuntimeWarning
    with tempfile.TemporaryDirectory() as out:
        out_flags = ["--out", out] if argv[0] in ("sweep", "figure") else []
        assert main([*argv, *out_flags]) in (0, 2, 3, 4)


# -- plan -------------------------------------------------------------------------


def test_plan_density_matches_inverse_formula(capsys):
    assert main(["plan", "--epsilon", "0.9", "--pc", "0.1", "--rth", "10"]) == 0
    out = capsys.readouterr().out
    assert repr(optimal_density(0.9, 0.1, 10.0)) in out


def test_plan_zero_target_needs_no_density(capsys):
    assert main(["plan", "--epsilon", "0", "--pc", "0.1", "--rth", "10"]) == 0
    assert repr(0.0) in capsys.readouterr().out


def test_plan_bounds_path_reports_interval(capsys):
    rc = main(["plan", "--epsilon", "0.9", "--lambda", "0.1", "--rth", "10", "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["feasible"] is True
    assert 0.0 < payload["pc_lower"] < 1.0
    assert math.isclose(
        payload["pc_required"] * 0.1 * math.pi * 100.0, -math.log1p(-0.9), rel_tol=1e-12
    )


def test_plan_infeasible_exits_4(capsys):
    rc = main(["plan", "--epsilon", "0.9", "--lambda", "0.01", "--rth", "1"])
    assert rc == 4
    captured = capsys.readouterr()
    assert "infeasible" in captured.err
    assert "73.29" in captured.out


def test_plan_at_huge_threshold_distance(capsys):
    # r_th**2 overflows a float here; any replication ratio reaches the target
    rc = main(["plan", "--epsilon", "0.5", "--lambda", "0.1", "--rth", "1e200", "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["feasible"] is True
    assert payload["pc_lower"] == 0.0
    assert main(["plan", "--epsilon", "0.5", "--pc", "0.1", "--rth", "1e200"]) == 0
    assert repr(0.0) in capsys.readouterr().out


def test_plan_requires_exactly_one_unknown():
    with pytest.raises(SystemExit) as excinfo:
        main(["plan", "--epsilon", "0.9", "--rth", "10"])
    assert excinfo.value.code == 2


# -- README ----------------------------------------------------------------------

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_commands_exit_with_their_documented_codes(tmp_path, capsys):
    # every `cachegeo ...` line of the README's sh blocks, continuation lines
    # joined, exits 0 unless its comment says "exits N"; --out goes to tmp_path
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S):
        for line in block.replace("\\\n", " ").splitlines():
            command, _, comment = line.partition("#")
            if command.startswith("cachegeo "):
                documented = re.search(r"exits (\d)", comment)
                commands.append((shlex.split(command)[1:],
                                 int(documented.group(1)) if documented else 0))
    assert len(commands) >= 6
    for argv, code in commands:
        if "--out" in argv:
            argv[argv.index("--out") + 1] = str(tmp_path)
        assert main(argv) == code, argv
        capsys.readouterr()


# -- cold start -------------------------------------------------------------------

# Runs in a fresh interpreter: after each step it records the exit code and
# which of scipy and its special, integrate and optimize modules are loaded
# (any scipy module loads scipy itself). Command output goes to a buffer, so
# the record is all that reaches stdout.
COLD_START = """
import contextlib, io, json, sys

def scipy_loaded():
    names = ("scipy", "scipy.special", "scipy.integrate", "scipy.optimize")
    return [name for name in names if name in sys.modules]

import cachegeo, cachegeo.cli
loaded = {"import": scipy_loaded()}
for label, argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cachegeo.cli.main(argv)
    loaded[label] = (rc, scipy_loaded())
print(json.dumps(loaded))
"""


def test_only_window_solves_load_scipy(tmp_path):
    out = str(tmp_path)
    steps = [
        ("analytic", ["analytic", *P_FLAGS]),
        ("plan --pc", ["plan", "--epsilon", "0.5", "--rth", "5", "--pc", "0.02"]),
        ("plan --lambda", ["plan", "--epsilon", "0.5", "--rth", "5", "--lambda", "0.1"]),
        ("figure 2", ["figure", "--fig", "2", "--out", out]),
        ("sweep hit", ["sweep", *P_FLAGS, "--quantity", "hit", "--axis", "pc", "--from", "0.02",
                       "--to", "1", "--steps", "5", "--trials", "20", "--out", out]),
        # the far field beyond the window needs scipy.special's hyp2f1, and
        # nothing in either mode needs a quadrature or a root find
        ("simulate", ["simulate", *P_FLAGS, "--trials", "8"]),
        ("simulate physical", ["simulate", *P_FLAGS, "--trials", "8", "--mode", "physical"]),
    ]
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    result = subprocess.run(
        [sys.executable, "-c", COLD_START, json.dumps(steps)],
        capture_output=True, text=True, env=env, check=True,
    )
    loaded = json.loads(result.stdout)
    assert loaded.pop("import") == []
    assert loaded.pop("simulate") == [0, ["scipy", "scipy.special"]]
    assert loaded.pop("simulate physical") == [0, ["scipy", "scipy.special"]]
    assert loaded == {label: [0, []] for label, _ in steps[:-2]}
