"""Command-line surface: flags, exit codes, output formats, determinism."""

import json
import math
import warnings

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cachegeo.analytic import cache_hit_prob, content_outage, kappa, optimal_density
from cachegeo.cli import build_parser, main
from cachegeo.model import ParameterError, SystemParams, db_to_linear, validate
from cachegeo.simulate import TruncationWindowWarning, recommended_window_radius
from cachegeo.sweep import read_json

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


def test_analytic_human_and_json_agree(capsys):
    main(["analytic", *P_FLAGS])
    human = capsys.readouterr().out
    main(["analytic", *P_FLAGS, "--json"])
    payload = json.loads(capsys.readouterr().out)
    for key in ("kappa", "cache_hit_prob", "content_outage"):
        assert repr(payload[key]) in human


def test_analytic_outage_vanishes_at_tiny_threshold(capsys):
    assert main(["analytic", *P_FLAGS[:4], "--gamma-db", "-300",
                 *P_FLAGS[6:], "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["content_outage"] < 1e-9


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
def test_simulate_unbounded_default_window_exits_2(alpha, capsys):
    # below alpha ~ 2.41 no window of at most 5e7 points per trial meets the
    # truncation-bias budget of the default 5000 trials; each run is refused
    # before any field is drawn
    rc = main(["simulate", "--lambda", "0.1", "--alpha", alpha, "--gamma-db", "-10",
               "--rth", "5", "--d", "2", "--library", "100"])
    assert rc == 2
    assert "(field: window_radius)" in capsys.readouterr().err


def test_simulate_near_pole_default_window_fits_a_small_run(capsys):
    # five trials have a loose budget: alpha = 2.5 runs at the 50 m floor
    rc = main(["simulate", "--lambda", "0.1", "--alpha", "2.5", "--gamma-db", "-10",
               "--rth", "5", "--d", "2", "--library", "100", "--trials", "5", "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["window_radius"] == 50.0
    assert 0.0 < payload["truncation_bias"] < 0.1


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


@st.composite
def simulate_argv(draw):
    library = draw(st.integers(1, 1000))
    gamma_db = draw(st.floats(-60.0, 80.0))
    params = validate(SystemParams(
        lambda_s=10.0 ** draw(st.floats(-4.0, 0.0)),
        alpha=draw(st.floats(2.05, 1000.0, exclude_min=True)),
        gamma=db_to_linear(gamma_db),
        r_th=10.0 ** draw(st.floats(-2.0, math.log10(20.0))),
        cache_size_d=draw(st.integers(0, library)),
        library_size=library,
    ))
    trials = draw(st.integers(1, 200))
    window = draw(st.none() | st.floats(0.5, 50.0).map(lambda k: k * params.r_th))
    try:
        radius = window or recommended_window_radius(params, trials)
    except ParameterError:
        radius = 0.0  # the run exits 2 before drawing a field
    assume(params.lambda_s * math.pi * radius**2 <= _FIELD_POINT_LIMIT)
    argv = ["simulate", "--lambda", repr(params.lambda_s), "--alpha", repr(params.alpha),
            f"--gamma-db={gamma_db!r}", "--rth", repr(params.r_th),
            "--d", str(params.cache_size_d), "--library", str(library),
            "--trials", str(trials), "--seed", str(draw(st.integers(0, 2**64 - 1))),
            "--mode", draw(st.sampled_from(["emulated", "physical"]))]
    return argv if window is None else [*argv, "--window", repr(window)]


@settings(max_examples=60, deadline=None)
@given(argv=simulate_argv())
def test_simulate_exits_with_a_named_code(argv):
    # every documented input ends in success, a validation error, a
    # degenerate sample or an infeasible target, never an exception; a
    # RuntimeWarning is an error here too (pyproject.toml)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWindowWarning)  # narrow explicit windows
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


def test_sweep_config_file_with_flag_override(tmp_path, capsys):
    from cachegeo.sweep import Axis, SweepSpec, spec_to_dict

    spec = SweepSpec(
        base=REFERENCE, axis=Axis.GAMMA_DB, values=(-10.0, 0.0), label="cfg"
    )
    config = tmp_path / "spec.json"
    config.write_text(json.dumps(spec_to_dict(spec)), encoding="utf-8")
    rc = main(["sweep", "--config", str(config), "--out", str(tmp_path)])
    assert rc == 0
    capsys.readouterr()
    assert len(read_json(tmp_path / "cfg_0.json").rows) == 2
    # flags override the config grid
    rc = main(["sweep", "--config", str(config), "--from", "-20", "--to", "20",
               "--steps", "5", "--out", str(tmp_path), "--name", "cfg5"])
    assert rc == 0
    assert len(read_json(tmp_path / "cfg5_0.json").rows) == 5


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


def test_plan_requires_exactly_one_unknown():
    with pytest.raises(SystemExit) as excinfo:
        main(["plan", "--epsilon", "0.9", "--rth", "10"])
    assert excinfo.value.code == 2

