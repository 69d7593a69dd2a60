"""Command-line surface: flags, exit codes, output formats, determinism."""

import contextlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cachegeo.analytic import (
    cache_hit_prob,
    content_outage,
    kappa,
    optimal_density,
    physical_content_outage,
)
from cachegeo import cli, model, simulate, sweep
from cachegeo.cli import build_parser, main
from cachegeo.model import (
    ParameterError,
    SystemParams,
    db_to_linear,
    validate,
)
from cachegeo.simulate import Estimate, SimConfig, estimate_cache_hit
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
    "simulate-emulated": ["simulate", *P_FLAGS, "--trials", "200", "--seed", "4"],
    "simulate-physical": ["simulate", *P_FLAGS, "--trials", "200", "--seed", "4",
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


def _with_gamma_db(value):
    return [*P_FLAGS[:4], f"--gamma-db={value}", *P_FLAGS[6:]]


@pytest.mark.parametrize(
    "argv, field",
    [
        # 10**(x/10) overflows a float above ~3083 dB and is no normal float below ~-3077 dB
        (["analytic", *_with_gamma_db(4000)], "gamma_db"),
        (["analytic", *_with_gamma_db(-4000)], "gamma_db"),
        (["sweep", *P_FLAGS, "--axis", "gamma-db", "--from", "0", "--to", "4000", "--steps", "2"],
         "gamma_db"),
        # a zero target needs no density, but the ratio must still be one
        (["plan", "--epsilon", "0", "--rth", "5", "--pc", "7"], "pc"),
        (["plan", "--epsilon", "0", "--rth", "5", "--pc", "nan"], "pc"),
        # the candidate mean of a link at r_th on the whole plane overflows to inf; it is
        # proportional to lambda_s, the field the run is refused in
        (["simulate", "--lambda", "1e-300", "--alpha", "3", "--gamma-db", "-10", "--rth", "1e308",
          "--d", "2", "--library", "100", "--trials", "5"], "lambda_s"),
    ],
    ids=["analytic-4000-dB", "analytic-minus-4000-dB", "sweep-to-4000-dB", "plan-pc-7",
         "plan-pc-nan", "simulate-default-window-overflows"],
)
def test_out_of_domain_input_exits_2_naming_its_field(argv, field, tmp_path, capsys):
    out_flags = ["--out", str(tmp_path)] if argv[0] == "sweep" else []
    assert main([*argv, *out_flags]) == 2
    captured = capsys.readouterr()
    assert f"(field: {field})" in captured.err and "Traceback" not in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("mode", [pytest.param(mode, id=f"plane-{mode}")
                                  for mode in ("emulated", "physical")])
def test_simulate_overflowing_reach_exits_2_naming_it(mode, capsys):
    # gamma**(1/alpha) * r_th = 7.2e142 * 1e200 m overflows a float
    argv = ["simulate", "--lambda", "1e-300", "--alpha", "2.1", "--gamma-db", "3000",
            "--rth", "1e200", "--d", "2", "--library", "100", "--trials", "50",
            "--mode", mode]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "reach gamma**(1/alpha) * r_th" in err and "overflows" in err
    assert "nan" not in err and err.endswith("(field: r_th)\n")


# above the point cap, 5.08e19 candidates on the whole plane
_CAP_FLAGS = ["--lambda", "1e10", "--alpha", "3", "--gamma-db", "80", "--rth", "50",
              "--d", "2", "--library", "100"]
# the reach gamma**(1/alpha) * r_th overflows a float
_REACH_FLAGS = ["--lambda", "1e-300", "--alpha", "2.1", "--gamma-db", "3000", "--rth", "1e200",
                "--d", "2", "--library", "100"]
# lambda_s*pc*pi*r_th**2 = 6.3e18 caching SBSs on the hit disc at pc = 0.02
_HIT_CAP = {"lambda_s": 1.0, "alpha": 3.0, "gamma": 0.1, "r_th": 1e10, "cache_size_d": 2,
            "library_size": 100}


@pytest.mark.parametrize("command, flags, field", [
    ("simulate", _CAP_FLAGS, "lambda_s"),
    ("simulate", [*_CAP_FLAGS, "--mode", "physical"], "lambda_s"),
    ("simulate", _REACH_FLAGS, "r_th"),
    ("simulate", [*_REACH_FLAGS, "--mode", "physical"], "r_th"),
    ("estimate_cache_hit", [], "lambda_s"),
    ("sweep", ["--lambda", "1", "--alpha", "3", "--gamma-db", "-10", "--rth", "1e10", "--d", "2",
               "--library", "100", "--quantity", "hit", "--axis", "pc", "--from", "0.02",
               "--to", "1", "--steps", "2", "--trials", "10"], "lambda_s"),
], ids=["plane-cap-emulated", "plane-cap-physical", "plane-reach-emulated",
        "plane-reach-physical", "hit-cap-estimator", "hit-cap-sweep-row"])
def test_a_refusal_names_an_input_the_run_set(command, flags, field, tmp_path, monkeypatch,
                                               capsys):
    # a cap is refused naming lambda_s, which the mean it caps is
    # proportional to, and every refusal comes before any block opens its stream
    def no_draw(*args):
        raise AssertionError("a block stream was opened")

    monkeypatch.setattr("cachegeo.simulate.trial_stream", no_draw)
    if command == "estimate_cache_hit":
        with pytest.raises(ParameterError) as excinfo:
            estimate_cache_hit(SystemParams(**_HIT_CAP), SimConfig(trials=10))
        named = [excinfo.value.field]
    elif command == "sweep":
        assert main(["sweep", *flags, "--out", str(tmp_path), "--name", "capped"]) == 0
        named = [row.error.split(":")[0] for row in read_json(tmp_path / "capped_0.json").rows]
    else:
        assert main(["simulate", *flags]) == 2
        named = re.findall(r"\(field: (\w+)\)", capsys.readouterr().err)
    assert named and set(named) == {field}


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
    argv = ["simulate", *P_FLAGS, "--trials", "300", "--seed", "12", "--json"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second


@pytest.mark.parametrize("mode", ["emulated", "physical"])
def test_simulate_json_key_layout_is_pinned(mode, capsys):
    # the benchmark's output checks (perfbench/checks.py) read these keys
    argv = ["simulate", *P_FLAGS, "--trials", "100", "--mode", mode, "--json"]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert list(payload) == ["params", "mode", "trials", "master_seed",
                             "analytic_content_outage", "estimate", "verdict"]
    assert list(payload["estimate"]) == ["mean", "ci_low", "ci_high", "confidence", "n",
                                         "n_discarded"]


def test_simulate_emulated_agrees_with_closed_form(capsys):
    rc = main(["simulate", *P_FLAGS, "--trials", "2000", "--seed", "3", "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "PASS"
    assert payload["analytic_content_outage"] == content_outage(REFERENCE)
    est = payload["estimate"]
    assert est["ci_low"] <= payload["analytic_content_outage"] <= est["ci_high"]


def test_simulate_physical_mode_reports_effective_samples(capsys):
    rc = main(["simulate", "--lambda", "0.3", "--alpha", "3", "--gamma-db", "-10",
               "--rth", "3", "--d", "4", "--library", "4", "--mode", "physical",
               "--trials", "300", "--seed", "2", "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["estimate"]["n"] + payload["estimate"]["n_discarded"] == 300


def test_simulate_physical_verdict_uses_the_physical_law(capsys):
    # judged against the emulated closed form, 0.6109, this run read FAIL:
    # its mean 0.4378 and interval [0.4198, 0.4559] miss it
    flags = ["--lambda", "0.1", "--alpha", "4", "--gamma-db", "0", "--rth", "5",
             "--d", "100", "--library", "100"]
    rc = main(["simulate", *flags, "--mode", "physical", "--trials", "5000", "--seed", "3",
               "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    params = validate(SystemParams(lambda_s=0.1, alpha=4.0, gamma=1.0, r_th=5.0,
                                   cache_size_d=100, library_size=100))
    assert payload["analytic_content_outage"] == physical_content_outage(params)
    assert payload["analytic_content_outage"] == pytest.approx(0.43968378532222907, rel=1e-12)
    assert payload["verdict"] == "PASS"


def test_simulate_degenerate_physical_exits_3(capsys):
    # hit probability 3.1e-11: a hit in 40 trials has probability 1.3e-9
    rc = main(["simulate", "--lambda", "1e-9", "--alpha", "3", "--gamma-db", "-10",
               "--rth", "1", "--d", "1", "--library", "100", "--mode", "physical",
               "--trials", "40", "--seed", "5"])
    assert rc == 3
    assert "effective sample size 0" in capsys.readouterr().err


def test_simulate_emulated_above_the_candidate_cap_exits_2_before_any_draw(monkeypatch, capsys):
    # at 80 dB the reach of a link at r_th is 464 * r_th: 5.08e19 candidates
    # per trial on the whole plane at lambda_s = 1e10, above what a count
    # draw takes, refused before any block opens its stream
    def no_draw(*args):
        raise AssertionError("a block stream was opened")

    monkeypatch.setattr("cachegeo.simulate.trial_stream", no_draw)
    rc = main(["simulate", *_CAP_FLAGS])
    assert rc == 2
    err = capsys.readouterr().err
    assert "5.08e+19 candidates" in err and "(field: lambda_s)" in err


@pytest.mark.parametrize("alpha", ["2.005", "2.1", "2.3"])
def test_simulate_near_pole_runs_at_a_50_m_window(alpha, capsys):
    # near alpha = 2 most of the interference comes from far away, and a
    # trial's candidates are drawn out to any distance; a 50 m window is
    # still accepted, and ignored
    argv = ["simulate", "--lambda", "0.1", "--alpha", alpha, "--gamma-db", "-10",
            "--rth", "5", "--d", "2", "--library", "100", "--json"]
    assert main([*argv, "--window", "50"]) == 0
    windowed = capsys.readouterr().out
    assert json.loads(windowed)["estimate"]["n"] == 5000
    assert main(argv) == 0
    assert capsys.readouterr().out == windowed


def test_simulate_near_pole_default_window_fits_a_small_run(capsys):
    # alpha = 2.5 runs on the whole plane, and reports no window
    rc = main(["simulate", "--lambda", "0.1", "--alpha", "2.5", "--gamma-db", "-10",
               "--rth", "5", "--d", "2", "--library", "100", "--trials", "5", "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert "window_radius" not in payload
    assert "truncation_bias" not in payload


@pytest.mark.parametrize("mode", ["emulated", "physical"])
def test_simulate_ignores_the_window_flag(mode, capsys):
    # every run samples the whole plane; --window is still accepted, and a
    # run with it prints the same bytes as the run without it
    argv = ["simulate", *P_FLAGS, "--trials", "300", "--seed", "9", "--mode", mode, "--json"]
    assert main(argv) == 0
    plane = capsys.readouterr()
    assert main([*argv, "--window", "100"]) == 0
    assert capsys.readouterr() == plane


@pytest.mark.parametrize(
    "extra",
    [["--alpha", "400"],
     ["--alpha", "400", "--mode", "physical"],
     ["--alpha", "500", "--mode", "physical"],
     ["--alpha", "1e308", "--gamma-db", "0", "--d", "1", "--library", "2"],
     ["--alpha", "1e308", "--gamma-db", "0", "--d", "1", "--library", "2", "--mode", "physical"]],
    ids=["emulated-400", "physical-400", "physical-500", "emulated-1e308", "physical-1e308"],
)
def test_simulate_at_huge_alpha_runs_cleanly(extra, capsys):
    # an interferer much nearer than the server makes its path gain
    # overflow a float at these exponents, and at alpha = 1e308 so do a
    # candidate's term and a field's sum, whose limit inf is exact; the run
    # must neither raise nor warn
    argv = ["simulate", "--lambda", "0.1", "--gamma-db", "-10", "--rth", "5", "--d", "2",
            "--library", "100", "--trials", "5000", *extra]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(argv)
    assert rc == 0
    assert capsys.readouterr().err == ""


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
    return ["simulate", *flags, "--trials", str(trials),
            "--seed", str(draw(st.integers(0, 2**64 - 1))),
            "--mode", draw(st.sampled_from(["emulated", "physical"]))]


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
               "--rth", "1e10", "--d", "2", "--library", "100", "--trials", "10",
               "--out", str(tmp_path), "--name", "huge"])
    assert rc == 0
    assert "3 cell(s) recorded errors" in capsys.readouterr().err
    rows = read_json(tmp_path / "huge_0.json").rows
    assert all(row.error.startswith("lambda_s: the disc of radius r_th")
               and "caching SBSs on average" in row.error and row.sim_mean is None
               for row in rows)


def test_table_into_a_regular_file_exits_2(tmp_path, capsys):
    # --out names an existing file, where no output directory can be made:
    # main turns the OSError into exit 2
    target = tmp_path / "taken"
    target.write_text("", encoding="utf-8")
    assert main(["figure", "--fig", "2", "--out", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err
    assert (captured.out, target.read_text(encoding="utf-8")) == ("", "")


def test_linear_grid_keeps_its_points_and_spans_the_float_range(tmp_path):
    # the benchmark's pc grid keeps the bytes of start + (stop - start) * i
    # / (steps - 1); where (stop - start) * i overflows, the points are
    # still the finite ones between the endpoints
    def grid(start, stop, steps):
        argv = ["sweep", f"--from={start!r}", f"--to={stop!r}", "--steps", str(steps)]
        return cli._grid_from_flags(build_parser().parse_args(argv))

    assert grid(0.02, 1.0, 50) == tuple(0.02 + (1.0 - 0.02) * i / 49 for i in range(50))
    assert grid(1.0, 1e308, 3) == (1.0, 5e307, 1e308)
    assert grid(-1e308, 1e308, 3) == (-1e308, 0.0, 1e308)
    rc = main(["sweep", "--axis", "rth", "--from", "1", "--to", "1e308", "--steps", "3",
               *P_FLAGS, "--out", str(tmp_path)])
    assert rc == 0


def test_log_grid_keeps_its_points_and_reaches_the_float_maximum(tmp_path):
    # a log grid keeps the bytes of 10 ** e for e = lo + (hi - lo) * i /
    # (steps - 1); where 10 ** e rounds past the float range, the point is
    # the larger endpoint scaled by 10 ** (e - its exponent)
    def grid(start, stop, steps):
        argv = ["sweep", "--log", f"--from={start!r}", f"--to={stop!r}", "--steps", str(steps)]
        return cli._grid_from_flags(build_parser().parse_args(argv))

    def powers(start, stop, steps):
        lo, hi = math.log10(start), math.log10(stop)
        return tuple(10 ** (lo + (hi - lo) * i / (steps - 1)) for i in range(steps))

    for start, stop, steps in ((1e-3, 1.0, 25), (1.0, 1e308, 7), (5e-324, 3.0, 4)):
        assert grid(start, stop, steps) == powers(start, stop, steps)
    top = sys.float_info.max
    assert grid(1.0, top, 3) == (1.0, 10 ** (math.log10(top) / 2), top)
    assert grid(top, 1.0, 3)[0] == top
    rc = main(["sweep", "--axis", "rth", "--log", "--from", "1", "--to", repr(top),
               "--steps", "3", *P_FLAGS, "--out", str(tmp_path)])
    assert rc == 0


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
        "sim": {"trials": 20, "master_seed": 3, **sim},
    }), encoding="utf-8")
    return config


@pytest.mark.parametrize("mode", [{}, {"mode": "emulated"}], ids=["absent", "emulated"])
def test_sweep_config_replays_emulated_or_modeless_sim(mode, tmp_path, capsys):
    rc = main(["sweep", "--config", str(_sim_config(tmp_path, **mode)),
               "--out", str(tmp_path)])
    assert rc == 0
    table = read_json(tmp_path / "mc_3.json")
    assert all(row.sim_mean is not None for row in table.rows)
    assert table.metadata["sim"] == {"trials": 20, "master_seed": 3}


def test_sweep_config_physical_mode_exits_2(tmp_path, capsys):
    config = _sim_config(tmp_path, mode="physical")
    rc = main(["sweep", "--config", str(config), "--out", str(tmp_path)])
    assert rc == 2
    assert "(field: mode)" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [config]  # no table written


def test_sweep_config_with_a_partial_grid_exits_2(tmp_path, capsys):
    # over a config's grid, --from without --to and --steps is refused
    config = _sim_config(tmp_path)
    rc = main(["sweep", "--config", str(config), "--from", "0.1", "--out", str(tmp_path)])
    assert rc == 2
    assert "(field: steps)" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [config]


def test_sweep_config_that_is_not_json_exits_2(tmp_path, capsys):
    config = tmp_path / "spec.json"
    config.write_text("{", encoding="utf-8")
    rc = main(["sweep", "--config", str(config), "--out", str(tmp_path)])
    assert rc == 2
    assert "(field: config)" in capsys.readouterr().err


@pytest.mark.parametrize(
    "section, field, value",
    [("base", "cache_size_d", 2.9), ("base", "library_size", 100.5),
     ("sim", "trials", 10.9), ("sim", "master_seed", 3.7)]
    + [(section, field, value)
       for section, field in (("base", "cache_size_d"), ("base", "library_size"),
                              ("sim", "trials"), ("sim", "master_seed"))
       for value in (True, False)],
)
def test_sweep_config_with_non_integer_count_exits_2(section, field, value, tmp_path, capsys):
    # a config integer is refused by name, never truncated into a run; a JSON
    # boolean is no count either, though Python's bool is an int
    config = _sim_config(tmp_path)
    data = json.loads(config.read_text())
    data[section][field] = value
    config.write_text(json.dumps(data), encoding="utf-8")
    rc = main(["sweep", "--config", str(config), "--out", str(tmp_path)])
    assert rc == 2
    assert f"(field: {field})" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [config]


# (where in the config, the field the refusal names): an axis or series value
# is checked in the domain of the field it sets
_REAL_CONFIG_FIELDS = [
    (("base", "lambda_s"), "lambda_s"), (("base", "alpha"), "alpha"),
    (("base", "gamma"), "gamma"), (("base", "r_th"), "r_th"),
    (("values", 0), "gamma_db"), (("series_values", 1), "pc"),
]
_HUGE = 10**400  # a JSON integer beyond the float range


@pytest.mark.parametrize(
    "path, field, value",
    [pytest.param(path, field, value, id=f"{path[0]}.{path[1]}-"
                  + ("10**400" if value is _HUGE else json.dumps(value)))
     for path, field in _REAL_CONFIG_FIELDS for value in (True, False, "0.1", None, _HUGE)],
)
def test_sweep_config_with_non_number_exits_2(path, field, value, tmp_path, capsys):
    # a JSON boolean, string or null is no number, though Python's bool is an
    # int and float("0.1") parses, and an integer beyond the float range is
    # no real; each is refused by name before any table is written
    config = _sim_config(tmp_path)
    data = {**json.loads(config.read_text()), "series_axis": "pc", "series_values": [0.02, 0.1]}
    section, key = path
    data[section][key] = value
    config.write_text(json.dumps(data), encoding="utf-8")
    rc = main(["sweep", "--config", str(config), "--out", str(tmp_path)])
    assert rc == 2
    assert f"(field: {field})" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [config]


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


@pytest.mark.parametrize(
    "edit, key",
    [(lambda c: {**c, "quantiy": "cache_hit"}, "quantiy"),
     (lambda c: {**c, "base": {**c["base"], "pc": 0.5}}, "base.pc"),
     (lambda c: {**c, "sim": {**c["sim"], "trails": 10}}, "sim.trails"),
     (lambda c: {**c, "sim": {**c["sim"], "window_radius": 50.0}}, "sim.window_radius")],
    ids=["top-level", "base", "sim", "sim-window-radius"],
)
def test_sweep_config_with_an_unknown_key_exits_2(edit, key, tmp_path, capsys):
    # a misspelt or retired key is refused by name, never dropped: with
    # sim.trails dropped the sweep would run the default 5000 trials a cell
    config = _sim_config(tmp_path)
    config.write_text(json.dumps(edit(json.loads(config.read_text()))), encoding="utf-8")
    rc = main(["sweep", "--config", str(config), "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"unknown key {key} " in err and err.endswith("(field: config)\n")
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


# flag value -> the range the generator draws its values from
_SWEEP_AXES = {
    "lambda-s": st.floats(1e-4, 1.0) | _TINY_EXPONENTS.map(lambda e: 10.0**e),
    "pc": st.floats(0.0, 1.0),
    "rth": st.floats(0.01, 20.0) | _TINY_EXPONENTS.map(lambda e: 10.0**e),
    "gamma-db": st.floats(-60.0, 80.0),
    "epsilon": st.floats(0.0, 0.99),
}


@st.composite
def sweep_argv(draw):
    params, flags = draw(model_flags())
    axis = draw(st.sampled_from(sorted(_SWEEP_AXES)))
    start, stop = sorted(draw(st.lists(_SWEEP_AXES[axis], min_size=2, max_size=2)))
    steps, log = draw(st.integers(1, 4)), draw(st.booleans())
    quantity = draw(st.sampled_from(["density"] if axis == "epsilon" else ["outage", "hit"])
                    | st.sampled_from(["outage", "hit", "density"]))
    # the NAME=VALUE form keeps a value such as -1e-05 from reading as a flag
    argv = ["sweep", *flags, "--axis", axis, f"--from={start!r}", f"--to={stop!r}",
            "--steps", str(steps), "--quantity", quantity, *(["--log"] if log else [])]
    if draw(st.booleans()):
        series_axis = draw(st.sampled_from(sorted(_SWEEP_AXES)))
        series = draw(st.lists(_SWEEP_AXES[series_axis], min_size=1, max_size=3))
        text = draw(st.just(",".join(map(repr, series)))
                    | st.sampled_from(["", "abc", "0.1,abc"]))
        argv += ["--series-axis", series_axis, f"--series-values={text}"]
    trials = draw(st.none() | st.integers(1, 20))
    seed = draw(st.none() | st.integers(0, 2**64 - 1))
    argv += [*(["--trials", str(trials)] if trials else []),
             *(["--seed", str(seed)] if seed is not None else [])]
    return argv


@st.composite
def figure_argv(draw):
    fig = draw(st.sampled_from(FIGURE_NUMBERS))
    argv = ["figure", "--fig", str(fig), "--seed", str(draw(st.integers(0, 2**64 - 1)))]
    trials = draw(st.none() | st.integers(1, 2))
    return argv if trials is None else [*argv, "--trials", str(trials)]


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


# what a field may be given, in a config file and as flag text: values that
# every domain refuses, and numbers that lie in some domains
_NEVER_NUMBERS = [True, False, math.nan, math.inf, -math.inf, "0.1", None]
_CONFIG_VALUES = st.sampled_from(
    _NEVER_NUMBERS + [1e308, 4000.0, -4000.0, 0, 1, 2, 0.02, 0.5, 3.0, 5.0, 100])
_NEVER_TEXT = ["true", "nan", "inf", "-inf", "abc", ""]
_FLAG_VALUES = st.sampled_from(
    _NEVER_TEXT + ["1e308", "4000", "-4000", "0", "1", "2", "0.02", "0.5", "3", "5", "100"])
# a valid grid of each axis, by config name and by flag value
_GRIDS = {"lambda_s": (0.01, 0.1), "pc": (0.02, 0.5), "r_th": (1.0, 5.0),
          "gamma_db": (-10.0, 0.0), "epsilon": (0.1, 0.5)}
_FLAG_AXES = {"lambda-s": "lambda_s", "pc": "pc", "rth": "r_th", "gamma-db": "gamma_db",
              "epsilon": "epsilon"}


@st.composite
def fuzzed_config(draw):
    """A valid sweep config with up to three of its numbers replaced by drawn values.

    Returns the config and whether a replaced value is one every domain refuses.
    """
    axis = draw(st.sampled_from(sorted(_GRIDS)))
    config = {"base": {"lambda_s": 0.1, "alpha": 3.0, "gamma": 0.1, "r_th": 5.0,
                       "cache_size_d": 2, "library_size": 100},
              "axis": axis, "values": list(_GRIDS[axis]),
              "quantity": "optimal_density" if axis == "epsilon"
              else draw(st.sampled_from(["content_outage", "cache_hit"]))}
    slots = [("base", key) for key in config["base"]] + [("values", 0), ("values", 1)]
    series_axis = draw(st.none() | st.sampled_from(sorted(set(_GRIDS) - {axis, "epsilon"})))
    if series_axis is not None:
        config.update(series_axis=series_axis, series_values=list(_GRIDS[series_axis]))
        slots.append(("series_values", 0))
    if axis != "epsilon" and draw(st.booleans()):
        config["sim"] = {"trials": 10, "master_seed": 3}
        slots += [("sim", key) for key in config["sim"]]
    refused = False
    for section, key in draw(st.lists(st.sampled_from(slots), max_size=3, unique=True)):
        value = config[section][key] = draw(_CONFIG_VALUES)
        # identity keeps 1 and True apart
        refused |= any(value is never for never in _NEVER_NUMBERS)
    return config, refused


@st.composite
def fuzzed_argv(draw):
    """A valid command with up to three of its flag values replaced by drawn text.

    Returns the argv and whether a replaced value is one every domain refuses.
    """
    model_flags = {"--lambda": "0.1", "--alpha": "3", "--gamma-db": "-10", "--rth": "5",
                   "--d": "2", "--library": "100"}
    sim_flags = {"--trials": "10", "--seed": "3"}
    command = draw(st.sampled_from(["analytic", "simulate", "plan", "sweep", "figure"]))
    unknown = draw(st.sampled_from(["--pc", "--lambda"]))
    flags = {
        "analytic": {**model_flags, "--epsilon": "0.5"},
        "simulate": {**model_flags, **sim_flags},
        "plan": {"--epsilon": "0.5", "--rth": "5", unknown: "0.1"},
        "sweep": {**model_flags, "--from": "", "--to": "", "--steps": "2", **sim_flags},
        "figure": {"--fig": "2", **sim_flags},
    }[command]
    extra = []
    if command == "simulate":
        extra = ["--mode", draw(st.sampled_from(["emulated", "physical"]))]
    if command == "sweep":
        axis = draw(st.sampled_from(sorted(_FLAG_AXES)))
        flags["--from"], flags["--to"] = map(repr, _GRIDS[_FLAG_AXES[axis]])
        extra = ["--axis", axis, "--quantity", "density" if axis == "epsilon" else "hit"]
        if axis == "epsilon":
            del flags["--trials"]
    refused = False
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), max_size=3, unique=True)):
        flags[flag] = draw(_FLAG_VALUES)
        refused |= flags[flag] in _NEVER_TEXT
    # the NAME=VALUE form keeps a value such as -4000 from reading as a flag
    return [command, *extra, *(f"{flag}={value}" for flag, value in flags.items())], refused


@settings(max_examples=200, deadline=None)
@given(drawn=fuzzed_config() | fuzzed_argv())
def test_no_refused_input_reaches_an_estimator(drawn):
    # every config and argv exits 0, 2 or 4 with no traceback, and exits 2
    # if it holds a value no domain admits; the estimators are stand-ins that
    # fail if a refused input reaches them, and a run that exits 2 called none
    source, refused = drawn
    calls = []

    def estimator(params, cfg):
        try:
            validate(params)
        except ParameterError as exc:
            raise AssertionError(f"a refused input reached an estimator: {exc}") from exc
        calls.append(params)
        return Estimate(0.5, 0.0, 1.0, 0.99, cfg.trials)

    with tempfile.TemporaryDirectory() as out, \
            mock.patch.object(simulate, "estimate_content_outage", estimator), \
            mock.patch.object(simulate, "estimate_physical", estimator), \
            mock.patch.object(simulate, "_cache_hit_estimates",
                              lambda cells, cfg: [estimator(params, cfg) for params in cells]):
        argv = source
        if isinstance(source, dict):
            config = Path(out) / "spec.json"
            config.write_text(json.dumps(source), encoding="utf-8")
            argv = ["sweep", "--config", str(config)]
        if argv[0] in ("sweep", "figure"):
            argv = [*argv, "--out", out]
        code, _, err = _run_main(argv)
    assert code == 2 if refused else code in (0, 2, 4), err
    assert "Traceback" not in err
    if code == 2:
        assert calls == []


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


# -- one parser per process ------------------------------------------------------


def _run_main(argv):
    """(exit code, stdout, stderr) of ``main(argv)``, an argparse exit included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_one_parser_serves_every_call_like_a_fresh_one(monkeypatch, tmp_path):
    out = str(tmp_path)
    argvs = [
        ["simulate", *P_FLAGS, "--mode", "nope"],  # argparse refuses it
        ["simulate", *P_FLAGS, "--trials", "0"],  # ParameterError
        ["--version"],
        ["simulate", *FAST_FLAGS, "--trials", "40", "--seed", "3", "--json"],
        # at pc = 0.5 a trial has a hit with probability 0.98
        ["simulate", *P_FLAGS, "--d", "50", "--mode", "physical", "--trials", "40", "--json"],
        ["sweep", *FAST_FLAGS, "--quantity", "hit", "--axis", "pc", "--from", "0.02",
         "--to", "1", "--steps", "3", "--trials", "10", "--out", out],
        ["plan", "--epsilon", "0.9", "--rth", "1", "--lambda", "0.01"],
    ]
    cli._parser.cache_clear()
    reused = [_run_main(argv) for argv in argvs]
    files = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    info = cli._parser.cache_info()
    assert (info.misses, info.hits) == (1, len(argvs) - 1)  # built once, then reused
    monkeypatch.setattr(cli, "_parser", build_parser)
    fresh = [_run_main(argv) for argv in argvs]
    assert reused == fresh
    assert [code for code, _, _ in reused] == [2, 2, 0, 0, 0, 0, 4]
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == files
    assert build_parser() is not build_parser()


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


def test_readme_inputs_table_matches_the_model_domains():
    # each row of the README's inputs table gives its field's kind and
    # interval as `model` writes them, in the same order
    rows = re.findall(r"^\| `(\w+)` \| (real|integer) in ([\[(])(\S+), (\S+?)([\])])",
                      README.read_text(encoding="utf-8"), re.M)
    bounds = {"∞": math.inf, "−∞": -math.inf, "2^64": 2**64}
    kinds = {"real": model._REAL, "integer": int}
    assert [row[0] for row in rows] == list(model._DOMAINS)
    for field, kind, left, low, high, right in rows:
        documented = (kinds[kind], bounds.get(low) or float(low), bounds.get(high) or float(high),
                      left + right)
        assert documented == model._DOMAINS[field], field


def test_readme_python_block_prints_its_documented_values():
    # each print of the quick start prints one line; a `# 0.1453...` comment
    # gives the leading digits of that line
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    prints = [line for line in block.splitlines() if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    lines = out.getvalue().splitlines()
    assert len(lines) == len(prints)
    documented = 0
    for line, printed in zip(prints, lines):
        value = re.search(r"#\s*(\d+\.\d+)\.\.\.", line)
        if value:
            documented += 1
            assert printed.startswith(value.group(1)), (line, printed)
    assert documented >= 3


# -- cold start -------------------------------------------------------------------

# Runs in a fresh interpreter: after the import and the parser, and after each
# step, it records the exit code and which of numpy, scipy and scipy's special,
# integrate and optimize modules are loaded (any scipy module loads scipy
# itself). Command output goes to a buffer, so the record is all that reaches
# stdout.
COLD_START = """
import contextlib, io, json, sys

def loaded_names():
    names = ("numpy", "scipy", "scipy.special", "scipy.integrate", "scipy.optimize")
    return [name for name in names if name in sys.modules]

import cachegeo, cachegeo.cli
cachegeo.cli.build_parser()
loaded = {"import": loaded_names()}
for label, argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cachegeo.cli.main(argv)
    loaded[label] = (rc, loaded_names())
print(json.dumps(loaded))
"""


def _cold_start(steps) -> dict:
    """The COLD_START record of ``steps``, run in order in one fresh interpreter."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    result = subprocess.run(
        [sys.executable, "-c", COLD_START, json.dumps(steps)],
        capture_output=True, text=True, env=env, check=True,
    )
    return json.loads(result.stdout)


def test_only_the_quadrature_loads_scipy(tmp_path):
    # numpy loads at the first step that samples, and stays loaded, so each
    # interpreter runs the steps that sample nothing before its first sampling step
    out = str(tmp_path)
    closed = [
        ("analytic", ["analytic", *P_FLAGS]),
        ("plan --pc", ["plan", "--epsilon", "0.5", "--rth", "5", "--pc", "0.02"]),
        ("plan --lambda", ["plan", "--epsilon", "0.5", "--rth", "5", "--lambda", "0.1"]),
        ("figure 2", ["figure", "--fig", "2", "--out", out]),
        # a density sweep has no Monte Carlo counterpart
        ("figure 8", ["figure", "--fig", "8", "--out", out]),
    ]
    sampling = [
        # rho is a series, and no mode needs a quadrature or a root find
        ("simulate", ["simulate", *P_FLAGS, "--trials", "8"]),
        # at pc = 0.5 a trial has a hit with probability 0.98, so 8 trials
        # are never all discarded
        ("simulate physical", ["simulate", *P_FLAGS, "--d", "50", "--trials", "8",
                               "--mode", "physical"]),
        # the benchmark's physical run, at the reference point
        ("simulate physical reference", ["simulate", *P_FLAGS, "--mode", "physical",
                                         "--trials", "300"]),
    ]
    sweep_hit = [
        ("sweep hit", ["sweep", *P_FLAGS, "--quantity", "hit", "--axis", "pc", "--from", "0.02",
                       "--to", "1", "--steps", "5", "--trials", "20", "--out", out]),
    ]
    loaded = _cold_start(closed + sampling)
    assert loaded.pop("import") == []
    assert loaded.pop("simulate physical reference") == [0, ["numpy"]]
    assert loaded.pop("simulate physical") == [0, ["numpy"]]
    assert loaded.pop("simulate") == [0, ["numpy"]]
    assert loaded == {label: [0, []] for label, _ in closed}
    assert _cold_start(sweep_hit) == {"import": [], "sweep hit": [0, ["numpy"]]}
