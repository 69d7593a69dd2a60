"""Sweep runner, figure presets, and table emission."""

import io
import json
import time
from dataclasses import replace
from pathlib import Path

import pytest

from cachegeo.model import ParameterError, SystemParams, db_to_linear
from cachegeo.simulate import SimConfig
from cachegeo.sweep import (
    Axis,
    CSV_HEADER,
    FIGURE_NUMBERS,
    Quantity,
    SweepSpec,
    emit_csv,
    emit_json,
    figure_preset,
    read_json,
    run_sweep,
    spec_from_dict,
    spec_to_dict,
    validate_spec,
)

GOLDEN = Path(__file__).parent / "data" / "fig2_7.csv"
PRESETS = Path(__file__).parent / "data" / "presets.json"

BASE = SystemParams(
    lambda_s=0.1, alpha=3.0, gamma=db_to_linear(-10.0), r_th=5.0,
    cache_size_d=2, library_size=100,
)


def gamma_spec(**overrides):
    spec = SweepSpec(
        base=BASE,
        axis=Axis.GAMMA_DB,
        values=tuple(float(v) for v in range(-20, 22, 2)),
    )
    return replace(spec, **overrides) if overrides else spec


# -- runner ------------------------------------------------------------------


def test_analytic_only_sweep_is_fast_and_simless():
    start = time.perf_counter()
    table = run_sweep(gamma_spec())
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    assert len(table.rows) == 21
    assert all(row.sim_mean is None and row.ci_low is None for row in table.rows)
    values = [row.analytic for row in table.rows]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def test_sweep_rows_follow_axis_order_per_series():
    spec = gamma_spec(series_axis=Axis.PC, series_values=(0.02, 0.5))
    table = run_sweep(spec)
    assert len(table.rows) == 42
    assert [row.series_value for row in table.rows[:21]] == [0.02] * 21
    assert [row.axis_value for row in table.rows[:21]] == list(spec.values)


def test_sweep_with_sim_is_deterministic():
    spec = gamma_spec(
        values=(-10.0, 0.0),
        sim=SimConfig(trials=150, master_seed=5, window_radius=60.0),
    )
    assert run_sweep(spec) == run_sweep(spec)
    table = run_sweep(spec)
    assert all(row.sim_mean is not None for row in table.rows)
    assert all(row.ci_low <= row.sim_mean <= row.ci_high for row in table.rows)


def test_cell_domain_error_recorded_without_aborting():
    spec = SweepSpec(base=BASE, axis=Axis.PC, values=(0.0, 0.02, 0.1))
    table = run_sweep(spec)
    assert table.error_count == 1
    failed, ok1, ok2 = table.rows
    assert failed.analytic is None and failed.error
    assert ok1.analytic is not None and ok1.error is None
    assert ok2.analytic is not None


def test_hit_quantity_tracks_analytic_value():
    spec = SweepSpec(
        base=BASE,
        axis=Axis.R_TH,
        values=(5.0, 10.0),
        quantity=Quantity.CACHE_HIT,
        sim=SimConfig(trials=400, master_seed=8),
    )
    table = run_sweep(spec)
    for row in table.rows:
        assert row.ci_low - 0.05 <= row.analytic <= row.ci_high + 0.05


@pytest.mark.parametrize(
    "broken",
    [
        dict(values=()),
        dict(values=(1.0, 1.0)),
        dict(values=(2.0, 1.0)),
        dict(series_axis=Axis.PC),
        dict(series_axis=Axis.PC, series_values=()),
        dict(series_axis=Axis.GAMMA_DB, series_values=(1.0,)),
        dict(series_axis=Axis.EPSILON, series_values=(0.5,)),
        dict(quantity=Quantity.OPTIMAL_DENSITY),
        dict(base=replace(BASE, alpha=2.0)),
    ],
)
def test_spec_validation_rejects_malformed_grids(broken):
    with pytest.raises(ParameterError):
        validate_spec(gamma_spec(**broken))


def test_density_quantity_refuses_simulation():
    spec = SweepSpec(
        base=BASE,
        axis=Axis.EPSILON,
        values=(0.1, 0.5),
        quantity=Quantity.OPTIMAL_DENSITY,
        sim=SimConfig(trials=10),
    )
    with pytest.raises(ParameterError):
        validate_spec(spec)


# -- presets ------------------------------------------------------------------


def test_every_preset_validates():
    for fig in range(2, 10):
        validate_spec(figure_preset(fig))


def test_every_preset_matches_its_pinned_spec():
    # frozen spec_to_dict of each preset: axis, grid, series, quantity, label and note
    pinned = json.loads(PRESETS.read_text(encoding="utf-8"))
    assert [int(fig) for fig in pinned] == list(FIGURE_NUMBERS)
    for fig in FIGURE_NUMBERS:
        assert spec_to_dict(figure_preset(fig)) == pinned[str(fig)]


def test_unknown_preset_rejected():
    with pytest.raises(ParameterError):
        figure_preset(1)


def test_fig6_layout():
    spec = figure_preset(6)
    assert spec.axis is Axis.GAMMA_DB
    assert spec.series_axis is Axis.PC
    assert spec.base.lambda_s == 0.1
    assert spec.base.r_th == 10.0
    assert spec.base.alpha == 3.0
    assert spec.values[-1] == 60.0


def test_fig8_layout():
    spec = figure_preset(8)
    assert spec.quantity is Quantity.OPTIMAL_DENSITY
    assert spec.axis is Axis.EPSILON
    assert spec.series_axis is Axis.R_TH
    assert spec.base.pc == 0.1
    assert spec.sim is None


def test_fig2_matches_reference_point():
    # the preset base carries the gamma=-10dB, r_th=5m, alpha=3 cell
    spec = figure_preset(2)
    assert spec.base.gamma == db_to_linear(-10.0)
    assert spec.base.r_th == 5.0
    assert spec.series_values == (0.02, 0.1, 0.5)


# -- emission -----------------------------------------------------------------


def test_csv_layout_and_precision():
    table = run_sweep(gamma_spec(values=(-10.0, 0.0)))
    buffer = io.StringIO()
    emit_csv(table, buffer)
    lines = buffer.getvalue().splitlines()
    comments = [line for line in lines if line.startswith("# ")]
    header_at = lines.index(",".join(CSV_HEADER))
    assert len(comments) == header_at  # all metadata precedes the header
    first = lines[header_at + 1].split(",")
    assert first[0] == "-10.0"
    assert first[1] == ""  # no series
    assert first[3] == first[4] == first[5] == ""  # no sim columns
    analytic = first[2]
    assert float(analytic) == table.rows[0].analytic  # round-trip exact
    assert len(analytic.replace("-", "").replace(".", "").lstrip("0")) >= 12


def test_error_cells_serialize_as_empty_fields():
    table = run_sweep(SweepSpec(base=BASE, axis=Axis.PC, values=(0.0, 0.02)))
    buffer = io.StringIO()
    emit_csv(table, buffer)
    data_lines = [l for l in buffer.getvalue().splitlines() if not l.startswith("#")][1:]
    assert data_lines[0].split(",")[2] == ""
    payload = json.loads(_json_text(table))
    assert payload["rows"][0]["error"]
    assert payload["rows"][1]["error"] is None


def _json_text(table):
    buffer = io.StringIO()
    emit_json(table, buffer)
    return buffer.getvalue()


def test_json_round_trip_is_identity(tmp_path):
    spec = gamma_spec(
        values=(-10.0, 0.0, 10.0),
        series_axis=Axis.PC,
        series_values=(0.02, 0.1),
        sim=SimConfig(trials=60, master_seed=3, window_radius=60.0),
    )
    table = run_sweep(spec)
    path = tmp_path / "table.json"
    emit_json(table, path)
    assert read_json(path) == table


def test_json_key_order_is_stable(tmp_path):
    table = run_sweep(gamma_spec(values=(-10.0,)))
    payload = json.loads(_json_text(table))
    assert list(payload) == ["metadata", "rows"]
    assert list(payload["rows"][0]) == [
        "axis", "series", "analytic", "sim_mean", "ci_low", "ci_high", "error",
    ]


def test_spec_dict_round_trip():
    spec = gamma_spec(
        series_axis=Axis.PC,
        series_values=(0.02, 0.1),
        sim=SimConfig(trials=100, master_seed=9, window_radius=50.0),
        label="demo",
        note="round trip",
    )
    assert spec_from_dict(spec_to_dict(spec)) == spec


def test_spec_from_dict_rejects_garbage():
    with pytest.raises(ParameterError):
        spec_from_dict({"axis": "gamma_db"})


def test_write_failure_names_destination(tmp_path):
    table = run_sweep(gamma_spec(values=(-10.0,)))
    missing = tmp_path / "no" / "such" / "dir" / "t.csv"
    with pytest.raises(OSError, match=str(missing)):
        emit_csv(table, missing)


def test_golden_fig2_csv_is_reproduced(tmp_path):
    # frozen output of the fig2 preset (analytic-only) at seed 7
    path = tmp_path / "fig2_7.csv"
    emit_csv(run_sweep(figure_preset(2)), path)
    assert path.read_bytes() == GOLDEN.read_bytes()
