"""Parameter sweeps pairing analytic curves with Monte Carlo points.

A sweep walks one axis (optionally one curve per series value), evaluates
the requested closed-form quantity in every cell, optionally attaches a
Monte Carlo estimate, and emits the table as CSV or JSON. Tables are
reproducible bit-exactly from (spec, seed, version).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace
from enum import Enum
from operator import attrgetter
from pathlib import Path

from . import __version__
from .analytic import cache_hit_prob, content_outage, optimal_density
from .model import (
    ParameterError,
    SystemParams,
    db_to_linear,
    validate,
    with_replication_ratio,
)
from .simulate import (
    DegenerateSampleError,
    SimConfig,
    estimate_cache_hit,
    estimate_content_outage,
)

__all__ = [
    "Axis",
    "Quantity",
    "SweepSpec",
    "SweepRow",
    "SweepTable",
    "run_sweep",
    "figure_preset",
    "emit_csv",
    "emit_json",
    "read_json",
    "spec_to_dict",
    "spec_from_dict",
]

# each table column and the SweepRow field it holds, in table order; the
# JSON rows carry the same columns followed by the row's error
_COLUMNS = (
    ("axis", "axis_value"),
    ("series", "series_value"),
    ("analytic", "analytic"),
    ("sim_mean", "sim_mean"),
    ("ci_low", "ci_low"),
    ("ci_high", "ci_high"),
)
CSV_HEADER = tuple(name for name, _ in _COLUMNS)
_row_values = attrgetter(*(field for _, field in _COLUMNS))

FIGURE_NUMBERS = (2, 3, 4, 5, 6, 7, 8, 9)


class Axis(str, Enum):
    LAMBDA_S = "lambda_s"
    PC = "pc"
    R_TH = "r_th"
    GAMMA_DB = "gamma_db"
    EPSILON = "epsilon"


class Quantity(str, Enum):
    CONTENT_OUTAGE = "content_outage"
    CACHE_HIT = "cache_hit"
    OPTIMAL_DENSITY = "optimal_density"


@dataclass(frozen=True)
class SweepSpec:
    """One swept axis over fixed base parameters, one curve per series value."""

    base: SystemParams
    axis: Axis
    values: tuple[float, ...]
    quantity: Quantity = Quantity.CONTENT_OUTAGE
    series_axis: Axis | None = None
    series_values: tuple[float, ...] | None = None
    sim: SimConfig | None = None  # analytic-only when absent
    label: str = "sweep"
    note: str = ""


@dataclass(frozen=True)
class SweepRow:
    axis_value: float
    series_value: float | None
    analytic: float | None
    sim_mean: float | None = None
    ci_low: float | None = None
    ci_high: float | None = None
    error: str | None = None


@dataclass
class SweepTable:
    rows: list[SweepRow]
    metadata: dict

    @property
    def error_count(self) -> int:
        return sum(1 for row in self.rows if row.error is not None)


def _apply_axis(base: SystemParams, axis: Axis, value: float) -> SystemParams:
    if axis is Axis.LAMBDA_S:
        return replace(base, lambda_s=float(value))
    if axis is Axis.PC:
        return with_replication_ratio(base, float(value))
    if axis is Axis.R_TH:
        return replace(base, r_th=float(value))
    if axis is Axis.GAMMA_DB:
        return replace(base, gamma=db_to_linear(float(value)))
    return base  # EPSILON lives outside SystemParams


def validate_spec(spec: SweepSpec) -> SweepSpec:
    """Reject malformed specs before any cell runs.

    Checks grid shape, axis/quantity consistency, and that every
    (base, axis value, series value) combination passes model validation.
    """
    if not spec.values:
        raise ParameterError("values", "sweep needs at least one axis value")
    if any(b <= a for a, b in zip(spec.values, spec.values[1:])):
        raise ParameterError("values", "axis values must be strictly increasing")
    if (spec.series_axis is None) != (spec.series_values is None):
        raise ParameterError("series", "series axis and series values must come together")
    if spec.series_values is not None and not spec.series_values:
        raise ParameterError("series", "series needs at least one value")
    if spec.series_axis is spec.axis and spec.series_axis is not None:
        raise ParameterError("series", "series parameter must differ from the swept axis")
    if spec.series_axis is Axis.EPSILON:
        raise ParameterError("series", "epsilon can only be the swept axis")
    if (spec.quantity is Quantity.OPTIMAL_DENSITY) != (spec.axis is Axis.EPSILON):
        raise ParameterError(
            "axis", "the epsilon axis and the optimal_density quantity require each other"
        )
    if spec.quantity is Quantity.OPTIMAL_DENSITY and spec.sim is not None:
        raise ParameterError("sim", "optimal_density sweeps have no Monte Carlo counterpart")
    if spec.axis is Axis.EPSILON and any(not 0 <= v < 1 for v in spec.values):
        raise ParameterError("values", "epsilon values must lie in [0, 1)")
    for series_value in spec.series_values or (None,):
        with_series = (
            _apply_axis(spec.base, spec.series_axis, series_value)
            if series_value is not None
            else spec.base
        )
        for axis_value in spec.values:
            validate(_apply_axis(with_series, spec.axis, axis_value))
    return spec


def _cell_row(spec: SweepSpec, with_series: SystemParams, axis_value: float,
              series_value: float | None, cell_index: int) -> SweepRow:
    try:
        params = validate(_apply_axis(with_series, spec.axis, axis_value))
        if spec.quantity is Quantity.OPTIMAL_DENSITY:
            analytic_value = optimal_density(axis_value, params.pc, params.r_th)
        elif spec.quantity is Quantity.CACHE_HIT:
            analytic_value = cache_hit_prob(params)
        else:
            analytic_value = content_outage(params)
    except ParameterError as exc:
        return SweepRow(float(axis_value), series_value, None, error=str(exc))
    row = SweepRow(float(axis_value), series_value, float(analytic_value))
    if spec.sim is None:
        return row
    # distinct seeds per cell keep the trial streams unrelated
    cfg = replace(spec.sim, master_seed=(spec.sim.master_seed + cell_index) % 2**64)
    try:
        if spec.quantity is Quantity.CACHE_HIT:
            est = estimate_cache_hit(params, cfg)
        else:
            est = estimate_content_outage(params, cfg)
    except (ParameterError, DegenerateSampleError) as exc:
        return replace(row, error=str(exc))
    return replace(row, sim_mean=est.mean, ci_low=est.ci_low, ci_high=est.ci_high)


def run_sweep(spec: SweepSpec) -> SweepTable:
    """Evaluate every grid cell of ``spec`` into an ordered table.

    Rows follow the axis order within each series curve. Cell-level domain
    errors (a pc = 0 cell, a degenerate conditioning event) are recorded
    in the row without aborting the sweep.
    """
    validate_spec(spec)
    rows: list[SweepRow] = []
    cell_index = 0
    for series_value in spec.series_values or (None,):
        with_series = (
            _apply_axis(spec.base, spec.series_axis, series_value)
            if series_value is not None
            else spec.base
        )
        for axis_value in spec.values:
            rows.append(_cell_row(spec, with_series, axis_value, series_value, cell_index))
            cell_index += 1
    return SweepTable(rows=rows, metadata=_metadata(spec))


def _sim_to_dict(sim: SimConfig | None) -> dict | None:
    if sim is None:
        return None
    return {
        "trials": sim.trials,
        "master_seed": sim.master_seed,
        "window_radius": sim.window_radius,
    }


def _metadata(spec: SweepSpec) -> dict:
    return {
        "tool": "cachegeo",
        "version": __version__,
        "label": spec.label,
        "quantity": spec.quantity.value,
        "axis": spec.axis.value,
        "series_axis": spec.series_axis.value if spec.series_axis else None,
        "base_params": asdict(spec.base),
        "sim": _sim_to_dict(spec.sim),
        "note": spec.note,
    }


def spec_to_dict(spec: SweepSpec) -> dict:
    """JSON-ready form of a spec; the CLI config-file schema."""
    return {
        "base": asdict(spec.base),
        "axis": spec.axis.value,
        "values": list(spec.values),
        "quantity": spec.quantity.value,
        "series_axis": spec.series_axis.value if spec.series_axis else None,
        "series_values": list(spec.series_values) if spec.series_values else None,
        "sim": _sim_to_dict(spec.sim),
        "label": spec.label,
        "note": spec.note,
    }


def spec_from_dict(data: dict) -> SweepSpec:
    """Inverse of :func:`spec_to_dict`; raises ParameterError on bad fields.

    Sweeps are emulated: a ``sim.mode`` other than ``"emulated"`` is refused.
    """
    if not isinstance(data, dict):
        raise ParameterError(
            "config", f"malformed sweep spec: expected an object, got {type(data).__name__}"
        )
    for key, kind, name in (("base", dict, "object"), ("sim", dict, "object"),
                            ("values", list, "array")):
        value = data.get(key)
        if value is not None and not isinstance(value, kind):
            raise ParameterError(
                "config",
                f"malformed sweep spec: {key} must be an {name}, got {type(value).__name__}",
            )
    try:
        base = SystemParams(
            lambda_s=float(data["base"]["lambda_s"]),
            alpha=float(data["base"]["alpha"]),
            gamma=float(data["base"]["gamma"]),
            r_th=float(data["base"]["r_th"]),
            cache_size_d=int(data["base"]["cache_size_d"]),
            library_size=int(data["base"]["library_size"]),
        )
        sim = data.get("sim")
        if sim is not None and sim.get("mode", "emulated") != "emulated":
            raise ParameterError("mode", f"sweeps are emulated only, got mode={sim['mode']!r}")
        return SweepSpec(
            base=base,
            axis=Axis(data["axis"]),
            values=tuple(float(v) for v in data["values"]),
            quantity=Quantity(data.get("quantity", Quantity.CONTENT_OUTAGE.value)),
            series_axis=Axis(data["series_axis"]) if data.get("series_axis") else None,
            series_values=tuple(float(v) for v in data["series_values"])
            if data.get("series_values")
            else None,
            sim=None
            if sim is None
            else SimConfig(
                trials=int(sim.get("trials", SimConfig.trials)),
                master_seed=int(sim.get("master_seed", SimConfig.master_seed)),
                window_radius=None
                if sim.get("window_radius") is None
                else float(sim["window_radius"]),
            ),
            label=str(data.get("label", "sweep")),
            note=str(data.get("note", "")),
        )
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ParameterError):
            raise
        raise ParameterError("config", f"malformed sweep spec: {exc}") from exc


def figure_preset(which: int) -> SweepSpec:
    """Canned sweep matching one of the standard figure layouts (2 to 9).

    Axis ranges are reconstructions chosen to span each figure's visible
    domain; every preset records its choice in ``note``.
    """
    base = SystemParams(
        lambda_s=0.1,
        alpha=3.0,
        gamma=db_to_linear(-10.0),
        r_th=5.0,
        cache_size_d=2,
        library_size=100,
    )
    gamma_db_grid = tuple(-20.0 + 2.0 * i for i in range(41))  # -20 .. 60 dB
    distance_grid = tuple(float(v) for v in range(1, 31))
    epsilon_grid = tuple(i / 20 for i in range(1, 20)) + (0.99,)
    density_grid = tuple(10.0 ** (-3.0 + 3.0 * i / 24) for i in range(25))
    pc_grid = tuple(i / 50 for i in range(1, 51))

    if which == 2:
        return SweepSpec(
            base=base,
            axis=Axis.LAMBDA_S,
            values=density_grid,
            series_axis=Axis.PC,
            series_values=(0.02, 0.1, 0.5),
            label="fig2",
            note="outage vs SBS density at gamma=-10dB, r_th=5m, alpha=3; "
            "density axis reconstructed as 25 log-spaced points in [1e-3, 1]",
        )
    if which == 3:
        return SweepSpec(
            base=base,
            axis=Axis.PC,
            values=pc_grid,
            series_axis=Axis.LAMBDA_S,
            series_values=(0.01, 0.1),
            label="fig3",
            note="outage vs replication ratio at r_th=5m, gamma=-10dB, alpha=3; "
            "ratio axis reconstructed as 0.02..1 in steps of 0.02; the very low "
            "outage at small density and small ratio comes from the hit-event "
            "conditioning and is reported as computed",
        )
    if which == 4:
        return SweepSpec(
            base=base,
            axis=Axis.R_TH,
            values=distance_grid,
            series_axis=Axis.PC,
            series_values=(0.02, 0.1, 0.5),
            label="fig4",
            note="outage vs threshold distance at gamma=-10dB, lambda_s=0.1, alpha=3; "
            "distance axis reconstructed as 1..30 m",
        )
    if which == 5:
        return SweepSpec(
            base=base,
            axis=Axis.R_TH,
            values=distance_grid,
            series_axis=Axis.LAMBDA_S,
            series_values=(0.01, 0.1),
            label="fig5",
            note="outage vs threshold distance at pc=0.02, gamma=-10dB, alpha=3; "
            "distance axis reconstructed as 1..30 m",
        )
    if which == 6:
        return SweepSpec(
            base=replace(base, r_th=10.0),
            axis=Axis.GAMMA_DB,
            values=gamma_db_grid,
            series_axis=Axis.PC,
            series_values=(0.02, 0.1, 0.5),
            label="fig6",
            note="outage vs SIR threshold at lambda_s=0.1, r_th=10m, alpha=3; "
            "threshold axis reconstructed as -20..60 dB in 2 dB steps",
        )
    if which == 7:
        return SweepSpec(
            base=replace(base, r_th=10.0),
            axis=Axis.GAMMA_DB,
            values=gamma_db_grid,
            series_axis=Axis.LAMBDA_S,
            series_values=(0.01, 0.1),
            label="fig7",
            note="outage vs SIR threshold at pc=0.02, r_th=10m, alpha=3; "
            "threshold axis reconstructed as -20..60 dB in 2 dB steps",
        )
    if which == 8:
        return SweepSpec(
            base=replace(base, cache_size_d=10, r_th=10.0),
            axis=Axis.EPSILON,
            values=epsilon_grid,
            quantity=Quantity.OPTIMAL_DENSITY,
            series_axis=Axis.R_TH,
            series_values=(5.0, 10.0, 15.0, 20.0),
            label="fig8",
            note="optimal SBS density vs target hit probability at pc=0.1; "
            "target axis reconstructed as 0.05..0.95 in steps of 0.05 plus 0.99",
        )
    if which == 9:
        return SweepSpec(
            base=replace(base, r_th=10.0),
            axis=Axis.EPSILON,
            values=epsilon_grid,
            quantity=Quantity.OPTIMAL_DENSITY,
            series_axis=Axis.PC,
            series_values=(0.02, 0.1, 0.5),
            label="fig9",
            note="optimal SBS density vs target hit probability at r_th=10m; "
            "target axis reconstructed as 0.05..0.95 in steps of 0.05 plus 0.99",
        )
    raise ParameterError("fig", f"figure preset must be one of {FIGURE_NUMBERS}, got {which}")


def _format_value(value) -> str:
    # repr keeps full round-trip precision (well above 12 significant digits)
    if value is None:
        return ""
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    return repr(float(value))


def emit_csv(table: SweepTable, destination) -> None:
    """Write ``table`` as CSV: '#' metadata lines, pinned header, one row per cell.

    Optional sim columns serialize as empty fields; floats carry full
    round-trip precision.
    """
    lines = [f"# {key}: {json.dumps(value)}" for key, value in table.metadata.items()]
    lines.append(",".join(CSV_HEADER))
    lines.extend(",".join(map(_format_value, _row_values(row))) for row in table.rows)
    _write_text(destination, "\n".join(lines) + "\n")


def emit_json(table: SweepTable, destination) -> None:
    """Write ``table`` as a single JSON object with stable key order."""
    payload = {
        "metadata": table.metadata,
        "rows": [dict(zip(CSV_HEADER, _row_values(row)), error=row.error) for row in table.rows],
    }
    _write_text(destination, json.dumps(payload, indent=2) + "\n")


def read_json(source) -> SweepTable:
    """Parse a table previously written by :func:`emit_json`."""
    if hasattr(source, "read"):
        payload = json.load(source)
    else:
        payload = json.loads(Path(source).read_text(encoding="utf-8"))
    rows = [
        SweepRow(**{field: row[name] for name, field in _COLUMNS}, error=row["error"])
        for row in payload["rows"]
    ]
    return SweepTable(rows=rows, metadata=payload["metadata"])


def _write_text(destination, text: str) -> None:
    if hasattr(destination, "write"):
        destination.write(text)
        return
    try:
        Path(destination).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise OSError(f"cannot write sweep table to {destination}: {exc}") from exc
