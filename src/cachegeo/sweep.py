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


def _cells(spec: SweepSpec):
    """Yield (series value, axis value, cell params) for every cell, in table order."""
    for series_value in spec.series_values or (None,):
        with_series = (
            spec.base
            if series_value is None
            else _apply_axis(spec.base, spec.series_axis, series_value)
        )
        for axis_value in spec.values:
            yield series_value, axis_value, _apply_axis(with_series, spec.axis, axis_value)


# each quantity's closed form of (cell params, axis value) and its Monte Carlo
# estimator, None where it has none; the lambdas look the functions up at call
# time, so a rebound module global is the one called
_QUANTITIES = {
    Quantity.CONTENT_OUTAGE: (
        lambda params, axis_value: content_outage(params),
        lambda params, cfg: estimate_content_outage(params, cfg),
    ),
    Quantity.CACHE_HIT: (
        lambda params, axis_value: cache_hit_prob(params),
        lambda params, cfg: estimate_cache_hit(params, cfg),
    ),
    Quantity.OPTIMAL_DENSITY: (
        lambda params, epsilon: optimal_density(epsilon, params.pc, params.r_th),
        None,
    ),
}


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
    if spec.sim is not None and _QUANTITIES[spec.quantity][1] is None:
        raise ParameterError("sim", f"{spec.quantity.value} sweeps have no Monte Carlo counterpart")
    if spec.axis is Axis.EPSILON and any(not 0 <= v < 1 for v in spec.values):
        raise ParameterError("values", "epsilon values must lie in [0, 1)")
    for _, _, params in _cells(spec):
        validate(params)
    return spec


def _cell_row(spec: SweepSpec, params: SystemParams, axis_value: float,
              series_value: float | None, cell_index: int) -> SweepRow:
    closed_form, estimator = _QUANTITIES[spec.quantity]
    try:
        row = SweepRow(float(axis_value), series_value, float(closed_form(params, axis_value)))
    except ParameterError as exc:
        return SweepRow(float(axis_value), series_value, None, error=str(exc))
    if spec.sim is None:
        return row
    # distinct seeds per cell keep the trial streams unrelated
    cfg = replace(spec.sim, master_seed=(spec.sim.master_seed + cell_index) % 2**64)
    try:
        est = estimator(params, cfg)
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
    rows = [
        _cell_row(spec, params, axis_value, series_value, cell_index)
        for cell_index, (series_value, axis_value, params) in enumerate(_cells(spec))
    ]
    return SweepTable(rows=rows, metadata=_metadata(spec))


def _metadata(spec: SweepSpec) -> dict:
    data = spec_to_dict(spec)
    return {
        "tool": "cachegeo",
        "version": __version__,
        "label": data["label"],
        "quantity": data["quantity"],
        "axis": data["axis"],
        "series_axis": data["series_axis"],
        "base_params": data["base"],
        "sim": data["sim"],
        "note": data["note"],
    }


def spec_to_dict(spec: SweepSpec) -> dict:
    """JSON-ready form of a spec; the CLI config-file schema."""
    data = asdict(spec)
    for key, value in data.items():
        if isinstance(value, Enum):
            data[key] = value.value
        elif isinstance(value, tuple):
            data[key] = list(value)
    return data


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


_PRESET_BASE = SystemParams(
    lambda_s=0.1,
    alpha=3.0,
    gamma=db_to_linear(-10.0),
    r_th=5.0,
    cache_size_d=2,
    library_size=100,
)
_GAMMA_DB_GRID = tuple(-20.0 + 2.0 * i for i in range(41))  # -20 .. 60 dB
_DISTANCE_GRID = tuple(float(v) for v in range(1, 31))
_EPSILON_GRID = tuple(i / 20 for i in range(1, 20)) + (0.99,)
_DENSITY_GRID = tuple(10.0 ** (-3.0 + 3.0 * i / 24) for i in range(25))
_PC_GRID = tuple(i / 50 for i in range(1, 51))
_PC_SERIES = (0.02, 0.1, 0.5)
_LAMBDA_SERIES = (0.01, 0.1)
_GAMMA_DB_NOTE = "threshold axis reconstructed as -20..60 dB in 2 dB steps"
_DISTANCE_NOTE = "distance axis reconstructed as 1..30 m"
_EPSILON_NOTE = "target axis reconstructed as 0.05..0.95 in steps of 0.05 plus 0.99"

# figure number -> (base overrides, axis, grid, series axis, series values, note)
_PRESETS = {
    2: ({}, Axis.LAMBDA_S, _DENSITY_GRID, Axis.PC, _PC_SERIES,
        "outage vs SBS density at gamma=-10dB, r_th=5m, alpha=3; "
        "density axis reconstructed as 25 log-spaced points in [1e-3, 1]"),
    3: ({}, Axis.PC, _PC_GRID, Axis.LAMBDA_S, _LAMBDA_SERIES,
        "outage vs replication ratio at r_th=5m, gamma=-10dB, alpha=3; "
        "ratio axis reconstructed as 0.02..1 in steps of 0.02; the very low "
        "outage at small density and small ratio comes from the hit-event "
        "conditioning and is reported as computed"),
    4: ({}, Axis.R_TH, _DISTANCE_GRID, Axis.PC, _PC_SERIES,
        "outage vs threshold distance at gamma=-10dB, lambda_s=0.1, alpha=3; " + _DISTANCE_NOTE),
    5: ({}, Axis.R_TH, _DISTANCE_GRID, Axis.LAMBDA_S, _LAMBDA_SERIES,
        "outage vs threshold distance at pc=0.02, gamma=-10dB, alpha=3; " + _DISTANCE_NOTE),
    6: ({"r_th": 10.0}, Axis.GAMMA_DB, _GAMMA_DB_GRID, Axis.PC, _PC_SERIES,
        "outage vs SIR threshold at lambda_s=0.1, r_th=10m, alpha=3; " + _GAMMA_DB_NOTE),
    7: ({"r_th": 10.0}, Axis.GAMMA_DB, _GAMMA_DB_GRID, Axis.LAMBDA_S, _LAMBDA_SERIES,
        "outage vs SIR threshold at pc=0.02, r_th=10m, alpha=3; " + _GAMMA_DB_NOTE),
    8: ({"cache_size_d": 10, "r_th": 10.0}, Axis.EPSILON, _EPSILON_GRID, Axis.R_TH,
        (5.0, 10.0, 15.0, 20.0),
        "optimal SBS density vs target hit probability at pc=0.1; " + _EPSILON_NOTE),
    9: ({"r_th": 10.0}, Axis.EPSILON, _EPSILON_GRID, Axis.PC, _PC_SERIES,
        "optimal SBS density vs target hit probability at r_th=10m; " + _EPSILON_NOTE),
}
FIGURE_NUMBERS = tuple(_PRESETS)


def figure_preset(which: int) -> SweepSpec:
    """Canned sweep matching one of the standard figure layouts (2 to 9).

    Axis ranges are reconstructions chosen to span each figure's visible
    domain; every preset records its choice in ``note``. A preset on the
    epsilon axis plots the optimal density, every other one the content
    outage.
    """
    if which not in FIGURE_NUMBERS:
        raise ParameterError("fig", f"figure preset must be one of {FIGURE_NUMBERS}, got {which}")
    overrides, axis, values, series_axis, series_values, note = _PRESETS[which]
    return SweepSpec(
        base=replace(_PRESET_BASE, **overrides),
        axis=axis,
        values=values,
        quantity=Quantity.OPTIMAL_DENSITY if axis is Axis.EPSILON else Quantity.CONTENT_OUTAGE,
        series_axis=series_axis,
        series_values=series_values,
        label=f"fig{which}",
        note=note,
    )


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
