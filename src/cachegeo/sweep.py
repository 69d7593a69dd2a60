"""Parameter sweeps pairing analytic curves with Monte Carlo points.

A sweep walks one axis (optionally one curve per series value), evaluates
the requested closed-form quantity in every cell, optionally attaches a
Monte Carlo estimate, and emits the table as CSV or JSON. Tables are
reproducible bit-exactly from (spec, seed, version).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields, replace
from enum import Enum
from operator import attrgetter
from pathlib import Path

from . import __version__
from .analytic import cache_hit_prob, content_outage, optimal_density
from .model import (
    ParameterError,
    SimConfig,
    SystemParams,
    checked,
    db_to_linear,
    validate,
    with_replication_ratio,
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


def _apply_axis(base: SystemParams, axis: Axis | None, value: float | None) -> SystemParams:
    if axis is Axis.LAMBDA_S:
        return replace(base, lambda_s=value)
    if axis is Axis.PC:
        return with_replication_ratio(base, value)
    if axis is Axis.R_TH:
        return replace(base, r_th=value)
    if axis is Axis.GAMMA_DB:
        return replace(base, gamma=db_to_linear(value))
    return base  # EPSILON lives outside SystemParams, and a sweep without series has no axis


def _outage_estimates(cells, sim: SimConfig) -> list:
    """Each cell's outage estimate, or its ParameterError, from seed master_seed + table index."""
    from . import simulate

    results = []
    for index, params in cells:
        # distinct seeds per cell keep the trial streams unrelated
        cfg = replace(sim, master_seed=(sim.master_seed + index) % 2**64)
        try:
            results.append(simulate.estimate_content_outage(params, cfg))
        except ParameterError as exc:
            results.append(exc)
    return results


def _hit_estimates(cells, sim: SimConfig) -> list:
    """Each cell's cache-hit estimate, or its ParameterError, all cells in one pass."""
    from . import simulate

    return simulate._cache_hit_estimates([params for _, params in cells], sim)


# each quantity's closed form of (cell params, axis value) and its Monte Carlo
# estimator, None where it has none; an estimator takes the (table index,
# params) of a sweep's estimable cells and the sweep's SimConfig, and returns
# per cell an Estimate or the ParameterError that refuses it. The estimators
# import cachegeo.simulate, and with it numpy, only when a sweep samples, and
# look its functions up at call time, so a rebound attribute there is the one called
_QUANTITIES = {
    Quantity.CONTENT_OUTAGE: (
        lambda params, axis_value: content_outage(params),
        _outage_estimates,
    ),
    Quantity.CACHE_HIT: (
        lambda params, axis_value: cache_hit_prob(params),
        _hit_estimates,
    ),
    Quantity.OPTIMAL_DENSITY: (
        lambda params, epsilon: optimal_density(epsilon, params.pc, params.r_th),
        None,
    ),
}


def validate_spec(spec: SweepSpec) -> SweepSpec:
    """Reject malformed specs before any cell runs.

    Checks grid shape, axis/quantity consistency, that the base passes model
    validation and that every axis and series value lies in the domain of
    the field it sets.
    """
    _validated_cells(spec)
    return spec


def _validated_cells(spec: SweepSpec) -> list:
    """(series value, axis value, cell params) for every cell, in table order.

    Raises as :func:`validate_spec` does. Every cell is then valid: it is
    the validated base with checked values set, and a pc value sets sizes
    with d <= |C|.
    """
    if not spec.values:
        raise ParameterError("values", "sweep needs at least one axis value")
    values = [checked(spec.axis.value, value) for value in spec.values]
    if any(b <= a for a, b in zip(values, values[1:])):
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
    series = (None,) if spec.series_axis is None else [
        checked(spec.series_axis.value, value) for value in spec.series_values]
    validate(spec.base)
    cells = []
    for series_value in series:
        with_series = _apply_axis(spec.base, spec.series_axis, series_value)
        cells.extend((series_value, value, _apply_axis(with_series, spec.axis, value))
                     for value in values)
    return cells


def _closed_form(closed_form, params: SystemParams, axis_value: float):
    """The cell's closed form as a float, or the ParameterError that refuses it."""
    try:
        return float(closed_form(params, axis_value))
    except ParameterError as exc:
        return exc


def _row(cell: tuple, analytic, estimate) -> SweepRow:
    """The row of a cell from its closed form and its estimate, each maybe a ParameterError."""
    if isinstance(analytic, ParameterError):
        return SweepRow(*cell, None, error=str(analytic))
    if isinstance(estimate, ParameterError):
        return SweepRow(*cell, analytic, error=str(estimate))
    if estimate is None:
        return SweepRow(*cell, analytic)
    return SweepRow(*cell, analytic, estimate.mean, estimate.ci_low, estimate.ci_high)


def run_sweep(spec: SweepSpec) -> SweepTable:
    """Evaluate every grid cell of ``spec`` into an ordered table.

    Rows follow the axis order within each series curve. Cell-level domain
    errors (a pc = 0 cell, a field above the per-trial point cap) are
    recorded in the row without aborting the sweep. The estimator gets
    every cell whose closed form holds at once: content-outage cells draw
    from seed master_seed + table index, one cell after another, and
    cache-hit cells lie back to back over the master seed's blocks, in
    one pass (:func:`cachegeo.simulate._hit_counts`).
    """
    closed_form, estimator = _QUANTITIES[spec.quantity]
    cells = _validated_cells(spec)
    analytic = [_closed_form(closed_form, params, axis_value) for _, axis_value, params in cells]
    estimates = [None] * len(cells)
    if spec.sim is not None:
        estimable = [(index, params) for index, ((_, _, params), value)
                     in enumerate(zip(cells, analytic)) if not isinstance(value, ParameterError)]
        for (index, _), estimate in zip(estimable, estimator(estimable, spec.sim)):
            estimates[index] = estimate
    rows = [_row((axis_value, series_value), value, estimate)
            for (series_value, axis_value, _), value, estimate in zip(cells, analytic, estimates)]
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


# the keys a spec dict may hold, at its top level, in base and in sim
_SPEC_KEYS = frozenset(field.name for field in fields(SweepSpec))
_BASE_KEYS = frozenset(field.name for field in fields(SystemParams))
_SIM_KEYS = frozenset(field.name for field in fields(SimConfig)) | {"mode"}


def spec_from_dict(data: dict) -> SweepSpec:
    """Inverse of :func:`spec_to_dict`; raises ParameterError on bad fields.

    Sweeps are emulated: a ``sim.mode`` other than ``"emulated"`` is refused.
    A key that is no field of the spec, of ``base`` or of ``sim`` is
    refused by name. Each base field is checked in its domain and a real
    one is kept as a float; :class:`SimConfig` checks the sim fields, and
    :func:`validate_spec` the axis and series values.
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
    for prefix, given, known in (("", data, _SPEC_KEYS), ("base.", data.get("base"), _BASE_KEYS),
                                 ("sim.", data.get("sim"), _SIM_KEYS)):
        unknown = [key for key in given or () if key not in known]
        if unknown:
            raise ParameterError("config", f"malformed sweep spec: unknown key {prefix}{unknown[0]}")
    try:
        base = SystemParams(**{field.name: checked(field.name, data["base"][field.name])
                               for field in fields(SystemParams)})
        sim = data.get("sim")
        if sim is not None and sim.get("mode", "emulated") != "emulated":
            raise ParameterError("mode", f"sweeps are emulated only, got mode={sim['mode']!r}")
        return SweepSpec(
            base=base,
            axis=Axis(data["axis"]),
            values=tuple(data["values"]),
            quantity=Quantity(data.get("quantity", Quantity.CONTENT_OUTAGE.value)),
            series_axis=Axis(data["series_axis"]) if data.get("series_axis") else None,
            series_values=tuple(data["series_values"])
            if data.get("series_values")
            else None,
            sim=None
            if sim is None
            else SimConfig(
                trials=sim.get("trials", SimConfig.trials),
                master_seed=sim.get("master_seed", SimConfig.master_seed),
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
    """Write ``table`` as one compact JSON object on one line, with stable key order.

    No indentation keeps the encoding in json's C encoder; the CSV is the
    table to read by eye.
    """
    payload = {
        "metadata": table.metadata,
        "rows": [dict(zip(CSV_HEADER, _row_values(row)), error=row.error) for row in table.rows],
    }
    _write_text(destination, json.dumps(payload) + "\n")


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
