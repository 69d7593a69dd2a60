"""Command-line interface.

Subcommands: ``analytic`` (closed-form quantities), ``simulate`` (Monte
Carlo estimate vs closed form), ``sweep`` and ``figure`` (tables to CSV and
JSON), ``plan`` (density or replication-ratio planning).

Exit codes: 0 success, 2 validation failure, 3 degenerate simulation,
4 infeasible planning target.

Only the commands that sample import :mod:`cachegeo.simulate`, and with
it numpy, when they run: building the parser, ``analytic``, ``plan`` and
closed-form sweeps need neither.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

from . import __version__
from .analytic import (
    cache_hit_prob,
    replication_ratio_bounds,
    content_outage,
    kappa,
    hit_target_feasible,
    optimal_density,
    physical_content_outage,
)
from .model import (
    DegenerateSampleError,
    ParameterError,
    SimConfig,
    SystemParams,
    db_to_linear,
    validate,
)
from .sweep import (
    Axis,
    FIGURE_NUMBERS,
    Quantity,
    SweepSpec,
    emit_csv,
    emit_json,
    figure_preset,
    run_sweep,
    spec_from_dict,
    spec_to_dict,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DEGENERATE = 3
EXIT_INFEASIBLE = 4

_QUANTITY_NAMES = {
    "outage": Quantity.CONTENT_OUTAGE,
    "hit": Quantity.CACHE_HIT,
    "density": Quantity.OPTIMAL_DENSITY,
}

# each association mode's estimator, named in cachegeo.simulate and looked up
# there when a run samples, and the closed form its verdict compares against
_MODES = {
    "emulated": ("estimate_content_outage", content_outage),
    "physical": ("estimate_physical", physical_content_outage),
}

_AXIS_NAMES = {
    "lambda-s": Axis.LAMBDA_S,
    "pc": Axis.PC,
    "rth": Axis.R_TH,
    "gamma-db": Axis.GAMMA_DB,
    "epsilon": Axis.EPSILON,
}


def _add_param_flags(parser: argparse.ArgumentParser, required: bool = True) -> None:
    parser.add_argument("--lambda", dest="lambda_s", type=float, required=required,
                        help="SBS density [SBS/m^2]")
    parser.add_argument("--alpha", type=float, required=required,
                        help="path loss exponent (> 2)")
    parser.add_argument("--gamma-db", dest="gamma_db", type=float, required=required,
                        help="SIR threshold [dB]")
    parser.add_argument("--rth", type=float, required=required,
                        help="threshold distance [m]")
    parser.add_argument("--d", dest="cache_size_d", type=int, required=required,
                        help="contents cached per SBS")
    parser.add_argument("--library", dest="library_size", type=int, required=required,
                        help="library size |C|")


def _add_sim_flags(parser: argparse.ArgumentParser, trials: int | None, seed: int | None) -> None:
    """Declare --trials and --seed, the Monte Carlo flags, with these defaults.

    A None ``trials`` attaches Monte Carlo columns only where --trials is
    given; a None ``seed`` takes the config's.
    """
    parser.add_argument("--trials", type=int, default=trials,
                        help="attach Monte Carlo columns with this many trials" if trials is None
                        else "Monte Carlo trials (default %(default)s)")
    parser.add_argument("--seed", type=int, default=seed,
                        help=f"master seed (default: config value, else {SimConfig.master_seed})"
                        if seed is None else "master seed (default %(default)s)")


def _param_fields(args: argparse.Namespace) -> dict:
    """The model flags given, as SystemParams fields with gamma converted from dB."""
    fields = {
        "lambda_s": args.lambda_s,
        "alpha": args.alpha,
        "gamma": None if args.gamma_db is None else db_to_linear(args.gamma_db),
        "r_th": args.rth,
        "cache_size_d": args.cache_size_d,
        "library_size": args.library_size,
    }
    return {name: value for name, value in fields.items() if value is not None}


def _params_from_args(args: argparse.Namespace) -> SystemParams:
    return validate(SystemParams(**_param_fields(args)))


def _report(out: dict, as_json: bool) -> None:
    """Print ``out`` as indented JSON, or as one aligned ``key  value`` line per leaf.

    Nested keys are joined by dots and floats are shown as their repr, so
    the text carries every value of the JSON object at full precision.
    """
    if as_json:
        print(json.dumps(out, indent=2))
        return
    leaves = dict(_leaves(out))
    width = max(map(len, leaves))
    for key, value in leaves.items():
        print(f"{key:<{width}}  {repr(value) if isinstance(value, float) else value}")


def _leaves(out: dict, prefix: str = ""):
    for key, value in out.items():
        if isinstance(value, dict):
            yield from _leaves(value, f"{prefix}{key}.")
        else:
            yield prefix + key, value


def cmd_analytic(args: argparse.Namespace) -> int:
    params = _params_from_args(args)
    out = {
        "params": {**asdict(params), "pc": params.pc},
        "kappa": kappa(params.alpha),
        "replication_ratio": params.pc,
        "cache_hit_prob": cache_hit_prob(params),
        "content_outage": content_outage(params),
    }
    if args.epsilon is not None:
        out["epsilon"] = args.epsilon
        out["hit_target_feasible"] = hit_target_feasible(params, args.epsilon)
    _report(out, args.json)
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    from . import simulate  # numpy loads here, at the first command that samples

    params = _params_from_args(args)
    cfg = SimConfig(trials=args.trials, master_seed=args.seed)
    estimator, closed_form = _MODES[args.mode]
    analytic_value = closed_form(params)
    estimate = getattr(simulate, estimator)(params, cfg)
    out = {
        "params": {**asdict(params), "pc": params.pc},
        "mode": args.mode,
        "trials": cfg.trials,
        "master_seed": cfg.master_seed,
        "analytic_content_outage": analytic_value,
        "estimate": asdict(estimate),
        "verdict": "PASS" if estimate.contains(analytic_value) else "FAIL",
    }
    _report(out, args.json)
    return EXIT_OK


def _overlay_sim(data: dict, args: argparse.Namespace) -> dict:
    """Spec dict with --trials/--seed applied to its sim block.

    --trials attaches Monte Carlo columns (an unset seed takes the
    SimConfig default); --seed updates an attached sim block.
    """
    if data.get("sim") is None and args.trials is None:
        return data
    sim = dict(data.get("sim") or {})
    for key, value in (("trials", args.trials), ("master_seed", args.seed)):
        if value is not None:
            sim[key] = value
    return {**data, "sim": sim}


def _grid_from_flags(args: argparse.Namespace) -> tuple[float, ...]:
    if args.steps < 1:
        raise ParameterError("steps", f"steps must be at least 1, got {args.steps}")
    if args.steps == 1:
        return (args.start,)
    if args.log:
        if args.start <= 0 or args.stop <= 0:
            raise ParameterError("from", "log-spaced grids need positive endpoints")
        lo, hi = math.log10(args.start), math.log10(args.stop)
        top = max((lo, args.start), (hi, args.stop))
        return tuple(_power_of_ten(lo + (hi - lo) * i / (args.steps - 1), *top)
                     for i in range(args.steps))
    start, stop, span = args.start, args.stop, args.steps - 1
    points = (start + (stop - start) * i / span for i in range(args.steps))
    # where (stop - start) * i overflows, the weighted mean gives the finite point
    return tuple(point if math.isfinite(point) else start * (1.0 - i / span) + stop * (i / span)
                 for i, point in enumerate(points))


def _power_of_ten(e: float, top: float, end: float) -> float:
    """10**e, a point of a log grid whose larger endpoint ``end`` is 10**top.

    Where 10**e rounds past the float range, the point is end * 10**(e - top).
    """
    try:
        return 10 ** e
    except OverflowError:
        return end * 10 ** (e - top)


def _write_table(spec: SweepSpec, out_dir: str, name: str, seed: int) -> int:
    table = run_sweep(spec)
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    csv_path = directory / f"{name}_{seed}.csv"
    json_path = directory / f"{name}_{seed}.json"
    emit_csv(table, csv_path)
    emit_json(table, json_path)
    print(csv_path)
    print(json_path)
    if table.error_count:
        print(f"warning: {table.error_count} cell(s) recorded errors", file=sys.stderr)
    return EXIT_OK


def _series_values(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",")]
    except ValueError as exc:
        raise ParameterError(
            "series", f"--series-values must be comma-separated numbers, got {text!r}"
        ) from exc


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.config:
        try:
            config = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ParameterError("config", f"{args.config} is not a JSON file: {exc}") from exc
        data = spec_to_dict(spec_from_dict(config))
    else:
        required = ("axis", "start", "stop", "steps", "lambda_s", "alpha",
                    "gamma_db", "rth", "cache_size_d", "library_size")
        missing = [name for name in required if getattr(args, name) is None]
        if missing:
            raise ParameterError(
                missing[0], f"missing flags (or use --config): {', '.join(missing)}"
            )
        data = {"base": {}}
    # every flag given overrides its field of the config schema
    data["base"].update(_param_fields(args))
    if args.axis is not None:
        data["axis"] = _AXIS_NAMES[args.axis].value
    if args.start is not None or args.stop is not None or args.steps is not None:
        if None in (args.start, args.stop, args.steps):
            raise ParameterError("steps", "grid flags --from/--to/--steps come together")
        data["values"] = list(_grid_from_flags(args))
    if args.quantity is not None:
        data["quantity"] = _QUANTITY_NAMES[args.quantity].value
    if args.series_axis is not None:
        data["series_axis"] = _AXIS_NAMES[args.series_axis].value
    if args.series_values is not None:
        data["series_values"] = _series_values(args.series_values)
    spec = spec_from_dict(_overlay_sim(data, args))
    file_seed = spec.sim.master_seed if spec.sim else args.seed
    if file_seed is None:
        file_seed = SimConfig.master_seed
    return _write_table(spec, args.out, args.name or spec.label, file_seed)


def cmd_figure(args: argparse.Namespace) -> int:
    spec = spec_from_dict(_overlay_sim(spec_to_dict(figure_preset(args.fig)), args))
    return _write_table(spec, args.out, spec.label, args.seed)


def cmd_plan(args: argparse.Namespace) -> int:
    if args.pc is not None:
        density = optimal_density(args.epsilon, args.pc, args.rth)
        out = {"epsilon": args.epsilon, "pc": args.pc, "r_th": args.rth, "lambda_s": density}
        _report(out, args.json)
        return EXIT_OK
    bound = replication_ratio_bounds(args.lambda_s, args.rth, args.epsilon)
    out = {"epsilon": args.epsilon, "lambda_s": args.lambda_s, "r_th": args.rth, **asdict(bound)}
    _report(out, args.json)
    if not bound.feasible:
        print(
            f"infeasible: required replication ratio {bound.pc_required!r} exceeds 1",
            file=sys.stderr,
        )
        return EXIT_INFEASIBLE
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cachegeo",
        description="Cache hit and outage model for small cell networks, "
        "with Monte Carlo validation.",
    )
    parser.add_argument("--version", action="version", version=f"cachegeo {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analytic", help="evaluate all closed-form quantities")
    _add_param_flags(p)
    p.add_argument("--epsilon", type=float, help="target hit probability for feasibility check")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_analytic)

    p = sub.add_parser("simulate", help="Monte Carlo estimate vs closed form")
    _add_param_flags(p)
    _add_sim_flags(p, SimConfig.trials, SimConfig.master_seed)
    # accepted only because perfbench/workloads.py still passes --window 100
    p.add_argument("--window", type=float, help="ignored: every run samples the whole plane")
    p.add_argument("--mode", choices=list(_MODES), default="emulated")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="run a parameter sweep, write CSV and JSON")
    p.add_argument("--config", help="JSON sweep spec; every flag given overrides "
                   "its field, and --trials attaches Monte Carlo columns")
    p.add_argument("--axis", choices=sorted(_AXIS_NAMES), help="swept parameter")
    p.add_argument("--from", dest="start", type=float, help="first axis value")
    p.add_argument("--to", dest="stop", type=float, help="last axis value")
    p.add_argument("--steps", type=int, help="number of grid points")
    p.add_argument("--log", action="store_true", help="log-spaced grid")
    p.add_argument("--quantity", choices=sorted(_QUANTITY_NAMES))
    p.add_argument("--series-axis", dest="series_axis", choices=sorted(_AXIS_NAMES))
    p.add_argument("--series-values", dest="series_values",
                   help="comma-separated values, one curve per value")
    _add_param_flags(p, required=False)
    _add_sim_flags(p, None, None)
    p.add_argument("--out", default=".", help="output directory (default: current)")
    p.add_argument("--name", default=None, help="output basename (default: spec label)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("figure", help="run a canned figure-style sweep preset")
    p.add_argument("--fig", type=int, required=True, choices=FIGURE_NUMBERS)
    _add_sim_flags(p, None, SimConfig.master_seed)
    p.add_argument("--out", default=".", help="output directory (default: current)")
    p.set_defaults(func=cmd_figure)

    p = sub.add_parser("plan", help="density or replication-ratio planning for a hit target")
    p.add_argument("--epsilon", type=float, required=True, help="target hit probability in [0, 1)")
    p.add_argument("--rth", type=float, required=True, help="threshold distance [m]")
    unknown = p.add_mutually_exclusive_group(required=True)
    unknown.add_argument("--pc", type=float, help="fixed replication ratio: solve for density")
    unknown.add_argument("--lambda", dest="lambda_s", type=float,
                         help="fixed density: solve for replication-ratio bounds")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_plan)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser that :func:`main` uses, built on its first call in the process.

    Parsing leaves the parser as it was, and help and usage text are
    formatted when printed, so one parser serves every call.
    """
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ParameterError as exc:
        print(f"error: {exc} (field: {exc.field})", file=sys.stderr)
        return EXIT_VALIDATION
    except DegenerateSampleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
