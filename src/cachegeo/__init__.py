"""Stochastic-geometry model of content caching in small cell networks.

Closed-form cache hit, outage and density-planning expressions over a
Poisson field of cache-equipped small cell base stations, paired with an
independent Monte Carlo engine that validates every formula.

The Monte Carlo engine, :mod:`cachegeo.simulate`, is the one module that
imports numpy. It loads on first use: its names below, and the submodule
itself, are served by the module ``__getattr__`` (PEP 562), so importing
the package, the CLI or the sweeps loads no numpy.
"""

__version__ = "0.1.0"

from .analytic import (
    FeasibilityBound,
    QuadratureError,
    cache_hit_prob,
    replication_ratio_bounds,
    content_outage,
    content_outage_quadrature,
    kappa,
    hit_target_feasible,
    optimal_density,
    outage_at_distance,
    physical_content_outage,
    serving_distance_pdf,
)
from .model import (
    DegenerateSampleError,
    ParameterError,
    SimConfig,
    SystemParams,
    db_to_linear,
    validate,
    with_replication_ratio,
)
from .sweep import (
    Axis,
    Quantity,
    SweepRow,
    SweepSpec,
    SweepTable,
    emit_csv,
    emit_json,
    figure_preset,
    read_json,
    run_sweep,
)

__all__ = [
    "__version__",
    "ParameterError",
    "SystemParams",
    "db_to_linear",
    "validate",
    "with_replication_ratio",
    "FeasibilityBound",
    "QuadratureError",
    "kappa",
    "outage_at_distance",
    "cache_hit_prob",
    "hit_target_feasible",
    "replication_ratio_bounds",
    "serving_distance_pdf",
    "content_outage",
    "physical_content_outage",
    "content_outage_quadrature",
    "optimal_density",
    "SimConfig",
    "Estimate",
    "PointSet",
    "DegenerateSampleError",
    "trial_stream",
    "draw_serving_distance",
    "outage_exponent",
    "estimate_content_outage",
    "estimate_cache_hit",
    "estimate_physical",
    "binomial_ci",
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
]

# the names of cachegeo.simulate that the package serves, importing it on
# first use: those of __all__ that the imports above did not bind
_SIMULATE_NAMES = frozenset(__all__).difference(globals())


def __getattr__(name: str):
    if name == "simulate" or name in _SIMULATE_NAMES:
        import importlib

        # not "from . import simulate", which asks the package for the
        # attribute first and so would call this function again
        simulate = importlib.import_module(f"{__name__}.simulate")
        return simulate if name == "simulate" else getattr(simulate, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
