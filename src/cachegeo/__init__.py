"""Stochastic-geometry model of content caching in small cell networks.

Closed-form cache hit, outage and density-planning expressions over a
Poisson field of cache-equipped small cell base stations, paired with an
independent Monte Carlo engine that validates every formula.
"""

__version__ = "0.1.0"

from .analytic import (
    FeasibilityBound,
    QuadratureError,
    cache_hit_prob,
    min_density_area_for_target,
    replication_ratio_bounds,
    content_outage,
    content_outage_quadrature,
    interference_tail_exponent,
    kappa,
    hit_target_feasible,
    optimal_density,
    outage_at_distance,
    physical_content_outage,
    serving_distance_pdf,
)
from .model import (
    ParameterError,
    SystemParams,
    db_to_linear,
    validate,
    with_replication_ratio,
)
from .simulate import (
    DegenerateSampleError,
    Estimate,
    PointSet,
    SimConfig,
    binomial_ci,
    draw_serving_distance,
    estimate_cache_hit,
    estimate_content_outage,
    estimate_physical,
    sample_ppp,
    sir_sample,
    trial_stream,
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
    "min_density_area_for_target",
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
    "sample_ppp",
    "draw_serving_distance",
    "sir_sample",
    "interference_tail_exponent",
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
