"""Closed-form hit and outage expressions, feasibility bounds, density planning.

All functions are pure and operate on validated :class:`~cachegeo.model.SystemParams`.
Probabilities are computed through ``expm1``/``log1p`` so that the small-exponent
regimes that sweeps visit do not lose precision. scipy is imported only inside
the functions that call it (the tail exponent's ``hyp2f1`` and the quadrature's
``quad``), so the emulated closed forms load without it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .model import ParameterError, SystemParams

__all__ = [
    "FeasibilityBound",
    "QuadratureError",
    "kappa",
    "outage_at_distance",
    "interference_tail_exponent",
    "cache_hit_prob",
    "hit_target_feasible",
    "min_density_area_for_target",
    "replication_ratio_bounds",
    "serving_distance_pdf",
    "content_outage",
    "physical_content_outage",
    "content_outage_quadrature",
    "optimal_density",
]


class QuadratureError(RuntimeError):
    """Adaptive integration failed to reach the requested tolerance."""

    def __init__(self, message: str, value: float, error_estimate: float):
        super().__init__(message)
        self.value = value
        self.error_estimate = error_estimate


@dataclass(frozen=True)
class FeasibilityBound:
    """Admissible replication-ratio interval for a cache hit target.

    ``pc_required`` is the unclamped lower bound; ``feasible`` is False when
    it exceeds 1, meaning no replication ratio can reach the target at the
    given density and distance. ``min_density_area_product`` is the
    density-area product lambda_s*pi*r_th**2 a system needs at full
    replication (pc_upper).
    """

    pc_lower: float
    pc_upper: float
    pc_required: float
    min_density_area_product: float
    feasible: bool


def _check_epsilon(epsilon: float) -> float:
    if not (math.isfinite(epsilon) and 0.0 <= epsilon < 1.0):
        raise ParameterError(
            "epsilon",
            f"target hit probability must lie in [0, 1), got {epsilon}; "
            "the hit probability is strictly below 1 at any finite density",
        )
    return epsilon


def kappa(alpha: float) -> float:
    """Interference geometry constant Gamma(1 + 2/alpha) * Gamma(1 - 2/alpha).

    Scales the effective interferer density seen by a Rayleigh-faded link.
    Finite and positive for alpha > 2, tending to 1 as alpha grows; the
    second gamma factor has a pole at alpha = 2.
    """
    if not (math.isfinite(alpha) and alpha > 2):
        raise ParameterError("alpha", f"alpha must exceed 2, got {alpha}")
    return math.gamma(1.0 + 2.0 / alpha) * math.gamma(1.0 - 2.0 / alpha)


def outage_at_distance(params: SystemParams, r: float) -> float:
    """Outage probability of a Rayleigh-faded link at fixed distance ``r``.

    Probability that the SIR of a transmitter at distance ``r``, against
    the aggregate interference of the whole field, falls below the
    threshold: 1 - exp(-lambda_s * kappa * pi * r**2 * gamma**(2/alpha)).
    """
    if not (math.isfinite(r) and r >= 0.0):
        raise ParameterError("r", f"distance must be nonnegative, got {r}")
    exponent = (
        params.lambda_s
        * kappa(params.alpha)
        * math.pi
        * r
        * r
        * params.gamma ** (2.0 / params.alpha)
    )
    return -math.expm1(-exponent)


def interference_tail_exponent(
    lambda_s: float, alpha: float, gamma: float, r0, radius: float
):
    """Tail exponent of the faded interference from beyond ``radius``, divided by gamma.

    The probability generating functional of the Poisson field with
    unit-mean exponential fading gives, at s = gamma * r0**alpha,
    T_R(s) = 2*pi*lambda_s * int_R^inf r / (1 + r**alpha / s) dr
           = -ln E[exp(-s * I_out)],
    with I_out the interference from beyond R (Haenggi, *Stochastic
    Geometry for Wireless Networks*, ch. 5). Returned is T_R(s)/gamma,
    the far field's share of the interference relative to the serving
    path gain, in its Euler-integral form
    2*pi*lambda_s * R**2 * (r0/R)**alpha / (alpha - 2)
        * 2F1(1, 1 - 2/alpha; 2 - 2/alpha; -v),   v = gamma * (r0/R)**alpha,
    which stays finite at any alpha and as gamma -> 0, because r0 <= R
    keeps (r0/R)**alpha <= 1. ``r0`` is a float or an array of serving
    distances in [0, R]; the result has its shape.
    """
    if alpha <= 2:
        raise ParameterError("alpha", f"alpha must exceed 2, got {alpha}")
    if radius <= 0:
        raise ParameterError("window_radius", f"radius must be positive, got {radius}")
    from scipy.special import hyp2f1

    delta = 2.0 / alpha
    reach = (np.asarray(r0, dtype=float) / radius) ** alpha
    return (
        2.0 * math.pi * lambda_s * (radius * radius) * reach / (alpha - 2.0)
        * hyp2f1(1.0, 1.0 - delta, 2.0 - delta, -gamma * reach)
    )


def cache_hit_prob(params: SystemParams) -> float:
    """Probability that at least one SBS within r_th holds a given content.

    Equals 1 - exp(-lambda_s * pc * pi * r_th**2): the caching SBSs form a
    thinned Poisson field of intensity lambda_s * pc, and a hit is the
    event that the disc of radius r_th is not empty of them.
    """
    exponent = params.lambda_s * params.pc * math.pi * (params.r_th * params.r_th)
    return -math.expm1(-exponent)


def hit_target_feasible(params: SystemParams, epsilon: float) -> bool:
    """True iff the density, replication ratio and distance can reach hit target ``epsilon``.

    The condition is pc * lambda_s * pi * r_th**2 >= -ln(1 - epsilon).
    """
    _check_epsilon(epsilon)
    product = params.pc * params.lambda_s * math.pi * (params.r_th * params.r_th)
    return product >= -math.log1p(-epsilon)


def min_density_area_for_target(pc: float, epsilon: float) -> float:
    """Minimum admissible density-area product lambda_s*pi*r_th**2 at fixed ``pc``.

    Returns -ln(1 - epsilon) / pc; zero when the target is zero.
    """
    _check_epsilon(epsilon)
    pc = float(pc)
    if epsilon == 0.0:
        return 0.0
    if not (0.0 < pc <= 1.0):
        raise ParameterError(
            "pc", f"replication ratio must be positive to reach a nonzero target, got {pc}"
        )
    return -math.log1p(-epsilon) / pc


def replication_ratio_bounds(lambda_s: float, r_th: float, epsilon: float) -> FeasibilityBound:
    """Replication-ratio bounds reaching hit target ``epsilon`` at fixed density and distance.

    The lower bound is -ln(1 - epsilon) / (lambda_s * pi * r_th**2) and the
    upper bound is 1. Infeasibility (lower bound above 1) is flagged, not
    silently clamped: ``pc_required`` keeps the raw requirement.
    """
    if not (math.isfinite(lambda_s) and lambda_s > 0):
        raise ParameterError("lambda_s", f"lambda_s must be positive, got {lambda_s}")
    if not (math.isfinite(r_th) and r_th > 0):
        raise ParameterError("r_th", f"r_th must be positive, got {r_th}")
    _check_epsilon(epsilon)
    product = lambda_s * math.pi * (r_th * r_th)
    target = -math.log1p(-epsilon)
    # a product that underflows to 0 leaves a nonzero target out of reach
    required = target / product if product > 0.0 else (math.inf if target > 0.0 else 0.0)
    # exact-boundary constructions land within a rounding error of 1
    feasible = required <= 1.0 or math.isclose(required, 1.0, rel_tol=1e-12)
    return FeasibilityBound(
        pc_lower=min(required, 1.0),
        pc_upper=1.0,
        pc_required=required,
        min_density_area_product=target,
        feasible=feasible,
    )


def serving_distance_pdf(params: SystemParams, r: float) -> float:
    """Density of the distance to the nearest caching SBS, given a hit within r_th.

    f(r) = 2*pi*lambda_s*pc*r * exp(-lambda_s*pc*pi*r**2)
           / (1 - exp(-lambda_s*pc*pi*r_th**2))       for 0 <= r <= r_th.

    Undefined when pc = 0, where the conditioning hit event has probability
    zero, and refused where that probability is below the smallest normal
    float; both raise :class:`~cachegeo.model.ParameterError`.
    """
    rate, norm = _serving_distance_law(params)
    if not (math.isfinite(r) and 0.0 <= r <= params.r_th):
        raise ParameterError("r", f"distance must lie in [0, r_th={params.r_th}], got {r}")
    return 2.0 * rate * r * math.exp(-rate * r * r) / norm


def _serving_distance_law(params: SystemParams) -> tuple[float, float]:
    """The rate lambda_s*pc*pi and the hit probability of the serving-distance law.

    The law is conditioned on a hit within r_th, so it is refused at
    pc = 0 (``cache_size_d``) and where the hit probability is below the
    smallest normal float (``r_th``): no density, draw or estimate can
    then be normalised by it.
    """
    if params.pc <= 0.0:
        raise ParameterError(
            "cache_size_d",
            "the serving distance is conditioned on a cache hit, impossible at pc = 0",
        )
    rate = params.lambda_s * params.pc * math.pi
    norm = -math.expm1(-rate * (params.r_th * params.r_th))
    if norm < sys.float_info.min:
        raise ParameterError(
            "r_th",
            f"the hit probability lambda_s*pc*pi*r_th**2 = {norm:.3g} at r_th {params.r_th:g} "
            "is below the smallest normal float, so the serving-distance law cannot be "
            "normalised",
        )
    return rate, norm


def content_outage(params: SystemParams) -> float:
    """Probability of missing the SIR threshold for a requested content.

    Conditions the fixed-distance outage on the serving distance drawn
    from :func:`serving_distance_pdf` and integrates it in closed form:

        1 - pc * (1 - exp(-lambda_s*(pc + kappa*gamma**(2/alpha))*pi*r_th**2))
            / ((1 - exp(-lambda_s*pc*pi*r_th**2)) * (pc + kappa*gamma**(2/alpha)))

    Requires pc > 0 (the conditioning hit event must have positive
    probability). This is the emulated association, in which the whole
    field interferes; :func:`physical_content_outage` is the physical one.
    """
    pc = _hit_ratio(params)
    excess = kappa(params.alpha) * params.gamma ** (2.0 / params.alpha)
    return _conditioned_outage(pc, excess, params.lambda_s * math.pi * (params.r_th * params.r_th))


def physical_content_outage(params: SystemParams) -> float:
    """Content outage when the nearest caching SBS within r_th serves and does not interfere.

    Given the server at r0, no caching SBS lies nearer and the others, at
    density lambda_s*pc beyond r0 and lambda_s*(1 - pc) everywhere,
    interfere, so the coverage given r0 is
    exp(-lambda_s*pi*r0**2 * (pc*rho + (1 - pc)*kappa*gamma**(2/alpha))),
    rho = 2*gamma/(alpha - 2) * 2F1(1, 1 - 2/alpha; 2 - 2/alpha; -gamma)
    (Andrews, Baccelli & Ganti, IEEE Trans. Commun. 2011). Averaged over
    the serving-distance law, the outage has the shape of
    :func:`content_outage` with that excess in place of
    kappa*gamma**(2/alpha), and since rho <= kappa*gamma**(2/alpha) it is
    never above it. rho is the tail exponent of the unit field beyond a
    unit radius, so this loads ``scipy.special``.
    """
    pc = _hit_ratio(params)
    alpha, gamma = params.alpha, params.gamma
    rho = gamma * float(interference_tail_exponent(1.0 / math.pi, alpha, gamma, 1.0, 1.0))
    excess = pc * rho + (1.0 - pc) * kappa(alpha) * gamma ** (2.0 / alpha)
    return _conditioned_outage(pc, excess, params.lambda_s * math.pi * (params.r_th * params.r_th))


def _hit_ratio(params: SystemParams) -> float:
    """The replication ratio pc, refused at 0, where the conditioning hit cannot happen."""
    if params.pc <= 0.0:
        raise ParameterError(
            "cache_size_d",
            "content outage is conditioned on a cache hit, impossible at pc = 0",
        )
    return params.pc


def _conditioned_outage(pc: float, excess: float, area: float) -> float:
    """1 - (pc/c) * (1 - exp(-c*area)) / (1 - exp(-pc*area)), c = pc + excess.

    The outage given a hit within r_th, when the coverage given the
    serving distance r0 is exp(-excess * lambda_s*pi*r0**2) and
    area = lambda_s*pi*r_th**2. Below _CANCELLATION_FLOOR the subtraction
    from 1 has lost digits, so the outage is taken from
    :func:`_small_outage` instead, which adds only nonnegative terms; it is
    0 where r_th**2 underflows.
    """
    c = pc + excess
    if pc * area >= sys.float_info.min:
        outage = 1.0 - (pc * math.expm1(-c * area)) / (c * math.expm1(-pc * area))
        if outage >= _CANCELLATION_FLOOR:
            return outage
    return _small_outage(pc, excess, area)


# 1 - ratio is exact to a few units of 1e-16, so above this floor the
# outage keeps at least 12 significant digits
_CANCELLATION_FLOOR = 1e-3


def _small_outage(pc: float, excess: float, area: float) -> float:
    """The content outage as a sum of nonnegative terms, for outages that 1 - ratio cancels.

    With c = pc + excess, a = pc*area, b = c*area, delta = b - a and
    phi(x) = (1 - exp(-x))/x, the outage is 1 - phi(b)/phi(a), which is

        (excess/c) * (1 - exp(-a)*phi(delta)/phi(a))
      = (excess/c) * (a - (1 + a)*f(a) + exp(-a)*f(delta)) / (1 - f(a)),

    f(x) = 1 - phi(x). The first form keeps its digits for a >= 1/2,
    where exp(-a)*phi(delta)/phi(a) <= a/(exp(a) - 1) < 0.78; the second
    for a < 1/2, where every term is nonnegative and f is a series.
    """
    a, delta = pc * area, excess * area
    if a < 0.5:
        share = (a - (1.0 + a) * _one_minus_phi(a) + math.exp(-a) * _one_minus_phi(delta)) / (
            1.0 - _one_minus_phi(a)
        )
    else:
        # beyond 745, a*exp(-a) < 1e-320 is far under the last digit of share >= 0.22;
        # the cap also keeps an infinite area out of a*exp(-a)
        a = min(a, 745.0)
        share = 1.0 - math.exp(-a) * (1.0 - _one_minus_phi(delta)) * a / -math.expm1(-a)
    return excess / (pc + excess) * share


def _one_minus_phi(x: float) -> float:
    """1 - (1 - exp(-x))/x for x >= 0, by its Taylor series x/2 - x**2/6 + ... below 1/2."""
    if x >= 0.5:
        return 1.0 + math.expm1(-x) / x
    term = total = x / 2.0
    for k in range(3, 20):  # the first term left out, 0.5**19 / 20!, is below 1e-24
        term *= -x / k
        total += term
    return total


def content_outage_quadrature(params: SystemParams, rel_tol: float = 1e-10) -> float:
    """Content outage by adaptive quadrature, the independent route to the closed form.

    Integrates outage_at_distance(r) * serving_distance_pdf(r) over
    [0, r_th] with both absolute and relative tolerance ``rel_tol``.

    Raises :class:`QuadratureError` when the integrator's error estimate
    exceeds the tolerance, reporting the achieved estimate.
    """
    if not (math.isfinite(rel_tol) and rel_tol > 0):
        raise ParameterError("rel_tol", f"tolerance must be positive, got {rel_tol}")
    return _serving_distance_expectation(
        params, lambda r: outage_at_distance(params, r), rel_tol
    )


def _serving_distance_expectation(params: SystemParams, fn, rel_tol: float) -> float:
    """E[fn(r0)] over the serving-distance law, by adaptive quadrature on [0, r_th].

    Integrates fn(r) * serving_distance_pdf(r) with both absolute and
    relative tolerance ``rel_tol``; raises :class:`QuadratureError` when
    the integrator's error estimate exceeds it.
    """
    from scipy.integrate import quad

    rate, norm = _serving_distance_law(params)

    def integrand(r: float) -> float:
        pdf = 2.0 * rate * r * math.exp(-rate * r * r) / norm
        return fn(r) * pdf

    # hint the pdf's mode and effective support edge, and the distances over
    # which the outage at distance r rises, so a sharply peaked integrand on
    # a wide interval is not missed by the first panels
    scale = params.lambda_s * kappa(params.alpha) * math.pi * params.gamma ** (2.0 / params.alpha)
    hints = (
        1.0 / math.sqrt(2.0 * rate), math.sqrt(40.0 / rate),
        1.0 / math.sqrt(scale), math.sqrt(40.0 / scale),
    )
    breakpoints = sorted(p for p in hints if 0.0 < p < params.r_th)
    value, abserr = quad(
        integrand,
        0.0,
        params.r_th,
        points=breakpoints or None,
        epsabs=rel_tol,
        epsrel=rel_tol,
        limit=200,
    )
    if abserr > max(rel_tol, rel_tol * abs(value)):
        raise QuadratureError(
            f"quadrature error estimate {abserr:.3e} exceeds tolerance {rel_tol:.3e}",
            value=value,
            error_estimate=abserr,
        )
    return value


def optimal_density(epsilon: float, pc: float, r_th: float) -> float:
    """Smallest SBS density reaching hit target ``epsilon`` at fixed ``pc`` and ``r_th``.

    Returns -ln(1 - epsilon) / (pc * pi * r_th**2), the exact inverse of
    :func:`cache_hit_prob` in the density argument.
    """
    _check_epsilon(epsilon)
    if not (math.isfinite(r_th) and r_th > 0):
        raise ParameterError("r_th", f"r_th must be positive, got {r_th}")
    if epsilon == 0.0:
        return 0.0
    pc = float(pc)
    if not (0.0 < pc <= 1.0):
        raise ParameterError(
            "pc", f"replication ratio must be positive to reach a nonzero target, got {pc}"
        )
    area = pc * math.pi * (r_th * r_th)
    # an area that underflows to 0 needs an unbounded density
    return -math.log1p(-epsilon) / area if area > 0.0 else math.inf
