"""Closed-form hit and outage expressions, feasibility bounds, density planning.

All functions are pure and operate on validated :class:`~cachegeo.model.SystemParams`.
Probabilities are computed through ``expm1``/``log1p`` so that the small-exponent
regimes that sweeps visit do not lose precision. The one 2F1 the physical
closed form needs is summed by series (:func:`_tail_hypergeometric`), so only
the quadrature reference imports scipy, inside the function, for ``quad``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .model import ParameterError, SystemParams, checked

__all__ = [
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


def kappa(alpha: float) -> float:
    """Interference geometry constant Gamma(1 + 2/alpha) * Gamma(1 - 2/alpha).

    Scales the effective interferer density seen by a Rayleigh-faded link.
    Finite and positive for alpha > 2, tending to 1 as alpha grows; the
    second gamma factor has a pole at alpha = 2.
    """
    alpha = checked("alpha", alpha)
    return math.gamma(1.0 + 2.0 / alpha) * math.gamma(1.0 - 2.0 / alpha)


def outage_at_distance(params: SystemParams, r: float) -> float:
    """Outage probability of a Rayleigh-faded link at fixed distance ``r``.

    Probability that the SIR of a transmitter at distance ``r``, against
    the aggregate interference of the whole field, falls below the
    threshold: 1 - exp(-lambda_s * kappa * pi * r**2 * gamma**(2/alpha)).
    """
    if not 0.0 <= r < math.inf:
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


# F(alpha, z) is summed by Pfaff's series at z <= _NEAR_Z and by the 1/z series
# above; at the cut-over they take 150-175 (x = 0.8) and 25 (w = 0.25) terms
_NEAR_Z = 4.0
# a series stops once what it leaves out is below this share of its sum
_SERIES_TOL = sys.float_info.epsilon / 4.0
# (y - sin y)/y**3 = sum_k (-y**2)**k/(2k + 3)!, to double precision at y <= pi/2
_SINE_EXCESS = [1.0 / math.factorial(2 * k + 3) for k in range(11)]


def _tail_hypergeometric(alpha: float, z: float) -> float:
    """F(alpha, z) = 2F1(1, 1 - 2/alpha; 2 - 2/alpha; -z) of a float z >= 0.

    2/(alpha - 2) * z * F(alpha, z) = 2 * int_1^inf t / (1 + t**alpha / z) dt
    (DLMF 15.6.1), the faded interference of the field beyond a radius,
    which rho of :func:`physical_content_outage` takes at the server. It is
    summed by :func:`_near_tail` at z <= _NEAR_Z and by :func:`_far_tail`
    above, to a relative error below ~5e-15.
    """
    return _near_tail(alpha, z) if z <= _NEAR_Z else _far_tail(alpha, z)


def _horner(coefficients: list[float], x: float) -> float:
    """sum_n coefficients[n] * x**n."""
    total = coefficients[-1]
    for c in reversed(coefficients[:-1]):
        total *= x
        total += c
    return total


def _near_tail(alpha: float, z: float) -> float:
    """F(alpha, z) at 0 <= z <= _NEAR_Z, by Pfaff's transformation (DLMF 15.8.1).

    With b = 1 - 2/alpha and x = z/(1 + z) <= 0.8,
    F = (1 + z)**-1 * sum_n c_n * x**n, c_n = n!/(b + 1)_n, a sum of at
    least 1. The coefficients fall, c_{n+1} = c_n * (n + 1)/(n + 1 + b), so
    past the term c_N * x**N the rest is below c_N * x**(N + 1)/(1 - x); the
    sum stops once that is below _SERIES_TOL.
    """
    b, grown = (alpha - 2.0) / alpha, 1.0 + z
    x = z / grown
    coefficients = [1.0]
    while coefficients[-1] * x ** len(coefficients) > _SERIES_TOL * (1.0 - x):
        n = len(coefficients)
        coefficients.append(coefficients[-1] * n / (n + b))
    return _horner(coefficients, x) / grown


def _far_tail(alpha: float, z: float) -> float:
    """F(alpha, z) at z > _NEAR_Z, by the 1/z series (DLMF 15.8.2).

    With b = 1 - 2/alpha, d = 2/alpha, w = 1/z < 1/4 and P = pi/sin(pi*d),
    int_0^z u**(b-1)/(1 + u) du = P - int_z^inf gives
    F = b * w * (z**d * P - sum_n (-w)**n/(n + d)). As alpha grows, z**d * P
    and the n = 0 term both near 1/d and cancel, so the bracket is summed
    in three positive parts, (z**d - 1) * P + (P - 1/d) + w * S with
    S = sum_m (-w)**m/(m + 1 + d), and it is at least ln(1 + z):
    - b * w * (z**d - 1) * P is taken as z**-b * -expm1(-d * ln z) * b*P,
      which neither cancels nor overflows;
    - P - 1/d is pi * y**2 * (y - sin y)/y**3 / sin y at y = pi*d <= pi/2,
      and is at least pi - 2 above;
    - S alternates with falling terms, so it stops once the next term is
      below _SERIES_TOL.
    b and d are each computed directly, and sin(pi*d) as sin(pi*min(b, d)),
    so none loses digits as alpha nears 2 or grows.
    """
    b, d, w = (alpha - 2.0) / alpha, 2.0 / alpha, 1.0 / z
    reflection = math.pi / math.sin(math.pi * min(b, d))
    if d > 0.5:
        excess = reflection - 1.0 / d
    else:
        y = math.pi * d
        excess = math.pi * y * y * _horner(_SINE_EXCESS, -y * y) / math.sin(y)
    coefficients = [1.0 / (1.0 + d)]
    while coefficients[-1] * w ** len(coefficients) > _SERIES_TOL:
        coefficients.append(1.0 / (len(coefficients) + 1.0 + d))
    log_z = math.log(z)
    head = math.exp(-b * log_z) * (-math.expm1(-d * log_z) * (b * reflection))
    return head + b * w * (excess + w * _horner(coefficients, -w))


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

    That is, iff lambda_s reaches :func:`optimal_density` at the system's pc
    and r_th, by the rule :func:`replication_ratio_bounds` also applies.
    """
    return _reaches(_required_factor(epsilon, params.pc, params.r_th), params.lambda_s)


def replication_ratio_bounds(lambda_s: float, r_th: float, epsilon: float) -> FeasibilityBound:
    """Replication-ratio bounds reaching hit target ``epsilon`` at fixed density and distance.

    The lower bound is -ln(1 - epsilon) / (lambda_s * pi * r_th**2) and the
    upper bound is 1. Infeasibility (lower bound above 1) is flagged, not
    silently clamped: ``pc_required`` keeps the raw requirement.
    """
    required = _required_factor(epsilon, checked("lambda_s", lambda_s), r_th)
    return FeasibilityBound(
        pc_lower=min(required, 1.0),
        pc_upper=1.0,
        pc_required=required,
        min_density_area_product=-math.log1p(-epsilon),
        feasible=_reaches(required, 1.0),
    )


def _required_factor(epsilon: float, factor: float, r_th: float) -> float:
    """The inverse of :func:`cache_hit_prob`: -ln(1 - epsilon) / (factor * pi * r_th**2).

    With ``factor`` one of pc and lambda_s, the least value of the other
    reaching hit target ``epsilon``: 0 at a zero target, inf where the area
    factor*pi*r_th**2 underflows to 0 or is not positive.
    """
    epsilon, r_th = checked("epsilon", epsilon), checked("r_th", r_th)
    if epsilon == 0.0:
        return 0.0
    area = factor * math.pi * (r_th * r_th)
    return -math.log1p(-epsilon) / area if area > 0.0 else math.inf


def _reaches(required: float, available: float) -> bool:
    """The planners' one boundary rule: ``available`` reaches ``required`` up to rel 1e-12.

    A value planned by :func:`_required_factor` and fed back lands within
    rounding of its boundary.
    """
    return required <= available or math.isclose(required, available, rel_tol=1e-12)


def serving_distance_pdf(params: SystemParams, r: float) -> float:
    """Density of the distance to the nearest caching SBS, given a hit within r_th.

    f(r) = 2*pi*lambda_s*pc*r * exp(-lambda_s*pc*pi*r**2)
           / (1 - exp(-lambda_s*pc*pi*r_th**2))       for 0 <= r <= r_th.

    Undefined when pc = 0, where the conditioning hit event has probability
    zero, and refused where that probability is below the smallest normal
    float; both raise :class:`~cachegeo.model.ParameterError`.
    """
    rate, norm = _serving_distance_law(params)
    if not 0.0 <= r <= params.r_th:
        raise ParameterError("r", f"distance must lie in [0, r_th={params.r_th}], got {r}")
    return 2.0 * rate * r * math.exp(-rate * r * r) / norm


def _serving_distance_law(params: SystemParams) -> tuple[float, float]:
    """The rate lambda_s*pc*pi and the hit probability of the serving-distance law.

    The law is conditioned on a hit within r_th, so it is refused at
    pc = 0 (``cache_size_d``, by :func:`_hit_ratio`) and where the hit
    probability is below the smallest normal float (``r_th``): no density,
    draw or estimate can then be normalised by it.
    """
    rate = params.lambda_s * _hit_ratio(params) * math.pi
    norm = cache_hit_prob(params)
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
    never above it. The 2F1 factor is :func:`_tail_hypergeometric`.
    """
    pc = _hit_ratio(params)
    alpha, gamma = params.alpha, params.gamma
    rho = 2.0 / (alpha - 2.0) * (gamma * _tail_hypergeometric(alpha, gamma))
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
    if not 0.0 < rel_tol < math.inf:
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

    rate, _ = _serving_distance_law(params)
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
        lambda r: fn(r) * serving_distance_pdf(params, r),
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
    pc = checked("pc", pc)
    density = _required_factor(epsilon, pc, r_th)
    if epsilon != 0.0 and pc == 0.0:
        raise ParameterError(
            "pc", f"replication ratio must be positive to reach a nonzero target, got {pc}"
        )
    return density
