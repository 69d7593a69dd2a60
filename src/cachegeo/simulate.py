"""Monte Carlo engine: Poisson fields, conditional serving distances, SIR draws.

Trials run in consecutive blocks, vectorised within each block. Every
block owns a counter-based RNG stream derived from the master seed and
the block index, and the block size follows from the mean number of points
a trial samples, so estimates are a function of (params, config, seed) and
bit-identical across runs.

Interferers are sampled on a finite disc, which lowers the emulated outage
below its infinite-plane value by an exactly computable truncation bias
(:func:`truncation_bias`). The default disc is the smallest one whose bias
fits a quarter of the run's 99% confidence half-width, and every emulated
estimate reports the bias of the disc it used.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np
from scipy.optimize import brentq
from scipy.special import hyp2f1

from .analytic import _serving_distance_expectation, cache_hit_prob, content_outage
from .model import ParameterError, SystemParams

__all__ = [
    "SimConfig",
    "Estimate",
    "PointSet",
    "TruncationWindowWarning",
    "DegenerateSampleError",
    "trial_stream",
    "sample_ppp",
    "draw_serving_distance",
    "sir_sample",
    "interference_tail_mean",
    "interference_tail_exponent",
    "truncation_bias",
    "recommended_window_radius",
    "content_outage_trials",
    "estimate_content_outage",
    "estimate_cache_hit",
    "estimate_physical",
    "binomial_ci",
]

_SEED_SPACE = 2**64
_MAX_POINTS_PER_TRIAL = 5 * 10**7  # mean field size; ~400 MB per float64 array
_WINDOW_RTOL = 1e-6  # relative accuracy of the default window's root find
_BLOCK_POINTS = 2**16  # mean points sampled per block of trials
_BLOCK_TRIALS = 4096  # most trials per block, reached on fields of few points


class TruncationWindowWarning(UserWarning):
    """Interference window whose truncation bias exceeds the run's budget."""


class DegenerateSampleError(RuntimeError):
    """No trial survived the conditioning event (effective sample size 0)."""


@dataclass(frozen=True)
class SimConfig:
    """Monte Carlo controls.

    ``window_radius`` is the radius of the disc on which interferers are
    sampled; None resolves to :func:`recommended_window_radius` for the
    parameters and the trial count of the run.
    """

    trials: int = 5000
    master_seed: int = 0
    window_radius: float | None = None

    def __post_init__(self):
        if not isinstance(self.trials, int) or self.trials < 1:
            raise ParameterError("trials", f"trials must be a positive integer, got {self.trials}")
        if not isinstance(self.master_seed, int) or not 0 <= self.master_seed < _SEED_SPACE:
            raise ParameterError(
                "master_seed", f"master_seed must be a 64-bit unsigned integer, got {self.master_seed}"
            )
        if self.window_radius is not None and not (
            math.isfinite(self.window_radius) and self.window_radius > 0
        ):
            raise ParameterError(
                "window_radius", f"window_radius must be positive, got {self.window_radius}"
            )


@dataclass(frozen=True)
class Estimate:
    """Binomial Monte Carlo estimate with a Wilson confidence interval.

    ``n`` is the effective sample size; ``n_discarded`` counts trials
    dropped by a conditioning event (physical mode only);
    ``window_radius`` is the radius of the disc the fields were sampled on;
    ``truncation_bias`` is how far that disc lowers the expected outage
    below its infinite-plane value (:func:`truncation_bias`): 0.0 for the
    cache hit, whose field on r_th is exact, and None in physical mode,
    for which no formula is derived.
    """

    mean: float
    ci_low: float
    ci_high: float
    confidence: float
    n: int
    n_discarded: int = 0
    window_radius: float | None = None
    truncation_bias: float | None = None

    def contains(self, value: float) -> bool:
        return self.ci_low <= value <= self.ci_high


@dataclass(frozen=True)
class PointSet:
    """The fields of one block of trials, kept as distances from the origin.

    ``r`` holds every field's distances, field after field, and
    ``counts[k]`` is the number of points of field k. Interference and
    association depend on where the points are only through their
    distances from the origin, so no angles are kept.
    """

    r: np.ndarray  # shape (n,), meters, grouped by field
    counts: np.ndarray  # shape (fields,), points per field

    @property
    def n(self) -> int:
        """Points over all fields."""
        return self.r.shape[0]

    def radii(self) -> np.ndarray:
        """Distances of all points from the origin."""
        return self.r

    def owners(self) -> np.ndarray:
        """Index of the field that holds each point."""
        return np.repeat(np.arange(self.counts.size), self.counts)


def trial_stream(master_seed: int, block_index: int) -> np.random.Generator:
    """Counter-based RNG stream for one block of trials.

    All streams share the Philox key ``master_seed`` and are separated by
    the 128-bit counter block ``block_index`` (Salmon et al., SC 2011).
    The trials of a run fill consecutive blocks whose size follows the
    mean field size, so results are a function of (params, config, seed).
    """
    bitgen = np.random.Philox(key=master_seed, counter=block_index << 128)
    return np.random.Generator(bitgen)


def sample_ppp(
    lambda_s: float, window_radius: float, rng: np.random.Generator, size: int
) -> PointSet:
    """``size`` independent realizations of a homogeneous Poisson field on the disc.

    Each field's count is Poisson with mean lambda_s * pi * window_radius**2
    and its points are i.i.d. uniform on the disc, so each distance is
    window_radius times the sqrt of a uniform draw; no angle is drawn.
    Raises ParameterError, before any draw, when the mean count of a field
    exceeds the per-trial point cap. The estimators pass their block's
    stream and size, about 2**16 points' worth of fields, so the draws are
    a function of (params, config, seed).
    """
    counts = rng.poisson(_field_mean(lambda_s, window_radius), size)
    r = window_radius * np.sqrt(rng.random(int(counts.sum())))
    return PointSet(r=r, counts=counts)


def _field_mean(lambda_s: float, window_radius: float) -> float:
    """Mean point count of a field on the disc; ParameterError above the per-trial cap."""
    if lambda_s <= 0:
        raise ParameterError("lambda_s", f"lambda_s must be positive, got {lambda_s}")
    if window_radius <= 0:
        raise ParameterError("window_radius", f"window_radius must be positive, got {window_radius}")
    mean = lambda_s * math.pi * window_radius**2
    if mean > _MAX_POINTS_PER_TRIAL:
        raise ParameterError(
            "window_radius",
            f"window_radius {window_radius:g} m at lambda_s {lambda_s:g} holds {mean:.3g} "
            f"points per trial on average, above the cap of {_MAX_POINTS_PER_TRIAL:.0e}",
        )
    return mean


def draw_serving_distance(
    params: SystemParams, rng: np.random.Generator, size: int | None = None
):
    """Sample the distance to the serving SBS, conditioned on a hit within r_th.

    Inverse-CDF sampling of the conditional nearest-caching-SBS law:
    r = sqrt(-ln(1 - u*(1 - exp(-lambda_s*pc*pi*r_th**2))) / (lambda_s*pc*pi))
    for u uniform on [0, 1). Returns a float, or an array when ``size``
    is given.
    """
    pc = params.pc
    if pc <= 0.0:
        raise ParameterError(
            "cache_size_d",
            "serving distance is conditioned on a cache hit, impossible at pc = 0",
        )
    rate = params.lambda_s * pc * math.pi
    tail = math.expm1(-rate * params.r_th**2)  # exp(-c) - 1, in (-1, 0)
    u = rng.random(size)
    r = np.sqrt(np.log1p(u * tail) / -rate)
    return float(r) if size is None else r


def sir_sample(
    serving_r: np.ndarray,
    interferers: PointSet,
    alpha: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """One SIR draw per field of a block: h0 / sum_i h_i * (r0 / r_i)**alpha.

    Field k is served over a link at ``serving_r[k]`` and every point of
    field k interferes; the serving link is not one of them. All fading
    gains are exponential with mean 1. Dividing the path gains by the
    serving one keeps every factor free of r0**-alpha: an empty field or
    r0 = 0 gives inf, which callers count as coverage, and a term too large
    for a float gives inf and so an SIR of 0, the limit of the exact value.
    The fades come from ``rng``, the block's stream after its fields and
    serving distances, so the SIRs are a function of (params, config, seed).
    """
    h0 = rng.exponential(size=interferers.counts.size)
    owner = interferers.owners()
    h = rng.exponential(size=interferers.n)
    with np.errstate(over="ignore", divide="ignore"):
        relative = h * (serving_r[owner] / interferers.radii()) ** alpha
        return h0 / np.bincount(owner, weights=relative, minlength=interferers.counts.size)


def interference_tail_mean(lambda_s: float, alpha: float, radius: float) -> float:
    """Mean faded interference power arriving from beyond ``radius``.

    2*pi*lambda_s * radius**(2-alpha) / (alpha - 2) with unit-mean fading;
    what a finite sampling window discards relative to the infinite plane.
    """
    if alpha <= 2:
        raise ParameterError("alpha", f"alpha must exceed 2, got {alpha}")
    if radius <= 0:
        raise ParameterError("window_radius", f"radius must be positive, got {radius}")
    return 2.0 * math.pi * lambda_s * radius ** (2.0 - alpha) / (alpha - 2.0)


def interference_tail_exponent(lambda_s: float, alpha: float, s: float, radius: float) -> float:
    """-ln of the Laplace transform at ``s`` of the faded interference from beyond ``radius``.

    The probability generating functional of the Poisson field with
    unit-mean exponential fading gives
    T_R(s) = 2*pi*lambda_s * s * R**(2-alpha) / (alpha - 2)
             * 2F1(1, 1 - 2/alpha; 2 - 2/alpha; -s * R**-alpha),
    the Euler-integral form of 2*pi*lambda_s * int_R^inf r / (1 + r**alpha / s) dr.
    """
    if alpha <= 2:
        raise ParameterError("alpha", f"alpha must exceed 2, got {alpha}")
    if radius <= 0:
        raise ParameterError("window_radius", f"radius must be positive, got {radius}")
    delta = 2.0 / alpha
    return (
        2.0 * math.pi * lambda_s * s * radius ** (2.0 - alpha) / (alpha - 2.0)
        * hyp2f1(1.0, 1.0 - delta, 2.0 - delta, -s * radius**-alpha)
    )


def truncation_bias(params: SystemParams, radius: float) -> float:
    """How far a window of ``radius`` lowers the expected emulated outage.

    Given the serving distance r0, a trial covers with probability L(s),
    the Laplace transform of its interference at s = gamma*r0**alpha. The
    field inside the window gives L_R(s) = exp(-pi*lambda_s*R**2 *
    2F1(1, 2/alpha; 1 + 2/alpha; -R**alpha/s)); the infinite plane gives
    L_inf(s) = L_R(s)*exp(-T_R(s)), with T_R from
    :func:`interference_tail_exponent`. The bias is E[L_R - L_inf] =
    E[L_R*(1 - exp(-T_R))] over the serving-distance law: nonnegative,
    falling in ``radius``, and free of the cancellation that subtracting
    two near-equal exponents would bring near alpha = 2.
    """
    if radius < params.r_th:
        raise ParameterError(
            "window_radius",
            f"window_radius {radius} must cover the threshold distance {params.r_th}",
        )
    delta = 2.0 / params.alpha
    area = radius * radius

    def excess_coverage(r0: float) -> float:
        # both exponents are R**2 times a function of v = s*R**-alpha alone;
        # r0 <= r_th <= R keeps v <= gamma, so no power overflows
        v = params.gamma * (r0 / radius) ** params.alpha
        if v == 0.0:
            return 0.0  # nothing beyond the window reaches the serving link
        inside = math.pi * params.lambda_s * hyp2f1(1.0, delta, 1.0 + delta, -1.0 / v)
        tail = interference_tail_exponent(params.lambda_s, params.alpha, v, 1.0)
        return math.exp(-area * inside) * -math.expm1(-area * tail)

    return _serving_distance_expectation(params, excess_coverage, 1e-10)


def _bias_budget(params: SystemParams, trials: int) -> float:
    """A quarter of the Wilson 99% half-width at the closed-form outage over ``trials`` samples.

    The Wilson half-width stays positive where the outage is 0 or 1.
    """
    low, high = binomial_ci(content_outage(params) * trials, trials)
    return (high - low) / 8.0


def recommended_window_radius(params: SystemParams, trials: int) -> float:
    """Default window: the smallest radius whose truncation bias fits the budget.

    The budget is a quarter of the 99% Wilson half-width that ``trials``
    samples give at the closed-form outage. Returns max(10*r_th, R*),
    where R* is the smallest radius whose :func:`truncation_bias` is
    within the budget; the bias falls monotonically in the radius, so R*
    is bracketed by doubling and found by a root search. Returns inf when
    R* lies beyond the per-trial point cap.
    """
    budget = _bias_budget(params, trials)

    def excess(radius: float) -> float:
        return truncation_bias(params, radius) - budget

    cap = math.sqrt(_MAX_POINTS_PER_TRIAL / (params.lambda_s * math.pi))
    floor = 10.0 * params.r_th
    lo = hi = floor
    while excess(hi) > 0.0:
        if hi >= cap:
            return math.inf
        lo, hi = hi, min(2.0 * hi, cap)
    if hi == floor:
        return floor
    root = brentq(excess, lo, hi, xtol=_WINDOW_RTOL * lo, rtol=_WINDOW_RTOL)
    # brentq puts R* within 2*_WINDOW_RTOL*root of root; the step up lands
    # on the side whose bias meets the budget
    return min(hi, root * (1.0 + 2.0 * _WINDOW_RTOL))


def _blocks(cfg: SimConfig, points_per_trial: float):
    """Yield the stream and the trial count of each consecutive block of the run.

    ``points_per_trial`` is the mean number of points a trial samples. A
    block holds about _BLOCK_POINTS points on average, and between one and
    _BLOCK_TRIALS trials; its stream's counter is its index.
    """
    per_block = int(min(_BLOCK_TRIALS, max(1.0, _BLOCK_POINTS / points_per_trial)))
    for index, start in enumerate(range(0, cfg.trials, per_block)):
        yield trial_stream(cfg.master_seed, index), min(per_block, cfg.trials - start)


def _resolve_window(params: SystemParams, cfg: SimConfig) -> tuple[float, float]:
    """The run's window radius and the truncation bias of the emulated outage on it."""
    if cfg.window_radius is None:
        window = recommended_window_radius(params, cfg.trials)
        if window == math.inf:
            raise ParameterError(
                "window_radius",
                f"no window of at most {_MAX_POINTS_PER_TRIAL:.0e} points per trial keeps "
                f"the truncation bias at alpha {params.alpha:g} within a quarter of the 99% "
                f"half-width of {cfg.trials} trials; pass a window to accept a larger bias",
            )
        return window, truncation_bias(params, window)
    window = cfg.window_radius
    bias = truncation_bias(params, window)
    budget = _bias_budget(params, cfg.trials)
    if bias > budget:
        warnings.warn(
            f"window_radius {window:g} m lowers the expected outage by {bias:.3g}, above "
            f"the budget of {budget:.3g} (a quarter of the 99% half-width of "
            f"{cfg.trials} trials)",
            TruncationWindowWarning,
            stacklevel=3,
        )
    return window, bias


def content_outage_trials(params: SystemParams, cfg: SimConfig):
    """Per-trial serving distances and outage indicators, emulated association.

    Each trial samples a fresh interference field, draws an independent
    serving distance from the conditional law, draws fadings and records
    the event SIR < gamma. Returned arrays are ordered by trial index;
    :func:`estimate_content_outage` aggregates them, and callers can bin
    them by distance for conditional checks.
    """
    return _outage_trials(params, cfg)[2:]


def _outage_trials(params: SystemParams, cfg: SimConfig):
    if params.pc <= 0.0:
        raise ParameterError(
            "cache_size_d",
            "content outage is conditioned on a cache hit, impossible at pc = 0",
        )
    window, bias = _resolve_window(params, cfg)
    distances, outages = [], []
    for rng, size in _blocks(cfg, _field_mean(params.lambda_s, window)):
        field = sample_ppp(params.lambda_s, window, rng, size)
        r0 = draw_serving_distance(params, rng, size)
        distances.append(r0)
        outages.append(sir_sample(r0, field, params.alpha, rng) < params.gamma)
    return window, bias, np.concatenate(distances), np.concatenate(outages)


def estimate_content_outage(params: SystemParams, cfg: SimConfig) -> Estimate:
    """Binomial estimate of the content outage fraction over ``cfg.trials`` realizations."""
    window, bias, _, outages = _outage_trials(params, cfg)
    return _binomial_estimate(
        int(outages.sum()), cfg.trials, window_radius=window, truncation_bias=bias
    )


def estimate_cache_hit(params: SystemParams, cfg: SimConfig) -> Estimate:
    """Binomial estimate of the probability that some SBS within r_th caches the content.

    Each trial samples the field on the disc of radius r_th and marks each
    SBS as holding the requested content independently with probability
    pc; under uniform popularity this is exactly drawing d of |C| contents
    without replacement and checking membership. A hit is at least one
    marked SBS, so the marked count of a field is Binomial(count, pc).
    """
    hits = 0
    for rng, size in _blocks(cfg, _field_mean(params.lambda_s, params.r_th)):
        field = sample_ppp(params.lambda_s, params.r_th, rng, size)
        hits += int(np.count_nonzero(rng.binomial(field.counts, params.pc)))
    return _binomial_estimate(hits, cfg.trials, window_radius=params.r_th, truncation_bias=0.0)


def estimate_physical(params: SystemParams, cfg: SimConfig) -> Estimate:
    """Outage under physical association: nearest caching SBS in range serves.

    Cross-check mode, expected to deviate from the emulated estimate: the
    serving SBS is excluded from the interference here (pushing outage
    down, dominant when the hit event is near-certain, e.g. pc = 1 at high
    density), while conditioning on a hit size-biases the field upward
    (pushing outage up, dominant at small pc). Trials with no caching SBS
    within r_th are discarded and counted in ``n_discarded``. Each SBS
    within r_th caches the content independently with probability pc, as
    in :func:`estimate_cache_hit`; the SIR is :func:`sir_sample` with the
    serving SBS taken out of its field.

    A trial first samples its field on the disc of radius r_th and marks
    the caches there; only a trial with a hit goes on to sample the
    annulus out to the window. The Poisson field on the disc and the one
    on the annulus are independent, so this is the whole-window field
    exactly in distribution, and ``n`` is Binomial(trials, hit
    probability) as before. The window's mean point count is checked
    against the per-trial cap before any draw.

    Raises :class:`DegenerateSampleError` when no trial survives the
    conditioning.
    """
    window, _ = _resolve_window(params, cfg)
    disc_mean = _field_mean(params.lambda_s, params.r_th)
    annulus_mean = _field_mean(params.lambda_s, window) - disc_mean
    outages = effective = 0
    for rng, size in _blocks(cfg, disc_mean + cache_hit_prob(params) * annulus_mean):
        disc = sample_ppp(params.lambda_s, params.r_th, rng, size)
        radii, owner = disc.radii(), disc.owners()
        caching = np.flatnonzero(rng.random(disc.n) < params.pc)
        serving = caching[np.argsort(radii[caching])]
        # np.unique keeps each field's first, so nearest, caching point: one
        # server per field with a hit, also where two share a distance
        served, first = np.unique(owner[serving], return_index=True)
        serving = serving[first]
        hit = np.zeros(size, dtype=bool)
        hit[served] = True
        keep = hit[owner]
        keep[serving] = False
        inner = PointSet(r=radii[keep], counts=disc.counts[served] - 1)
        others = _join_annulus(inner, annulus_mean, params.r_th, window, rng)
        sir = sir_sample(radii[serving], others, params.alpha, rng)
        outages += int(np.count_nonzero(sir < params.gamma))
        effective += served.size
    if effective == 0:
        raise DegenerateSampleError(
            f"no caching SBS within r_th={params.r_th} in any of {cfg.trials} trials "
            "(effective sample size 0)"
        )
    return _binomial_estimate(
        outages, effective, n_discarded=cfg.trials - effective, window_radius=window
    )


def _join_annulus(
    inner: PointSet, mean: float, r_th: float, window_radius: float, rng: np.random.Generator
) -> PointSet:
    """Each field of ``inner`` joined by its own Poisson field on the annulus r_th < r <= window.

    An annulus holds a Poisson count of mean ``mean``, at distances
    sqrt(r_th**2 + (window**2 - r_th**2) * u) for u uniform on [0, 1).
    Each field's disc points go in just before its annulus points, at the
    field's offset in the annulus array: one O(n) pass, no sort of the
    joined points.
    """
    counts = rng.poisson(mean, inner.counts.size)
    outer = np.sqrt(r_th**2 + (window_radius**2 - r_th**2) * rng.random(int(counts.sum())))
    r = np.insert(outer, np.repeat(np.cumsum(counts) - counts, inner.counts), inner.r)
    return PointSet(r=r, counts=inner.counts + counts)


def binomial_ci(successes: float, n: int, confidence: float = 0.99) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Stays inside [0, 1] and always contains the point estimate, also at
    proportions of exactly 0 or 1, which the sweep tails produce.
    ``successes`` may be an expected count, n times a probability.
    """
    if n <= 0:
        raise ParameterError("n", f"need at least one trial, got n={n}")
    if not 0 <= successes <= n:
        raise ParameterError("successes", f"successes must lie in [0, {n}], got {successes}")
    if not 0.0 < confidence < 1.0:
        raise ParameterError("confidence", f"confidence must lie in (0, 1), got {confidence}")
    z = NormalDist().inv_cdf(0.5 + confidence / 2.0)
    p_hat = successes / n
    denom = 1.0 + z * z / n
    center = (p_hat + z * z / (2.0 * n)) / denom
    margin = (z / denom) * math.sqrt(p_hat * (1.0 - p_hat) / n + z * z / (4.0 * n * n))
    # the bounds at proportions 0 and 1 are exact; keep them free of roundoff
    low = 0.0 if successes == 0 else max(0.0, center - margin)
    high = 1.0 if successes == n else min(1.0, center + margin)
    return low, high


def _binomial_estimate(
    successes: int, n: int, confidence: float = 0.99, n_discarded: int = 0,
    window_radius: float | None = None, truncation_bias: float | None = None,
) -> Estimate:
    low, high = binomial_ci(successes, n, confidence)
    return Estimate(
        mean=successes / n,
        ci_low=low,
        ci_high=high,
        confidence=confidence,
        n=n,
        n_discarded=n_discarded,
        window_radius=window_radius,
        truncation_bias=truncation_bias,
    )
