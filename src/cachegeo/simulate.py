"""Monte Carlo engine: Poisson fields, conditional serving distances, SIR draws.

Trials run in consecutive blocks, vectorised within each block. Every
block draws from its own PCG64DXSM stream, seeded by the master seed with
the block index as its spawn key, and the block size follows from the mean
number of points a trial samples, so estimates are a function of (params,
config, seed) and bit-identical across runs.

Interferers are sampled point by point on a disc of radius R, the window;
the interference from beyond it is added in closed form. Given the
serving distance r0 and the sampled sum X = sum_i h_i (r0/r_i)**alpha, the
Rayleigh serving fade h0 averages the field beyond the window out
exactly: P(h0 < gamma*X + T_R) = 1 - exp(-gamma*X)*E[exp(-s*I_out)], with
s = gamma*r0**alpha and T_R = -ln E[exp(-s*I_out)] the tail exponent of
:func:`~cachegeo.analytic.interference_tail_exponent`. So each field's interference gains
T_R/gamma, and the outage estimate is unbiased for the infinite plane at
every window.

This module imports no scipy; the tail exponent loads ``scipy.special``
on its first call, so the cache-hit estimate and the CLI commands without
Monte Carlo outage run without loading it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .analytic import _serving_distance_law, cache_hit_prob, interference_tail_exponent
from .model import ParameterError, SystemParams

__all__ = [
    "SimConfig",
    "Estimate",
    "PointSet",
    "DegenerateSampleError",
    "trial_stream",
    "sample_ppp",
    "draw_serving_distance",
    "sir_sample",
    "interference_tail_exponent",
    "content_outage_trials",
    "estimate_content_outage",
    "estimate_cache_hit",
    "estimate_physical",
    "binomial_ci",
]

_SEED_SPACE = 2**64
_MAX_POINTS_PER_TRIAL = 5 * 10**7  # mean field size; ~400 MB per float64 array
_BLOCK_POINTS = 2**16  # mean points sampled per block of trials
_BLOCK_TRIALS = 4096  # most trials per block, reached on fields of few points


class DegenerateSampleError(RuntimeError):
    """No trial survived the conditioning event (effective sample size 0)."""


@dataclass(frozen=True)
class SimConfig:
    """Monte Carlo controls.

    ``window_radius`` is the radius of the disc on which interferers are
    sampled point by point; the field beyond it enters in closed form. None
    resolves to 10 * r_th, and a window must cover r_th.
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
    ``window_radius`` is the radius of the disc the fields were sampled
    on point by point.
    """

    mean: float
    ci_low: float
    ci_high: float
    confidence: float
    n: int
    n_discarded: int = 0
    window_radius: float | None = None

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


def trial_stream(master_seed: int, block_index: int) -> np.random.Generator:
    """RNG stream for one block of trials.

    A PCG64DXSM generator (O'Neill 2014) seeded by
    ``SeedSequence(master_seed, spawn_key=(block_index,))``, which is the
    child ``block_index`` that ``SeedSequence(master_seed).spawn`` would
    give: the seed sequence hashes the seed and the key into the
    generator's state, so the blocks of one run, and the runs of distinct
    seeds, draw from unrelated streams. The trials of a run fill
    consecutive blocks whose size follows the mean field size, so results
    are a function of (params, config, seed).
    """
    seed = np.random.SeedSequence(master_seed, spawn_key=(block_index,))
    return np.random.Generator(np.random.PCG64DXSM(seed))


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
    mean = lambda_s * math.pi * (window_radius * window_radius)
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
    rate, norm = _serving_distance_law(params)
    u = rng.random(size)
    r = np.sqrt(np.log1p(u * -norm) / -rate)
    return float(r) if size is None else r


def sir_sample(
    serving_r: np.ndarray,
    interferers: PointSet | tuple[PointSet, ...],
    alpha: float,
    rng: np.random.Generator,
    tail: np.ndarray | float = 0.0,
) -> np.ndarray:
    """One SIR draw per field of a block: h0 / (tail + sum_i h_i * (r0 / r_i)**alpha).

    Field k is served over a link at ``serving_r[k]`` and every point of
    field k interferes; the serving link is not one of them.
    ``interferers`` is one :class:`PointSet` or a tuple of them over the
    same fields, whose points together interfere. ``tail`` is each
    field's interference from beyond its sampled points, in the same units
    (:func:`interference_tail_exponent`). All fading gains are
    exponential with mean 1, drawn as h0 of every field first and then h
    of every point, set after set. Dividing the path gains by the serving
    one keeps every factor free of r0**-alpha: an empty field with no tail
    or r0 = 0 gives inf, which callers count as coverage, and a term too
    large for a float gives inf and so an SIR of 0, the limit of the exact
    value. The fades come from ``rng``, the block's stream after its
    fields and serving distances, so the SIRs are a function of (params,
    config, seed).
    """
    sets = (interferers,) if isinstance(interferers, PointSet) else interferers
    h0 = rng.exponential(size=sets[0].counts.size)
    interference = np.zeros(h0.size) + tail
    with np.errstate(over="ignore", divide="ignore"):
        for points in sets:
            relative = np.repeat(serving_r, points.counts)
            np.divide(relative, points.r, out=relative)
            np.power(relative, alpha, out=relative)
            relative *= rng.exponential(size=points.n)
            interference += _field_sums(relative, points.counts)
        return np.divide(h0, interference, out=h0)


def _field_sums(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Sum of each field's run of ``values``, fields back to back; 0 for an empty field.

    ``np.add.reduceat`` sums from each start to the next; it is given the
    starts of the nonempty fields only, because at an empty field's start
    it would return the next field's first value rather than 0.
    """
    sums = np.zeros(counts.size)
    filled = counts > 0
    starts = np.cumsum(counts) - counts
    sums[filled] = np.add.reduceat(values, starts[filled])
    return sums


def _blocks(cfg: SimConfig, points_per_trial: float):
    """Yield the stream and the trial count of each consecutive block of the run.

    ``points_per_trial`` is the mean number of points a trial samples. A
    block holds about _BLOCK_POINTS points on average, and between one and
    _BLOCK_TRIALS trials; its stream's spawn key is its index. A mean
    that underflows to 0 on a tiny disc takes _BLOCK_TRIALS.
    """
    per_block = _BLOCK_TRIALS
    if points_per_trial > 0:
        per_block = int(min(_BLOCK_TRIALS, max(1.0, _BLOCK_POINTS / points_per_trial)))
    for index, start in enumerate(range(0, cfg.trials, per_block)):
        yield trial_stream(cfg.master_seed, index), min(per_block, cfg.trials - start)


def _resolve_window(params: SystemParams, cfg: SimConfig) -> float:
    """The run's window radius: ``cfg.window_radius``, by default 10 * r_th; it must cover r_th."""
    window = 10.0 * params.r_th if cfg.window_radius is None else cfg.window_radius
    if window < params.r_th:
        raise ParameterError(
            "window_radius",
            f"window_radius {window} must cover the threshold distance {params.r_th}",
        )
    return window


def content_outage_trials(params: SystemParams, cfg: SimConfig):
    """Per-trial serving distances and outage indicators, emulated association.

    Each trial samples a fresh interference field on the window, draws an
    independent serving distance from the conditional law, draws fadings,
    adds the field beyond the window in closed form and records the event
    SIR < gamma. Returned arrays are ordered by trial index;
    :func:`estimate_content_outage` aggregates them, and callers can bin
    them by distance for conditional checks.
    """
    return _outage_trials(params, cfg)[1:]


def _outage_trials(params: SystemParams, cfg: SimConfig):
    _serving_distance_law(params)  # refuses pc = 0 or an underflowing hit before any block
    window = _resolve_window(params, cfg)
    distances, outages = [], []
    for rng, size in _blocks(cfg, _field_mean(params.lambda_s, window)):
        field = sample_ppp(params.lambda_s, window, rng, size)
        r0 = draw_serving_distance(params, rng, size)
        tail = interference_tail_exponent(params.lambda_s, params.alpha, params.gamma, r0, window)
        distances.append(r0)
        outages.append(sir_sample(r0, field, params.alpha, rng, tail) < params.gamma)
    return window, np.concatenate(distances), np.concatenate(outages)


def estimate_content_outage(params: SystemParams, cfg: SimConfig) -> Estimate:
    """Binomial estimate of the content outage fraction over ``cfg.trials`` realizations."""
    window, _, outages = _outage_trials(params, cfg)
    return _binomial_estimate(int(outages.sum()), cfg.trials, window_radius=window)


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
    return _binomial_estimate(hits, cfg.trials, window_radius=params.r_th)


def estimate_physical(params: SystemParams, cfg: SimConfig) -> Estimate:
    """Outage under physical association: nearest caching SBS in range serves.

    Its closed form is :func:`~cachegeo.analytic.physical_content_outage`,
    never above the emulated one. Trials with no caching SBS within r_th
    are discarded and counted in ``n_discarded``.
    Each SBS within r_th caches the content independently with probability
    pc, as in :func:`estimate_cache_hit`; the SIR is :func:`sir_sample`
    with the serving SBS taken out of its field.

    A trial first samples its field on the disc of radius r_th and marks
    the caches there; only a trial with a hit goes on to sample the
    annulus out to the window. The Poisson field on the disc and the one
    on the annulus are independent, so this is the whole-window field
    exactly in distribution, and ``n`` is Binomial(trials, hit
    probability) as before. The window's mean point count is checked
    against the per-trial cap before any draw. Beyond the window, which
    covers r_th, every SBS interferes at density lambda_s, so the far
    field is added in closed form exactly as in emulated mode.

    Raises :class:`DegenerateSampleError` when no trial survives the
    conditioning.
    """
    _serving_distance_law(params)  # refuses pc = 0 or an underflowing hit before any block
    window = _resolve_window(params, cfg)
    disc_mean = _field_mean(params.lambda_s, params.r_th)
    annulus_mean = _field_mean(params.lambda_s, window) - disc_mean
    inner_area = params.r_th * params.r_th
    annulus_area = window * window - inner_area
    outages = effective = 0
    for rng, size in _blocks(cfg, disc_mean + cache_hit_prob(params) * annulus_mean):
        disc = sample_ppp(params.lambda_s, params.r_th, rng, size)
        caching = np.flatnonzero(rng.random(disc.n) < params.pc)
        caching = caching[np.argsort(disc.r[caching])]
        # np.unique keeps each field's first, so nearest, caching point: one
        # server per field with a hit, also where two share a distance
        fields = np.searchsorted(np.cumsum(disc.counts), caching, side="right")
        served, first = np.unique(fields, return_index=True)
        serving = caching[first]
        hit = np.zeros(size, dtype=bool)
        hit[served] = True
        keep = np.repeat(hit, disc.counts)
        keep[serving] = False
        inner = PointSet(r=disc.r[keep], counts=disc.counts[served] - 1)
        # each hit field's own Poisson field on the annulus r_th < r <= window,
        # at distances sqrt(r_th**2 + (window**2 - r_th**2) * u)
        counts = rng.poisson(annulus_mean, served.size)
        outer = np.sqrt(inner_area + annulus_area * rng.random(int(counts.sum())))
        annulus = PointSet(r=outer, counts=counts)
        r0 = disc.r[serving]
        tail = interference_tail_exponent(params.lambda_s, params.alpha, params.gamma, r0, window)
        sir = sir_sample(r0, (inner, annulus), params.alpha, rng, tail)
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
    window_radius: float | None = None,
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
    )
