"""Monte Carlo engine: Poisson fields, conditional serving distances, outage draws.

Trials run in consecutive blocks, vectorised within each block. Every
block draws from its own PCG64DXSM stream, seeded by the master seed with
the block index as its spawn key, and the block size follows from the mean
number of points a trial samples, so estimates are a function of (params,
config, seed) and bit-identical across runs.

Interferers are sampled on a disc of radius R, the window, and the field
beyond it enters in closed form. With Rayleigh fading every interferer's
fade integrates out, E[exp(-s*h)] = 1/(1 + s), so given the serving
distance r0 an interferer at r blocks the link, independently of the
others, with probability q = x/(1 + x), x = (s/r)**alpha at the reach
s = gamma**(1/alpha) * r0. The blocking SBSs are thus a Poisson field of
intensity lambda_s * q, and a trial samples it exactly by thinning
(Lewis & Shedler 1979): it draws the candidates, a Poisson field of the
dominating intensity lambda_s * min(1, x) whose mean count has a closed
form and is at most lambda_s * pi * R**2, and each candidate blocks with
probability q / min(1, x). A trial is in outage iff its serving fade
h0 ~ Exp(1), the one fade drawn, is below E = T_R + sum over candidates
of -ln(1 - q/min(1, x)) = log1p(max(x, 1/x)): -ln of the coverage given
the candidates, sampled inside R and integrated beyond it (T_R,
:func:`~cachegeo.analytic.interference_tail_exponent`). Given r0 that
event has the probability it has with every SBS on the window sampled and
every fade drawn, so the estimate is unbiased for the infinite plane at
every window.

Both associations run one block loop. Physical mode keeps the trials with
a hit, Binomial(trials, hit probability) of them, and samples them given
the hit: by independent thinning the SBSs with and without the content
are independent Poisson fields, so given the server at r0 the interferers
are the SBSs without the content on the window and the caching SBSs on
r0 < r <= R, each field sampled through its candidates.

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
    "outage_exponent",
    "interference_tail_exponent",
    "content_outage_trials",
    "estimate_content_outage",
    "estimate_cache_hit",
    "estimate_physical",
    "binomial_ci",
]

_SEED_SPACE = 2**64
_MAX_POINTS_PER_TRIAL = 5 * 10**7  # mean SBS count of a sampled disc, refused above this
_BLOCK_POINTS = 2**16  # mean points sampled per block of trials
_BLOCK_TRIALS = 4096  # most trials per block, reached on fields of few points


class DegenerateSampleError(RuntimeError):
    """No trial survived the conditioning event (effective sample size 0)."""


@dataclass(frozen=True)
class SimConfig:
    """Monte Carlo controls.

    ``window_radius`` is the radius of the disc on which interferers are
    sampled, through the candidates that may block; the field beyond it
    enters in closed form. None resolves to 10 * r_th, and a window must
    cover r_th.
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

    ``n`` is the effective sample size; ``n_discarded`` counts the trials
    without a caching SBS within r_th, which physical mode discards, so
    that ``n`` is Binomial(trials, hit probability) there (0 when emulated);
    ``window_radius`` is the radius of the disc the fields were sampled
    on.
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
    exceeds the per-trial point cap. The cache-hit estimator passes its
    block's stream and size, about 2**16 points' worth of fields, so the
    draws are a function of (params, config, seed).
    """
    counts = rng.poisson(_field_mean(lambda_s, window_radius), size)
    r = rng.random(int(counts.sum()))
    np.sqrt(r, out=r)
    r *= window_radius
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


def outage_exponent(
    serving_r: np.ndarray,
    interferers: PointSet | tuple[PointSet, ...],
    alpha: float,
    gamma: float,
    tail: np.ndarray | float = 0.0,
) -> np.ndarray:
    """-ln of each field's coverage given its candidates: tail + sum_i log1p(max(x_i, 1/x_i)).

    Field k is served over a link at ``serving_r[k]``, and x_i =
    (s/r_i)**alpha at the reach s = gamma**(1/alpha) * serving_r[k].
    ``interferers`` is one :class:`PointSet` or a tuple of them, possibly
    empty, over the same fields: the candidates of :func:`_candidates`,
    drawn at intensity min(1, x) times the SBS density. A candidate blocks
    the link with probability q/min(1, x), q = x/(1 + x) the probability
    that an SBS at r_i does, and its term is -ln(1 - q/min(1, x)) =
    log1p(max(x, 1/x)), computed as a + log1p(exp(-a)) with
    a = alpha * |ln r_i - ln s|, which stays finite wherever r_i and s are
    positive: a term is ln 2 at r_i = s and grows both ways.
    ``tail`` is each field's exponent from beyond the window
    (:func:`interference_tail_exponent`).
    Nothing is drawn: a trial is in outage iff its serving fade is below
    its exponent. A field without candidates gives its tail; r_i = 0, or a
    candidate of a field with s = 0 (where candidates have intensity 0),
    gives inf, an outage, the limit of the exact term; and
    r0 = r_i = 0 gives NaN, which h0 < NaN counts as coverage.
    """
    sets = (interferers,) if isinstance(interferers, PointSet) else interferers
    exponent = np.zeros(serving_r.size) + tail
    with np.errstate(divide="ignore", invalid="ignore"):
        log_reach = np.log(gamma ** (1.0 / alpha) * serving_r)
        for points in sets:
            a = np.log(points.r)
            a -= np.repeat(log_reach, points.counts)
            np.abs(a, out=a)
            a *= alpha
            terms = np.exp(-a)
            np.log1p(terms, out=terms)
            terms += a
            exponent += _field_sums(terms, points.counts)
    return exponent


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
    """The window radius of an outage run: ``cfg.window_radius``, by default 10 * r_th.

    Refuses, before any block is drawn, a run whose serving-distance law
    is undefined (pc = 0 or an underflowing hit probability) and a window
    that does not cover r_th.
    """
    _serving_distance_law(params)
    window = 10.0 * params.r_th if cfg.window_radius is None else cfg.window_radius
    if window < params.r_th:
        raise ParameterError(
            "window_radius",
            f"window_radius {window} must cover the threshold distance {params.r_th}",
        )
    return window


def _outage_blocks(params: SystemParams, cfg: SimConfig, window: float, physical=False):
    """Yield each block's serving distances and outage indicators under either association.

    A trial draws a serving distance from the conditional law, samples the
    candidates of its field on the window (:func:`_candidates`), takes its
    :func:`outage_exponent`, far field included, and draws its serving
    fade. A physical block first draws how many of its trials have a hit,
    and only those go on; their field holds the SBSs without the content,
    none at pc = 1, and the caching ones beyond the server. Blocks are
    sized by the candidate mean at r0 = r_th, which bounds every trial's,
    and the window's SBS count is held to the per-trial cap before any
    draw. One block's arrays live at a time.
    """
    hit, pc = (cache_hit_prob(params), params.pc) if physical else (1.0, 0.0)
    lam, alpha = params.lambda_s, params.alpha
    others = lam * (1.0 - pc)
    reach = params.gamma ** (1.0 / alpha)
    disc, beyond, _ = _candidate_shares(np.array([reach * params.r_th]), 0.0, window, alpha)
    for rng, size in _blocks(cfg, hit * _field_mean(lam, window) * float(disc[0] + beyond[0])):
        served = rng.binomial(size, hit) if physical else size
        r0 = draw_serving_distance(params, rng, served)
        s = reach * r0
        fields = (_candidates(others, s, 0.0, window, alpha, rng),) if others > 0 else ()
        if physical:
            fields += (_candidates(lam * pc, s, r0, window, alpha, rng),)
        tail = interference_tail_exponent(lam, alpha, params.gamma, r0, window)
        exponent = outage_exponent(r0, fields, alpha, params.gamma, tail)
        yield r0, rng.standard_exponential(served) < exponent


def _candidate_shares(s: np.ndarray, inner, window_radius: float, alpha: float):
    """Per field, the candidate mean on either side of the reach, in units of pi * R**2.

    With c = min(s/R, 1), i = inner/R and b = max(i, c), the dominating
    intensity min(1, (s/r)**alpha) integrates over inner < r <= R to
    pi * R**2 times disc + beyond: disc = max(c**2 - i**2, 0) where it is 1
    and beyond = 2 * c**2 / (alpha - 2) * ((c/b)**(alpha - 2) - c**(alpha - 2))
    past b, where it is (s/r)**alpha. Every ratio is at most 1, so nothing
    overflows, and disc + beyond <= 1 - i**2. Returns (disc, beyond, b).
    """
    c = np.minimum(s / window_radius, 1.0)
    i = inner / window_radius
    b = np.maximum(i, c)
    k = alpha - 2.0
    ratio = np.divide(c, b, out=np.ones_like(b), where=b > 0)
    disc = np.maximum(c * c - i * i, 0.0)
    return disc, 2.0 * (c * c) / k * (ratio**k - c**k), b


def _candidates(
    density: float, s: np.ndarray, inner, window_radius: float, alpha: float,
    rng: np.random.Generator,
) -> PointSet:
    """Per reach s[k], a Poisson field of intensity density * min(1, (s[k]/r)**alpha).

    Field k's candidates lie on inner[k] < r <= R, R the window radius;
    ``inner`` is 0 or an array over the fields. Field k's count is Poisson
    with mean density * pi * R**2 * (disc + beyond) (:func:`_candidate_shares`).
    A candidate lies where the intensity is the density with probability
    disc / (disc + beyond), uniform in area there, at R * sqrt(i**2 + v)
    for v uniform on [0, disc); beyond that, the power law's inverse CDF
    puts it at R * b * (1 - f * (1 - b**(alpha - 2)))**(-1/(alpha - 2)) for
    f uniform on [0, 1). One uniform draw per candidate picks both, and a
    distance that rounds past R is held at R.
    """
    disc, beyond, b = _candidate_shares(s, inner, window_radius, alpha)
    whole = disc + beyond
    counts = rng.poisson(density * math.pi * (window_radius * window_radius) * whole)
    i2 = np.broadcast_to((inner / window_radius) ** 2, s.shape)
    first, total, near, start = (np.repeat(x, counts) for x in (disc, whole, i2, b))
    v = rng.random(int(counts.sum()))
    v *= total
    k = alpha - 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        # only the candidates beyond the disc part use these; the others may give NaN
        f = (v - first) / (total - first)
        far = start * (1.0 - f * (1.0 - start**k)) ** (-1.0 / k)
    r = np.where(v < first, np.sqrt(near + v), far)
    np.minimum(r, 1.0, out=r)
    r *= window_radius
    return PointSet(r=r, counts=counts)


def content_outage_trials(params: SystemParams, cfg: SimConfig):
    """Per-trial serving distances and outage indicators, emulated association.

    The trials of :func:`estimate_content_outage`, as two arrays ordered by
    trial index, so callers can bin them by distance for conditional checks.
    """
    distances, outages = zip(*_outage_blocks(params, cfg, _resolve_window(params, cfg)))
    return np.concatenate(distances), np.concatenate(outages)


def estimate_content_outage(params: SystemParams, cfg: SimConfig) -> Estimate:
    """Binomial estimate of the content outage fraction over ``cfg.trials`` realizations."""
    return _estimate_outage(params, cfg, physical=False)


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
    never above the emulated one. Each SBS caches the content
    independently with probability pc, as in :func:`estimate_cache_hit`.
    Trials without a hit are discarded and counted in ``n_discarded``, so
    ``n`` is Binomial(trials, hit probability); the others are sampled
    given the hit (module docstring), and beyond the window every SBS
    interferes, in closed form as in emulated mode. Raises
    :class:`DegenerateSampleError` when no trial has a hit.
    """
    return _estimate_outage(params, cfg, physical=True)


def _estimate_outage(params: SystemParams, cfg: SimConfig, physical: bool) -> Estimate:
    """Binomial outage estimate over the trials that have a server, all of them if emulated."""
    window = _resolve_window(params, cfg)
    outages = served = 0
    for _, out in _outage_blocks(params, cfg, window, physical):
        outages += int(np.count_nonzero(out))
        served += out.size
    if served == 0:
        raise DegenerateSampleError(
            f"no caching SBS within r_th={params.r_th} in any of {cfg.trials} trials "
            "(effective sample size 0)"
        )
    n_discarded = cfg.trials - served
    return _binomial_estimate(outages, served, n_discarded=n_discarded, window_radius=window)


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
