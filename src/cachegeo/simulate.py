"""Monte Carlo engine: Poisson fields, conditional serving distances, outage draws.

Trials run in consecutive blocks of _BLOCK_TRIALS, vectorised within each
block. Every block draws from its own PCG64DXSM stream, seeded by the
master seed with the block index as its spawn key, so estimates are a
function of (params, config, seed) and bit-identical across runs.

With Rayleigh fading every interferer's fade integrates out,
E[exp(-s*h)] = 1/(1 + s), so given the serving distance r0 an interferer
at r blocks the link, independently of the others, with probability
q = x/(1 + x), x = (s/r)**alpha at the reach s = gamma**(1/alpha) * r0.
The blocking SBSs are thus a Poisson field of intensity lambda_s * q, and
a trial samples it exactly by thinning (Lewis & Shedler 1979): it draws
the candidates, a Poisson field of the dominating intensity
lambda_s * min(1, x), whose mean count is finite on the whole plane, and
each blocks with probability q / min(1, x). A trial is in outage iff its
serving fade h0 ~ Exp(1), the one fade drawn, is below E = sum over
candidates of -ln(1 - q/min(1, x)) = log1p(max(x, 1/x)): -ln of the
coverage given the candidates. Candidates are sampled on the whole plane,
so the estimate is that of the infinite-plane model the closed forms
describe. As a term is at least ln 2, a trial with h0 < _FLOOR * N, N its
count of candidates, is in outage wherever they lie; only the others
place them.

Both associations run one block loop. Physical mode keeps the trials with
a hit, Binomial(trials, hit probability) of them, and samples them given
the hit: by independent thinning the SBSs with and without the content
are independent Poisson fields, so given the server at r0 the interferers
are the SBSs without the content and the caching SBSs beyond r0.

This is the one cachegeo module that imports numpy: the CLI and the
sweeps import it only in the functions that sample, so commands that
sample nothing never load numpy. It imports no scipy.
:class:`SimConfig` and :class:`DegenerateSampleError` are defined in
:mod:`cachegeo.model` and re-exported here.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .analytic import _serving_distance_law, cache_hit_prob
from .model import DegenerateSampleError, ParameterError, SimConfig, SystemParams, checked

__all__ = [
    "SimConfig",
    "Estimate",
    "PointSet",
    "DegenerateSampleError",
    "trial_stream",
    "draw_serving_distance",
    "outage_exponent",
    "content_outage_trials",
    "estimate_content_outage",
    "estimate_cache_hit",
    "estimate_physical",
    "binomial_ci",
]

_MAX_POINTS_PER_TRIAL = 10**18  # largest mean a count draw takes: candidates, or SBSs on a hit disc
_BLOCK_TRIALS = 4096  # trials per block
_FLOOR = 0.69  # below ln 2, the least term a candidate adds to an outage exponent


@dataclass(frozen=True)
class Estimate:
    """Binomial Monte Carlo estimate with a Wilson confidence interval.

    ``n`` is the effective sample size; ``n_discarded`` counts the trials
    without a caching SBS within r_th, which physical mode discards, so
    that ``n`` is Binomial(trials, hit probability) there (0 when emulated).
    """

    mean: float
    ci_low: float
    ci_high: float
    confidence: float
    n: int
    n_discarded: int = 0

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
    seeds, draw from unrelated streams.
    """
    seed = np.random.SeedSequence(master_seed, spawn_key=(block_index,))
    return np.random.Generator(np.random.PCG64DXSM(seed))


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
) -> np.ndarray:
    """-ln of each field's coverage given its candidates: sum_i log1p(max(x_i, 1/x_i)).

    Field k is served over a link at ``serving_r[k]``, and x_i =
    (s/r_i)**alpha at the reach s = gamma**(1/alpha) * serving_r[k].
    ``interferers`` is one :class:`PointSet` or a tuple of them, possibly
    empty, over the same fields: the candidates of :func:`_candidates`,
    drawn at intensity min(1, x) times the SBS density. A candidate blocks
    the link with probability q/min(1, x), q = x/(1 + x) the probability
    that an SBS at r_i does, and its term is -ln(1 - q/min(1, x)) =
    log1p(max(x, 1/x)), computed as a + log1p(exp(-a)) with
    a = alpha * |ln r_i - ln s|, which stays finite wherever r_i and s are
    positive: a term is ln 2 at r_i = s and grows both ways, so it is never
    below _FLOOR. Nothing is drawn: a trial is in outage iff its serving
    fade is below its exponent. A field without candidates gives 0;
    r_i = 0, or a candidate of a field with s = 0 (where candidates have
    intensity 0), gives inf, an outage, the limit of the exact term, as
    does a term or sum that overflows at an extreme alpha; and
    r0 = r_i = 0 gives NaN, which h0 < NaN counts as coverage.
    """
    sets = (interferers,) if isinstance(interferers, PointSet) else interferers
    exponent = np.zeros(serving_r.size)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
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


def _blocks(master_seed: int, trials: int):
    """Yield the stream, keyed by its index, and the trial count of each block of ``trials``."""
    for index, start in enumerate(range(0, trials, _BLOCK_TRIALS)):
        yield trial_stream(master_seed, index), min(_BLOCK_TRIALS, trials - start)


def _over_cap(field: str, subject: str, mean: float, what: str) -> ParameterError:
    """The refusal, naming the input ``field``, of a ``mean`` that no count draw takes.

    Callers test ``mean <= _MAX_POINTS_PER_TRIAL`` (false also for NaN)
    and build ``subject`` only when it fails.
    """
    return ParameterError(field, f"{field}: {subject} has {mean:.3g} {what} "
                          f"on average, above the cap of {_MAX_POINTS_PER_TRIAL:.0e}")


def _outage_blocks(params: SystemParams, cfg: SimConfig, physical=False):
    """Yield each block's serving distances and outage indicators under either association.

    A block draws its trials' serving distances, then each field's
    candidate count on the whole plane, then the serving fades h0. A
    candidate adds at least _FLOOR to a trial's :func:`outage_exponent`, so
    a trial with N of them and h0 < _FLOOR * N is in outage; only the other
    trials' candidates are placed (:func:`_place`). A physical block first
    draws how many of its trials have a hit, and only those go on; their
    fields are the SBSs without the content, none at pc = 1, and the
    caching ones beyond the server. Refused before any draw: an undefined
    serving-distance law, a link at r_th whose reach overflows (naming
    r_th), and one whose candidate mean, which bounds every trial's and is
    proportional to lambda_s, is above the cap (naming lambda_s).
    """
    _serving_distance_law(params)
    hit, pc = (cache_hit_prob(params), params.pc) if physical else (1.0, 0.0)
    lam, alpha, gamma = params.lambda_s, params.alpha, params.gamma
    reach = gamma ** (1.0 / alpha)
    link = np.array([reach * params.r_th])
    if link[0] == math.inf:  # every share and mean would be NaN
        raise ParameterError("r_th", f"r_th: the reach gamma**(1/alpha) * r_th "
                             f"= {reach:.3g} * {params.r_th:g} m overflows a float")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing mean is refused
        mean = _candidate_mean(lam, _candidate_shares(link, 0.0, alpha))[0]
    if not mean <= _MAX_POINTS_PER_TRIAL:
        raise _over_cap("lambda_s", f"a link at r_th {params.r_th:g} m on the whole plane "
                        f"at lambda_s {lam:g}", mean, "candidates")
    for rng, size in _blocks(cfg.master_seed, cfg.trials):
        served = rng.binomial(size, hit) if physical else size
        r0 = draw_serving_distance(params, rng, served)
        s = reach * r0
        # each field's density and shares: the SBSs without the content, the caching ones
        fields = [] if pc == 1.0 else [(lam * (1.0 - pc), _candidate_shares(s, 0.0, alpha))]
        if physical:
            fields.append((lam * pc, _candidate_shares(s, r0, alpha)))
        counts = [rng.poisson(_candidate_mean(density, shares)) for density, shares in fields]
        h0 = rng.standard_exponential(served)
        out = h0 < _FLOOR * sum(counts)
        # a decided trial places none of its candidates
        sets = tuple(_place(shares, np.where(out, 0, n), alpha, rng)
                     for (_, shares), n in zip(fields, counts))
        out |= h0 < outage_exponent(r0, sets, alpha, gamma)
        yield r0, out


def _candidate_shares(s: np.ndarray, inner, alpha: float):
    """Per field, the candidate mean on either side of the reach, in units of pi * s**2.

    With u = inner/s and b = max(u, 1), the dominating intensity
    min(1, (s/r)**alpha) integrates over r > inner to pi * s**2 times
    disc + beyond: disc = max(1 - u**2, 0) where it is 1, and
    beyond = 2/(alpha - 2) * b**(2 - alpha) past b. s = 0 takes u = 0.
    Returns (s, disc, beyond, u), each over the fields.
    """
    k = alpha - 2.0
    u = np.divide(inner, s, out=np.zeros_like(s), where=s > 0)
    b = np.maximum(u, 1.0)
    return s, np.maximum(1.0 - u * u, 0.0), 2.0 / k * b**-k, u


def _candidate_mean(density: float, shares) -> np.ndarray:
    """Per field, the mean candidate count (density * s) * s * pi * (disc + beyond).

    The product is taken in that order so that it overflows only where the
    mean does; it is 0 where s = 0. See :func:`_candidate_shares`.
    """
    s, disc, beyond = shares[:3]
    return (density * s) * s * math.pi * (disc + beyond)


def _candidates(
    density: float, s: np.ndarray, inner, alpha: float, rng: np.random.Generator
) -> PointSet:
    """Per reach s[k], a Poisson field of intensity density * min(1, (s[k]/r)**alpha).

    Field k's candidates lie on r > inner[k]; ``inner`` is 0 or an array
    over the fields. Their counts are Poisson of mean
    :func:`_candidate_mean`, and :func:`_place` places them.
    """
    shares = _candidate_shares(s, inner, alpha)
    return _place(shares, rng.poisson(_candidate_mean(density, shares)), alpha, rng)


def _place(shares, counts, alpha: float, rng) -> PointSet:
    """The distances of ``counts[k]`` candidates of field k, given its :func:`_candidate_shares`.

    With v uniform on [0, disc + beyond), a candidate lies at
    s * sqrt(u**2 + v), uniform in area, for v <= disc, and else at the
    power law's inverse CDF, s * b * (1 - f)**(-1/(alpha - 2)) with
    f = (v - disc)/beyond. A distance that overflows near alpha = 2 is inf,
    the exact limit.
    """
    scale, first, far_share, near = (np.repeat(x, counts) for x in shares)
    v = rng.random(int(counts.sum()))
    v *= first + far_share
    k = alpha - 2.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # only the candidates beyond the disc part use these; the others may give NaN
        f = (v - first) / far_share
        far = np.maximum(near, 1.0) * np.exp(np.log1p(-f) / -k)
        r = np.where(v <= first, np.sqrt(near * near + v), far)
        r *= scale
    return PointSet(r=r, counts=counts)


def content_outage_trials(params: SystemParams, cfg: SimConfig):
    """Per-trial serving distances and outage indicators, emulated association.

    The trials of :func:`estimate_content_outage`, as two arrays ordered by
    trial index, so callers can bin them by distance for conditional checks.
    """
    distances, outages = zip(*_outage_blocks(params, cfg))
    return np.concatenate(distances), np.concatenate(outages)


def estimate_content_outage(params: SystemParams, cfg: SimConfig) -> Estimate:
    """Binomial estimate of the content outage fraction over ``cfg.trials`` realizations."""
    return _estimate_outage(params, cfg, physical=False)


def estimate_cache_hit(params: SystemParams, cfg: SimConfig) -> Estimate:
    """Binomial estimate of the probability that some SBS within r_th caches the content.

    Each SBS holds the requested content independently with probability
    pc; under uniform popularity this is exactly drawing d of |C| contents
    without replacement and checking membership. By independent thinning
    the caching SBSs are a Poisson field of density lambda_s * pc, so each
    trial draws one count, Poisson of mean lambda_s * pc * pi * r_th**2,
    of the caching SBSs on the disc of radius r_th, and a hit is a nonzero
    count; no distance is drawn. A disc whose mean count of caching SBSs
    exceeds the per-trial cap is refused before any draw, naming lambda_s,
    which that mean is proportional to. This is the one-cell case of
    :func:`_cache_hit_estimates`.
    """
    (estimate,) = _cache_hit_estimates([params], cfg)
    if isinstance(estimate, ParameterError):
        raise estimate
    return estimate


def _cache_hit_estimates(cells, cfg: SimConfig) -> list:
    """:func:`estimate_cache_hit` of each cell's params, every cell drawn in one pass.

    Returns, per cell in order, its :class:`Estimate` over ``cfg.trials``
    trials, or the :class:`~cachegeo.model.ParameterError` that refuses its
    thinned mean; the refused cells draw nothing, and the others lie back
    to back in the pass (:func:`_hit_counts`).
    """
    results, means = [], []
    for params in cells:
        lam, pc, r_th = params.lambda_s, params.pc, params.r_th
        # 0 when nothing is cached, also where the disc's own mean overflows
        mean = lam * math.pi * (r_th * r_th) * pc if pc else 0.0
        if mean <= _MAX_POINTS_PER_TRIAL:
            means.append(mean)
            results.append(None)
        else:
            results.append(_over_cap("lambda_s", f"the disc of radius r_th {r_th:g} m at "
                                     f"lambda_s {lam:g} and pc {pc:.3g}", mean, "caching SBSs"))
    hits = iter(_hit_counts(means, cfg))
    return [_binomial_estimate(next(hits), cfg.trials) if result is None else result
            for result in results]


def _hit_counts(means, cfg: SimConfig) -> list[int]:
    """Each cell's number of trials with a caching SBS on its disc, all cells in one pass.

    Cell k holds ``cfg.trials`` trials that follow those of cell k - 1, and
    the pass's len(means) * cfg.trials trials lie over the blocks of
    :func:`_blocks`, each drawn from ``trial_stream(cfg.master_seed, b)``.
    Each run of one cell's trials within a block draws their counts at
    once, Poisson of the cell's thinned mean ``means[k]``, and a hit is a
    nonzero count. A one-cell pass draws as its blocks do, and memory
    stays at one block's counts whatever the number of cells.
    """
    blocks = _blocks(cfg.master_seed, len(means) * cfg.trials)
    rng, room, hits = None, 0, []
    for mean in means:
        left, hit = cfg.trials, 0
        while left:
            if room == 0:
                rng, room = next(blocks)
            size = min(left, room)
            hit += int(np.count_nonzero(rng.poisson(mean, size)))
            left -= size
            room -= size
        hits.append(hit)
    return hits


def estimate_physical(params: SystemParams, cfg: SimConfig) -> Estimate:
    """Outage under physical association: nearest caching SBS in range serves.

    Its closed form is :func:`~cachegeo.analytic.physical_content_outage`,
    never above the emulated one. Each SBS caches the content
    independently with probability pc, as in :func:`estimate_cache_hit`.
    Trials without a hit are discarded and counted in ``n_discarded``, so
    ``n`` is Binomial(trials, hit probability); the others are sampled
    given the hit, on the whole plane (module docstring). Raises
    :class:`DegenerateSampleError` when no trial has a hit.
    """
    return _estimate_outage(params, cfg, physical=True)


def _estimate_outage(params: SystemParams, cfg: SimConfig, physical: bool) -> Estimate:
    """Binomial outage estimate over the trials that have a server, all of them if emulated."""
    outages = served = 0
    for _, out in _outage_blocks(params, cfg, physical):
        outages += int(np.count_nonzero(out))
        served += out.size
    if served == 0:
        raise DegenerateSampleError(
            f"no caching SBS within r_th={params.r_th} in any of {cfg.trials} trials "
            "(effective sample size 0)"
        )
    return _binomial_estimate(outages, served, n_discarded=cfg.trials - served)


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
    z = _wilson_z(confidence)
    p_hat = successes / n
    denom = 1.0 + z * z / n
    center = (p_hat + z * z / (2.0 * n)) / denom
    margin = (z / denom) * math.sqrt(p_hat * (1.0 - p_hat) / n + z * z / (4.0 * n * n))
    # the bounds at proportions 0 and 1 are exact; keep them free of roundoff
    low = 0.0 if successes == 0 else max(0.0, center - margin)
    high = 1.0 if successes == n else min(1.0, center + margin)
    return low, high


@functools.cache
def _wilson_z(confidence: float) -> float:
    """The standard normal quantile that a two-sided interval at ``confidence`` reaches."""
    return NormalDist().inv_cdf(0.5 + confidence / 2.0)


def _binomial_estimate(
    successes: int, n: int, confidence: float = 0.99, n_discarded: int = 0
) -> Estimate:
    low, high = binomial_ci(successes, n, confidence)
    return Estimate(
        mean=successes / n,
        ci_low=low,
        ci_high=high,
        confidence=confidence,
        n=n,
        n_discarded=n_discarded,
    )
