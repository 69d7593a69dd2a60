"""Monte Carlo engine: sampling laws, the outage kernel, estimators, determinism."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, special, stats

from cachegeo.analytic import (
    cache_hit_prob,
    content_outage,
    outage_at_distance,
    physical_content_outage,
)
from cachegeo.model import ParameterError, SystemParams, db_to_linear, validate
from cachegeo.simulate import (
    DegenerateSampleError,
    Estimate,
    PointSet,
    SimConfig,
    binomial_ci,
    content_outage_trials,
    draw_serving_distance,
    estimate_cache_hit,
    estimate_content_outage,
    estimate_physical,
    outage_exponent,
    trial_stream,
)
from cachegeo.simulate import (
    _FLOOR,
    _cache_hit_estimates,
    _candidate_mean,
    _candidate_shares,
    _candidates,
    _hit_counts,
    _place,
)

WILSON_50_100_95 = (0.403831530366, 0.596168469634)  # direct-formula oracle


def make_params(**overrides):
    base = dict(
        lambda_s=0.1, alpha=3.0, gamma=0.1, r_th=5.0, cache_size_d=2, library_size=100
    )
    base.update(overrides)
    return validate(SystemParams(**base))


class FakeRng:
    """Drop-in stub feeding scripted uniform draws."""

    def __init__(self, uniforms=()):
        self._uniforms = list(uniforms)

    def random(self, size=None):
        if size is None:
            return self._uniforms.pop(0)
        return np.full(size, self._uniforms.pop(0))


# -- RNG streams -----------------------------------------------------------------


def test_trial_streams_are_reproducible_and_distinct():
    a = trial_stream(123, 7).random(8)
    b = trial_stream(123, 7).random(8)
    c = trial_stream(123, 8).random(8)
    d = trial_stream(124, 7).random(8)
    assert (a == b).all()
    assert (a != c).any()
    assert (a != d).any()


# -- serving distance sampler --------------------------------------------------------


def test_serving_distance_inverse_cdf_endpoints():
    p = make_params()
    assert draw_serving_distance(p, FakeRng(uniforms=[0.0])) == 0.0
    near_one = draw_serving_distance(p, FakeRng(uniforms=[1.0 - 1e-16]))
    assert math.isclose(near_one, p.r_th, rel_tol=1e-6)


def test_serving_distance_requires_cached_content():
    with pytest.raises(ParameterError):
        draw_serving_distance(make_params(cache_size_d=0), trial_stream(0, 0))


def test_serving_distance_matches_quadrature_cdf():
    # reference CDF built by integrating the density, not by the sampler's
    # own inverse formula
    from cachegeo.analytic import serving_distance_pdf

    p = make_params(r_th=10.0)
    rng = trial_stream(4, 0)
    samples = draw_serving_distance(p, rng, size=20_000)

    grid = np.linspace(0.0, p.r_th, 2001)
    pdf = np.array([serving_distance_pdf(p, r) for r in grid])
    cdf_grid = np.concatenate(([0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2.0 * np.diff(grid))))
    cdf_grid /= cdf_grid[-1]
    result = stats.kstest(samples, lambda x: np.interp(x, grid, cdf_grid))
    assert result.statistic < stats.kstwobign.ppf(0.99) / math.sqrt(samples.size)


# -- outage kernel ----------------------------------------------------------------------


def test_outage_exponent_of_one_interferer_at_the_serving_distance():
    # a candidate at r0 has x = gamma and the term log1p(max(x, 1/x)) =
    # log1p(1/gamma); one at the reach s = gamma**(1/alpha) * r0 has x = 1
    # and the term log1p(1)
    reach = 0.1 ** (1.0 / 3.0) * 3.0
    interferers = PointSet(r=np.array([3.0, reach]), counts=np.array([1, 1]))
    exponent = outage_exponent(np.array([3.0, 3.0]), interferers, 3.0, 0.1)
    assert exponent == pytest.approx([math.log1p(10.0), math.log1p(1.0)], rel=1e-15)


def test_sir_per_field_symmetric_interferer_and_empty_field():
    # one block of two fields: a single interferer at the serving distance
    # gives log1p(1/gamma), and the empty second field must not see that interferer
    block = PointSet(r=np.array([3.0]), counts=np.array([1, 0]))
    exponent = outage_exponent(np.array([3.0, 2.0]), block, 3.0, 0.1)
    assert exponent == pytest.approx([math.log1p(10.0), 0.0], rel=1e-15)


def test_sir_block_matches_per_field_loop():
    # reference: each field's exponent from the absolute path gains, one field
    # at a time, with each candidate's term log1p(max(x, 1/x))
    rng = trial_stream(9, 0)
    r0 = draw_serving_distance(make_params(), rng, 50)
    block = _candidates(0.5, 0.1 ** (1.0 / 3.5) * r0, 0.0, 3.5, rng)
    exponent = outage_exponent(r0, block, 3.5, 0.1)
    radii = np.split(block.r, np.cumsum(block.counts)[:-1])
    for k in range(50):
        x = 0.1 * r0[k] ** 3.5 * radii[k] ** -3.5
        reference = np.sum(np.log1p(np.maximum(x, 1.0 / x)))
        assert exponent[k] == pytest.approx(reference, rel=1e-12)


def _per_field_exponent(r0, fields):
    """Reference exponents, one field at a time; ``fields`` holds each field's distances."""
    def term(x):
        return math.log1p(max(x, 1.0 / x))

    return [sum(term(0.1 * (r0[k] / r) ** 3.0) for r in radii) for k, radii in enumerate(fields)]


@pytest.mark.parametrize(
    "counts",
    [[0, 2, 3], [2, 0, 3], [2, 3, 0], [0, 0, 0], [1, 1, 1], [3, 0, 0, 1, 0]],
    ids=["empty-first", "empty-middle", "empty-last", "all-empty", "single-points",
         "runs-of-empties"],
)
def test_sir_sums_each_field_alone(counts):
    # the per-field sums must give an empty field nothing (not its
    # neighbour's first term) and a one-point field exactly its own term
    counts = np.array(counts)
    rng = np.random.default_rng(41)
    r = rng.uniform(1.0, 9.0, int(counts.sum()))
    r0 = rng.uniform(0.5, 5.0, counts.size)
    exponent = outage_exponent(r0, PointSet(r=r, counts=counts), 3.0, 0.1)
    fields = np.split(r, np.cumsum(counts)[:-1])
    assert exponent == pytest.approx(_per_field_exponent(r0, fields), rel=1e-12)


def test_sir_of_several_point_sets_equals_their_join():
    # the physical estimator passes a field's candidates without the content
    # and its caching candidates beyond the server as two sets; that must
    # equal one joined set
    rng = np.random.default_rng(42)
    inner = PointSet(r=rng.uniform(0.5, 5.0, 7), counts=np.array([0, 3, 1, 3]))
    outer = PointSet(r=rng.uniform(5.0, 30.0, 9), counts=np.array([2, 0, 4, 3]))
    r0 = rng.uniform(0.5, 5.0, 4)
    split_in, split_out = (np.cumsum(s.counts)[:-1] for s in (inner, outer))
    joined_r = np.concatenate([np.concatenate(pair) for pair in
                               zip(np.split(inner.r, split_in), np.split(outer.r, split_out))])
    joined = PointSet(r=joined_r, counts=inner.counts + outer.counts)
    several = outage_exponent(r0, (inner, outer), 3.0, 0.1)
    assert several == pytest.approx(outage_exponent(r0, joined, 3.0, 0.1), rel=1e-12)


def test_outage_exponent_limits_at_zero_distances_and_overflow():
    # a RuntimeWarning fails the suite (pyproject.toml). r0 = 0 without
    # candidates gives 0, a coverage; r_i = 0 gives inf,
    # an outage; r0 = r_i = 0 gives NaN, which h0 < NaN counts as coverage.
    # At alpha = 400 a candidate 5000 times nearer or farther than the reach
    # has x or 1/x far beyond a float, yet its term alpha*|ln(r_i/s)| +
    # log1p(exp(-alpha*|ln(r_i/s)|)) stays finite
    block = PointSet(r=np.array([0.0, 0.0, 1e-3, 1e3]), counts=np.array([0, 1, 1, 1, 1]))
    r0 = np.array([0.0, 3.0, 0.0, 5.0, 0.2])
    exponent = outage_exponent(r0, block, 400.0, 0.1)
    assert exponent[0] == 0.0
    assert exponent[1] == math.inf
    assert math.isnan(exponent[2])
    a = 400.0 * abs(math.log(1e-3) - math.log(0.1 ** (1.0 / 400.0) * 5.0))
    assert exponent[3] == pytest.approx(a, rel=1e-12) and math.isfinite(exponent[3])
    a = 400.0 * abs(math.log(1e3) - math.log(0.1 ** (1.0 / 400.0) * 0.2))
    assert exponent[4] == pytest.approx(a, rel=1e-12) and math.isfinite(exponent[4])
    assert (np.full(5, 0.5) < exponent).tolist() == [False, True, False, True, True]


def test_sir_outage_fraction_matches_fixed_distance_law():
    # the plane's candidates thinned by the kernel: the fraction estimates
    # the outage at r0 on the infinite plane
    lam, alpha, gamma_lin, r0 = 0.01, 4.0, 1.0, 3.0
    trials = 20_000
    rng = trial_stream(6, 0)
    serving = np.full(trials, r0)
    fields = _candidates(lam, gamma_lin ** (1.0 / alpha) * serving, 0.0, alpha, rng)
    exponent = outage_exponent(serving, fields, alpha, gamma_lin)
    outages = int(np.count_nonzero(rng.standard_exponential(trials) < exponent))
    p_ref = outage_at_distance(
        make_params(lambda_s=lam, alpha=alpha, gamma=gamma_lin, r_th=10.0), r0
    )
    sigma = math.sqrt(p_ref * (1.0 - p_ref) / trials)
    assert abs(outages / trials - p_ref) <= 3.0 * sigma


# -- emulated-mode estimator ---------------------------------------------------------------


def test_content_outage_estimate_covers_closed_form():
    p = make_params()
    cfg = SimConfig(trials=5000, master_seed=42)
    est = estimate_content_outage(p, cfg)
    assert est.ci_low <= content_outage(p) <= est.ci_high
    assert est.n == 5000


def test_content_outage_estimate_zero_for_tiny_threshold():
    p = make_params(gamma=1e-12)
    est = estimate_content_outage(p, SimConfig(trials=400, master_seed=1))
    assert est.mean == 0.0


def test_ci_width_shrinks_with_trial_count():
    p = make_params(lambda_s=0.01)
    small = estimate_content_outage(p, SimConfig(trials=1200, master_seed=9))
    large = estimate_content_outage(p, SimConfig(trials=4800, master_seed=9))
    ratio = (large.ci_high - large.ci_low) / (small.ci_high - small.ci_low)
    assert 0.4 <= ratio <= 0.6  # quadrupling trials halves the width


def test_conditional_outage_by_distance_bin_matches_fixed_distance_law():
    p = make_params()
    cfg = SimConfig(trials=5000, master_seed=13)
    distances, outages = content_outage_trials(p, cfg)
    edges = np.quantile(distances, [0.0, 0.25, 0.5, 0.75, 1.0])
    edges[-1] += 1e-9
    for lo, hi in zip(edges[:-1], edges[1:]):
        mask = (distances >= lo) & (distances < hi)
        n_bin = int(mask.sum())
        predicted = np.mean([outage_at_distance(p, r) for r in distances[mask]])
        sigma = math.sqrt(max(predicted * (1.0 - predicted), 1e-12) / n_bin)
        assert abs(outages[mask].mean() - predicted) <= 4.0 * sigma


def test_outage_estimate_memory_does_not_grow_with_trials():
    # every block holds 4096 trials; 32 times the blocks must not raise
    # the peak, as keeping every trial's draw would
    p = make_params(lambda_s=0.01, r_th=1.0)

    def peak(trials):
        tracemalloc.start()
        try:
            estimate_content_outage(p, SimConfig(trials=trials, master_seed=1))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(4096)  # first calls load and cache what later calls reuse
    assert peak(32 * 8192) <= 1.5 * peak(8192)


# -- cache hit estimator ----------------------------------------------------------------------


def test_cache_hit_estimate_zero_when_nothing_cached():
    p = make_params(cache_size_d=0)
    est = estimate_cache_hit(p, SimConfig(trials=500, master_seed=2))
    assert est.mean == 0.0


def test_cache_hit_estimate_zero_where_the_field_mean_underflows():
    # lambda_s*pi*r_th**2 underflows to 0 at r_th = 1e-300: no field holds a point
    est = estimate_cache_hit(make_params(r_th=1e-300), SimConfig(trials=5000, master_seed=2))
    assert (est.mean, est.n) == (0.0, 5000)


def test_cache_hit_point_cap_refuses_before_any_draw(monkeypatch):
    # lambda_s*pc*pi*r_th**2 = 6.3e18 caching SBSs per disc on average, above the cap
    def no_draw(*args):
        raise AssertionError("a block stream was opened")

    monkeypatch.setattr("cachegeo.simulate.trial_stream", no_draw)
    with pytest.raises(ParameterError) as excinfo:
        estimate_cache_hit(make_params(lambda_s=1.0, r_th=1e10), SimConfig(trials=10))
    assert excinfo.value.field == "lambda_s"


def test_cache_hit_cap_is_on_the_thinned_mean():
    # 3.1e20 SBSs on the disc, of which pc = 1e-6 cache: 3.1e14 caching
    # SBSs on average, under the cap, so every trial has a hit; with nothing
    # cached the mean is 0 also where the disc's own mean overflows
    est = estimate_cache_hit(make_params(lambda_s=1.0, r_th=1e10, cache_size_d=1,
                                         library_size=10**6), SimConfig(trials=10))
    assert (est.mean, est.n) == (1.0, 10)
    est = estimate_cache_hit(make_params(r_th=1e200, cache_size_d=0), SimConfig(trials=10))
    assert (est.mean, est.n) == (0.0, 10)


@pytest.mark.parametrize("trials", [1, 150, 4096, 4097, 9000])
def test_cache_hit_estimate_is_the_pass_over_one_cell(trials):
    # a one-cell pass draws one count per trial from each block's stream,
    # one draw of the block's size, as a run over its own blocks does
    p = make_params(lambda_s=0.03)
    mean = p.lambda_s * math.pi * (p.r_th * p.r_th) * p.pc
    for seed in (0, 11, 2**64 - 1):
        cfg = SimConfig(trials=trials, master_seed=seed)
        blocks = [trial_stream(seed, b).poisson(mean, min(4096, trials - 4096 * b))
                  for b in range(-(-trials // 4096))]
        hits = sum(int(np.count_nonzero(block)) for block in blocks)
        assert _hit_counts([mean], cfg) == [hits]
        assert estimate_cache_hit(p, cfg) == _cache_hit_estimates([p], cfg)[0]
        assert estimate_cache_hit(p, cfg).mean == hits / trials


def test_hit_pass_keeps_each_cell_on_its_own_trials(monkeypatch):
    # 7 cells of 1500 trials fill blocks of 4096, 4096 and 2308 trials, so
    # cells 2 and 5 straddle a block boundary; a mean of 0 never hits and
    # one of 1e6 always does, so a trial drawn at its neighbour's mean shows
    opened = []

    def counted(master_seed, block_index):
        opened.append(block_index)
        return trial_stream(master_seed, block_index)

    monkeypatch.setattr("cachegeo.simulate.trial_stream", counted)
    means = [0.0, 1e6] * 3 + [0.0]
    assert _hit_counts(means, SimConfig(trials=1500, master_seed=4)) == [0, 1500] * 3 + [0]
    assert opened == [0, 1, 2]


def test_hit_pass_memory_does_not_grow_with_cells():
    # the pass holds one cell's run of a block at a time, never cells x trials
    def peak(cells):
        tracemalloc.start()
        try:
            _hit_counts([0.3] * cells, SimConfig(trials=4096, master_seed=1))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1)  # first calls load and cache what later calls reuse
    assert peak(64) <= 1.5 * peak(1)


def test_hit_pass_covers_every_cell_of_a_grid():
    # 10 replication ratios x 5 densities, 20000 trials each, back to back
    # in one pass: each cell's Wilson interval at 1 - 1e-6 must cover
    # 1 - exp(-lambda_s * pc * pi * r_th**2); a miss is reported, not re-drawn
    trials = 20000
    cells = [make_params(lambda_s=lam, cache_size_d=d, library_size=100)
             for lam in (0.001, 0.01, 0.03, 0.1, 0.3) for d in (1, 2, 5, 10, 20, 30, 50, 70, 90, 100)]
    estimates = _cache_hit_estimates(cells, SimConfig(trials=trials, master_seed=12))
    misses = []
    for params, est in zip(cells, estimates):
        low, high = binomial_ci(round(est.mean * trials), trials, 1.0 - 1e-6)
        if not low <= cache_hit_prob(params) <= high:
            misses.append((params.lambda_s, params.pc, est.mean, cache_hit_prob(params)))
    assert misses == []


def test_cache_hit_estimate_covers_half_at_log2_product():
    lam = math.log(2.0) / (0.1 * math.pi * 100.0)
    p = make_params(lambda_s=lam, cache_size_d=10, r_th=10.0)
    est = estimate_cache_hit(p, SimConfig(trials=5000, master_seed=21))
    assert est.ci_low <= 0.5 <= est.ci_high


def test_cache_hit_estimate_covers_planned_density_target():
    p = make_params(lambda_s=0.0733, cache_size_d=10, r_th=10.0)
    est = estimate_cache_hit(p, SimConfig(trials=5000, master_seed=22))
    assert est.ci_low <= 0.9 <= est.ci_high
    assert abs(est.mean - cache_hit_prob(p)) <= 3.0 * (est.ci_high - est.ci_low) / 2.0


@pytest.mark.parametrize("disc_mean,d,library,seed", [
    (1.0, 1, 1, 31),  # pc = 1: every SBS caches the content
    (math.log(2.0) * 1e6, 1, 10**6, 32),  # pc = 1e-6 over ~6.9e5 SBSs on the disc
    (1e3, 1, 1000, 33),  # ~1e3 SBSs on the disc, one in a thousand caching
])
def test_thinned_cache_hit_covers_its_closed_form(disc_mean, d, library, seed):
    # each trial draws one Poisson(lambda_s * pc * pi * r_th**2) count of
    # caching SBSs; its hit rate must cover 1 - exp(-lambda_s * pc * pi * r_th**2)
    p = make_params(lambda_s=disc_mean / (math.pi * 100.0), r_th=10.0,
                    cache_size_d=d, library_size=library)
    est = estimate_cache_hit(p, SimConfig(trials=5000, master_seed=seed))
    assert est.contains(cache_hit_prob(p))
    assert 0.3 < cache_hit_prob(p) < 0.7


# -- physical-mode estimator ---------------------------------------------------------------------


def test_physical_mode_outage_below_emulated_at_full_replication():
    # full replication and high density: the hit event is near-certain, so
    # excluding the serving SBS from the interference dominates
    p = make_params(lambda_s=0.3, r_th=3.0, cache_size_d=4, library_size=4)
    emulated = estimate_content_outage(
        p, SimConfig(trials=1500, master_seed=11)
    )
    physical = estimate_physical(
        p, SimConfig(trials=1500, master_seed=11)
    )
    # 1500 * (1 - hit probability) = 0.31 discards are expected, and more
    # than 5 has probability below 1e-5
    assert physical.n + physical.n_discarded == 1500
    assert physical.n_discarded <= 5
    assert physical.mean < emulated.mean


def test_physical_mode_zero_outage_for_tiny_threshold():
    p = make_params(lambda_s=0.3, r_th=3.0, cache_size_d=4, library_size=4, gamma=1e-12)
    est = estimate_physical(
        p, SimConfig(trials=300, master_seed=3)
    )
    assert est.mean == 0.0


def test_physical_mode_reports_discards():
    p = make_params(lambda_s=0.05, r_th=2.0, cache_size_d=5, library_size=100)
    est = estimate_physical(
        p, SimConfig(trials=800, master_seed=17)
    )
    assert est.n + est.n_discarded == 800
    assert est.n_discarded > 0  # hit probability is ~3% here


def test_physical_mode_degenerate_conditioning_raises():
    # hit probability 3.1e-11: a hit in 40 trials has probability 1.3e-9
    p = make_params(lambda_s=1e-9, r_th=1.0, cache_size_d=1, library_size=100)
    cfg = SimConfig(trials=40, master_seed=5)
    with pytest.raises(DegenerateSampleError):
        estimate_physical(p, cfg)


@pytest.mark.parametrize("cache_size_d", [2, 50])
def test_physical_mode_hit_share_follows_cache_hit_law(cache_size_d):
    # a trial survives exactly when some SBS within r_th caches the content,
    # so the effective count is binomial in the closed-form hit probability;
    # the drawn-fade reference below checks that law geometrically
    p = make_params(cache_size_d=cache_size_d)
    trials = 3000
    est = estimate_physical(p, SimConfig(trials=trials, master_seed=12))
    low, high = stats.binom.interval(1.0 - 1e-6, trials, cache_hit_prob(p))
    assert low <= est.n <= high


def test_physical_mode_outage_follows_nearest_server_law():
    # at pc = 1 the nearest SBS serves, and at alpha = 4 its outage given a
    # server within r_th is 1 - (1 - exp(-a(1 + rho))) / ((1 + rho)(1 - exp(-a)))
    # with a = pi*lambda*r_th^2 and rho = sqrt(gamma)*(pi/2 - arctan(1/sqrt(gamma)))
    # (Andrews, Baccelli & Ganti 2011), on the infinite plane
    p = make_params(lambda_s=0.1, alpha=4.0, gamma=1.0, r_th=5.0,
                    cache_size_d=10, library_size=10)
    rho = math.sqrt(p.gamma) * (math.pi / 2.0 - math.atan(1.0 / math.sqrt(p.gamma)))
    a = math.pi * p.lambda_s * p.r_th**2
    law = 1.0 - math.expm1(-a * (1.0 + rho)) / ((1.0 + rho) * math.expm1(-a))
    est = estimate_physical(p, SimConfig(trials=20_000, master_seed=3))
    low, high = stats.binom.interval(1.0 - 1e-6, est.n, law)
    assert low <= est.mean * est.n <= high


def _beyond_disc_exponent(p, r0, radius):
    """T_R = -ln E[exp(-gamma * r0**alpha * I)], I the faded interference from beyond ``radius``.

    The Poisson field's generating functional with unit-mean exponential
    fades gives T_R = 2*pi*lambda_s * int_R^inf r / (1 + r**alpha / s) dr,
    s = gamma * r0**alpha (Haenggi, *Stochastic Geometry for Wireless
    Networks*, ch. 5), which is 2*pi*lambda_s * R**2 / (alpha - 2) * v * F,
    v = s / R**alpha and F = 2F1(1, 1 - 2/alpha; 2 - 2/alpha; -v). F is
    taken from scipy, so the reference shares no code with cachegeo's series.
    """
    v = p.gamma * (r0 / radius) ** p.alpha
    b = 1.0 - 2.0 / p.alpha
    scale = 2.0 * math.pi * p.lambda_s * radius**2 / (p.alpha - 2.0)
    return scale * v * special.hyp2f1(1.0, b, 1.0 + b, -v)


def _full_window_physical(p, disc, trials, rng):
    """Reference: every SBS on a disc of radius ``disc`` and every fade drawn, one trial at a time.

    The field beyond the disc enters through :func:`_beyond_disc_exponent`,
    so the reference is of the whole plane. Returns (outages, hits).
    """
    outages = hits = 0
    for _ in range(trials):
        r = disc * np.sqrt(rng.random(rng.poisson(p.lambda_s * math.pi * disc**2)))
        caching = np.flatnonzero((r <= p.r_th) & (rng.random(r.size) < p.pc))
        if caching.size == 0:
            continue
        hits += 1
        server = caching[np.argmin(r[caching])]
        gains = rng.exponential(size=r.size) * r**-p.alpha
        tail = _beyond_disc_exponent(p, r[server], disc)
        # h0 < gamma * X + T_R times r0**-alpha: SIR < gamma with the field
        # beyond the disc averaged out, and no division by an empty sum
        interference = gains.sum() - gains[server]
        outages += gains[server] < p.gamma * interference + tail * r[server] ** -p.alpha
    return outages, hits


def _full_window_emulated(p, disc, trials, rng):
    """Reference: as :func:`_full_window_physical` under emulated association; outages."""
    outages = 0
    for _ in range(trials):
        r = disc * np.sqrt(rng.random(rng.poisson(p.lambda_s * math.pi * disc**2)))
        r0 = draw_serving_distance(p, rng)
        interference = np.sum(rng.exponential(size=r.size) * (r0 / r) ** p.alpha)
        tail = _beyond_disc_exponent(p, r0, disc)
        outages += rng.exponential() < p.gamma * interference + tail
    return outages


def _two_proportion_z(k1, n1, k2, n2):
    pooled = (k1 + k2) / (n1 + n2)
    return (k1 / n1 - k2 / n2) / math.sqrt(pooled * (1.0 - pooled) * (1.0 / n1 + 1.0 / n2))


def test_physical_mode_matches_full_window_reference():
    # sampling given the hit, two independent thinned fields on the whole
    # plane, must give the law of the field with every fade drawn, hit
    # share included; the reference draws the SBSs of a 20 m disc and adds
    # the field beyond it in closed form
    p = make_params(cache_size_d=30)  # pc = 0.3, hit probability 0.905
    trials, disc = 20_000, 20.0
    est = estimate_physical(p, SimConfig(trials=trials, master_seed=31))
    outages, hits = _full_window_physical(p, disc, trials, np.random.default_rng(32))
    assert abs(_two_proportion_z(est.n, trials, hits, trials)) <= 4.5
    assert abs(_two_proportion_z(round(est.mean * est.n), est.n, outages, hits)) <= 4.5


def test_emulated_mode_matches_drawn_fade_reference():
    # the estimator integrates the interferers' fades out; a reference that
    # draws every fade must have the same outage law
    p = make_params()
    trials, disc = 20_000, 20.0
    cfg = SimConfig(trials=trials, master_seed=33)
    est = estimate_content_outage(p, cfg)
    outages = _full_window_emulated(p, disc, trials, np.random.default_rng(34))
    assert abs(_two_proportion_z(round(est.mean * trials), trials, outages, trials)) <= 4.5


# the five points of the physical closed form's Monte Carlo check: the
# reference; alpha 4 and gamma 0 dB at full and at 1/10 replication; a
# sparse network with a 10 m threshold distance; alpha 2.2 near the pole
FIVE_POINTS = {
    "reference": dict(),
    "alpha4-pc1": dict(alpha=4.0, gamma=1.0, cache_size_d=100),
    "alpha4-pc0.1": dict(alpha=4.0, gamma=1.0, cache_size_d=10),
    "sparse": dict(lambda_s=0.01, alpha=3.5, gamma=db_to_linear(5.0), r_th=10.0,
                   cache_size_d=30),
    "alpha2.2": dict(alpha=2.2, cache_size_d=50),
}


@pytest.mark.parametrize(
    "estimate, closed_form, seed",
    [(estimate_content_outage, content_outage, 201),
     (estimate_physical, physical_content_outage, 211)],
    ids=["emulated", "physical"],
)
@pytest.mark.parametrize("point", FIVE_POINTS)
def test_outage_estimate_meets_its_closed_form_at_five_points(point, estimate, closed_form, seed):
    p = make_params(**FIVE_POINTS[point])
    est = estimate(p, SimConfig(trials=40_000, master_seed=seed))
    target = closed_form(p)
    z = (est.mean - target) / math.sqrt(target * (1.0 - target) / est.n)
    assert abs(z) <= 4.5


# -- candidate sampler ------------------------------------------------------------------------------


def _dominating_intensity(s, alpha):
    """min(1, (s/r)**alpha) times 2*pi*r: the candidates' radial density per unit SBS density."""
    return lambda r: 2.0 * math.pi * r * (1.0 if r <= s else (s / r) ** alpha)


CANDIDATE_CASES = {
    # (reach s, inner radius): a disc part from 0 and a power law beyond s;
    # the power law alone from inner = r0 > s; and a disc part from inner =
    # r0 < s, then the power law
    "inner-zero": (2.0, 0.0),
    "inner-beyond-reach": (4.0 * 0.1 ** (1.0 / 3.0), 4.0),
    "reach-beyond-inner": (2.0 * 3.16 ** (1.0 / 3.0), 2.0),
}


@pytest.mark.parametrize("case", CANDIDATE_CASES)
def test_candidates_follow_the_dominating_law_with_poisson_counts(case):
    # the distances against the CDF of min(1, (s/r)**alpha) * 2*pi*r on
    # r > inner, the whole plane, integrated numerically, and the counts
    # against the Poisson law of its integral: total within 4.5 sigma,
    # variance equal to the mean (dispersion index within 4.5 of its
    # standard error)
    s, inner = CANDIDATE_CASES[case]
    lam, alpha, fields = 0.05, 3.0, 4000
    density = _dominating_intensity(s, alpha)
    knee = max(s, inner)  # where the power law starts
    total = integrate.quad(density, inner, knee)[0] + integrate.quad(density, knee, math.inf)[0]
    reach = np.full(fields, s)
    inners = np.full(fields, inner) if inner > 0 else 0.0
    cands = _candidates(lam, reach, inners, alpha, trial_stream(13, 0))
    assert cands.counts.shape == (fields,) and cands.counts.sum() == cands.r.size
    assert ((cands.r >= inner) & np.isfinite(cands.r)).all()
    mean = fields * lam * total
    assert abs(cands.r.size - mean) <= 4.5 * math.sqrt(mean)
    dispersion = cands.counts.var(ddof=1) / cands.counts.mean()
    assert abs(dispersion - 1.0) <= 4.5 * math.sqrt(2.0 / (fields - 1))
    # the grid ends at 1e4 * knee, beyond which lies 1e-4 of the power law's mass
    grid = np.union1d(np.linspace(inner, knee, 2_001), np.geomspace(knee, 1e4 * knee, 20_001))
    cdf = integrate.cumulative_trapezoid([density(r) for r in grid], grid, initial=0.0)
    result = stats.kstest(cands.r, lambda x: np.interp(x, grid, cdf / total))
    assert result.statistic < stats.kstwobign.ppf(0.999) / math.sqrt(cands.r.size)


@pytest.mark.parametrize("gamma", [0.1, 3.16])
@pytest.mark.parametrize("alpha", [2.2, 3.0, 4.0])
@pytest.mark.parametrize("inner", ["zero", "server"])
def test_thinned_candidates_give_the_window_coverage_at_fixed_distance(alpha, gamma, inner):
    # given r0, E[exp(-E)] over the candidates must be the coverage of the
    # whole field on r > inner, the whole plane, exp(-lambda * int q(r)
    # 2*pi*r dr) with q = x/(1 + x), x = gamma*(r0/r)**alpha, the
    # probability that an SBS at r blocks the link once its fade is
    # integrated out
    lam, r0, trials = 0.05, 1.0, 100_000
    lower = 0.0 if inner == "zero" else r0
    serving = np.full(trials, r0)
    cands = _candidates(lam, gamma ** (1.0 / alpha) * serving,
                        0.0 if inner == "zero" else serving, alpha, trial_stream(14, 0))
    coverage = np.exp(-outage_exponent(serving, cands, alpha, gamma))

    def blocked(r):
        return 2.0 * math.pi * r / (1.0 + (r / r0) ** alpha / gamma)

    knee = max(lower, gamma ** (1.0 / alpha) * r0)  # the reach, or the server beyond it
    mean = integrate.quad(blocked, lower, knee)[0] + integrate.quad(blocked, knee, math.inf)[0]
    target = math.exp(-lam * mean)
    assert abs(coverage.mean() - target) <= 4.5 * coverage.std() / math.sqrt(trials)


@settings(max_examples=300, deadline=None)
@given(
    log_r_th=st.floats(-300.0, 3.0),
    alpha=st.floats(2.0001, 400.0),
    log_gamma=st.floats(-8.0, 8.0),
    spread=st.floats(1.0, 100.0),
    at=st.floats(0.0, 1.0),
    from_server=st.booleans(),
)
def test_candidate_mean_is_bounded_and_sampling_stays_finite(
    log_r_th, alpha, log_gamma, spread, at, from_server
):
    # the candidate mean on the whole plane is finite and never exceeds
    # lambda * pi * s**2 * alpha/(alpha - 2), its value from inner = 0, and
    # sampling, with about 20 SBSs per spread * r_th disc where the density
    # is a float, gives distances of at least inner and finite or inf
    # exponents without a warning, from r_th = 1e-300 to alpha = 400. A
    # distance may overflow to inf near alpha = 2, the exact limit; the
    # counts are held to 100, as a block places few candidates per trial
    r_th = 10.0 ** log_r_th
    scale, gamma = spread * r_th, 10.0 ** log_gamma
    r0 = np.full(50, at * r_th)
    lower = at * r_th if from_server else 0.0
    inner = r0 if from_server else 0.0
    s = gamma ** (1.0 / alpha) * r0
    lam = 10.0 ** min(300.0, math.log10(20.0 / math.pi) - 2.0 * math.log10(scale))
    rng = trial_stream(15, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        shares = _candidate_shares(s, inner, alpha)
        mean = _candidate_mean(lam, shares)
        bound = (lam * s[0]) * s[0] * math.pi * (alpha / (alpha - 2.0))
        assert 0.0 <= mean[0] <= bound * (1.0 + 1e-12)
        assert math.isfinite(mean[0])
        counts = rng.poisson(np.minimum(mean, 100.0))
        cands = _place(shares, counts, alpha, rng)
        exponent = outage_exponent(r0, cands, alpha, gamma)
    assert not np.isnan(cands.r).any()
    assert (cands.r >= lower * (1.0 - 1e-12)).all()
    assert not np.isnan(exponent).any() or at == 0.0


_POSITIVE_FLOATS = st.floats(0.0, exclude_min=True, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(alpha=st.floats(2.0, 1e308, exclude_min=True), r=_POSITIVE_FLOATS,
       reach=_POSITIVE_FLOATS, at_reach=st.booleans())
def test_every_candidate_term_is_at_least_the_floor(alpha, r, reach, at_reach):
    # a candidate's term log1p(max(x, 1/x)) is ln 2 at r_i = s and grows
    # both ways, so N candidates add at least _FLOOR * N to an exponent;
    # gamma = 1 makes the reach s the serving distance
    s = r if at_reach else reach
    one = PointSet(r=np.array([r]), counts=np.array([1]))
    assert _FLOOR < math.log(2.0)
    assert outage_exponent(np.array([s]), one, alpha, 1.0)[0] >= _FLOOR


@pytest.mark.parametrize("gamma", [pytest.param(gamma, id=f"{gamma}-plane")
                                   for gamma in (0.1, 10.0)])
def test_count_first_decision_matches_the_full_kernel(gamma):
    # one block of physical fields with every candidate placed: each trial
    # that h0 < _FLOOR * N decides by its count is an outage under the
    # full kernel, so deciding those by count and the others by the kernel
    # gives the full kernel's indicators
    p = make_params(gamma=gamma, cache_size_d=50)
    lam, alpha, pc = p.lambda_s, p.alpha, p.pc
    rng = trial_stream(21, 0)
    r0 = draw_serving_distance(p, rng, 4096)
    s = gamma ** (1.0 / alpha) * r0
    sets = tuple(_candidates(density, s, inner, alpha, rng)
                 for density, inner in ((lam * (1.0 - pc), 0.0), (lam * pc, r0)))
    h0 = rng.standard_exponential(r0.size)
    full = h0 < outage_exponent(r0, sets, alpha, gamma)
    by_count = h0 < _FLOOR * sum(points.counts for points in sets)
    assert 0 < by_count.sum() < full.sum()
    assert full[by_count].all()


def test_an_outage_trial_places_few_candidates_at_a_60_db_cell(monkeypatch):
    # at lambda_s = 0.1, alpha = 3, gamma = 60 dB and r_th = 10 m the reach
    # of a link at r_th is 1 km, and it has 9.4e5 candidates on the whole
    # plane; nearly every trial is decided by its count, so the kernel is
    # passed fewer than 2 candidates per trial
    placed = []

    def counting(serving_r, interferers, *args):
        placed.append(sum(points.r.size for points in interferers))
        return outage_exponent(serving_r, interferers, *args)

    monkeypatch.setattr("cachegeo.simulate.outage_exponent", counting)
    p = make_params(gamma=db_to_linear(60.0), r_th=10.0)
    est = estimate_content_outage(p, SimConfig(trials=2000, master_seed=1))
    assert placed
    assert sum(placed) < 2 * 2000


# -- Wilson interval -----------------------------------------------------------------------------


def test_wilson_interval_reference_value():
    low, high = binomial_ci(50, 100, 0.95)
    assert low == pytest.approx(WILSON_50_100_95[0], abs=1e-9)
    assert high == pytest.approx(WILSON_50_100_95[1], abs=1e-9)


def test_wilson_interval_edges():
    low, _ = binomial_ci(0, 50, 0.99)
    _, high = binomial_ci(50, 50, 0.99)
    assert low == 0.0
    assert high == 1.0


def test_wilson_interval_contains_point_estimate():
    rng = np.random.default_rng(10)
    for _ in range(200):
        n = int(rng.integers(1, 2000))
        k = int(rng.integers(0, n + 1))
        low, high = binomial_ci(k, n, float(rng.uniform(0.5, 0.999)))
        assert 0.0 <= low <= k / n <= high <= 1.0


def test_wilson_interval_rejects_bad_inputs():
    with pytest.raises(ParameterError):
        binomial_ci(0, 0, 0.95)
    with pytest.raises(ParameterError):
        binomial_ci(5, 4, 0.95)
    with pytest.raises(ParameterError):
        binomial_ci(1, 4, 1.0)


# -- determinism and configuration ----------------------------------------------------------------


def test_trial_stream_layout_is_pinned():
    # exact outputs for fixed seeds: a refactor that shifts any trial's
    # draws changes these numbers, while the tests above would still pass.
    # A block draws its serving distances, then its candidate counts, then
    # the serving fades, then the distances of the candidates of the trials
    # that their counts leave undecided, so a change to the counts, the
    # fades or the distances moves the outage indicators but not the
    # serving distances; the first covered trials pin where they move. A
    # cache-hit block of up to 4096 trials draws one count per trial, of the
    # caching SBSs on the disc: Poisson(lambda_s * pc * pi * r_th**2)
    p = make_params()
    distances, outages = content_outage_trials(p, SimConfig(trials=1000, master_seed=7))
    assert distances[:4].tolist() == [
        2.7549555292430346, 2.961879642313583, 4.117415195113489, 4.013469186020196
    ]
    assert int(outages.sum()) == 758
    assert np.flatnonzero(~outages)[:6].tolist() == [10, 13, 19, 22, 27, 36]
    hit = estimate_cache_hit(p, SimConfig(trials=3000, master_seed=8))
    assert (hit.mean, hit.n, hit.n_discarded) == (461 / 3000, 3000, 0)
    assert (hit.ci_low, hit.ci_high) == (0.13747277576974629, 0.1713891008920447)


def test_physical_trial_stream_is_pinned():
    # exact outputs for a fixed seed: a block draws its count of trials with
    # a hit, then for those the serving distances, the counts of the
    # candidates without the content and of the caching candidates beyond
    # the servers, the serving fades and the distances of the candidates of
    # the trials that their counts leave undecided, so a change to any draw
    # after the first moves the outage count but not n
    est = estimate_physical(make_params(), SimConfig(trials=2000, master_seed=8))
    assert (est.mean, est.n, est.n_discarded) == (214 / 293, 293, 1707)


def test_estimate_repeats_bit_identically():
    p = make_params()
    cfg = SimConfig(trials=500, master_seed=4)
    assert estimate_content_outage(p, cfg) == estimate_content_outage(p, cfg)


def test_sim_config_validation():
    with pytest.raises(ParameterError):
        SimConfig(trials=0)
    with pytest.raises(ParameterError):
        SimConfig(master_seed=-1)
    with pytest.raises(ParameterError):
        SimConfig(master_seed=2**64)


def test_estimate_interval_brackets_mean():
    est = Estimate(mean=0.5, ci_low=0.4, ci_high=0.6, confidence=0.99, n=10)
    assert est.contains(0.5)
    assert not est.contains(0.7)


def test_default_samples_the_whole_plane(monkeypatch):
    # in both modes each field's candidates are sampled on the whole plane:
    # its share of pi * s**2 is the dominating intensity min(1, (s/r)**alpha)
    # integrated over r > inner out to infinity, checked by quadrature on
    # the first fields of each block; at pc = 1 a physical run of 64
    # trials has a hit with near certainty
    calls = []

    def recording(s, inner, alpha):
        shares = _candidate_shares(s, inner, alpha)
        calls.append((s, np.broadcast_to(inner, s.shape), alpha, shares))
        return shares

    monkeypatch.setattr("cachegeo.simulate._candidate_shares", recording)
    for p in (make_params(cache_size_d=100), make_params(alpha=6.0, r_th=2.0, cache_size_d=100)):
        cfg = SimConfig(trials=64, master_seed=0)
        estimate_content_outage(p, cfg)
        estimate_physical(p, cfg)
    fields = [(s[k], inner[k], alpha, disc[k] + beyond[k])
              for s, inner, alpha, (_, disc, beyond, _) in calls
              for k in range(min(3, s.size)) if s[k] > 0]
    assert len(fields) >= 6
    for s, inner, alpha, share in fields:
        density = _dominating_intensity(s, alpha)
        knee = max(s, inner)
        total = integrate.quad(density, inner, knee)[0] + integrate.quad(density, knee, math.inf)[0]
        assert share * math.pi * s * s == pytest.approx(total, rel=1e-9)
