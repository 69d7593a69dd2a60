"""Monte Carlo engine: sampling laws, the outage kernel, estimators, determinism."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

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
    interference_tail_exponent,
    outage_exponent,
    sample_ppp,
    trial_stream,
)
from cachegeo.simulate import _caching_annulus

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


# -- PPP sampling -----------------------------------------------------------------


def test_ppp_mean_count_matches_intensity():
    rng = trial_stream(1, 0)
    draws = 10_000
    expected = 0.1 * math.pi * 400.0  # 125.66...
    fields = sample_ppp(0.1, 20.0, rng, draws)
    total = fields.n
    assert fields.counts.shape == (draws,) and fields.counts.sum() == total
    sigma = math.sqrt(expected / draws)
    assert abs(total / draws - expected) <= 3.0 * sigma


def test_ppp_points_stay_inside_window_and_fill_it_uniformly():
    rng = trial_stream(2, 0)
    radii = sample_ppp(0.2, 15.0, rng, 200).radii()
    assert (radii <= 15.0 + 1e-9).all()
    # uniform on the disc: (r/R)^2 is uniform on [0, 1]
    result = stats.kstest((radii / 15.0) ** 2, "uniform")
    assert result.statistic < stats.kstwobign.ppf(0.99) / math.sqrt(radii.size)


def test_ppp_count_distribution_is_poisson():
    rng = trial_stream(3, 0)
    mu = 0.1 * math.pi * 25.0
    counts = sample_ppp(0.1, 5.0, rng, 10_000).counts
    # merge bins until every expected count is at least 5
    kmax = int(counts.max())
    observed = np.bincount(counts, minlength=kmax + 1).astype(float)
    expected = stats.poisson.pmf(np.arange(kmax + 1), mu) * counts.size
    expected[-1] = counts.size - expected[:-1].sum()  # fold the tail into the last bin
    while expected[-1] < 5.0:
        expected[-2] += expected[-1]
        observed[-2] += observed[-1]
        expected, observed = expected[:-1], observed[:-1]
    while expected[0] < 5.0:
        expected[1] += expected[0]
        observed[1] += observed[0]
        expected, observed = expected[1:], observed[1:]
    result = stats.chisquare(observed, expected)
    assert result.pvalue > 0.01


def test_ppp_distances_are_the_window_times_the_root_of_a_uniform():
    # the distances are written in place; they must equal R * sqrt(u) bit for bit
    field = sample_ppp(0.1, 20.0, trial_stream(11, 0), 300)
    rng = trial_stream(11, 0)
    counts = rng.poisson(0.1 * math.pi * 400.0, 300)
    assert np.array_equal(field.counts, counts)
    assert np.array_equal(field.r, 20.0 * np.sqrt(rng.random(int(counts.sum()))))


def test_ppp_rejects_bad_arguments():
    rng = trial_stream(0, 0)
    with pytest.raises(ParameterError):
        sample_ppp(0.0, 10.0, rng, 1)
    with pytest.raises(ParameterError):
        sample_ppp(0.1, 0.0, rng, 1)


def test_ppp_point_cap_rejects_before_any_draw():
    rng = trial_stream(0, 0)
    with pytest.raises(ParameterError) as excinfo:
        sample_ppp(0.1, 1e5, rng, 1)  # ~3.1e9 points per trial on average
    assert excinfo.value.field == "window_radius"
    assert rng.random() == trial_stream(0, 0).random()


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
    interferer = PointSet(r=np.array([3.0]), counts=np.array([1]))
    exponent = outage_exponent(np.array([3.0]), interferer, 3.0, 0.1)
    assert exponent == pytest.approx([math.log1p(0.1)], rel=1e-15)


def test_outage_exponent_of_an_empty_field_is_its_tail():
    empty = PointSet(r=np.empty(0), counts=np.array([0, 0]))
    exponent = outage_exponent(np.array([2.0, 3.0]), empty, 3.0, 0.1, np.array([0.0, 0.25]))
    assert exponent.tolist() == [0.0, 0.25]


def test_sir_per_field_symmetric_interferer_and_empty_field():
    # one block of two fields: a single interferer at the serving distance
    # gives log1p(gamma), and the empty second field must not see that interferer
    block = PointSet(r=np.array([3.0]), counts=np.array([1, 0]))
    exponent = outage_exponent(np.array([3.0, 2.0]), block, 3.0, 0.1)
    assert exponent == pytest.approx([math.log1p(0.1), 0.0], rel=1e-15)


def test_sir_block_matches_per_field_loop():
    # reference: each field's exponent from the absolute path gains, one field at a time
    rng = trial_stream(9, 0)
    block = sample_ppp(0.05, 12.0, rng, 50)
    r0 = draw_serving_distance(make_params(), rng, 50)
    exponent = outage_exponent(r0, block, 3.5, 0.1)
    radii = np.split(block.radii(), np.cumsum(block.counts)[:-1])
    for k in range(50):
        reference = np.sum(np.log1p(0.1 * r0[k] ** 3.5 * radii[k] ** -3.5))
        assert exponent[k] == pytest.approx(reference, rel=1e-12)


def _per_field_exponent(r0, tail, fields):
    """Reference exponents, one field at a time; ``fields`` holds each field's distances."""
    return [tail[k] + sum(math.log1p(0.1 * (r0[k] / r) ** 3.0) for r in radii)
            for k, radii in enumerate(fields)]


@pytest.mark.parametrize(
    "counts",
    [[0, 2, 3], [2, 0, 3], [2, 3, 0], [0, 0, 0], [1, 1, 1], [3, 0, 0, 1, 0]],
    ids=["empty-first", "empty-middle", "empty-last", "all-empty", "single-points",
         "runs-of-empties"],
)
def test_sir_sums_each_field_alone(counts):
    # the per-field sums must give an empty field nothing but its tail (not
    # its neighbour's first term) and a one-point field exactly its own term
    counts = np.array(counts)
    rng = np.random.default_rng(41)
    r = rng.uniform(1.0, 9.0, int(counts.sum()))
    r0 = rng.uniform(0.5, 5.0, counts.size)
    tail = rng.uniform(0.0, 0.5, counts.size)
    exponent = outage_exponent(r0, PointSet(r=r, counts=counts), 3.0, 0.1, tail)
    fields = np.split(r, np.cumsum(counts)[:-1])
    assert exponent == pytest.approx(_per_field_exponent(r0, tail, fields), rel=1e-12)


def test_sir_of_several_point_sets_equals_their_join():
    # the physical estimator passes a field's SBSs without the content and
    # its caching SBSs beyond the server as two sets; that must equal one joined set
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
    # a RuntimeWarning fails the suite (pyproject.toml). r0 = 0 leaves the
    # tail, 0 there, so a coverage; r_i = 0 and a term too large for a
    # float give inf, an outage; r0 = r_i = 0 gives NaN, which h0 < NaN
    # counts as coverage
    block = PointSet(r=np.array([2.0, 0.0, 0.0, 1e-3]), counts=np.array([1, 1, 1, 1]))
    r0 = np.array([0.0, 3.0, 0.0, 5.0])
    tail = interference_tail_exponent(0.1, 400.0, 0.1, r0, 10.0)
    exponent = outage_exponent(r0, block, 400.0, 0.1, tail)
    assert exponent[0] == tail[0] == 0.0
    assert exponent[1] == exponent[3] == math.inf
    assert math.isnan(exponent[2])
    assert (np.full(4, 0.5) < exponent).tolist() == [False, True, False, True]


def test_sir_outage_fraction_matches_fixed_distance_law():
    # the field beyond the window enters through its tail exponent, so the
    # fraction estimates the outage at r0 on the infinite plane
    lam, alpha, gamma_lin, r0, window = 0.01, 4.0, 1.0, 3.0, 60.0
    trials = 20_000
    rng = trial_stream(6, 0)
    fields = sample_ppp(lam, window, rng, trials)
    serving = np.full(trials, r0)
    tail = interference_tail_exponent(lam, alpha, gamma_lin, serving, window)
    exponent = outage_exponent(serving, fields, alpha, gamma_lin, tail)
    outages = int(np.count_nonzero(rng.standard_exponential(trials) < exponent))
    p_ref = outage_at_distance(
        make_params(lambda_s=lam, alpha=alpha, gamma=gamma_lin, r_th=10.0), r0
    )
    sigma = math.sqrt(p_ref * (1.0 - p_ref) / trials)
    assert abs(outages / trials - p_ref) <= 3.0 * sigma


# -- emulated-mode estimator ---------------------------------------------------------------


def test_content_outage_estimate_covers_closed_form():
    p = make_params()
    cfg = SimConfig(trials=5000, master_seed=42, window_radius=100.0)
    est = estimate_content_outage(p, cfg)
    assert est.ci_low <= content_outage(p) <= est.ci_high
    assert est.n == 5000


def test_content_outage_estimate_zero_for_tiny_threshold():
    p = make_params(gamma=1e-12)
    est = estimate_content_outage(p, SimConfig(trials=400, master_seed=1, window_radius=60.0))
    assert est.mean == 0.0


def test_ci_width_shrinks_with_trial_count():
    p = make_params(lambda_s=0.01)
    small = estimate_content_outage(p, SimConfig(trials=1200, master_seed=9, window_radius=100.0))
    large = estimate_content_outage(p, SimConfig(trials=4800, master_seed=9, window_radius=100.0))
    ratio = (large.ci_high - large.ci_low) / (small.ci_high - small.ci_low)
    assert 0.4 <= ratio <= 0.6  # quadrupling trials halves the width


def test_conditional_outage_by_distance_bin_matches_fixed_distance_law():
    p = make_params()
    cfg = SimConfig(trials=5000, master_seed=13, window_radius=100.0)
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
    # fields of ~3 points give full blocks of 4096 trials; 32 times the
    # blocks must not raise the peak, as keeping every trial's draw would
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


# -- physical-mode estimator ---------------------------------------------------------------------


def test_physical_mode_outage_below_emulated_at_full_replication():
    # full replication and high density: the hit event is near-certain, so
    # excluding the serving SBS from the interference dominates
    p = make_params(lambda_s=0.3, r_th=3.0, cache_size_d=4, library_size=4)
    emulated = estimate_content_outage(
        p, SimConfig(trials=1500, master_seed=11, window_radius=60.0)
    )
    physical = estimate_physical(
        p, SimConfig(trials=1500, master_seed=11, window_radius=60.0)
    )
    assert physical.n_discarded == 0
    assert physical.mean < emulated.mean


def test_physical_mode_zero_outage_for_tiny_threshold():
    p = make_params(lambda_s=0.3, r_th=3.0, cache_size_d=4, library_size=4, gamma=1e-12)
    est = estimate_physical(
        p, SimConfig(trials=300, master_seed=3, window_radius=40.0)
    )
    assert est.mean == 0.0


def test_physical_mode_reports_discards():
    p = make_params(lambda_s=0.05, r_th=2.0, cache_size_d=5, library_size=100)
    est = estimate_physical(
        p, SimConfig(trials=800, master_seed=17, window_radius=30.0)
    )
    assert est.n + est.n_discarded == 800
    assert est.n_discarded > 0  # hit probability is ~3% here


def test_physical_mode_degenerate_conditioning_raises():
    # hit probability 3.1e-11: a hit in 40 trials has probability 1.3e-9
    p = make_params(lambda_s=1e-9, r_th=1.0, cache_size_d=1, library_size=100)
    cfg = SimConfig(trials=40, master_seed=5, window_radius=12.0)
    with pytest.raises(DegenerateSampleError):
        estimate_physical(p, cfg)


@pytest.mark.parametrize("cache_size_d", [2, 50])
def test_physical_mode_hit_share_follows_cache_hit_law(cache_size_d):
    # a trial survives exactly when some SBS within r_th caches the content,
    # so the effective count is binomial in the closed-form hit probability;
    # the full-window reference below checks that law geometrically
    p = make_params(cache_size_d=cache_size_d)
    trials = 3000
    # the hit law does not depend on the window, so a small one is enough
    est = estimate_physical(p, SimConfig(trials=trials, master_seed=12, window_radius=20.0))
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
    est = estimate_physical(p, SimConfig(trials=20_000, master_seed=3, window_radius=80.0))
    low, high = stats.binom.interval(1.0 - 1e-6, est.n, law)
    assert low <= est.mean * est.n <= high


def _full_window_physical(p, window, trials, rng):
    """Reference: whole-window fields, one trial at a time; (outages, hits)."""
    outages = hits = 0
    for _ in range(trials):
        r = window * np.sqrt(rng.random(rng.poisson(p.lambda_s * math.pi * window**2)))
        caching = np.flatnonzero((r <= p.r_th) & (rng.random(r.size) < p.pc))
        if caching.size == 0:
            continue
        hits += 1
        server = caching[np.argmin(r[caching])]
        gains = rng.exponential(size=r.size) * r**-p.alpha
        tail = interference_tail_exponent(p.lambda_s, p.alpha, p.gamma, r[server], window)
        # h0 < gamma * X + T_R times r0**-alpha: SIR < gamma with the field
        # beyond the window averaged out, and no division by an empty sum
        interference = gains.sum() - gains[server]
        outages += gains[server] < p.gamma * interference + tail * r[server] ** -p.alpha
    return outages, hits


def _full_window_emulated(p, window, trials, rng):
    """Reference: whole-window fields and every fade drawn, one trial at a time; outages."""
    outages = 0
    for _ in range(trials):
        r = window * np.sqrt(rng.random(rng.poisson(p.lambda_s * math.pi * window**2)))
        r0 = draw_serving_distance(p, rng)
        interference = np.sum(rng.exponential(size=r.size) * (r0 / r) ** p.alpha)
        tail = interference_tail_exponent(p.lambda_s, p.alpha, p.gamma, r0, window)
        outages += rng.exponential() < p.gamma * interference + tail
    return outages


def _two_proportion_z(k1, n1, k2, n2):
    pooled = (k1 + k2) / (n1 + n2)
    return (k1 / n1 - k2 / n2) / math.sqrt(pooled * (1.0 - pooled) * (1.0 / n1 + 1.0 / n2))


def test_physical_mode_matches_full_window_reference():
    # sampling given the hit, two independent thinned fields, must give the
    # whole-window field's law, hit share included; both samplers add the
    # field beyond the same 20 m window in closed form
    p = make_params(cache_size_d=30)  # pc = 0.3, hit probability 0.905
    trials, window = 20_000, 20.0
    est = estimate_physical(p, SimConfig(trials=trials, master_seed=31, window_radius=window))
    outages, hits = _full_window_physical(p, window, trials, np.random.default_rng(32))
    assert abs(_two_proportion_z(est.n, trials, hits, trials)) <= 4.5
    assert abs(_two_proportion_z(round(est.mean * est.n), est.n, outages, hits)) <= 4.5


def test_emulated_mode_matches_drawn_fade_reference():
    # the estimator integrates the interferers' fades out; a reference that
    # draws every fade must have the same outage law
    p = make_params()
    trials, window = 20_000, 20.0
    cfg = SimConfig(trials=trials, master_seed=33, window_radius=window)
    est = estimate_content_outage(p, cfg)
    outages = _full_window_emulated(p, window, trials, np.random.default_rng(34))
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
    est = estimate(p, SimConfig(trials=40_000, master_seed=seed, window_radius=4.0 * p.r_th))
    target = closed_form(p)
    z = (est.mean - target) / math.sqrt(target * (1.0 - target) / est.n)
    assert abs(z) <= 4.5


def test_caching_annulus_lies_beyond_each_server_with_poisson_counts():
    # field k's points lie in (r0[k], R], uniform on that annulus, and its
    # count is Poisson with mean lambda_c * pi * (R**2 - r0[k]**2)
    groups, window, lambda_c = [0.0, 2.0, 9.0, 9.99], 10.0, 0.05
    r0 = np.repeat(groups, 2000)
    annulus = _caching_annulus(lambda_c, r0, window, trial_stream(13, 0))
    owner = np.repeat(r0, annulus.counts)
    assert (annulus.r > owner).all() and (annulus.r <= window).all()
    for k, inner in enumerate(groups):
        mean = 2000 * lambda_c * math.pi * (window**2 - inner**2)
        total = annulus.counts[2000 * k: 2000 * (k + 1)].sum()
        assert abs(total - mean) <= 4.5 * math.sqrt(mean)
    u = (annulus.r[owner == 2.0] ** 2 - 4.0) / (window**2 - 4.0)
    assert stats.kstest(u, "uniform").pvalue > 1e-3


def test_physical_mode_runs_on_an_empty_annulus():
    # window == r_th, the smallest window: nothing lies beyond r_th inside
    # it, and the caching SBSs beyond the server lie on r0 < r <= r_th
    p = make_params(cache_size_d=30)
    est = estimate_physical(p, SimConfig(trials=500, master_seed=6, window_radius=p.r_th))
    assert est.window_radius == p.r_th
    assert est.n + est.n_discarded == 500
    assert est.n > 0 and 0.0 <= est.mean <= 1.0


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
    # A block draws its fields, then the serving distances, then the
    # serving fades, so a change to the fades moves the outage count but
    # not the distances
    p = make_params()
    distances, outages = content_outage_trials(
        p, SimConfig(trials=1000, master_seed=7, window_radius=100.0)
    )
    assert int(outages.sum()) == 769
    assert distances[:4].tolist() == [
        2.187803376821607, 1.7218841485678331, 4.78363608649529, 4.814109907636839
    ]
    hit = estimate_cache_hit(p, SimConfig(trials=3000, master_seed=8))
    assert (hit.mean, hit.n, hit.n_discarded) == (434 / 3000, 3000, 0)
    assert (hit.ci_low, hit.ci_high) == (0.1289076919785731, 0.16199390621340876)


def test_physical_trial_stream_is_pinned():
    # exact outputs for a fixed seed: a block draws its count of trials with
    # a hit, then for those the fields without the content, the serving
    # distances, the caching fields beyond the servers and the serving
    # fades, so a change to any draw after the first moves the outage count
    # but not n
    est = estimate_physical(
        make_params(), SimConfig(trials=2000, master_seed=8, window_radius=100.0)
    )
    assert (est.mean, est.n, est.n_discarded) == (249 / 325, 325, 1675)


def test_estimate_repeats_bit_identically():
    p = make_params()
    cfg = SimConfig(trials=500, master_seed=4, window_radius=80.0)
    assert estimate_content_outage(p, cfg) == estimate_content_outage(p, cfg)


def test_sim_config_validation():
    with pytest.raises(ParameterError):
        SimConfig(trials=0)
    with pytest.raises(ParameterError):
        SimConfig(master_seed=-1)
    with pytest.raises(ParameterError):
        SimConfig(master_seed=2**64)
    with pytest.raises(ParameterError):
        SimConfig(window_radius=0.0)


def test_estimate_interval_brackets_mean():
    est = Estimate(mean=0.5, ci_low=0.4, ci_high=0.6, confidence=0.99, n=10)
    assert est.contains(0.5)
    assert not est.contains(0.7)


# -- window policy ----------------------------------------------------------------------------------


def test_recommended_window_covers_ten_thresholds():
    # with no window the fields are sampled out to 10 * r_th in both modes;
    # at pc = 1 a physical run of 64 trials has a hit with near certainty
    for p in (make_params(cache_size_d=100), make_params(alpha=6.0, r_th=2.0, cache_size_d=100)):
        cfg = SimConfig(trials=64, master_seed=0)
        assert estimate_content_outage(p, cfg).window_radius == 10.0 * p.r_th
        assert estimate_physical(p, cfg).window_radius == 10.0 * p.r_th


def test_window_below_threshold_distance_rejected():
    p = make_params()
    cfg = SimConfig(trials=8, master_seed=0, window_radius=4.0)
    for estimate in (estimate_content_outage, estimate_physical):
        with pytest.raises(ParameterError) as excinfo:
            estimate(p, cfg)
        assert excinfo.value.field == "window_radius"
