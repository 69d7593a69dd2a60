"""Closed-form expressions against independent oracles and their own invariants.

Frozen reference values were computed with a 40-digit gamma/log evaluation
(mpmath) or plain high-precision arithmetic, independent of this package.
"""

import math
import sys
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from cachegeo.analytic import (
    QuadratureError,
    _one_minus_phi,
    _serving_distance_expectation,
    _tail_hypergeometric,
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
from cachegeo.model import (
    ParameterError,
    SystemParams,
    db_to_linear,
    validate,
)

# 40-digit oracle values
KAPPA_3 = 2.4183991523122905
KAPPA_100 = 1.0006582768034463
OPT_DENSITY_09_01_10 = 0.07329355988794277
MIN_AREA_01_09 = 23.025850929940457
REQUIRED_PC_001_1_09 = 73.29355988794277
OUTAGE_FIG_RTH10 = 0.920759490739882
OUTAGE_FIG_RTH5 = 0.749326286981598


def make_params(**overrides):
    base = dict(
        lambda_s=0.1, alpha=3.0, gamma=0.1, r_th=5.0, cache_size_d=2, library_size=100
    )
    base.update(overrides)
    return validate(SystemParams(**base))


def random_valid_params(rng):
    """Log-uniform density and threshold, the ranges every sweep visits."""
    lam = 10.0 ** rng.uniform(-3, 0)
    alpha = rng.uniform(2.1, 6.0)
    gamma = 10.0 ** rng.uniform(-3, 3)
    r_th = rng.uniform(1.0, 50.0)
    d = int(rng.integers(1, 1_000_001))
    return validate(
        SystemParams(
            lambda_s=lam,
            alpha=alpha,
            gamma=gamma,
            r_th=r_th,
            cache_size_d=d,
            library_size=1_000_000,
        )
    )


# -- kappa -------------------------------------------------------------------


def test_kappa_alpha_four_is_half_pi():
    assert abs(kappa(4.0) - math.pi / 2.0) <= 1e-12


def test_kappa_alpha_three_matches_gamma_oracle():
    assert math.isclose(kappa(3.0), KAPPA_3, rel_tol=1e-12)


def test_kappa_tends_to_one_for_large_alpha():
    assert abs(kappa(100.0) - 1.0) < 0.02
    assert math.isclose(kappa(100.0), KAPPA_100, rel_tol=1e-12)


@pytest.mark.parametrize("alpha", [2.0, 1.0, -3.0, math.nan])
def test_kappa_rejects_bad_alpha(alpha):
    with pytest.raises(ParameterError):
        kappa(alpha)


# -- outage at fixed distance --------------------------------------------------


def test_outage_at_distance_zero_distance():
    assert outage_at_distance(make_params(), 0.0) == 0.0


def test_outage_at_distance_half_by_construction():
    # choose r so the exponent is exactly ln 2
    p = make_params(alpha=4.0, gamma=1.0)
    r = math.sqrt(math.log(2.0) / (p.lambda_s * kappa(4.0) * math.pi))
    assert math.isclose(outage_at_distance(p, r), 0.5, rel_tol=1e-12)


def test_outage_at_distance_strictly_increasing():
    # grid kept below the float saturation point of 1 - exp(-x)
    p = make_params()
    grid = np.linspace(0.1, 10.0, 40)
    values = [outage_at_distance(p, r) for r in grid]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert all(0.0 <= v < 1.0 for v in values)


def test_outage_at_distance_rejects_negative_distance():
    with pytest.raises(ParameterError):
        outage_at_distance(make_params(), -1.0)


# -- cache hit -----------------------------------------------------------------


def test_cache_hit_zero_when_nothing_cached():
    assert cache_hit_prob(make_params(cache_size_d=0)) == 0.0


def test_cache_hit_half_by_construction():
    lam = math.log(2.0) / (0.1 * math.pi * 100.0)
    p = make_params(lambda_s=lam, cache_size_d=10, r_th=10.0)
    assert math.isclose(cache_hit_prob(p), 0.5, rel_tol=1e-12)


def test_cache_hit_strictly_increasing_in_each_argument():
    p = make_params()
    assert cache_hit_prob(make_params(lambda_s=0.2)) > cache_hit_prob(p)
    assert cache_hit_prob(make_params(cache_size_d=4)) > cache_hit_prob(p)
    assert cache_hit_prob(make_params(r_th=6.0)) > cache_hit_prob(p)


# -- feasibility (hit target) ----------------------------------------------------


def test_feasibility_zero_target_always_holds():
    assert hit_target_feasible(make_params(), 0.0)


def test_feasibility_threshold_brackets_the_boundary():
    # the feasibility threshold sits within float roundoff of the exact
    # boundary target; bracket it from both sides
    p = make_params(lambda_s=0.0733, cache_size_d=10, r_th=10.0)
    product = p.pc * p.lambda_s * math.pi * p.r_th**2
    eps_boundary = -math.expm1(-product)
    assert hit_target_feasible(p, eps_boundary - 1e-12)
    assert not hit_target_feasible(p, eps_boundary + 1e-12)


def test_feasibility_reference_targets():
    p = make_params(lambda_s=0.0733, cache_size_d=10, r_th=10.0)
    assert hit_target_feasible(p, 0.9)
    assert not hit_target_feasible(p, 0.95)


def test_feasibility_rejects_unreachable_target():
    with pytest.raises(ParameterError):
        hit_target_feasible(make_params(), 1.0)
    with pytest.raises(ParameterError):
        hit_target_feasible(make_params(), -0.1)


def test_ratio_bounds_zero_target():
    bound = replication_ratio_bounds(0.1, 5.0, 0.0)
    assert bound.pc_lower == 0.0
    assert bound.pc_upper == 1.0
    assert bound.feasible


def test_ratio_bounds_when_the_area_underflows():
    # lambda_s * pi * r_th**2 rounds to 0: a nonzero target is out of reach
    bound = replication_ratio_bounds(1.0, 1e-200, 0.5)
    assert bound.pc_required == math.inf
    assert not bound.feasible
    assert replication_ratio_bounds(1.0, 1e-200, 0.0).pc_required == 0.0


def test_ratio_bounds_boundary_is_feasible():
    lam = -math.log1p(-0.9) / (math.pi * 25.0)
    bound = replication_ratio_bounds(lam, 5.0, 0.9)
    assert bound.feasible
    assert bound.pc_lower == pytest.approx(1.0, rel=1e-12)


def test_ratio_bounds_infeasible_flagged_not_clamped():
    bound = replication_ratio_bounds(0.01, 1.0, 0.9)
    assert not bound.feasible
    assert bound.pc_required == pytest.approx(REQUIRED_PC_001_1_09, rel=1e-12)
    assert bound.pc_lower == 1.0  # clamped for reporting
    assert bound.pc_lower <= bound.pc_upper


# -- serving distance pdf ----------------------------------------------------------


def test_pdf_vanishes_at_origin():
    assert serving_distance_pdf(make_params(), 0.0) == 0.0


def test_pdf_normalizes_over_random_parameter_suite():
    rng = np.random.default_rng(3)
    for _ in range(20):
        p = random_valid_params(rng)
        total, _ = quad(lambda r: serving_distance_pdf(p, r), 0.0, p.r_th, limit=200)
        assert abs(total - 1.0) <= 1e-6


def test_pdf_domain_errors():
    with pytest.raises(ParameterError):
        serving_distance_pdf(make_params(cache_size_d=0), 1.0)
    with pytest.raises(ParameterError):
        serving_distance_pdf(make_params(), -0.5)
    with pytest.raises(ParameterError):
        serving_distance_pdf(make_params(), 5.1)


def test_pdf_refuses_an_underflowing_hit_probability():
    # lambda_s*pc*pi*r_th**2 underflows at r_th = 1e-200: the law cannot be normalised
    with pytest.raises(ParameterError) as excinfo:
        serving_distance_pdf(make_params(r_th=1e-200), 0.0)
    assert excinfo.value.field == "r_th"


# -- content outage ------------------------------------------------------------------


def test_content_outage_reference_cells():
    assert content_outage(make_params(r_th=10.0)) == pytest.approx(
        OUTAGE_FIG_RTH10, rel=1e-12
    )
    assert content_outage(make_params()) == pytest.approx(OUTAGE_FIG_RTH5, rel=1e-12)


def test_content_outage_vanishes_for_tiny_threshold():
    assert content_outage(make_params(gamma=1e-12)) < 1e-4


def test_content_outage_rejects_empty_caches():
    with pytest.raises(ParameterError):
        content_outage(make_params(cache_size_d=0))


def test_content_outage_nondecreasing_in_threshold():
    rng = np.random.default_rng(4)
    for _ in range(30):
        p = random_valid_params(rng)
        gammas = 10.0 ** np.linspace(-3, 3, 25)
        values = [content_outage(replace(p, gamma=float(g))) for g in gammas]
        diffs = np.diff(values)
        assert (diffs >= -1e-12).all()


def _outage_by_definition(p, mpmath):
    # 1 - ratio at 360 digits: an outage down to ~1e-330 keeps 30 of them
    with mpmath.workdps(360):
        alpha, pc = mpmath.mpf(p.alpha), mpmath.mpf(p.pc)
        kappa_ = mpmath.gamma(1 + 2 / alpha) * mpmath.gamma(1 - 2 / alpha)
        c = pc + kappa_ * mpmath.mpf(p.gamma) ** (2 / alpha)
        area = mpmath.mpf(p.lambda_s) * mpmath.pi * mpmath.mpf(p.r_th) ** 2
        return 1 - pc * mpmath.expm1(-c * area) / (c * mpmath.expm1(-pc * area))


@pytest.mark.parametrize("alpha", [2.05, 3.0, 10.0])
@pytest.mark.parametrize("cache_size_d, library_size", [(1, 10**6), (2, 100), (100, 100)])
def test_content_outage_keeps_its_digits_where_it_is_small(alpha, cache_size_d, library_size):
    # 1 - ratio cancels where the outage is small; the outage must stay
    # nonnegative and within 1e-10 of the definition evaluated in 360 digits
    mpmath = pytest.importorskip("mpmath")
    for r_th in np.logspace(-162.0, 1.0, 28):
        for gamma_db in (-60.0, -10.0, 20.0):
            p = validate(SystemParams(lambda_s=0.1, alpha=alpha, gamma=db_to_linear(gamma_db),
                                      r_th=float(r_th), cache_size_d=cache_size_d,
                                      library_size=library_size))
            outage, reference = content_outage(p), float(_outage_by_definition(p, mpmath))
            assert outage >= 0.0
            if reference >= sys.float_info.min:
                assert outage == pytest.approx(reference, rel=1e-10)
            else:  # a subnormal outage has fewer digits than 1e-10 asks
                assert outage < 2.0 * sys.float_info.min


def test_one_minus_phi_on_both_branches():
    # the closed form 1 + expm1(-x)/x from x = 1/2 up, the series below it;
    # each within a few ulps of 1 - (1 - e**-x)/x in 50 digits, and the two
    # meet at 1/2, where one step of x moves the value by ~1e-17
    mpmath = pytest.importorskip("mpmath")

    def exact(x):
        with mpmath.workdps(50):
            x = mpmath.mpf(x)
            return float(1 - (1 - mpmath.exp(-x)) / x)

    below = math.nextafter(0.5, 0.0)
    for x in (below, 0.5, 1.0, 10.0, 1e3):
        assert _one_minus_phi(x) == pytest.approx(exact(x), rel=4e-16, abs=0.0)
    assert abs(_one_minus_phi(0.5) - _one_minus_phi(below)) <= 2 * math.ulp(_one_minus_phi(0.5))


def test_content_outage_is_not_negative_where_ratio_cancels():
    # 1 - ratio printed -2.220446049250313e-16 here; the outage is ~2.2e-308
    p = validate(SystemParams(lambda_s=0.1, alpha=3.0, gamma=db_to_linear(-60.0),
                              r_th=2.401461312158954e-152, cache_size_d=1, library_size=100))
    assert content_outage(p) > 0.0


def test_content_outage_limit_at_huge_threshold():
    assert content_outage(make_params(gamma=1e6)) > 0.999


def test_probability_outputs_stay_in_unit_interval():
    rng = np.random.default_rng(5)
    for _ in range(300):
        p = random_valid_params(rng)
        assert 0.0 <= cache_hit_prob(p) <= 1.0
        assert 0.0 <= content_outage(p) <= 1.0
        assert 0.0 <= outage_at_distance(p, rng.uniform(0, p.r_th)) <= 1.0


# -- quadrature cross-check -----------------------------------------------------------


def test_quadrature_matches_closed_form_on_random_suite():
    rng = np.random.default_rng(6)
    for _ in range(100):
        p = random_valid_params(rng)
        assert abs(content_outage(p) - content_outage_quadrature(p)) <= 1e-9


def test_quadrature_reference_cell():
    p = make_params(r_th=10.0)
    assert content_outage_quadrature(p) == pytest.approx(OUTAGE_FIG_RTH10, abs=1e-9)


def test_quadrature_limit_at_huge_threshold():
    assert content_outage_quadrature(make_params(gamma=1e6)) > 0.999


def test_quadrature_rejects_bad_tolerance():
    with pytest.raises(ParameterError):
        content_outage_quadrature(make_params(), rel_tol=0.0)


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_quadrature_reports_unreachable_tolerance():
    with pytest.raises(QuadratureError) as excinfo:
        content_outage_quadrature(make_params(), rel_tol=1e-60)
    assert excinfo.value.error_estimate > 1e-60


# -- physical association -------------------------------------------------------------


def _physical_outage_by_quadrature(p):
    # rho = gamma**(2/alpha) * int_{gamma**(-2/alpha)}^inf du / (1 + u**(alpha/2)) is
    # the interference of the caching SBSs beyond the server; the outage given
    # r0 is 1 - exp(-lambda_s*pi*r0**2 * (pc*rho + (1 - pc)*kappa*gamma**(2/alpha)))
    delta = 2.0 / p.alpha
    beyond, _ = quad(lambda u: 1.0 / (1.0 + u ** (p.alpha / 2.0)), p.gamma**-delta, math.inf,
                     epsabs=0.0, epsrel=1e-12, limit=200)
    excess = p.pc * p.gamma**delta * beyond + (1.0 - p.pc) * kappa(p.alpha) * p.gamma**delta
    return _serving_distance_expectation(
        p, lambda r: -math.expm1(-p.lambda_s * math.pi * r * r * excess), 1e-10
    )


def test_physical_outage_matches_quadrature_on_random_suite():
    rng = np.random.default_rng(8)
    for _ in range(100):
        p = random_valid_params(rng)
        assert abs(physical_content_outage(p) - _physical_outage_by_quadrature(p)) <= 1e-9


@settings(max_examples=200, deadline=None)
@given(
    lambda_s=st.floats(1e-4, 10.0),
    alpha=st.floats(2.05, 10.0),
    gamma_db=st.floats(-60.0, 60.0),
    r_th=st.floats(1e-3, 1e3),
    cache_size_d=st.integers(1, 100),
)
def test_physical_outage_never_above_emulated(lambda_s, alpha, gamma_db, r_th, cache_size_d):
    # the server does not interfere and no caching SBS lies nearer than it
    p = validate(SystemParams(lambda_s=lambda_s, alpha=alpha, gamma=db_to_linear(gamma_db),
                              r_th=r_th, cache_size_d=cache_size_d, library_size=100))
    assert 0.0 <= physical_content_outage(p) <= content_outage(p)


def test_physical_outage_rejects_empty_caches():
    with pytest.raises(ParameterError):
        physical_content_outage(make_params(cache_size_d=0))


# -- the 2F1 of rho ---------------------------------------------------------------------

# F(alpha, z) = 2F1(1, 1 - 2/alpha; 2 - 2/alpha; -z), summed by two series that
# meet at z = 4, where as alpha grows the 1/z series would cancel if it were
# summed as written; the middle strategy puts examples there
_TAIL_ARGUMENTS = st.one_of(
    st.just(0.0), st.floats(-15.0, 12.0).map(lambda e: 10.0**e), st.floats(3.0, 6.0)
)


@settings(max_examples=200, deadline=None)
@given(log_excess=st.floats(-6.0, 3.0), zs=st.lists(_TAIL_ARGUMENTS, min_size=1, max_size=6))
def test_tail_hypergeometric_matches_mpmath(log_excess, zs):
    # alpha - 2 is log-uniform in [1e-6, 1e3]
    mpmath = pytest.importorskip("mpmath")
    alpha = 2.0 + 10.0**log_excess
    with mpmath.workdps(40):
        b = 1 - 2 / mpmath.mpf(alpha)
        for z in zs:
            exact = mpmath.hyp2f1(1, b, b + 1, -mpmath.mpf(z))
            assert abs(_tail_hypergeometric(alpha, z) - exact) <= 1e-12 * exact


@pytest.mark.parametrize("alpha", [1e6, 1e8])
@pytest.mark.parametrize("z", [4.001, 11.5, 1e3])
def test_tail_hypergeometric_keeps_its_digits_at_large_alpha(alpha, z):
    # pi/sin(2*pi/alpha) and the 1/z series' first term each near alpha/2; summed
    # as written, their difference would lose ~1e-11 of F at alpha = 1e6
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        b = 1 - 2 / mpmath.mpf(alpha)
        exact = mpmath.hyp2f1(1, b, b + 1, -mpmath.mpf(z))
    assert abs(_tail_hypergeometric(alpha, z) - exact) <= 1e-14 * exact


@pytest.mark.parametrize(
    "alpha, closed_form",
    [(4.0, lambda z: math.atan(math.sqrt(z)) / math.sqrt(z)),
     # 1 - 2/alpha rounds to 1, where F = ln(1 + z)/z
     (1e308, lambda z: math.log1p(z) / z)],
)
def test_tail_hypergeometric_closed_forms(alpha, closed_form):
    assert _tail_hypergeometric(alpha, 0.0) == 1.0
    for z in [1e-10, 0.01, 1.0, 3.999, 4.0, 4.001, 11.5, 1e3, 1e12]:
        assert _tail_hypergeometric(alpha, z) == pytest.approx(closed_form(z), rel=1e-14, abs=0.0)


# -- optimal density ----------------------------------------------------------------------


def test_optimal_density_reference_value():
    assert optimal_density(0.9, 0.1, 10.0) == pytest.approx(OPT_DENSITY_09_01_10, rel=1e-12)
    # a replication ratio given as the exact fraction d/|C|
    assert optimal_density(0.9, Fraction(1, 10), 10.0) == pytest.approx(
        OPT_DENSITY_09_01_10, rel=1e-12
    )
    # at pi*r_th**2 = 1 the density is the density-area product -ln(1 - epsilon)/pc
    unit_disc = 1.0 / math.sqrt(math.pi)
    assert optimal_density(0.9, 0.1, unit_disc) == pytest.approx(MIN_AREA_01_09, rel=1e-12)
    assert optimal_density(-math.expm1(-1.0), 1.0, unit_disc) == pytest.approx(1.0, rel=1e-12)


def test_optimal_density_zero_target():
    # a zero target needs no density, also at full or empty replication
    for pc in (0.1, 1.0, 0.0):
        assert optimal_density(0.0, pc, 10.0) == 0.0


def test_optimal_density_when_the_area_underflows():
    assert optimal_density(0.5, 0.1, 1e-200) == math.inf


def test_optimal_density_round_trip_is_exact():
    for eps in (0.1, 0.5, 0.9, 0.99):
        lam = optimal_density(eps, 0.1, 10.0)
        p = validate(
            SystemParams(
                lambda_s=lam, alpha=3.0, gamma=0.1, r_th=10.0,
                cache_size_d=10, library_size=100,
            )
        )
        assert abs(cache_hit_prob(p) - eps) <= 1e-12


def test_optimal_density_rejects_zero_ratio():
    for pc in (0.0, -0.1, 1.5, math.nan):
        with pytest.raises(ParameterError) as excinfo:
            optimal_density(0.5, pc, 10.0)
        assert excinfo.value.field == "pc"
    # a zero target needs no density, but pc must still be a ratio
    for pc in (-0.1, 1.5, 7.0, math.nan, math.inf, True, "0.1"):
        with pytest.raises(ParameterError) as excinfo:
            optimal_density(0.0, pc, 10.0)
        assert excinfo.value.field == "pc"


@settings(max_examples=300, deadline=None)
@given(
    epsilon=st.floats(1e-12, 1.0 - 1e-12),
    d=st.integers(1, 10_000),
    library=st.integers(1, 10_000),
    r_th=st.floats(1e-3, 1e3),
)
def test_planned_density_reads_feasible_and_gives_back_its_ratio(epsilon, d, library, r_th):
    # plan --pc, then analytic --epsilon and plan --lambda at the planned
    # density: all three answer by one inverse and one boundary rule
    d = min(d, library)
    pc = d / library
    lam = optimal_density(epsilon, pc, r_th)
    params = validate(SystemParams(
        lambda_s=lam, alpha=3.0, gamma=0.1, r_th=r_th, cache_size_d=d, library_size=library,
    ))
    assert hit_target_feasible(params, epsilon)
    bound = replication_ratio_bounds(lam, r_th, epsilon)
    assert math.isclose(bound.pc_required, pc, rel_tol=1e-12)
    assert bound.feasible
