"""Interference beyond the window: its tail exponent, and the exact far field it adds."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from cachegeo.analytic import content_outage, physical_content_outage
from cachegeo.model import SystemParams, validate
from cachegeo.simulate import (
    SimConfig,
    estimate_content_outage,
    estimate_physical,
    interference_tail_exponent,
)

PROPERTY = settings(max_examples=40, deadline=None)

alphas = st.floats(2.05, 6.0)


def _tail_exponent_by_quadrature(lambda_s, alpha, s, radius):
    # 2*pi*lambda_s * int_R^inf r * (1 - 1/(1 + s*r**-alpha)) dr, the PGFL
    # exponent of the faded field beyond R, on r = R*exp(x)
    def integrand(x):
        grown = radius ** (2.0 - alpha) * math.exp((2.0 - alpha) * x)
        reach = s * radius**-alpha * math.exp(-alpha * x)
        return 2.0 * math.pi * lambda_s * s * grown / (1.0 + reach)

    value, _ = quad(integrand, 0.0, math.inf, epsabs=0.0, epsrel=1e-12, limit=500)
    return value


@pytest.mark.parametrize(
    "alpha, s, radius",
    [(3.0, 12.5, 50.0), (3.0, 1.25e8, 50.0), (2.2, 1e3, 10.0), (6.0, 1e6, 5.0),
     (2.05, 10.0, 1000.0)],
)
def test_tail_exponent_matches_quadrature_at_reference_points(alpha, s, radius):
    # the function returns T_R(s) at s = gamma*r0**alpha
    r0 = radius / 2.0
    gamma = s / r0**alpha
    assert interference_tail_exponent(0.1, alpha, gamma, r0, radius) == pytest.approx(
        _tail_exponent_by_quadrature(0.1, alpha, s, radius), rel=1e-9
    )


@PROPERTY
@given(
    lambda_s=st.floats(1e-3, 1.0),
    alpha=alphas,
    log_s=st.floats(-3.0, 8.0),
    radius=st.floats(1.0, 1e3),
    share=st.floats(0.01, 1.0),
)
def test_tail_exponent_matches_quadrature(lambda_s, alpha, log_s, radius, share):
    s = 10.0**log_s
    r0 = share * radius
    gamma = s / r0**alpha
    assert interference_tail_exponent(lambda_s, alpha, gamma, r0, radius) == (
        pytest.approx(_tail_exponent_by_quadrature(lambda_s, alpha, s, radius), rel=1e-8)
    )


@pytest.mark.parametrize(
    "alpha, gamma, r0, radius",
    [(400.0, 0.1, 4.0, 5.0), (400.0, 1e8, 5.0, 5.0), (3.0, 0.1, 0.0, 50.0),
     (2.05, 1e-6, 0.0, 1000.0)],
)
def test_tail_exponent_is_finite_at_huge_alpha_and_zero_distance(alpha, gamma, r0, radius):
    # a RuntimeWarning fails the suite (pyproject.toml)
    tail = interference_tail_exponent(0.1, alpha, gamma, r0, radius)
    assert math.isfinite(tail) and tail >= 0.0
    s = gamma * r0**alpha
    assert tail == pytest.approx(
        _tail_exponent_by_quadrature(0.1, alpha, s, radius), rel=1e-9
    )
    block = interference_tail_exponent(0.1, alpha, gamma, np.array([0.0, r0, radius]), radius)
    assert np.isfinite(block).all() and block[1] == pytest.approx(tail, rel=1e-14)
    # doubling every length and quartering the density leaves T_R unchanged;
    # at alpha = 400 and r0 = 10, r0**alpha alone would overflow a float
    doubled = interference_tail_exponent(0.1 / 4.0, alpha, gamma, 2.0 * r0, 2.0 * radius)
    assert doubled == pytest.approx(tail, rel=1e-12)


@pytest.mark.parametrize("alpha, seed", [(2.5, 161), (3.0, 162), (4.0, 163)])
def test_outage_is_exact_at_the_smallest_window(alpha, seed):
    # at window = r_th every interferer beyond r_th enters through the tail
    # exponent; without it the outage at alpha = 2.5 reads ~0.65 against 0.80
    p = validate(SystemParams(lambda_s=0.1, alpha=alpha, gamma=0.1, r_th=5.0,
                              cache_size_d=2, library_size=100))
    trials = 20_000
    est = estimate_content_outage(
        p, SimConfig(trials=trials, master_seed=seed, window_radius=p.r_th)
    )
    target = content_outage(p)
    z = (est.mean - target) / math.sqrt(target * (1.0 - target) / trials)
    assert abs(z) <= 4.5


@pytest.mark.parametrize("cache_size_d, seed", [(30, 171), (100, 172)])
def test_physical_outage_is_exact_at_the_smallest_window(cache_size_d, seed):
    # beyond a window of r_th every SBS interferes, caching or not, so the
    # same tail exponent completes the physical field
    p = validate(SystemParams(lambda_s=0.1, alpha=3.0, gamma=0.1, r_th=5.0,
                              cache_size_d=cache_size_d, library_size=100))
    est = estimate_physical(p, SimConfig(trials=20_000, master_seed=seed, window_radius=p.r_th))
    target = physical_content_outage(p)
    z = (est.mean - target) / math.sqrt(target * (1.0 - target) / est.n)
    assert abs(z) <= 4.5
