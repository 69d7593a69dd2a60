"""Truncation bias of the interference window: tail exponent, bias, default window."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from cachegeo.analytic import content_outage, serving_distance_pdf
from cachegeo.model import SystemParams, db_to_linear, validate
from cachegeo.simulate import (
    binomial_ci,
    interference_tail_exponent,
    recommended_window_radius,
    truncation_bias,
)

PROPERTY = settings(max_examples=40, deadline=None)

alphas = st.floats(2.05, 6.0)


@st.composite
def system_params(draw):
    return validate(
        SystemParams(
            lambda_s=draw(st.floats(1e-3, 1.0)),
            alpha=draw(alphas),
            gamma=db_to_linear(draw(st.floats(-30.0, 60.0))),
            r_th=draw(st.floats(1.0, 20.0)),
            cache_size_d=draw(st.integers(1, 100)),
            library_size=100,
        )
    )


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
    assert interference_tail_exponent(0.1, alpha, s, radius) == pytest.approx(
        _tail_exponent_by_quadrature(0.1, alpha, s, radius), rel=1e-9
    )


@PROPERTY
@given(
    lambda_s=st.floats(1e-3, 1.0),
    alpha=alphas,
    log_s=st.floats(-3.0, 8.0),
    radius=st.floats(1.0, 1e3),
)
def test_tail_exponent_matches_quadrature(lambda_s, alpha, log_s, radius):
    s = 10.0**log_s
    assert interference_tail_exponent(lambda_s, alpha, s, radius) == pytest.approx(
        _tail_exponent_by_quadrature(lambda_s, alpha, s, radius), rel=1e-8
    )


@PROPERTY
@given(params=system_params(), scale=st.floats(1.0, 20.0), step=st.floats(1e-3, 10.0))
def test_truncation_bias_does_not_increase_with_the_window(params, scale, step):
    near = scale * params.r_th
    far = near * (1.0 + step)
    assert 0.0 <= truncation_bias(params, far) <= truncation_bias(params, near) + 1e-12


@PROPERTY
@given(params=system_params(), scale=st.floats(1.0, 100.0))
def test_truncation_bias_is_below_the_mean_tail_bound(params, scale):
    # 1 - exp(-x) <= x turns the exact bias into gamma * E[r0**alpha] times
    # the mean interference from beyond the window
    radius = scale * params.r_th
    moment, _ = quad(
        lambda r: r**params.alpha * serving_distance_pdf(params, r),
        0.0, params.r_th, epsabs=0.0, epsrel=1e-10, limit=200,
    )
    tail_mean = (2.0 * math.pi * params.lambda_s * radius ** (2.0 - params.alpha)
                 / (params.alpha - 2.0))
    bound = params.gamma * moment * tail_mean
    assert truncation_bias(params, radius) <= bound * (1.0 + 1e-9) + 1e-12


@PROPERTY
@given(params=system_params(), trials=st.integers(1, 10**6))
def test_default_window_is_the_smallest_that_meets_the_budget(params, trials):
    low, high = binomial_ci(content_outage(params) * trials, trials)
    budget = (high - low) / 8.0  # a quarter of the 99% half-width
    window = recommended_window_radius(params, trials)
    floor = 10.0 * params.r_th
    if window == math.inf:
        cap = math.sqrt(5e7 / (params.lambda_s * math.pi))
        assert truncation_bias(params, max(cap, floor)) > budget
        return
    assert window >= floor
    assert truncation_bias(params, window) <= budget
    if window > floor:
        assert truncation_bias(params, window * (1.0 - 1e-4)) > budget


@pytest.mark.parametrize(
    "alpha, trials, window, bias",
    [(3.0, 64, 50.0, 0.005424175529837598),
     (3.0, 5000, 68.20934467847547, 0.003945193749369575),
     (2.5, 5000, 2589.3355282906255, None)],
)
def test_default_window_and_its_bias_are_pinned(alpha, trials, window, bias):
    # exact values at the reference point: a rewrite of the quadrature's
    # integrand that is not the same arithmetic moves these bits
    params = validate(SystemParams(lambda_s=0.1, alpha=alpha, gamma=0.1, r_th=5.0,
                                   cache_size_d=2, library_size=100))
    assert recommended_window_radius(params, trials) == window
    if bias is not None:
        assert truncation_bias(params, window) == bias
