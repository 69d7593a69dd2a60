"""Domain types, validation, and unit conversion."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cachegeo.model import (
    ParameterError,
    SystemParams,
    db_to_linear,
    validate,
    with_replication_ratio,
)
from cachegeo.sweep import _PC_GRID


def make_params(**overrides):
    base = dict(
        lambda_s=0.1, alpha=3.0, gamma=0.1, r_th=5.0, cache_size_d=2, library_size=100
    )
    base.update(overrides)
    return SystemParams(**base)


def test_reference_parameter_set_validates():
    p = validate(make_params())
    assert p.pc == 0.02


def test_alpha_at_pole_rejected():
    with pytest.raises(ParameterError, match="alpha must exceed 2") as excinfo:
        validate(make_params(alpha=2.0))
    assert excinfo.value.field == "alpha"


def test_cache_exceeding_library_rejected():
    with pytest.raises(ParameterError, match="cache exceeds library") as excinfo:
        validate(make_params(cache_size_d=101))
    assert excinfo.value.field == "cache_size_d"


@pytest.mark.parametrize(
    "field,value",
    [
        ("lambda_s", 0.0),
        ("lambda_s", -0.1),
        ("lambda_s", math.nan),
        ("alpha", 2.0),
        ("alpha", 1.5),
        ("alpha", math.inf),
        ("gamma", 0.0),
        ("gamma", -1.0),
        ("r_th", 0.0),
        ("r_th", math.inf),
        ("cache_size_d", -1),
        ("library_size", 0),
    ],
)
def test_each_invariant_raises_naming_its_field(field, value):
    with pytest.raises(ParameterError) as excinfo:
        validate(make_params(**{field: value}))
    assert excinfo.value.field == field


def test_validate_is_idempotent():
    p = make_params()
    assert validate(validate(p)) is p


def test_db_to_linear_reference_points():
    assert db_to_linear(0.0) == 1.0
    assert db_to_linear(10.0) == 10.0
    assert math.isclose(db_to_linear(-10.0), 0.1, rel_tol=1e-15)


def test_db_to_linear_strictly_increasing():
    rng = np.random.default_rng(2)
    for _ in range(100):
        a, b = sorted(rng.uniform(-60, 60, size=2))
        if a < b:
            assert db_to_linear(a) < db_to_linear(b)


def test_with_replication_ratio_exact_for_decimals():
    p = make_params()
    for pc in (0.02, 0.1, 0.5, 0.25, 0.004, 1.0):
        q = validate(with_replication_ratio(p, pc))
        assert q.pc == pc
    assert with_replication_ratio(p, 0.0).cache_size_d == 0


def _limited(pc):
    frac = Fraction(pc).limit_denominator(10**6)
    return frac.numerator, frac.denominator


@settings(max_examples=500, deadline=None)
@given(pc=st.floats(0.0, 1.0))
@example(pc=5e-324)
@example(pc=5e-7)
@example(pc=1.0 - 2**-53)
def test_with_replication_ratio_is_the_closest_fraction(pc):
    # the closest fraction with denominator at most 10**6, on the stdlib's tie rule
    q = with_replication_ratio(make_params(), pc)
    assert (q.cache_size_d, q.library_size) == _limited(pc)


def test_with_replication_ratio_on_the_figure_grid():
    for pc in _PC_GRID:
        q = with_replication_ratio(make_params(), pc)
        assert (q.cache_size_d, q.library_size) == _limited(pc)


def test_with_replication_ratio_rejects_out_of_range():
    with pytest.raises(ParameterError):
        with_replication_ratio(make_params(), 1.01)
    with pytest.raises(ParameterError):
        with_replication_ratio(make_params(), math.nan)
