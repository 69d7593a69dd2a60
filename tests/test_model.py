"""Domain types, validation, and unit conversion."""

import math

import numpy as np
import pytest

from cachegeo.model import (
    ParameterError,
    SystemParams,
    db_to_linear,
    validate,
    with_replication_ratio,
)


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


def test_with_replication_ratio_rejects_out_of_range():
    with pytest.raises(ParameterError):
        with_replication_ratio(make_params(), 1.01)
    with pytest.raises(ParameterError):
        with_replication_ratio(make_params(), math.nan)
