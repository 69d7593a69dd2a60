"""Domain types, parameter validation, and unit conventions.

Units are meters and SBS per square meter throughout. The SIR threshold
is stored in linear units; dB appears only at the CLI boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

__all__ = [
    "ParameterError",
    "SystemParams",
    "validate",
    "db_to_linear",
    "with_replication_ratio",
]


class ParameterError(ValueError):
    """A parameter lies outside its admissible domain.

    ``field`` names the offender so callers (CLI, sweep runner) can report
    it without parsing the message.
    """

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


@dataclass(frozen=True)
class SystemParams:
    """Physical and model parameters consumed by every formula."""

    lambda_s: float  # SBS spatial density [SBS/m^2]
    alpha: float  # path loss exponent, must exceed 2
    gamma: float  # SIR threshold, linear units
    r_th: float  # threshold distance [m]
    cache_size_d: int  # contents stored per SBS
    library_size: int  # total contents in the library

    @property
    def pc(self) -> float:
        """Replication ratio: fraction of the library each SBS caches."""
        return self.cache_size_d / self.library_size


def validate(params: SystemParams) -> SystemParams:
    """Return ``params`` unchanged iff every invariant holds.

    Raises :class:`ParameterError` naming the offending field, one distinct
    error per invariant. Idempotent: a validated instance always revalidates.
    """
    if not (math.isfinite(params.lambda_s) and params.lambda_s > 0):
        raise ParameterError(
            "lambda_s",
            f"lambda_s must be a positive finite density, got {params.lambda_s}",
        )
    if not (math.isfinite(params.alpha) and params.alpha > 2):
        # the interference constant has a pole at alpha = 2
        raise ParameterError(
            "alpha", f"alpha must exceed 2, got {params.alpha}"
        )
    if not (math.isfinite(params.gamma) and params.gamma > 0):
        raise ParameterError(
            "gamma", f"gamma must be a positive finite SIR threshold, got {params.gamma}"
        )
    if not (math.isfinite(params.r_th) and params.r_th > 0):
        raise ParameterError(
            "r_th", f"r_th must be a positive finite distance, got {params.r_th}"
        )
    # bool is an int subclass, but a JSON true is no count
    if (isinstance(params.cache_size_d, bool) or not isinstance(params.cache_size_d, int)
            or params.cache_size_d < 0):
        raise ParameterError(
            "cache_size_d",
            f"cache_size_d must be a nonnegative integer, got {params.cache_size_d}",
        )
    if (isinstance(params.library_size, bool) or not isinstance(params.library_size, int)
            or params.library_size < 1):
        raise ParameterError(
            "library_size",
            f"library_size must be a positive integer, got {params.library_size}",
        )
    if params.cache_size_d > params.library_size:
        raise ParameterError(
            "cache_size_d",
            f"cache exceeds library: d={params.cache_size_d} > |C|={params.library_size}",
        )
    return params


def db_to_linear(x_db: float) -> float:
    """Convert a dB value to linear units: 10**(x/10)."""
    return 10.0 ** (x_db / 10.0)


def with_replication_ratio(params: SystemParams, pc: float) -> SystemParams:
    """Copy of ``params`` whose cache and library sizes realize ratio ``pc``.

    The ratio is represented as the smallest fraction d/|C| with
    denominator at most 10**6 that reproduces the requested value, so
    decimal ratios such as 0.02 map to exact integer pairs (1/50).
    """
    if not (math.isfinite(pc) and 0.0 <= pc <= 1.0):
        raise ParameterError("pc", f"replication ratio must lie in [0, 1], got {pc}")
    frac = Fraction(pc).limit_denominator(1_000_000)
    return replace(
        params, cache_size_d=frac.numerator, library_size=frac.denominator
    )
