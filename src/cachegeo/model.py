"""Domain types, parameter validation, and unit conventions.

Units are meters and SBS per square meter throughout. The SIR threshold
is stored in linear units; dB appears only at the CLI boundary.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from numbers import Real

__all__ = [
    "ParameterError",
    "DegenerateSampleError",
    "SystemParams",
    "SimConfig",
    "checked",
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


class DegenerateSampleError(RuntimeError):
    """No trial survived the conditioning event (effective sample size 0)."""


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


@dataclass(frozen=True)
class SimConfig:
    """Monte Carlo controls: the trial count and the master seed.

    Every run samples its interferers on the whole plane, so there is no
    window to set. Each field is checked in its domain. It is defined
    here, not in :mod:`cachegeo.simulate`, which re-exports it, so that a
    config is built without importing numpy.
    """

    trials: int = 5000
    master_seed: int = 0

    def __post_init__(self):
        checked("trials", self.trials)
        checked("master_seed", self.master_seed)


# a real number; isinstance tests float first, since the numbers.Real ABC is slow
_REAL = (float, Real)

# Each numeric input's domain, written once: (kind, low, high, brackets). A
# bracket "[" or "]" closes its bound; an infinite bound is open, so it also
# refuses inf and NaN. A real is compared as a float.
_DOMAINS = {
    "lambda_s": (_REAL, 0, math.inf, "()"),
    "alpha": (_REAL, 2, math.inf, "()"),  # the interference constant has a pole at 2
    "gamma": (_REAL, 0, math.inf, "()"),
    "r_th": (_REAL, 0, math.inf, "()"),
    "cache_size_d": (int, 0, math.inf, "[)"),
    "library_size": (int, 1, math.inf, "[)"),
    "pc": (_REAL, 0, 1, "[]"),
    "epsilon": (_REAL, 0, 1, "[)"),  # the hit probability is below 1 at any finite density
    "trials": (int, 1, math.inf, "[)"),
    "master_seed": (int, 0, 2**64, "[)"),
    # db_to_linear also refuses a value whose linear value is no normal float
    "gamma_db": (_REAL, -math.inf, math.inf, "()"),
}


def checked(field: str, value):
    """``value`` if it lies in the domain of ``field``, as a float for a real field.

    Raises :class:`ParameterError` naming ``field`` for a bool (a JSON
    true is no number), a value that is not a real number, a non-finite
    value, a value out of bounds, and a non-integer in an integer field.
    """
    kind, low, high, brackets = _DOMAINS[field]
    number = math.nan
    if isinstance(value, kind) and not isinstance(value, bool):
        try:
            number = value if kind is int else float(value)
        except OverflowError:  # an integer or fraction beyond the float range
            pass
    if (low < number < high or number == low and brackets[0] == "["
            or number == high and brackets[1] == "]"):
        return number
    if high == math.inf and low > -math.inf:
        bound = f"{'be at least' if brackets[0] == '[' else 'exceed'} {low}"
    else:
        bound = f"lie in {brackets[0]}{low}, {high}{brackets[1]}"
    kind_name = "an integer" if kind is int else "a finite real number"
    raise ParameterError(field, f"{field} must {bound} ({kind_name}), got {value!r}")


def validate(params: SystemParams) -> SystemParams:
    """Return ``params`` unchanged iff every invariant holds.

    Raises :class:`ParameterError` naming the offending field, one distinct
    error per invariant. Idempotent: a validated instance always revalidates.
    """
    for field, value in vars(params).items():  # the six fields, in their order
        checked(field, value)
    if params.cache_size_d > params.library_size:
        raise ParameterError(
            "cache_size_d",
            f"cache exceeds library: d={params.cache_size_d} > |C|={params.library_size}",
        )
    return params


def db_to_linear(x_db: float) -> float:
    """Convert a dB value to linear units: 10**(x/10).

    Refuses, as ``gamma_db``, a value outside its domain and one whose
    linear value is not a positive normal finite float (beyond about
    -3077 and 3083 dB).
    """
    try:
        linear = 10.0 ** (checked("gamma_db", x_db) / 10.0)
    except OverflowError:
        linear = math.inf
    if not sys.float_info.min <= linear < math.inf:
        raise ParameterError(
            "gamma_db", f"gamma_db {x_db!r} dB has no positive normal finite linear value"
        )
    return linear


_MAX_LIBRARY = 10**6  # largest library size a replication ratio is written with


def with_replication_ratio(params: SystemParams, pc: float) -> SystemParams:
    """Copy of ``params`` whose cache and library sizes realize ratio ``pc``.

    The ratio is represented as the closest fraction d/|C| to ``pc`` with
    denominator at most 10**6, so decimal ratios such as 0.02 map to exact
    integer pairs (1/50). It is ``Fraction(pc).limit_denominator(10**6)``,
    computed in ints: the continued-fraction convergents of ``pc`` up to
    that denominator give the two closest bounds on either side, and the
    closer one is taken, the last convergent on a tie.
    """
    n, d = checked("pc", pc).as_integer_ratio()  # in lowest terms
    if d > _MAX_LIBRARY:
        p0, q0, p1, q1 = 0, 1, 1, 0
        x, y = n, d
        while True:
            a = x // y
            if q0 + a * q1 > _MAX_LIBRARY:
                break
            p0, q0, p1, q1 = p1, q1, p0 + a * p1, q0 + a * q1
            x, y = y, x - a * y
        k = (_MAX_LIBRARY - q0) // q1
        p2, q2 = p0 + k * p1, q0 + k * q1
        # |p1/q1 - n/d| <= |p2/q2 - n/d|, cross-multiplied by q1 * q2 * d
        n, d = (p1, q1) if abs(p1 * d - n * q1) * q2 <= abs(p2 * d - n * q2) * q1 else (p2, q2)
    return replace(params, cache_size_d=n, library_size=d)
