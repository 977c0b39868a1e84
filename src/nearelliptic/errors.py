"""Exception types shared across the package, the check of a number read from input, and the report writer."""

import json
import math
from numbers import Integral, Real


class NearEllipticError(Exception):
    """Base class for package-specific failures."""


class InputError(NearEllipticError, ValueError):
    """Malformed or inconsistent input: bad shapes, broken symmetry, out-of-range parameters."""


class DegenerateSymbolError(NearEllipticError):
    """Symbol matrix numerically singular at some direction or frequency."""

    def __init__(self, message, direction=None, frequency=None):
        super().__init__(message)
        self.direction = direction
        self.frequency = frequency


class EvaluationError(NearEllipticError):
    """A nonlinearity produced non-finite values."""


class DivergenceError(NearEllipticError):
    """Fixed-point iteration failed to contract; usually an invalid certificate."""

    def __init__(self, message, trace=None, certificate=None):
        super().__init__(message)
        self.trace = trace
        self.certificate = certificate


class EstimateBreachError(NearEllipticError):
    """A certified inequality came out violated; indicates a bad certificate or a bug."""


class NearnessConditionError(NearEllipticError):
    """Operator-distance admission test failed; the report explains the refusal."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


def finite_number(value, what: str, integer: bool = False):
    """``value`` if it is a finite number, or a non-negative integer when ``integer``; else InputError.

    A bool is neither.
    """
    kind, wanted = (Integral, "a non-negative integer") if integer else (Real, "a finite number")
    bad = isinstance(value, bool) or not isinstance(value, kind) or not math.isfinite(value)
    if bad or (integer and value < 0):
        raise InputError(f"{what} must be {wanted}, got {value!r}")
    return value


def report_json(doc) -> str:
    """JSON text of a report; a NaN or infinite number is written as null.

    RFC 8259 JSON has no NaN or infinity, and ``allow_nan=False`` keeps any
    from being written.
    """
    return json.dumps(_finite_or_null(doc), indent=2, sort_keys=True, allow_nan=False)


def _finite_or_null(value):
    if isinstance(value, dict):
        return {key: _finite_or_null(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(item) for item in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value
