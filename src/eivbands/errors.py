"""Exception types shared across the package.

Each class maps to one CLI exit code so failures stay classifiable end to end:
input problems (bad files, bad flags, malformed data) exit 2, numerical
failures (non-finite objectives, singular solves) exit 3, and statistical
degeneracies (zero score slope, zero variance) exit 4.
"""

import numbers


class EivbandsError(Exception):
    """Base of the package's errors; each subclass sets its CLI `exit_code`."""

    exit_code: int


class InputError(EivbandsError, ValueError):
    """Malformed input: data files, configuration values, or argument shapes."""

    exit_code = 2


class NumericalError(EivbandsError, ArithmeticError):
    """Numerical failure: non-finite values or a linear solve that broke down."""

    exit_code = 3


class DegeneracyError(EivbandsError, RuntimeError):
    """Statistical degeneracy: a denominator or variance is numerically zero."""

    exit_code = 4

    def __init__(self, message, coordinate=None):
        super().__init__(message)
        self.coordinate = coordinate

    def __reduce__(self):
        # keep the coordinate across pickling (worker processes)
        return (type(self), (self.args[0], self.coordinate))


def check_integer(name: str, value) -> None:
    """Raise InputError unless `value` is an integer; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InputError(f"{name} must be an integer (got {value!r})")


def check_real(name: str, value) -> None:
    """Raise InputError unless `value` is a real number; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InputError(f"{name} must be a real number (got {value!r})")
