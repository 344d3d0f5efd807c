"""Exception types shared across the toolkit, and the number predicates
that validation of outside values shares."""

import numbers


def _is_int(x) -> bool:
    """An integer, not a bool."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _is_real(x) -> bool:
    """A real number, not a bool."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


class LwirError(Exception):
    """Base class for every error raised by this package."""


class DomainError(LwirError, ValueError):
    """A physical quantity left its admissible domain (negative distance, T <= 0, ...)."""


class UnitMismatchError(LwirError, ValueError):
    """A spectrum carried a different unit tag than the operation expected."""


class GridError(LwirError, ValueError):
    """Wavelength grid is non-monotone, inconsistent between inputs, or misses a band."""


class SpectrumParseError(LwirError, ValueError):
    """A spectrum file failed to parse; carries the offending line number."""

    def __init__(self, path, line_no, message):
        self.path = str(path)
        self.line_no = line_no
        self.message = message
        super().__init__(f"{self.path}:{line_no}: {message}")

    def __reduce__(self):
        # rebuild from the constructor's arguments, so the error survives
        # pickling, e.g. on its way back from a worker process
        return type(self), (self.path, self.line_no, self.message)


class ConstraintError(LwirError, ValueError):
    """Scene or parameter values violate a hard physical constraint."""


class DimensionError(LwirError, ValueError):
    """Array shapes disagree with the declared dimensions."""


class FormatError(LwirError, ValueError):
    """Binary container is corrupt: bad magic, truncated body, or wrong record kind."""


class DegenerateFitError(LwirError, ValueError):
    """Least-squares fit has no information (all regressors zero)."""


class AllInvalidError(LwirError, ValueError):
    """Every pixel was invalid for the requested statistic."""


class ConfigError(LwirError, ValueError):
    """Configuration validation failed; lists every violation, not just the first."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))

    def __reduce__(self):
        return type(self), (self.violations,)
