"""Exception hierarchy shared across the package, and its one type check of
library values."""


class PortfolioError(Exception):
    """Base class for all errors raised by this package; ``line`` is the
    1-based physical line of the input file at fault, if any."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class DataError(PortfolioError):
    """Malformed or structurally inconsistent input data."""


class DomainError(PortfolioError):
    """Mathematically invalid request (bad confidence level, degenerate state, ...)."""


class DegenerateProblemError(DomainError):
    """The local step problem has no isolated solution.

    Covers collinear constraint gradients, a vanishing objective gradient on
    the feasible set, and extremum branches whose positivity condition fails.
    """


class InfeasibleStepError(PortfolioError):
    """The requested path rates cannot be met within the unit-cost ellipsoid (a2 >= 0)."""


class ConfigError(PortfolioError):
    """Invalid run configuration or generator specification."""


def check_type(kind, what, *named):
    """Raise a ConfigError naming the first of the (name, value) pairs
    ``named`` whose value is not a ``kind``, as "<name> must be <what>, got
    <value>".  A bool is not a real number or an integer here: it passes only
    where ``kind`` names ``bool``."""
    takes_bool = bool in (kind if isinstance(kind, tuple) else (kind,))
    for name, value in named:
        if not isinstance(value, kind) or (isinstance(value, bool) and not takes_bool):
            raise ConfigError(f"{name} must be {what}, got {value!r}")
