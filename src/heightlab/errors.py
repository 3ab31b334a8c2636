"""Exception types shared across the package."""


class HeightLabError(Exception):
    """Base class for package errors."""


class EmptyInterior(HeightLabError):
    """Domain discretization produced no interior sites."""


class SplitFailed(HeightLabError):
    """Potential decomposition failed its certification."""


class StepTooLarge(HeightLabError):
    """Langevin step exceeds the stability cap."""


class NonFinite(HeightLabError):
    """A field value became NaN or infinite."""


class UnmixedChains(HeightLabError):
    """A start group of chains never reached the law it samples."""


class TimeMismatch(HeightLabError):
    """System clock does not match the requested macroscopic time."""


class CflViolation(HeightLabError):
    """Explicit PDE step exceeds the CFL bound."""


class FluxRangeExceeded(HeightLabError):
    """Too many flux queries fell outside the tabulated gradient range."""


class PotentialMismatch(HeightLabError):
    """A surface table was built for another potential than the run's."""


class ConfigError(HeightLabError):
    """Invalid, missing, or unknown configuration keys."""


class PlotSkipped(UserWarning):
    """An optional figure was not drawn because matplotlib is not installed."""
