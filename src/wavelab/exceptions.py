"""Exception types of wavelab in three families, one per CLI exit code: ConfigError (2, a refused
input; also a ValueError), NumericalFailure (3, a failed computation), GridTooCoarse (4)."""


class WaveLabError(Exception):
    """Base class for all wavelab-specific errors."""


class ConfigError(WaveLabError, ValueError):
    """A refused parameter, input or run configuration; a ValueError too (the CLI's exit 2)."""


class NumericalFailure(WaveLabError):
    """A computation that failed: non-finite values, no convergence (the CLI's exit 3)."""


class GridTooCoarse(WaveLabError):
    """Grid cannot resolve (or contain) the state the computation needs (the CLI's exit 4)."""


class NonCommensurateWavenumber(ConfigError):
    """Wavenumber is not of the form 2*pi*n/L and cannot be sampled exactly."""


class WrongEquationFamily(ConfigError):
    """Operation requires a different equation family than the one supplied."""


class ZeroField(ConfigError):
    """Operation undefined on an identically-zero field."""


class NonPositiveDeltaX(ConfigError):
    """Position uncertainty must be strictly positive."""


class InvalidBracket(ConfigError):
    """Search bracket shows evidence the objective is not unimodal inside it."""


class NoConvergence(NumericalFailure):
    """Iteration hit its step limit before reaching the requested tolerance."""
