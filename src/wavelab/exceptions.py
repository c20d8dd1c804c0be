"""Exception types raised by the wavelab modules; every refused input is a ConfigError."""


class WaveLabError(Exception):
    """Base class for all wavelab-specific errors."""


class DispersionUndefined(WaveLabError):
    """No single dispersion relation exists (e.g. non-constant potential)."""


class NonCommensurateWavenumber(WaveLabError):
    """Wavenumber is not of the form 2*pi*n/L and cannot be sampled exactly."""


class WrongEquationFamily(WaveLabError):
    """Operation requires a different equation family than the one supplied."""


class LinearSolveFailure(WaveLabError):
    """The implicit linear system could not be solved."""


class ZeroField(WaveLabError):
    """Operation undefined on an identically-zero field."""


class InsufficientSnapshots(WaveLabError):
    """Too few snapshots for the requested finite-difference stencil."""


class NonUniformTimes(WaveLabError):
    """Snapshot times are not uniformly spaced."""


class NoConvergence(WaveLabError):
    """Iteration hit its step limit before reaching the requested tolerance."""


class GridTooCoarse(WaveLabError):
    """Grid cannot resolve (or contain) the state the computation needs."""


class NumericalFailure(WaveLabError):
    """Non-finite values appeared during evolution."""

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


class ConfigError(WaveLabError, ValueError):
    """A refused parameter, input or run configuration; a ValueError too (the CLI's exit 2)."""


class NonPositiveDeltaX(ConfigError):
    """Position uncertainty must be strictly positive."""


class InvalidBracket(ConfigError):
    """Search bracket shows evidence the objective is not unimodal inside it."""
