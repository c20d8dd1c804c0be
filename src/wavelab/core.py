"""Periodic 1-D grid, complex wave fields, and the unitary discrete Fourier transform.

Conventions fixed project-wide:

* natural-unit defaults (hbar = c = 1), but the constants stay explicit runtime
  parameters and nothing downstream hard-codes 1;
* grids have a power-of-two number of points, so a radix-2 transform always
  applies;
* the transform is unitary (1/sqrt(N) both directions), so Parseval holds
  without bookkeeping factors;
* signed wavenumber layout k_n = 2*pi*n/L with the Nyquist mode at n = -N/2.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exceptions import ConfigError, NumericalFailure


def _positive(name: str, value):
    """Refuse (ConfigError) any value but 0 < value < inf: the one positivity rule."""
    if not 0 < value < np.inf:
        raise ConfigError(f"{name} must be positive and finite, got {value}")


def _finite(message, *values):
    """Raise NumericalFailure(message) unless every value (scalar or array) is finite: the one
    rule for computed values, whose arithmetic runs under `np.errstate(all="ignore")`, so an
    overflow or nan ends here (exit 3), not in a numpy warning; a callable message is lazy.
    A real scalar (`np.float64` is a float) takes `math.isfinite`, ~50x cheaper than numpy's
    reduction, so a search may check each probe."""
    for v in values:
        if not (math.isfinite(v) if isinstance(v, float) else np.isfinite(v).all()):
            raise NumericalFailure(message() if callable(message) else message)


@dataclass(frozen=True)
class PhysicalConstants:
    """Reduced Planck constant and speed of light."""

    hbar: float = 1.0
    c: float = 1.0

    def __post_init__(self):
        _positive("hbar", self.hbar)
        _positive("c", self.c)


NATURAL_UNITS = PhysicalConstants()


@dataclass(frozen=True)
class Grid1D:
    """Uniform periodic grid: x_j = j*dx on [0, L), with x_N identified with x_0.

    n_points is a power of two from 8 to 2**58 and L/N a normal float64, so 1/dx is finite.
    """

    n_points: int
    length: float

    def __post_init__(self):
        n = self.n_points
        if n < 8 or (n & (n - 1)) != 0:
            raise ConfigError(f"n_points must be a power of two >= 8, got {n}")
        if n > 2 ** 58:  # numpy allocates no complex128 array of 2**59 points (2**63 bytes)
            raise ConfigError(f"n_points must be at most 2**58, got {n}")
        _positive("length", self.length)
        if self.length / n < sys.float_info.min:
            raise ConfigError(f"grid spacing length / n_points = {self.length} / {n} is subnormal")

    @property
    def spacing(self) -> float:
        return self.length / self.n_points

    @property
    def positions(self) -> np.ndarray:
        return np.arange(self.n_points) * self.spacing

    @cached_property
    def wavenumbers(self) -> np.ndarray:
        """Mode wavenumbers 2*pi*n/L in FFT order, n in [-N/2, N/2), Nyquist negative.

        Computed once per grid and returned read-only, so every caller shares one array
        and none can corrupt it.
        """
        k = 2.0 * np.pi * np.fft.fftfreq(self.n_points, d=self.spacing)
        k.flags.writeable = False
        return k


@dataclass(frozen=True)
class TimeSpec:
    """Fixed-step time discretization."""

    dt: float
    n_steps: int

    def __post_init__(self):
        _positive("dt", self.dt)
        if self.n_steps < 1:
            raise ConfigError(f"n_steps must be >= 1, got {self.n_steps}")


def _on_grid(values, grid: Grid1D, name: str, what: str, dtype=np.complex128) -> np.ndarray:
    """`values` as `dtype`, refused (ConfigError) unless finite and of shape (N,)."""
    values = np.asarray(values, dtype=dtype)
    if values.shape != (grid.n_points,):
        raise ConfigError(f"{name} shape {values.shape} does not match grid "
                          f"({grid.n_points} points)")
    if not np.all(np.isfinite(values)):
        raise ConfigError(f"{what} must all be finite")
    return values


@dataclass
class WaveField:
    """Complex field sampled on a periodic grid (position representation)."""

    grid: Grid1D
    samples: np.ndarray

    def __post_init__(self):
        self.samples = _on_grid(self.samples, self.grid, "samples", "field samples")

    def copy(self) -> "WaveField":
        return WaveField(self.grid, self.samples.copy())


@dataclass
class SpectralField:
    """Complex field in wavenumber representation (FFT mode order)."""

    grid: Grid1D
    mode_amplitudes: np.ndarray

    def __post_init__(self):
        self.mode_amplitudes = _on_grid(self.mode_amplitudes, self.grid, "mode_amplitudes",
                                        "mode amplitudes")

    @property
    def wavenumbers(self) -> np.ndarray:
        return self.grid.wavenumbers


@dataclass(frozen=True)
class GaussianPacketSpec:
    """Localized initial data: envelope exp(-(x-x0)^2/4 sigma^2) times exp(i k0 x).

    sigma should satisfy 4*dx <= sigma <= L/8 to be both resolved and
    non-wrapping; violations are reported as warnings, not errors.
    """

    x0: float
    k0: float
    sigma: float

    def __post_init__(self):
        _positive("sigma", self.sigma)


def dft(field: WaveField) -> SpectralField:
    """Forward unitary transform, psi_hat_n = (1/sqrt(N)) sum_j psi_j e^{-i k_n x_j}."""
    with np.errstate(all="ignore"):  # an overflow gives inf, refused below
        amps = np.fft.fft(field.samples, norm="ortho")
    _finite("non-finite mode amplitudes: the forward transform overflowed", amps)
    return SpectralField(field.grid, amps)


def idft(spec: SpectralField) -> WaveField:
    """Inverse unitary transform; exact inverse of :func:`dft` up to rounding."""
    with np.errstate(all="ignore"):
        samples = np.fft.ifft(spec.mode_amplitudes, norm="ortho")
    _finite("non-finite field samples: the inverse transform overflowed", samples)
    return WaveField(spec.grid, samples)


def _l2(samples: np.ndarray, dx: float):
    """sqrt(sum |psi_j|^2 dx) of the samples.

    Squared in place and summed by `np.add.reduce`: the bits of
    `np.sum(np.abs(samples) ** 2)`, with one temporary instead of two.
    """
    dens = np.abs(samples)
    np.multiply(dens, dens, out=dens)
    return np.sqrt(np.add.reduce(dens) * dx)


def l2_norm(field: WaveField) -> float:
    """Discrete L2 norm, sqrt(sum |psi_j|^2 dx); NumericalFailure if the sum overflows."""
    with np.errstate(all="ignore"):
        norm = float(_l2(field.samples, field.grid.spacing))
    _finite("non-finite L2 norm: sum |psi|^2 dx overflowed", norm)
    return norm
