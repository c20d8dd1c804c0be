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

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PhysicalConstants:
    """Reduced Planck constant and speed of light."""

    hbar: float = 1.0
    c: float = 1.0

    def __post_init__(self):
        if not 0 < self.hbar < np.inf:
            raise ValueError(f"hbar must be positive and finite, got {self.hbar}")
        if not 0 < self.c < np.inf:
            raise ValueError(f"c must be positive and finite, got {self.c}")


NATURAL_UNITS = PhysicalConstants()


@dataclass(frozen=True)
class Grid1D:
    """Uniform periodic grid: x_j = j*dx on [0, L), with x_N identified with x_0.

    n_points must be a power of two and at least 8.
    """

    n_points: int
    length: float

    def __post_init__(self):
        n = self.n_points
        if n < 8 or (n & (n - 1)) != 0:
            raise ValueError(f"n_points must be a power of two >= 8, got {n}")
        if not 0 < self.length < np.inf:
            raise ValueError(f"length must be positive and finite, got {self.length}")

    @property
    def spacing(self) -> float:
        return self.length / self.n_points

    @property
    def positions(self) -> np.ndarray:
        return np.arange(self.n_points) * self.spacing

    @property
    def wavenumbers(self) -> np.ndarray:
        """Mode wavenumbers 2*pi*n/L in FFT order, n in [-N/2, N/2), Nyquist negative."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n_points, d=self.spacing)


@dataclass(frozen=True)
class TimeSpec:
    """Fixed-step time discretization."""

    dt: float
    n_steps: int

    def __post_init__(self):
        if not 0 < self.dt < np.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")

    @property
    def total_time(self) -> float:
        return self.dt * self.n_steps


@dataclass
class WaveField:
    """Complex field sampled on a periodic grid (position representation)."""

    grid: Grid1D
    samples: np.ndarray

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.complex128)
        if self.samples.shape != (self.grid.n_points,):
            raise ValueError(
                f"samples shape {self.samples.shape} does not match grid "
                f"({self.grid.n_points} points)"
            )
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("field samples must all be finite")

    def copy(self) -> "WaveField":
        return WaveField(self.grid, self.samples.copy())


@dataclass
class SpectralField:
    """Complex field in wavenumber representation (FFT mode order)."""

    grid: Grid1D
    mode_amplitudes: np.ndarray

    def __post_init__(self):
        self.mode_amplitudes = np.asarray(self.mode_amplitudes, dtype=np.complex128)
        if self.mode_amplitudes.shape != (self.grid.n_points,):
            raise ValueError(
                f"mode_amplitudes shape {self.mode_amplitudes.shape} does not match "
                f"grid ({self.grid.n_points} points)"
            )
        if not np.all(np.isfinite(self.mode_amplitudes)):
            raise ValueError("mode amplitudes must all be finite")

    @property
    def wavenumbers(self) -> np.ndarray:
        return self.grid.wavenumbers

    @property
    def wavelengths(self) -> np.ndarray:
        """Per-mode wavelength 2*pi/|k| (inf for the k = 0 mode)."""
        with np.errstate(divide="ignore"):
            return 2.0 * np.pi / np.abs(self.wavenumbers)

    def copy(self) -> "SpectralField":
        return SpectralField(self.grid, self.mode_amplitudes.copy())


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
        if not 0 < self.sigma < np.inf:
            raise ValueError(f"sigma must be positive and finite, got {self.sigma}")


def dft(field: WaveField) -> SpectralField:
    """Forward unitary transform, psi_hat_n = (1/sqrt(N)) sum_j psi_j e^{-i k_n x_j}."""
    return SpectralField(field.grid, np.fft.fft(field.samples, norm="ortho"))


def idft(spec: SpectralField) -> WaveField:
    """Inverse unitary transform; exact inverse of :func:`dft` up to rounding."""
    return WaveField(spec.grid, np.fft.ifft(spec.mode_amplitudes, norm="ortho"))


def _l2(samples: np.ndarray, dx: float):
    """sqrt(sum |psi_j|^2 dx) of each row of `samples`, shape (..., N).

    Squared in place and summed by `np.add.reduce`: the bits of
    `np.sum(np.abs(samples) ** 2, axis=-1)`, with one temporary instead of two.
    """
    dens = np.abs(samples)
    np.multiply(dens, dens, out=dens)
    return np.sqrt(np.add.reduce(dens, axis=-1) * dx)


def l2_norm(field: WaveField) -> float:
    """Discrete L2 norm, sqrt(sum |psi_j|^2 dx)."""
    return float(_l2(field.samples, field.grid.spacing))


def inner_product(bra: WaveField, ket: WaveField) -> complex:
    """Discrete inner product sum conj(bra_j) ket_j dx."""
    if bra.grid != ket.grid:
        raise ValueError("fields must share one grid")
    return complex(np.vdot(bra.samples, ket.samples) * bra.grid.spacing)
