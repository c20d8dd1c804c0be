"""Uncertainty-relation energy bound for the harmonic oscillator.

Substituting the saturated uncertainty width, p -> hbar/(2 dx) and x -> dx,
into H = p^2/2m + (1/2) m omega_c^2 x^2 gives the bound curve

    E(dx) = hbar^2 / (8 m dx^2) + (1/2) m omega_c^2 dx^2  >=  hbar omega_c / 2,

minimized at dx* = sqrt(hbar / 2 m omega_c).  The bound is checked three ways:
the closed form, a golden-section search on the curve, and an independent
imaginary-time relaxation of the full Schrodinger problem showing the bound is
attained for the harmonic potential.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import NATURAL_UNITS, Grid1D, PhysicalConstants, WaveField, l2_norm
from .exceptions import GridTooCoarse, InvalidBracket, NoConvergence, NonPositiveDeltaX
from .propagate import energy_expectation, harmonic_potential

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/golden ratio


@dataclass(frozen=True)
class OscillatorProblem:
    m: float
    omega_c: float
    consts: PhysicalConstants = NATURAL_UNITS

    def __post_init__(self):
        if not 0 < self.m < math.inf:
            raise ValueError(f"mass must be positive and finite, got {self.m}")
        if not 0 < self.omega_c < math.inf:
            raise ValueError(f"omega_c must be positive and finite, got {self.omega_c}")


@dataclass(frozen=True)
class UncertaintyPoint:
    delta_x: float
    energy: float


class BoundMinimum(NamedTuple):
    delta_x: float
    energy: float


class GroundState(NamedTuple):
    energy: float
    psi: WaveField


def energy_bound(problem: OscillatorProblem, delta_x: float) -> UncertaintyPoint:
    """Evaluate the bound curve E(dx); always >= hbar omega_c / 2."""
    if not delta_x > 0:
        raise NonPositiveDeltaX(f"delta_x must be positive, got {delta_x}")
    hbar = problem.consts.hbar
    e = (hbar ** 2 / (8.0 * problem.m * delta_x ** 2)
         + 0.5 * problem.m * problem.omega_c ** 2 * delta_x ** 2)
    return UncertaintyPoint(delta_x=delta_x, energy=e)


def minimize_bound_analytic(problem: OscillatorProblem) -> BoundMinimum:
    """Closed-form minimum: dx* = sqrt(hbar/2 m omega_c), E0 = hbar omega_c / 2."""
    hbar = problem.consts.hbar
    dx_star = math.sqrt(hbar / (2.0 * problem.m * problem.omega_c))
    return BoundMinimum(delta_x=dx_star, energy=0.5 * hbar * problem.omega_c)


def minimize_bound_numeric(problem: OscillatorProblem,
                           bracket: tuple = (1e-2, 1e2),
                           tol: float = 1e-12) -> BoundMinimum:
    """Golden-section search for the minimum of the bound curve on [lo, hi].

    The bracket must contain the minimum; an interior maximum (both edge
    values below the midpoint value) is evidence the objective is not unimodal
    there and raises InvalidBracket.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not (0.0 < lo < hi):
        raise InvalidBracket(f"need 0 < lo < hi, got ({lo}, {hi})")
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")

    def f(d):
        return energy_bound(problem, d).energy

    mid = 0.5 * (lo + hi)
    if f(lo) < f(mid) and f(hi) < f(mid):
        raise InvalidBracket(
            f"E({lo}) and E({hi}) both lie below E({mid}); no interior minimum"
        )
    c = hi - (hi - lo) * _INV_PHI
    d = lo + (hi - lo) * _INV_PHI
    fc, fd = f(c), f(d)
    while hi - lo > tol:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - (hi - lo) * _INV_PHI
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + (hi - lo) * _INV_PHI
            fd = f(d)
    best = 0.5 * (lo + hi)
    return BoundMinimum(delta_x=best, energy=f(best))


def harmonic_ground_exact(problem: OscillatorProblem, grid: Grid1D,
                          center: float | None = None) -> WaveField:
    """Analytic ground state exp(-m omega_c (x-xc)^2 / 2 hbar), grid-normalized."""
    xc = grid.length / 2.0 if center is None else center
    x = grid.positions
    psi = np.exp(-problem.m * problem.omega_c * (x - xc) ** 2
                 / (2.0 * problem.consts.hbar))
    fld = WaveField(grid, psi)
    return WaveField(grid, fld.samples / l2_norm(fld))


def imaginary_time_ground_state(problem: OscillatorProblem, grid: Grid1D,
                                tau_step: float = 0.02,
                                max_iters: int = 50000,
                                energy_tol: float = 1e-12,
                                initial: WaveField | None = None) -> GroundState:
    """Relax to the harmonic ground state by imaginary-time split stepping.

    The real-time split-step kernel with dt -> -i tau damps every excited
    component; each step renormalizes and the loop stops once the energy
    <psi|H|psi> changes by less than energy_tol per iteration.  The returned
    energy is the true-Hamiltonian expectation of the relaxed state, so the
    splitting bias enters only at second order.

    Any generic start (the default even Gaussian, or random noise) converges
    to the ground state.  An exactly odd-parity start is an edge case: parity
    is preserved until rounding breaks it, so the iteration first settles on
    the lowest odd state and may stop there or run out of iterations.
    """
    if not tau_step > 0:
        raise ValueError(f"tau_step must be positive, got {tau_step}")
    hbar = problem.consts.hbar
    dx = grid.spacing
    ground_width = math.sqrt(hbar / (2.0 * problem.m * problem.omega_c))
    if ground_width < 4.0 * dx:
        raise GridTooCoarse(
            f"ground width {ground_width:.4g} is below 4 dx = {4.0 * dx:.4g}; "
            "increase n_points or shrink length"
        )
    if grid.length < 16.0 * ground_width:
        raise GridTooCoarse(
            f"length {grid.length:.4g} is below 16 x ground width "
            f"{16.0 * ground_width:.4g}; enlarge the box"
        )

    v = harmonic_potential(grid, problem.m, problem.omega_c)
    half_kick = np.exp(-0.5 * v * tau_step / hbar)
    drift = np.exp(-hbar * grid.wavenumbers ** 2 * tau_step / (2.0 * problem.m))

    if initial is None:
        x = grid.positions
        psi = np.exp(-((x - grid.length / 2.0) ** 2) / (4.0 * (2.0 * ground_width) ** 2))
        psi = psi.astype(np.complex128)
    else:
        psi = initial.samples.copy()
    nrm = np.sqrt(np.sum(np.abs(psi) ** 2) * dx)
    if nrm == 0.0:
        raise ValueError("initial state must be nonzero")
    psi /= nrm

    energy_prev = math.inf
    for _ in range(max_iters):
        psi = half_kick * psi
        psi = np.fft.ifft(drift * np.fft.fft(psi))
        psi = half_kick * psi
        psi /= np.sqrt(np.sum(np.abs(psi) ** 2) * dx)
        energy = energy_expectation(WaveField(grid, psi), v, problem.m, problem.consts)
        if abs(energy - energy_prev) < energy_tol:
            return GroundState(energy=energy, psi=WaveField(grid, psi))
        energy_prev = energy
    raise NoConvergence(
        f"energy change still above {energy_tol} after {max_iters} iterations"
    )
