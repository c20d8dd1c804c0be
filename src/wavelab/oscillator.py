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

from .core import NATURAL_UNITS, Grid1D, PhysicalConstants, WaveField, _l2, l2_norm
from .exceptions import (
    GridTooCoarse,
    InvalidBracket,
    NoConvergence,
    NonPositiveDeltaX,
    NumericalFailure,
)
from .propagate import (
    _energies,
    _energy_spread,
    _kinetic_symbol,
    _strang_step,
    energy_expectation,
    harmonic_potential,
)

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/golden ratio

# The relaxation stacks up to this many samples of consecutive iterates and
# takes their energies in one call: a batch of max(1, min(8, 8192 // N)) states.
_STACK_POINTS = 8192
_MAX_BATCH = 8

# A relaxed state is refused if its energy spread exceeds this fraction of its energy.
_SPREAD_TOL = 1e-2


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
    """Evaluate the bound curve E(dx); always >= hbar omega_c / 2.

    Taken in float64 (the same pow as Python floats), so an overflow gives inf
    instead of an exception; NumericalFailure is raised when E is not finite.
    """
    if not delta_x > 0:
        raise NonPositiveDeltaX(f"delta_x must be positive, got {delta_x}")
    hbar, m, omega_c, dx = (np.float64(v) for v in
                            (problem.consts.hbar, problem.m, problem.omega_c, delta_x))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        e = hbar ** 2 / (8.0 * m * dx ** 2) + 0.5 * m * omega_c ** 2 * dx ** 2
    if not np.isfinite(e):
        raise NumericalFailure(f"bound curve E(dx) = {float(e)!r} at dx = {delta_x!r}")
    return UncertaintyPoint(delta_x=delta_x, energy=float(e))


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
    there and raises InvalidBracket.  The search stops once hi - lo is within
    tol or within 4 ulps of the midpoint, whichever is larger.
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
    # the bracket cannot shrink much below one ulp of its midpoint: floor tol there
    while hi - lo > max(tol, 4.0 * math.ulp(0.5 * (lo + hi))):
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
    component; each step renormalizes and the loop stops at the first
    iteration whose energy <psi|H|psi> differs from the previous iteration's by
    less than energy_tol.  The energies are taken for a batch of consecutive
    iterates at once, which stops at the same iteration as checking after
    every step, at the cost of at most one batch of extra steps.  The returned
    energy is `energy_expectation` of the returned state (the true-Hamiltonian
    expectation), so the splitting bias enters only at second order.

    A state that stops changing is not necessarily an eigenstate (a huge
    tau_step freezes a wrong one), so the stopped state's energy spread
    sigma = sqrt(<H^2> - <H>^2) is computed once.  By Weinstein's bound, some
    eigenvalue lies within sigma of E.  NoConvergence is raised if sigma / E
    exceeds 1e-2.  A step that loses the state altogether (its norm underflows
    to 0 or overflows) raises NumericalFailure.

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
    drift /= grid.n_points  # the 1/N of the kernel's unscaled inverse transform

    if initial is None:
        x = grid.positions
        psi = np.exp(-((x - grid.length / 2.0) ** 2) / (4.0 * (2.0 * ground_width) ** 2))
        psi = psi.astype(np.complex128)
    else:
        psi = initial.samples.copy()
    nrm = _l2(psi, dx)
    if nrm == 0.0:
        raise ValueError("initial state must be nonzero")
    psi /= nrm

    symbol = _kinetic_symbol(grid, problem.m, problem.consts)
    stack = np.empty((max(1, min(_MAX_BATCH, _STACK_POINTS // grid.n_points)),
                      grid.n_points), dtype=np.complex128)
    spec = np.empty(grid.n_points, dtype=np.complex128)
    energy_prev = math.inf
    for done in range(0, max_iters, len(stack)):
        rows = stack[:min(len(stack), max_iters - done)]
        for row in range(len(rows)):
            psi = _strang_step(psi, half_kick, drift, spec, rows[row])  # stepped into its row
            nrm = _l2(psi, dx)
            if not 0.0 < nrm < math.inf:
                raise NumericalFailure(f"state lost at iteration {done + row + 1} "
                                       f"(norm {nrm})", step=done + row + 1)
            psi /= nrm
        energies, _ = _energies(rows, v, symbol, dx)
        for row, energy in enumerate(energies.tolist()):
            if abs(energy - energy_prev) < energy_tol:
                return _accept(problem, grid, v, symbol, rows[row].copy())
            energy_prev = energy
    raise NoConvergence(
        f"energy change still above {energy_tol} after {max_iters} iterations"
    )


def _accept(problem: OscillatorProblem, grid: Grid1D, v: np.ndarray, symbol: np.ndarray,
            psi: np.ndarray) -> GroundState:
    """The stopped state, if its energy spread marks it as an eigenstate."""
    ground = WaveField(grid, psi)
    energy = energy_expectation(ground, v, problem.m, problem.consts)
    spread = _energy_spread(psi, v, symbol, grid.spacing, energy)
    if not spread <= _SPREAD_TOL * energy:
        raise NoConvergence(
            f"relaxed state has energy spread {spread:.3g} at energy {energy:.6g}; "
            "not an eigenstate (tau_step too large?)"
        )
    return GroundState(energy=energy, psi=ground)
