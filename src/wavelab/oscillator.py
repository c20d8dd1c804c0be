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

from .core import (
    NATURAL_UNITS,
    Grid1D,
    PhysicalConstants,
    WaveField,
    _finite,
    _l2,
    _positive,
    l2_norm,
)
from .exceptions import (
    ConfigError,
    GridTooCoarse,
    InvalidBracket,
    NoConvergence,
    NonPositiveDeltaX,
    NumericalFailure,
)
from .propagate import (
    _energy_spread,
    _kinetic_symbol,
    _real_kernels,
    _strang,
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
        _positive("mass", self.m)
        _positive("omega_c", self.omega_c)


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
    with np.errstate(all="ignore"):
        e = hbar ** 2 / (8.0 * m * dx ** 2) + 0.5 * m * omega_c ** 2 * dx ** 2
    _finite(f"bound curve E(dx) = {float(e)!r} at dx = {delta_x!r}", e)
    return UncertaintyPoint(delta_x=delta_x, energy=float(e))


def minimize_bound_analytic(problem: OscillatorProblem) -> BoundMinimum:
    """Closed-form minimum dx* = sqrt(hbar/2 m omega_c), E0 = hbar omega_c / 2, with dx*
    taken in float64: a 2 m omega_c that under- or overflows gives inf or 0, not an error."""
    hbar = problem.consts.hbar
    with np.errstate(all="ignore"):
        dx_star = float(np.sqrt(hbar / (2.0 * np.float64(problem.m) * problem.omega_c)))
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
    _positive("tol", tol)

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
    with np.errstate(all="ignore"):  # a square past the float range gives inf, so psi 0 there
        psi = np.exp(-problem.m * problem.omega_c * (x - xc) ** 2
                     / (2.0 * problem.consts.hbar))
        fld = WaveField(grid, psi)
        psi = fld.samples / l2_norm(fld)
    _finite(lambda: f"ground state underflows to 0 at every grid point (center = {xc!r})", psi)
    return WaveField(grid, psi)


def imaginary_time_ground_state(problem: OscillatorProblem, grid: Grid1D,
                                tau_step: float = 0.02,
                                max_iters: int = 50000,
                                energy_tol: float = 1e-12,
                                initial: WaveField | None = None) -> GroundState:
    """Relax to the harmonic ground state by imaginary-time split stepping.

    The real-time split-step kernel with dt -> -i tau damps every excited
    component.  Its factors are real, so the state is stepped in real
    arithmetic: a real start (the default) as one real row, a start with a
    nonzero imaginary part as two, Re and Im.  The operator is real and linear,
    so the rows relax independently and share one norm, and a batch energy is
    sum_r <row_r|H|row_r> / sum_r <row_r|row_r>.  Each step renormalizes and
    the loop stops at the first
    iteration whose energy <psi|H|psi> differs from the previous iteration's by
    less than energy_tol.  The energies are taken for a batch of consecutive
    iterates at once, which stops at the same iteration as checking after
    every step, at the cost of at most one batch of extra steps.  These
    stopping energies (`_stopping_energies`) take each mode's power as
    Re^2 + Im^2 and sum with numpy's own reductions, so they can differ from
    `energy_expectation` in the last bits.  The returned energy is
    `energy_expectation` of the returned state (the true-Hamiltonian
    expectation), so the splitting bias enters only at second order.

    A state that stops changing is not necessarily an eigenstate (a huge
    tau_step freezes a wrong one), so the stopped state's energy spread
    sigma = sqrt(<H^2> - <H>^2) is computed once.  By Weinstein's bound, some
    eigenvalue lies within sigma of E.  NoConvergence is raised if sigma / E
    exceeds 1e-2.  NumericalFailure is raised for a zero or non-finite ground width
    dx*, trap potential or start state, and for a step that loses the state
    altogether (its norm underflows to 0 or overflows).

    Any generic start (the default even Gaussian, or random noise) converges
    to the ground state.  An exactly odd-parity start is an edge case: parity
    is preserved until rounding breaks it, so the iteration first settles on
    the lowest odd state and may stop there or run out of iterations.
    """
    _positive("tau_step", tau_step)
    if max_iters < 1:
        raise ConfigError(f"max_iters must be >= 1, got {max_iters}")
    _positive("energy_tol", energy_tol)
    dx = grid.spacing
    ground_width = minimize_bound_analytic(problem).delta_x
    if not 0.0 < ground_width < math.inf:
        raise NumericalFailure(f"ground width sqrt(hbar / 2 m omega_c) = {ground_width!r}", step=0)
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

    # the state: a real (R, N) stack, R = 1 for a real start, R = 2 (Re, Im) otherwise
    if initial is None:
        with np.errstate(all="ignore"):  # an overflow is refused below
            four_var = 4.0 * np.float64(2.0 * ground_width) ** 2
            psi = np.exp(-((grid.positions - grid.length / 2.0) ** 2) / four_var)[np.newaxis]
    else:
        start = initial.samples
        psi = np.stack([start.real, start.imag] if np.any(start.imag) else [start.real])
    nrm = _l2(psi.reshape(-1), dx)
    if initial is not None and nrm == 0.0:
        raise ConfigError("initial state must be nonzero")
    if not 0.0 < nrm < math.inf:
        raise NumericalFailure(f"start state has norm {nrm}", step=0)
    psi *= 1.0 / nrm
    v = harmonic_potential(grid, problem.m, problem.omega_c)
    step = _strang(v, grid, problem.m, problem.consts.hbar, tau_step, 1, rows=psi.shape[:-1])

    symbol = _kinetic_symbol(grid, problem.m, problem.consts)
    stack = np.empty((max(1, min(_MAX_BATCH, _STACK_POINTS // grid.n_points)),) + psi.shape)
    energies = _stopping_energies(v, symbol, stack.shape)
    squares = np.empty(psi.shape)  # _l2's bits: |x|^2 of a real x is x * x
    flat = squares.reshape(-1)
    energy_prev = math.inf
    for done in range(0, max_iters, len(stack)):
        rows = stack[:min(len(stack), max_iters - done)]
        for row in range(len(rows)):
            psi = step(psi, rows[row])  # stepped into its row
            np.multiply(psi, psi, out=squares)
            nrm = math.sqrt(np.add.reduce(flat) * dx)
            if not 0.0 < nrm < math.inf:
                raise NumericalFailure(f"state lost at iteration {done + row + 1} "
                                       f"(norm {nrm})", step=done + row + 1)
            psi *= 1.0 / nrm
        for row, energy in enumerate(energies(rows)):
            if abs(energy - energy_prev) < energy_tol:
                parts = rows[row]
                samples = parts[0] + 1j * parts[1] if len(parts) == 2 else parts[0]
                return _accept(problem, grid, v, symbol, samples)
            energy_prev = energy
    raise NoConvergence(
        f"energy change still above {energy_tol} after {max_iters} iterations"
    )


def _stopping_energies(v: np.ndarray, symbol: np.ndarray, shape: tuple):
    """`energies(rows)`: the stopping energy of each state in `rows`, a prefix of a
    C-contiguous stack of shape `shape` = (batch, R, N), as a list.

    A state's energy is sum_r <row_r|H|row_r> / sum_r <row_r|row_r> (dx cancels), its
    kinetic term Re^2 + Im^2 of the ortho rfft's modes under `symbol`'s half spectrum,
    each mode 0 < k < N/2 doubled.  Every sum is an `np.add.reduce` over one state (no
    BLAS, and no `einsum`, whose iterator buffers would raise the run's peak memory),
    so a state's energy has the same bits in any batch.
    """
    n_points = shape[-1]
    half = symbol[:n_points // 2 + 1].copy()
    half[1:n_points // 2] *= 2.0
    weights = np.repeat(half, 2)  # one weight for each float of a (Re, Im) pair
    forward, fct = _real_kernels()[0], np.reciprocal(np.sqrt(n_points))
    amps = np.empty(shape[:-1] + half.shape, dtype=np.complex128)
    power, dens = amps.view(np.float64), np.empty(shape)

    def energies(rows):
        b = len(rows)
        spec, sq = power[:b], dens[:b]
        forward(rows, fct, out=amps[:b])
        np.multiply(spec, spec, out=spec)
        np.multiply(spec, weights, out=spec)
        np.multiply(rows, rows, out=sq)
        norm = np.add.reduce(sq, axis=(1, 2))
        np.multiply(sq, v, out=sq)
        return ((np.add.reduce(spec, axis=(1, 2)) + np.add.reduce(sq, axis=(1, 2)))
                / norm).tolist()
    return energies


def _accept(problem: OscillatorProblem, grid: Grid1D, v: np.ndarray, symbol: np.ndarray,
            psi: np.ndarray) -> GroundState:
    """The stopped state, if its energy spread marks it as an eigenstate."""
    ground = WaveField(grid, psi)
    energy = energy_expectation(ground, v, problem.m, problem.consts)
    spread = _energy_spread(ground.samples, v, symbol, grid.spacing, energy)
    if not spread <= _SPREAD_TOL * energy:
        raise NoConvergence(
            f"relaxed state has energy spread {spread:.3g} at energy {energy:.6g}; "
            "not an eigenstate (tau_step too large?)"
        )
    return GroundState(energy=energy, psi=ground)
