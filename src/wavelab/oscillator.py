"""Uncertainty-relation energy bound for the harmonic oscillator.

Substituting the saturated uncertainty width, p -> hbar/(2 dx) and x -> dx,
into H = p^2/2m + (1/2) m omega_c^2 x^2 gives the bound curve

    E(dx) = hbar^2 / (8 m dx^2) + (1/2) m omega_c^2 dx^2  >=  hbar omega_c / 2,

minimized at dx* = sqrt(hbar / 2 m omega_c).  The bound is checked three ways:
the closed form, a golden-section search on the curve, and an independent
imaginary-time relaxation of the full Schrodinger problem showing the bound is
attained for the harmonic potential.  The relaxation steps with the trap's exact
imaginary-time propagator (Mehler's kernel), doubling the step up to a cap set
by the periodic box, so it reaches hbar omega_c / 2 to rounding in a few steps.
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
    _energies,
    _energy_spread,
    _kinetic_symbol,
    _strang,
    energy_expectation,
    harmonic_potential,
)

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/golden ratio

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
    with np.errstate(all="ignore"):  # no hbar^2 or omega_c^2 alone, which could underflow
        e = hbar * ((hbar / (8.0 * m)) / dx ** 2) + (0.5 * m * omega_c) * (omega_c * dx ** 2)
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
    """Relax to the harmonic ground state by exact imaginary-time trap steps.

    The trap's e^{-tau H / hbar} factorises exactly (Mehler's kernel), as the
    real-time trap step does with theta = -i phi: for phi = omega_c tau it is one
    imaginary-time `_strang` step of size sinh(phi)/omega_c in V / cosh^2(phi/2),
    the half kick exp(-(m omega_c / 2 hbar) tanh(phi/2) (x - x_c)^2) around the
    drift exp(-hbar k^2 sinh(phi) / 2 m omega_c).  A step adds no bias; its size
    sets only how fast the excited components decay.  The first step has
    phi = omega_c tau_step (the least subnormal if that underflows), and each
    step doubles phi up to phi_max, so iterate j is the exact relaxation over
    (2^j - 1) tau_step until then, and a run takes about
    log2(phi_max / omega_c tau_step) steps plus a few at phi_max.  The drift
    convolves with a Gaussian of width sqrt(hbar sinh(phi) / m omega_c), which
    wraps round the periodic box past a fraction of L/2, so phi_max is where
    that width reaches L/8: sinh(phi_max) = (L / dx*)^2 / 128, at least
    asinh(2) ~ 1.44 on any grid accepted below.

    Each step renormalizes.  The factors are real, so a real start (the
    default) stays real up to the transforms' rounding, and its stopped state
    is returned as its real part.  The loop stops at the first step at phi_max
    whose energy <psi|H|psi> differs by less than energy_tol from the previous
    step's, also at phi_max: such a step shrinks E - E0 by e^{-2 phi_max} or
    more, so that change bounds the energy error itself.  The returned energy
    is `energy_expectation` of the returned state.

    The stopped state's energy spread sigma = sqrt(<H^2> - <H>^2) is computed
    once; by Weinstein's bound some eigenvalue lies within sigma of E.
    NoConvergence is raised if sigma / E exceeds 1e-2, or after max_iters
    steps.  NumericalFailure is raised for a zero or non-finite ground width
    dx*, trap potential or start state, and for a step that loses the state
    altogether (its norm underflows to 0 or overflows).

    Any generic start (the default even Gaussian, or random noise) converges
    to the ground state.  An exactly odd-parity start keeps its parity until
    rounding breaks it, so it may settle on the lowest odd state.
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

    if initial is None:
        with np.errstate(all="ignore"):  # an overflow is refused below
            four_var = 4.0 * np.float64(2.0 * ground_width) ** 2
            start = np.exp(-((grid.positions - grid.length / 2.0) ** 2) / four_var)
    else:
        start = initial.samples
    real = not np.any(start.imag)
    psi = start.astype(np.complex128)
    nrm = _l2(psi, dx)
    if initial is not None and nrm == 0.0:
        raise ConfigError("initial state must be nonzero")
    if not 0.0 < nrm < math.inf:
        raise NumericalFailure(f"start state has norm {nrm}", step=0)
    psi *= 1.0 / nrm
    m, hbar, omega_c = problem.m, problem.consts.hbar, problem.omega_c
    v = harmonic_potential(grid, m, omega_c)
    symbol = _kinetic_symbol(grid, m, problem.consts)

    phi_max = math.asinh((grid.length / ground_width) ** 2 / 128.0)
    phi, energy_prev = min(max(omega_c * tau_step, math.ulp(0.0)), phi_max), math.inf
    for iteration in range(1, max_iters + 1):
        step = _strang(v / math.cosh(0.5 * phi) ** 2, grid, m, hbar, math.sinh(phi) / omega_c, 1)
        step(psi, psi)
        with np.errstate(all="ignore"):
            h, norm_sq = _energies(psi, v, symbol, dx)
        nrm = math.sqrt(norm_sq)
        if not 0.0 < nrm < math.inf:
            raise NumericalFailure(f"state lost at iteration {iteration} (norm {nrm})",
                                   step=iteration)
        psi *= 1.0 / nrm
        if phi == phi_max:
            energy = h / norm_sq
            if abs(energy - energy_prev) < energy_tol:
                return _accept(problem, grid, v, symbol, psi.real if real else psi)
            energy_prev = energy
        phi = min(2.0 * phi, phi_max)
    raise NoConvergence(
        f"energy change still above {energy_tol} after {max_iters} iterations"
    )


def _accept(problem: OscillatorProblem, grid: Grid1D, v: np.ndarray, symbol: np.ndarray,
            psi: np.ndarray) -> GroundState:
    """The stopped state, if its energy spread marks it as an eigenstate."""
    ground = WaveField(grid, psi)
    energy = energy_expectation(ground, v, problem.m, problem.consts)
    spread = _energy_spread(ground.samples, v, symbol, grid.spacing, energy)
    if not spread <= _SPREAD_TOL * energy:
        raise NoConvergence(
            f"relaxed state has energy spread {spread:.3g} at energy {energy:.6g}; "
            "not an eigenstate"
        )
    return GroundState(energy=energy, psi=ground)
