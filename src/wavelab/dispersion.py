"""Dispersion relations omega(k) for each wave-equation family.

Families and their closed forms (positive-frequency branch, omega >= 0, with
the propagation sign carried by the phase e^{i(kx - omega t)}):

* classical wave, speed v:          omega = v |k|
* electromagnetic (massless):       omega = c |k|
* Klein-Gordon, mass m:             omega = sqrt(k^2 c^2 + m^2 c^4 / hbar^2)
* free Schrodinger, mass m:         omega = hbar k^2 / 2m
* Schrodinger with constant V0:     omega = hbar k^2 / 2m + V0 / hbar

A varying potential has no single dispersion relation, so the potential family
holds only its constant V0 and every family has a closed form by construction.
The module also provides the kinematic map (p, E) = (hbar k, hbar omega), exact
plane-wave sampling on a grid, the analytic residual of a plane wave under each
family's characteristic polynomial (zero exactly when (k, omega) satisfies the
dispersion relation; NumericalFailure where its terms overflow to inf - inf),
and the closed-form error of the non-relativistic truncation
omega_KG ~ m c^2/hbar + hbar k^2/2m.  The massive family's rest frequency
m c^2/hbar and envelope frequency omega_KG - m c^2/hbar are formed in one
place, `_envelope_frequency`, for this module and `nrlimit` alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real
from typing import NamedTuple, Union

import numpy as np

from .core import NATURAL_UNITS, Grid1D, PhysicalConstants, WaveField, _finite, _positive, _wrap
from .exceptions import ConfigError, NonCommensurateWavenumber, NumericalFailure


@dataclass(frozen=True)
class ClassicalWave:
    v: float

    def __post_init__(self):
        _positive("wave speed", self.v)


@dataclass(frozen=True)
class Electromagnetic:
    """Massless family; the propagation speed is the c of PhysicalConstants."""


@dataclass(frozen=True)
class KleinGordon:
    m: float

    def __post_init__(self):
        _positive("mass", self.m)


@dataclass(frozen=True)
class SchrodingerFree:
    m: float

    def __post_init__(self):
        _positive("mass", self.m)


@dataclass(frozen=True)
class SchrodingerPotential:
    m: float
    v0: float  # the constant potential V0, energy units

    def __post_init__(self):
        _positive("mass", self.m)
        if not (isinstance(self.v0, Real) and -np.inf < self.v0 < np.inf):
            raise ConfigError(f"v0 must be a finite real scalar, got {self.v0!r}")


EquationKind = Union[
    ClassicalWave, Electromagnetic, KleinGordon, SchrodingerFree, SchrodingerPotential
]

def is_second_order(eq: EquationKind) -> bool:
    """True for the families with a second-order time derivative."""
    return isinstance(eq, (ClassicalWave, Electromagnetic, KleinGordon))


def _closed_form(eq: EquationKind, consts: PhysicalConstants) -> tuple:
    """A family's closed-form parameters, resolved from its class here and only here.

    Second order: (s, m), omega = hypot(s k, m s^2/hbar), s = v or c, m None if massless.
    First order: (m, V0), omega = hbar k^2/2m + V0/hbar.
    """
    if isinstance(eq, ClassicalWave):
        return eq.v, None
    if isinstance(eq, Electromagnetic):
        return consts.c, None
    if isinstance(eq, KleinGordon):
        return consts.c, eq.m
    if isinstance(eq, SchrodingerFree):
        return eq.m, 0.0
    if isinstance(eq, SchrodingerPotential):
        return eq.m, float(eq.v0)
    raise TypeError(f"unknown equation family: {eq!r}")


@dataclass(frozen=True)
class PlaneWaveMode:
    """A plane wave A e^{i(kx - omega t)}; omega >= 0 by convention."""

    amplitude: complex
    k: float
    omega: float

    def __post_init__(self):
        if not (0 <= self.omega < np.inf and np.isfinite(self.amplitude)):
            raise ConfigError(f"omega must be finite and >= 0 (positive-frequency branch), and "
                              f"the amplitude finite, got {self.omega}, {self.amplitude}")
        if not np.isfinite(self.k):  # so is its mode index k L / 2 pi, at every L
            raise NonCommensurateWavenumber(f"k = {self.k} is not a multiple of 2*pi/L "
                                            f"(mode index {self.k})")


class KinematicPair(NamedTuple):
    p: float
    E: float


class NrExpansionError(NamedTuple):
    exact_gap: float
    next_term_bound: float


def omega_of_k(eq: EquationKind, k, consts: PhysicalConstants = NATURAL_UNITS):
    """Positive-branch angular frequency at wavenumber k (scalar or array); inf on overflow."""
    karr = np.asarray(k, dtype=float)
    with np.errstate(all="ignore"):
        if is_second_order(eq):
            s, m = _closed_form(eq, consts)
            w = np.abs(karr * s) if m is None else _envelope_frequency(m, consts, karr)[0]
        else:
            m, v0 = _closed_form(eq, consts)
            w = consts.hbar * karr * karr / (2.0 * m) + v0 / consts.hbar
    return w if w.ndim else float(w)


def _envelope_frequency(m: float, consts: PhysicalConstants, k=0.0):
    """(omega_KG(k), Omega(k), omega_r) of mass m, refused outside (0, inf): the one place the
    rest frequency omega_r = m c^2/hbar and the envelope frequency Omega = omega_KG - omega_r
    are formed, Omega as c^2 k^2 / (omega_KG + omega_r), with no cancellation; inf on overflow."""
    _positive("mass", m)
    c = consts.c
    with np.errstate(all="ignore"):
        omega_rest = m * c * c / consts.hbar
        omega = np.hypot(k * c, omega_rest)
        return omega, c * c * k * k / (omega + omega_rest), omega_rest


def group_velocity(eq: EquationKind, k, consts: PhysicalConstants = NATURAL_UNITS):
    """Analytic d(omega)/dk of the closed form (0 at the k = 0 kink of |k| laws)."""
    karr = np.asarray(k, dtype=float)
    with np.errstate(all="ignore"):  # an overflow gives inf (or nan), as in omega_of_k
        if is_second_order(eq):
            s, m = _closed_form(eq, consts)
            g = s * np.sign(karr) if m is None else karr * s * s / omega_of_k(eq, karr, consts)
        else:
            m, _ = _closed_form(eq, consts)
            g = consts.hbar * karr / m
    return g if g.ndim else float(g)


def _wavenumber_scan(k_min: float, k_max: float, count: int) -> np.ndarray:
    """`count` evenly spaced k from k_min to k_max; nan where the span k_max - k_min overflows."""
    with np.errstate(all="ignore"):
        return np.linspace(k_min, k_max, count)


def kinematic_map(k, omega, consts: PhysicalConstants = NATURAL_UNITS) -> KinematicPair:
    """Map (k, omega) to (p, E) = (hbar k, hbar omega); scalars or arrays, inf on overflow."""
    with np.errstate(all="ignore"):
        return KinematicPair(p=consts.hbar * k, E=consts.hbar * omega)


def planewave_sample(mode: PlaneWaveMode, grid: Grid1D, t: float) -> WaveField:
    """Sample A e^{i(k x_j - omega t)} on the grid.

    k must be commensurate (k = 2*pi*n/L for integer n); anything else would
    leak across modes and corrupt residual tests; NumericalFailure unless finite.
    """
    n = mode.k * grid.length / (2.0 * np.pi)
    if not (np.isfinite(n) and abs(n - round(n)) <= 1e-9 * max(1.0, abs(n))):
        raise NonCommensurateWavenumber(
            f"k = {mode.k} is not a multiple of 2*pi/L (mode index {n})"
        )
    with np.errstate(all="ignore"):
        samples = mode.amplitude * np.exp(1j * (mode.k * grid.positions - mode.omega * t))
    _finite(f"non-finite plane-wave samples at t = {t!r}, omega = {mode.omega!r}", samples)
    return _wrap(WaveField, grid, samples)


def planewave_residual(eq: EquationKind, mode: PlaneWaveMode,
                       consts: PhysicalConstants = NATURAL_UNITS) -> float:
    """|D(k, omega)| of the family's characteristic polynomial on the mode.

    All terms are moved to one side, so the residual is zero exactly when
    (k, omega) satisfies the dispersion relation.  The second-order families
    use the d'Alembertian form -k^2 + omega^2/c^2 (minus the mass term for the
    massive case); the Schrodinger families use |hbar omega - hbar^2 k^2/2m|/hbar.
    """
    k, w = mode.k, mode.omega
    hbar = consts.hbar
    with np.errstate(all="ignore"):
        if is_second_order(eq):
            s, m = _closed_form(eq, consts)
            # in float64, so an s^2 or hbar^2 that underflows gives inf, not ZeroDivisionError
            s, hbar = np.float64(s), np.float64(hbar)
            mass_term = 0.0 if m is None else m * m * s * s / (hbar * hbar)
            d = -k * k + w * w / (s * s) - mass_term
        else:
            m, v0 = _closed_form(eq, consts)
            d = w - hbar * k * k / (2.0 * m) - v0 / hbar
    if np.isnan(d):  # inf - inf: the k^2 term and the omega term both overflowed
        raise NumericalFailure(f"residual at k = {k!r}, omega = {w!r} is nan (inf - inf)")
    return float(abs(d))


def nr_expansion_error(m: float, k,
                       consts: PhysicalConstants = NATURAL_UNITS) -> NrExpansionError:
    """Error of truncating the massive dispersion after the kinetic term, at k (scalar or array).

    The exact gap |omega_KG - m c^2/hbar - hbar k^2/2m| = Omega^2 / 2 omega_r (of
    `_envelope_frequency`), accurate to a few ulp at any c, and the leading correction bound
    hbar^3 k^4 / (8 m^3 c^2) = (hbar k^2/2m)^2 / 2 omega_r, above the gap where hbar|k| < m c.
    Each x^2 / 2 omega_r is x (x / 2 omega_r): inf only if the result overflows, never raised."""
    karr = np.asarray(k, dtype=float)
    _, big_omega, omega_rest = _envelope_frequency(m, consts, karr)
    with np.errstate(all="ignore"):
        kinetic = consts.hbar * karr * karr / (2.0 * m)
        pair = [x * (x / (2.0 * omega_rest)) for x in (big_omega, kinetic)]  # gap, bound
    return NrExpansionError(*(x if x.ndim else float(x) for x in pair))
