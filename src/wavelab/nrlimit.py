"""Reduction of massive second-order wave dynamics to Schrodinger dynamics.

A positive-branch solution psi of the massive (Klein-Gordon) equation is
written psi = e^{-i m c^2 t / hbar} psi_c, where the slow envelope psi_c
carries only the kinetic part of the phase.  Dropping the envelope's second
time derivative against the rest-energy terms turns the equation for psi_c
into the free Schrodinger equation.  This module measures both halves of that
argument in closed form, mode by mode, with no lab-frame time series:

* the dominance condition -- how small |d^2 psi_c/dt^2| is compared with
  |(m^2 c^4/hbar^2) psi_c + (2 i m c^2/hbar) d psi_c/dt|, for one mode and
  for a whole packet;
* the resulting approximation error -- the relative L2 distance between the
  envelope and genuine Schrodinger evolution from the same initial data, which
  shrinks as c grows.

Every frequency comes from `dispersion._envelope_frequency`: the rest frequency
omega_r = m c^2/hbar and the envelope frequency Omega(k) = omega_KG(k) - omega_r
in its cancellation-free form, so the c^-2 law survives to c far beyond the point
where a lab-frame phase omega_r t would swamp the envelope in rounding.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import (
    NATURAL_UNITS,
    GaussianPacketSpec,
    Grid1D,
    PhysicalConstants,
    TimeSpec,
    WaveField,
    _finite,
    _mode_power,
    _phase_budget,
    dft,
)
from .dispersion import _envelope_frequency
from .exceptions import ConfigError
from .propagate import _snapshot_steps, gaussian_packet


@dataclass(frozen=True)
class DominanceTerms:
    """Norms of the competing terms in the envelope's second-order equation."""

    small_term: float  # ||d^2 psi_c / dt^2||
    big_term: float    # ||(m^2 c^4/hbar^2) psi_c + (2 i m c^2/hbar) d psi_c/dt||
    ratio: float       # small / big


def dominance_terms_mode(k: float, m: float,
                         consts: PhysicalConstants = NATURAL_UNITS) -> DominanceTerms:
    """Exact per-mode dominance terms for a positive-branch mode k.

    The envelope of the mode oscillates at Omega(k) = omega_KG(k) - m c^2/hbar,
    so d/dt acts as -i Omega and the two norms reduce to

        small = Omega^2
        big   = m^2 c^4 / hbar^2 + (2 m c^2 / hbar) Omega

    (the bracket's modulus; both contributions add for the particle branch).
    The ratio vanishes at k = 0 and falls off as c^-4 at fixed k.  Both terms are
    taken in float64; NumericalFailure is raised when either is not finite (the ratio may be inf).
    """
    with np.errstate(all="ignore"):
        _, big_omega, omega_rest = _envelope_frequency(m, consts, np.float64(k))
        small = big_omega ** 2
        big = np.float64(omega_rest) ** 2 + 2.0 * omega_rest * big_omega
        ratio = small / big if big > 0 else np.inf
    _finite(f"non-finite dominance terms at c = {consts.c!r} (m c^2/hbar = {omega_rest!r})",
            small, big)
    return DominanceTerms(small_term=float(small), big_term=float(big), ratio=float(ratio))


@dataclass
class NrLimitReport:
    """Deviation and dominance-ratio time series for one (m, c) run."""

    times: list
    deviation: list       # ||psi_c(t) - psi_S(t)|| / ||psi_0||
    dominance_ratio: list

    def __post_init__(self):
        if not (len(self.times) == len(self.deviation) == len(self.dominance_ratio)):
            raise ConfigError("report series must share one length")


def nr_limit_report(psi0: WaveField, m: float,
                    consts: PhysicalConstants = NATURAL_UNITS,
                    time: TimeSpec = TimeSpec(0.01, 1),
                    snapshot_every: int = 1) -> NrLimitReport:
    """Compare the factored massive envelope with Schrodinger evolution.

    psi0 is given the positive-branch pairing, so mode k of the envelope
    evolves as a_0(k) e^{-i Omega t} while Schrodinger evolution gives
    a_0(k) e^{-i hbar k^2 t / 2m}.  Their frequency gap is exactly
    delta = -Omega^2 / (2 omega_r), and by Parseval

        deviation(t)^2 = sum |a_0|^2 4 sin^2(delta t / 2) / sum |a_0|^2.

    Under this evolution the field dominance ratio does not depend on t:

        sqrt(sum Omega^4 |a_0|^2) / sqrt(sum (omega_r^2 + 2 omega_r Omega)^2 |a_0|^2)

    so every snapshot reports that one value.  Snapshots fall at step 0, every
    `snapshot_every` steps (if > 0) and at the final step; one forward
    transform of psi0 serves them all.

    delta depends on k only through k^2, and in FFT order the wavenumber of
    mode N - j is the exact negative of mode j's, so each snapshot evaluates
    N/2 + 1 sines (modes 0..N/2, k = 0 and Nyquist included) and mirrors the
    rest.  The sum still runs over all N modes in FFT order, so it equals the
    full N-sine sum bit for bit.

    Raises NumericalFailure when the envelope phases or the dominance ratio
    are not finite (m c^2/hbar underflowing to 0 or overflowing, or t too long),
    then by `_phase_budget` at the last t, w = sum_k p_k |delta_k / 2|, p = `_mode_power`.
    """
    times = [step * time.dt for step in _snapshot_steps(time.n_steps, snapshot_every)]
    spec = dft(psi0)
    with np.errstate(all="ignore"):
        _, big_omega, omega_rest = _envelope_frequency(m, consts, spec.wavenumbers)
        x = big_omega / omega_rest
        half_gap = -0.25 * big_omega * x  # delta / 2
        power = _mode_power(spec.mode_amplitudes)
        # both norms divided by omega_r^2, which cancels in the ratio
        ratio = float(np.sqrt(np.dot(power, x ** 4) / np.dot(power, (1.0 + 2.0 * x) ** 2)))
        last_phase = np.max(np.abs(half_gap)) * times[-1]  # bounds every snapshot's phase
        w = float(np.dot(power, np.abs(half_gap)))
    _finite(f"non-finite envelope phase (t = {times[-1]!r}) or dominance ratio at c = "
            f"{consts.c!r} (m c^2/hbar = {omega_rest!r})", last_phase, ratio)
    _phase_budget(times[-1], w, f", c = {consts.c!r}")

    # one snapshot at a time: memory stays O(N) however many snapshots there are
    h = psi0.grid.n_points // 2
    gap_head = half_gap[:h + 1]
    sin2 = np.empty_like(half_gap)
    head = sin2[:h + 1]
    deviation = []
    for t in times:
        np.multiply(gap_head, t, out=head)
        np.sin(head, out=head)
        np.square(head, out=head)
        sin2[h + 1:] = sin2[h - 1:0:-1]  # mode N - j takes mode j's value
        deviation.append(2.0 * float(np.sqrt(np.dot(power, sin2))))
    return NrLimitReport(times=times, deviation=deviation, dominance_ratio=[ratio] * len(times))


def kg_vs_schrodinger(spec: GaussianPacketSpec, grid: Grid1D, m: float,
                      consts: PhysicalConstants = NATURAL_UNITS,
                      time: TimeSpec = TimeSpec(0.01, 1),
                      snapshot_every: int = 1) -> NrLimitReport:
    """Gaussian-packet comparison between the massive equation and Schrodinger.

    Warns when hbar |k0| >= m c, i.e. when the carrier leaves the
    non-relativistic regime the reduction assumes.
    """
    if consts.hbar * abs(spec.k0) >= m * consts.c:
        warnings.warn(
            f"hbar|k0| = {consts.hbar * abs(spec.k0)} is not below m c = {m * consts.c}; "
            "packet is outside the non-relativistic regime",
            stacklevel=2,
        )
    psi0 = gaussian_packet(spec, grid)
    return nr_limit_report(psi0, m, consts, time, snapshot_every)
