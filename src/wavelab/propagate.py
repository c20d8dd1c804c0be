"""Time evolution for every equation family.

Spectral propagation is the primary method wherever coefficients are constant
(each Fourier mode gets its exact phase) and in the harmonic trap (an exact
chirp, drift and chirp), so the only error is rounding.  The split-step
(Strang) scheme handles any potential V(x), and a Crank-Nicolson finite-
difference scheme, dense and in numpy alone, exists purely as an independent
cross-check of it.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .core import (
    NATURAL_UNITS,
    GaussianPacketSpec,
    Grid1D,
    PhysicalConstants,
    SpectralField,
    TimeSpec,
    WaveField,
    _finite,
    _l2,
    _mode_power,
    _on_grid,
    _phase_budget,
    _positive,
    _wrap,
    dft,
    idft,
)
from .dispersion import EquationKind, SchrodingerFree, is_second_order, omega_of_k
from .exceptions import ConfigError, LinearSolveFailure, WrongEquationFamily, ZeroField


@dataclass
class SecondOrderState:
    """The (psi, d psi/dt) pair carried by second-order-in-time equations."""

    psi: WaveField
    psi_dot: WaveField

    def __post_init__(self):
        if self.psi.grid != self.psi_dot.grid:
            raise ConfigError("psi and psi_dot must share one grid")

    @property
    def grid(self) -> Grid1D:
        return self.psi.grid

    def copy(self) -> "SecondOrderState":
        return SecondOrderState(self.psi.copy(), self.psi_dot.copy())


# ---------------------------------------------------------------------------
# potentials
# ---------------------------------------------------------------------------

def harmonic_potential(grid: Grid1D, m: float, omega_c: float,
                       center: float | None = None) -> np.ndarray:
    """V(x) = (1/2) m omega_c^2 (x - x_c)^2, centered at L/2; NumericalFailure unless finite."""
    xc = grid.length / 2.0 if center is None else center
    with np.errstate(all="ignore"):  # an overflow gives inf; omega_c^2 is never formed alone
        v = (0.5 * m * omega_c) * (omega_c * (grid.positions - xc) ** 2)
    _finite(f"non-finite trap potential at m = {m!r}, omega_c = {omega_c!r}, center = {center!r}",
            v)
    return v


# ---------------------------------------------------------------------------
# exact spectral propagators
# ---------------------------------------------------------------------------

def evolve_schrodinger_spectral(psi0: WaveField, m: float,
                                consts: PhysicalConstants = NATURAL_UNITS,
                                t: float = 0.0) -> WaveField:
    """Free-particle evolution psi_hat(k, t) = psi_hat(k, 0) e^{-i omega(k) t}.

    Exact for any t (no time-step error); the L2 norm is preserved to rounding.  A t
    past the phase budget of `_phase_snapshots` raises NumericalFailure naming t.
    """
    eq = SchrodingerFree(m)  # refuses m <= 0, also at t = 0
    (_, psi), = _phase_snapshots(psi0, omega_of_k(eq, psi0.grid.wavenumbers, consts), [t])
    return psi


def _phase_snapshots(psi0: WaveField, omega, times):
    """Yield (t, psi) at each t of `times` (read once) by psi_hat(k, 0) e^{-i omega(k) t}.

    One forward transform serves every time; each t > 0 then costs one phase
    and one inverse transform, so one field at a time is held.  t = 0 gives a
    copy of psi0, bit for bit.  Each t > 0 takes `_finite`, then `_phase_budget` at t, w =
    sum_k p_k |omega_k|, p = `_mode_power` of psi0's spectrum, refusing the first t past it.
    """
    amps = dft(psi0).mode_amplitudes
    with np.errstate(all="ignore"):  # an inf omega gives a W of inf or nan, refused at t > 0
        w = float(np.dot(_mode_power(amps), np.abs(omega)))
    for t in times:
        if t == 0.0:
            yield t, psi0.copy()
            continue
        with np.errstate(all="ignore"):
            a = amps * np.exp(-1j * omega * t)
        _finite(f"non-finite mode amplitudes at t = {t}", a)
        _phase_budget(t, w)
        yield t, idft(_wrap(SpectralField, psi0.grid, a))


def _harmonic_snapshots(psi0: WaveField, m: float, omega_c: float, center, hbar: float,
                        times):
    """Yield exact (t, psi) at each t of `times` (read once) in V = m omega_c^2 (x - center)^2 / 2.

    For |theta| = |omega_c dt| < pi the propagator over dt is exactly K D K, with
    K = exp(-i (m omega_c / 2 hbar) tan(theta/2) (x - center)^2) and D = exp(-i
    hbar k^2 sin(theta) / (2 m omega_c)): one `_strang` step of size
    sin(theta)/omega_c (dt where theta rounds to 0) in V / cos^2(theta/2).  A
    period 2 pi / omega_c negates psi, so theta is reduced mod 2 pi and split
    into at most two parts: an interval costs at most two steps, built when it
    differs from the last one (so memory stays O(N)), and a zero interval none,
    so t = 0 gives a copy of psi0, bit for bit.  A non-finite potential raises
    NumericalFailure before the first snapshot, and a non-finite omega_c t,
    trap factor or field one naming the snapshot time t.  After its field's finiteness
    check, each snapshot takes `_phase_budget` at t, w = |omega_c| (reducing theta against
    the float 2 pi adds 0.18 eps |theta| to the rounding of omega_c dt, within eps |theta|),
    so the first snapshot past the budget is refused, naming its t.
    """
    v = harmonic_potential(psi0.grid, m, omega_c, center)
    built, psi, t_prev = {0.0: (0, None, 0)}, psi0.samples.copy(), 0.0
    for t in times:
        dt, t_prev = t - t_prev, t
        if dt not in built:
            theta = omega_c * dt
            _finite(f"non-finite trap angle omega_c * t at t = {t}", theta)
            turn = math.remainder(theta, 2.0 * math.pi)
            parts = max(1, math.ceil(abs(turn) / (0.5 * math.pi)))
            size = math.sin(turn / parts) / omega_c if theta else dt
            with np.errstate(all="ignore"):  # V near overflow gives inf: a non-finite factor
                v_turn = v / math.cos(0.5 * turn / parts) ** 2
            step = _strang(v_turn, psi0.grid, m, hbar, size, 1j,  # no config names `size`
                           failure=f"non-finite trap factors at t = {t} (interval {dt})")
            built = {0.0: built[0.0], dt: (parts, step, round((theta - turn) / (2 * math.pi)) % 2)}
        parts, step, odd = built[dt]
        with np.errstate(all="ignore"):  # an overflow gives inf or nan, refused below
            for _ in range(parts):
                step(psi, psi)
        psi = -psi if odd else psi
        _finite(f"non-finite trap snapshot at t = {t}", psi)
        _phase_budget(t, abs(omega_c))
        yield t, _wrap(WaveField, psi0.grid, psi.copy())


def _require_second_order(eq: EquationKind):
    if not is_second_order(eq):
        raise WrongEquationFamily(
            f"{type(eq).__name__} is first-order in time; use the Schrodinger propagators"
        )


def evolve_second_order_spectral(state0: SecondOrderState, eq: EquationKind,
                                 consts: PhysicalConstants = NATURAL_UNITS,
                                 t: float = 0.0) -> SecondOrderState:
    """Per-mode rotation for the second-order families.

    psi_hat(t)     =  psi_hat_0 cos(wt) + psidot_hat_0 sin(wt)/w
    psidot_hat(t)  = -w psi_hat_0 sin(wt) + psidot_hat_0 cos(wt)

    The w = 0 mode uses the sin(wt)/w -> t limit, i.e. psi_hat = psi_hat_0 +
    psidot_hat_0 * t.  Each mode conserves w^2 |psi_hat|^2 + |psidot_hat|^2.
    Then `_phase_budget` at t, W = sum_k p_k w_k, p = `_mode_power` of max(|psi_hat_0|,
    |psidot_hat_0| / w) (0 at w = 0, at most 1e308): for a positive-branch state, `evolve`'s W.
    """
    _require_second_order(eq)
    if t == 0.0:
        return state0.copy()
    grid = state0.grid
    w = omega_of_k(eq, grid.wavenumbers, consts)
    a0 = dft(state0.psi).mode_amplitudes
    b0 = dft(state0.psi_dot).mode_amplitudes
    with np.errstate(all="ignore"):
        wt = w * t
        cos_wt = np.cos(wt)
        sin_wt = np.sin(wt)
        # sin(wt)/w from the same rounded argument as cos(wt), so the rotation
        # stays unitary at any wt; the w = 0 limit is t
        sin_over_w = np.divide(sin_wt, w, out=np.full(w.shape, float(t)), where=w != 0.0)
        a = a0 * cos_wt + b0 * sin_over_w
        b = -w * sin_wt * a0 + b0 * cos_wt
        p = _mode_power(np.fmin(np.maximum(abs(a0), abs(b0) / np.where(w > 0, w, np.inf)), 1e308))
    _finite(f"non-finite mode amplitudes at t = {t}", a, b)
    _phase_budget(t, float(np.dot(p, w)))
    return SecondOrderState(*(idft(_wrap(SpectralField, grid, x)) for x in (a, b)))


def positive_branch_init(psi0: WaveField, eq: EquationKind,
                         consts: PhysicalConstants = NATURAL_UNITS) -> SecondOrderState:
    """Pair psi0 with psidot_hat = -i omega(k) psi_hat so every mode evolves as e^{-i omega t}."""
    _require_second_order(eq)
    spec = dft(psi0)
    with np.errstate(all="ignore"):
        rate = -1j * omega_of_k(eq, spec.wavenumbers, consts) * spec.mode_amplitudes
    _finite(f"non-finite -i omega psi_hat at c = {consts.c!r}, hbar = {consts.hbar!r}", rate)
    return SecondOrderState(psi0.copy(), idft(_wrap(SpectralField, psi0.grid, rate)))


# ---------------------------------------------------------------------------
# stepping schemes (Schrodinger with potential)
# ---------------------------------------------------------------------------

def _snapshot_steps(n_steps: int, every: int) -> list:
    """Steps that get a snapshot: 0, each multiple of `every` (if > 0), and n_steps."""
    if every < 0:
        raise ConfigError(f"snapshot_every must be >= 0, got {every}")
    steps = list(range(0, n_steps + 1, every)) if every > 0 else [0]
    if steps[-1] != n_steps:
        steps.append(n_steps)
    return steps


def _stepped_evolution(psi0: WaveField, step, dt: float, steps: list):
    """Yield (n dt, psi) at each step n of `steps`, applying `step(samples) -> samples` between."""
    psi = psi0.samples.copy()
    for done, n in zip([0, *steps], steps):
        with np.errstate(all="ignore"):  # an overflow gives inf or nan, refused below
            for _ in range(n - done):
                psi = step(psi)
        _finite(f"non-finite stepper snapshot at t = {n * dt}", psi)
        yield n * dt, _wrap(WaveField, psi0.grid, psi.copy())


def _strang(v: np.ndarray, grid: Grid1D, m: float, hbar: float, dt: float, unit, failure=None):
    """`step(psi, out)`: one Strang step, half kick, spectral drift, half kick.

    `step` writes the new complex samples into `out` (which may be `psi`) and
    returns it, through a spectrum buffer that the builder owns, so a step
    allocates nothing.  `unit` is 1j for real time and 1 for imaginary time
    (dt -> -i tau), whose factors are real.  Either way the state goes through
    the full spectrum, `fft` and `ifft(norm="forward")`.  The drift, stored
    complex, carries the inverse transform's 1/N: N is a power of two, so the
    unscaled inverse of the pre-scaled product equals the scaled inverse of the
    plain product bit for bit (barring subnormals).  Each product keeps the
    factor first: complex multiplication is not bitwise commutative.

    Raises NumericalFailure (message `failure` if given) when a factor is not finite.
    """
    with np.errstate(all="ignore"):
        half_kick = np.exp(-0.5 * unit * v * dt / hbar)
        drift = np.exp(-unit * hbar * grid.wavenumbers ** 2 * dt / (2.0 * m))
        drift = (drift / grid.n_points).astype(np.complex128)
    _finite(failure or f"non-finite Strang factors at dt = {dt}", half_kick, drift)
    spec = np.empty(grid.n_points, dtype=np.complex128)

    def step(psi, out):
        np.multiply(half_kick, psi, out=out)
        np.fft.fft(out, out=spec)
        np.multiply(drift, spec, out=spec)
        np.fft.ifft(spec, norm="forward", out=out)
        np.multiply(half_kick, out, out=out)
        return out
    return step


def split_step_evolve(psi0: WaveField, m: float, potential,
                      consts: PhysicalConstants = NATURAL_UNITS,
                      time: TimeSpec = TimeSpec(0.01, 1),
                      snapshot_every: int = 0) -> Iterator[tuple[float, WaveField]]:
    """Strang splitting: half kick e^{-iV dt/2 hbar}, spectral drift, half kick.

    Both factors are unitary, so the norm is conserved to rounding per step;
    the global error against the exact solution is O(dt^2).  Returns the lazy (t, psi) at
    step 0 (psi0's copy), every `snapshot_every` steps (if > 0) and the last; the call raises
    each refusal of its arguments, the stream NumericalFailure naming a non-finite snapshot's t.
    """
    _positive("mass", m)
    v = _on_grid(potential, psi0.grid, "potential", "potential samples", float)
    step = _strang(v, psi0.grid, m, consts.hbar, time.dt, 1j)
    return _stepped_evolution(psi0, lambda psi: step(psi, psi), time.dt,
                              _snapshot_steps(time.n_steps, snapshot_every))


def crank_nicolson_evolve(psi0: WaveField, m: float, potential,
                          consts: PhysicalConstants = NATURAL_UNITS,
                          time: TimeSpec = TimeSpec(0.01, 1),
                          snapshot_every: int = 0) -> Iterator[tuple[float, WaveField]]:
    """Cayley-form implicit scheme on the central-difference Laplacian.

    (1 + i dt H / 2 hbar) psi^{n+1} = (1 - i dt H / 2 hbar) psi^n with periodic
    boundaries; accuracy is O(dt^2 + dx^2).  H / hbar, real symmetric, is built
    densely (no hbar^2 is formed) and diagonalised once, H / hbar = U diag(lam) U^T,
    so one step is the Cayley map U diag((1 - ia) / (1 + ia)) U^T with a = lam dt / 2:
    unitary to rounding at any dt.  That costs O(N^3) once and one O(N^2) matvec per
    step, and holds N^2 complex values (16 MiB at N = 1024).  Used only as an
    independent cross-check of the spectral split-step scheme, with the same
    snapshots and refusals.  NumericalFailure naming dx or dt if H / hbar or a is not finite.
    """
    _positive("mass", m)
    grid = psi0.grid
    v = _on_grid(potential, grid, "potential", "potential samples", float)
    dx, hbar, j = grid.spacing, consts.hbar, np.arange(grid.n_points)
    with np.errstate(all="ignore"):
        hop = -(hbar / (2.0 * m)) / dx / dx
        h_over_hbar = np.diag(v / hbar - 2.0 * hop)
        h_over_hbar[j, j - 1] = h_over_hbar[j - 1, j] = hop  # j - 1 wraps: periodic corners
    _finite(f"non-finite Crank-Nicolson H / hbar at dx = {dx!r}", h_over_hbar)
    try:
        lam, u = np.linalg.eigh(h_over_hbar)
    except np.linalg.LinAlgError as exc:  # eigenvalues did not converge
        raise LinearSolveFailure(str(exc)) from exc
    with np.errstate(all="ignore"):
        a = lam * (0.5 * time.dt)
    _finite(f"non-finite Crank-Nicolson step lam dt / 2 at dt = {time.dt!r}", a)
    cayley = (u * ((1.0 - 1j * a) / (1.0 + 1j * a))) @ u.T
    return _stepped_evolution(psi0, lambda psi: cayley @ psi, time.dt,
                              _snapshot_steps(time.n_steps, snapshot_every))


# ---------------------------------------------------------------------------
# Gaussian packets and moment diagnostics
# ---------------------------------------------------------------------------

def gaussian_packet(spec: GaussianPacketSpec, grid: Grid1D) -> WaveField:
    """Sample exp(-(x-x0)^2/4 sigma^2) e^{i k0 x}, L2-normalized on the grid.

    Periodic images are ignored: `evolve` refuses a packet whose images move its
    line moments (GaussianPacketSpec).
    """
    dx = grid.spacing
    if spec.sigma < 4.0 * dx:
        warnings.warn(
            f"sigma = {spec.sigma} is below 4 dx = {4.0 * dx}; packet underresolved",
            stacklevel=2,
        )
    x = grid.positions
    # a sigma**2 overflow is the flat envelope's limit; a sigma**2 underflow
    # (0/0 at x0) or an x0 far off the grid leaves a packet refused below
    with np.errstate(all="ignore"):
        four_var = 4.0 * np.float64(spec.sigma) ** 2
        psi = np.exp(-((x - spec.x0) ** 2) / four_var + 1j * spec.k0 * x)
        nrm = float(_l2(psi, grid.spacing))
    if not 0.0 < nrm < np.inf:  # a non-finite sample, or no sample above underflow
        raise ConfigError(f"packet with sigma = {spec.sigma!r}, x0 = {spec.x0!r} has no "
                          "finite, nonzero samples on the grid")
    return _wrap(WaveField, grid, psi / nrm)


def analytic_free_gaussian(spec: GaussianPacketSpec, grid: Grid1D, m: float,
                           consts: PhysicalConstants = NATURAL_UNITS,
                           t: float = 0.0) -> WaveField:
    """Closed-form free evolution of the Gaussian packet, sampled on the grid.

    With complex width alpha(t) = sigma^2 + i hbar t / 2m and drifting center
    x0 + hbar k0 t / m:

        psi = (2 pi sigma^2)^(-1/4) (sigma/sqrt(alpha)) exp(-(x - x0 - v t)^2 / 4 alpha)
              exp(i(k0 x - hbar k0^2 t / 2m))

    This is the exact continuum solution and serves as the oracle for the
    spectral propagator.  NumericalFailure if a sample is not finite.
    """
    _positive("mass", m)
    hbar, x = consts.hbar, grid.positions
    sigma, k0 = np.float64(spec.sigma), np.float64(spec.k0)  # a numpy square overflows to inf
    with np.errstate(all="ignore"):
        alpha = sigma ** 2 + 0.5j * hbar * t / m
        beta = x - spec.x0 - hbar * k0 * t / m
        psi = (sigma / np.sqrt(alpha)) * np.exp(
            -beta ** 2 / (4.0 * alpha) + 1j * (k0 * x - hbar * k0 ** 2 * t / (2.0 * m))
        ) / (2.0 * np.pi * sigma ** 2) ** 0.25
    _finite(f"non-finite analytic packet at t = {t!r} (sigma = {spec.sigma!r}, m = {m!r})", psi)
    return _wrap(WaveField, grid, psi)


def packet_moments(field: WaveField) -> tuple:
    """(centroid, RMS width) of |psi|^2 from one pass over the samples.

    Offsets are unwrapped around the density maximum, so both are
    periodic-aware; the centroid lies in [0, L).  NumericalFailure if a sum overflows.
    """
    grid = field.grid
    n = grid.n_points
    with np.errstate(all="ignore"):
        w = np.abs(field.samples) ** 2
        total = float(w.sum())
        if total == 0.0:
            raise ZeroField("centroid/width undefined for a zero field")
        j_peak = int(np.argmax(w))
        offsets = (np.arange(n) - j_peak + n // 2) % n - n // 2
        mean_off = float(w @ offsets) / total
        var = float(w @ (offsets - mean_off) ** 2) / total
    _finite(f"non-finite packet moments at dx = {grid.spacing!r}", total, mean_off, var)
    return (float((j_peak + mean_off) * grid.spacing % grid.length),
            float(np.sqrt(var) * grid.spacing))


def _line_moments(psi0: WaveField, velocity, trap=None):
    """`moments(t)`: the (centroid in [0, L), width) of psi0's packet on the line at time t.

    Both exact paths of `evolve` move the position linearly in psi0's x and v (Ehrenfest):
    x(t) = x + v t on the phase path, v the group velocity d omega / dk of each mode, and
    x(t) - x_c = (x - x_c) cos theta + (v / omega_c) sin theta in a `trap` (omega_c, x_c, None
    for L/2), v = hbar k / m and theta = omega_c t reduced against the float 2 pi as the trap
    reduces it (the free line where the unreduced omega_c t rounds to 0, as the trap's step
    is dt there).  So for x(t) = x_c + a (x - x_c) + b v the centroid is x_c + a (<x> - x_c)
    + b <v> and the variance a^2 Var x + 2 a b C + b^2 Var v, with C = Re <(x - <x>) psi0,
    (v - <v>) psi0> and x unwrapped around psi0's centroid: one forward and one inverse
    transform here, O(1) per t.  A periodic grid holds them only while the state fits the box
    (Kosloff & Kosloff 1983).  A velocity that overflowed gives non-finite moments.
    """
    grid, samples = psi0.grid, psi0.samples
    length = grid.length
    c0, width0 = packet_moments(psi0)
    amps = dft(psi0).mode_amplitudes
    with np.errstate(all="ignore"):  # non-finite coefficients are refused where t is checked
        p = _mode_power(amps)
        mean_v = float(p @ velocity)
        dv = velocity - mean_v
        var_v = float(p @ (dv * dv))
        x = (grid.positions - c0 + 0.5 * length) % length - 0.5 * length
        cov = float(np.vdot(x * samples, np.fft.ifft(dv * amps, norm="ortho")).real
                    / np.vdot(samples, samples).real)
    var_x = width0 * width0
    omega_c, x_c = trap or (None, 0.0)
    x_c = 0.5 * length if x_c is None else x_c

    def moments(t):
        if omega_c is None or omega_c * t == 0.0:  # the theta -> 0 limit, as the trap takes it
            a, b = 1.0, t
        else:
            theta = math.remainder(omega_c * t, 2.0 * math.pi)
            a, b = math.cos(theta), math.sin(theta) / omega_c
        var = a * a * var_x + 2.0 * a * b * cov + b * b * var_v
        return ((x_c + a * (c0 - x_c) + b * mean_v) % length,
                math.sqrt(var) if var >= 0.0 else math.nan)
    return moments


def centroid(field: WaveField) -> float:
    """First moment of |psi|^2, unwrapped around the density maximum; in [0, L)."""
    return packet_moments(field)[0]


def packet_width(field: WaveField) -> float:
    """RMS width of |psi|^2 around its centroid (periodic-aware)."""
    return packet_moments(field)[1]


def _kinetic_symbol(grid: Grid1D, m: float, consts: PhysicalConstants) -> np.ndarray:
    """hbar^2 k^2 / 2m on the grid's modes, in float64; NumericalFailure if not finite.

    Taken as hbar ((hbar / 2m) k^2), so no hbar^2 underflows where the symbol does not.
    """
    hbar = np.float64(consts.hbar)
    with np.errstate(all="ignore"):
        symbol = hbar * (hbar / (2.0 * m) * grid.wavenumbers ** 2)
    _finite(lambda: f"kinetic symbol hbar^2 k^2 / 2m is not finite at hbar = {consts.hbar!r}, "
            f"m = {m!r}", symbol)
    return symbol


def _energies(samples: np.ndarray, v: np.ndarray, symbol: np.ndarray, dx: float):
    """(<psi|H|psi>, <psi|psi>) of samples; `symbol` is `_kinetic_symbol`'s."""
    amps = np.fft.fft(samples, norm="ortho")
    dens = np.abs(samples) ** 2
    kinetic = np.sum(symbol * np.abs(amps) ** 2) * dx
    return kinetic + np.sum(v * dens) * dx, np.sum(dens) * dx


def _energy_spread(psi: np.ndarray, v: np.ndarray, symbol: np.ndarray, dx: float,
                   energy: float) -> float:
    """sqrt(<psi|(H - E)^2|psi>) of unit-norm samples: the energy's standard deviation."""
    h_psi = np.fft.ifft(symbol * np.fft.fft(psi))
    residual = h_psi + (v - energy) * psi
    return float(np.sqrt(np.sum(np.abs(residual) ** 2) * dx))


def energy_expectation(field: WaveField, potential, m: float,
                       consts: PhysicalConstants = NATURAL_UNITS) -> float:
    """<psi|H|psi> / <psi|psi> with the kinetic term evaluated spectrally."""
    grid = field.grid
    v = _on_grid(potential, grid, "potential", "potential samples", float)
    with np.errstate(all="ignore"):
        h, norm_sq = _energies(field.samples, v, _kinetic_symbol(grid, m, consts), grid.spacing)
        energy = float(h / norm_sq)
    if norm_sq == 0.0:
        raise ZeroField("energy expectation undefined for a zero field")
    _finite(lambda: f"non-finite energy expectation {float(h)!r} / {float(norm_sq)!r}", energy)
    return energy
