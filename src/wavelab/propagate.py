"""Time evolution for every equation family.

Spectral propagation is the primary method wherever coefficients are constant:
it advances each Fourier mode by its exact phase, so the only error is
rounding.  The split-step (Strang) scheme handles a position-dependent
potential, and a Crank-Nicolson finite-difference scheme exists purely as an
independent cross-check of the split-step results.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import (
    NATURAL_UNITS,
    GaussianPacketSpec,
    Grid1D,
    PhysicalConstants,
    SpectralField,
    TimeSpec,
    WaveField,
    dft,
    idft,
    l2_norm,
)
from .dispersion import EquationKind, is_second_order, omega_of_k
from .exceptions import LinearSolveFailure, NumericalFailure, WrongEquationFamily, ZeroField


@dataclass
class SecondOrderState:
    """The (psi, d psi/dt) pair carried by second-order-in-time equations."""

    psi: WaveField
    psi_dot: WaveField

    def __post_init__(self):
        if self.psi.grid != self.psi_dot.grid:
            raise ValueError("psi and psi_dot must share one grid")

    @property
    def grid(self) -> Grid1D:
        return self.psi.grid

    def copy(self) -> "SecondOrderState":
        return SecondOrderState(self.psi.copy(), self.psi_dot.copy())


@dataclass
class EvolutionResult:
    """Final state plus snapshots; the first snapshot is the initial condition."""

    final: object  # WaveField or SecondOrderState
    snapshots: list = field(default_factory=list)  # [(t, WaveField), ...]
    norms: list = field(default_factory=list)

    @property
    def times(self) -> list:
        return [t for t, _ in self.snapshots]


# ---------------------------------------------------------------------------
# potentials
# ---------------------------------------------------------------------------

def zero_potential(grid: Grid1D) -> np.ndarray:
    return np.zeros(grid.n_points)


def constant_potential(grid: Grid1D, v0: float) -> np.ndarray:
    return np.full(grid.n_points, float(v0))


def harmonic_potential(grid: Grid1D, m: float, omega_c: float,
                       center: float | None = None) -> np.ndarray:
    """V(x) = (1/2) m omega_c^2 (x - x_c)^2, centered at L/2 by default."""
    xc = grid.length / 2.0 if center is None else center
    x = grid.positions
    # plain multiplication so an overflowing omega_c yields inf, not OverflowError;
    # callers treat a non-finite potential as a numerical failure
    coef = 0.5 * m * omega_c * omega_c
    with np.errstate(invalid="ignore", over="ignore"):
        return coef * (x - xc) ** 2


def _check_potential(potential, grid: Grid1D) -> np.ndarray:
    v = np.asarray(potential, dtype=float)
    if v.shape != (grid.n_points,):
        raise ValueError(f"potential shape {v.shape} does not match grid")
    if not np.all(np.isfinite(v)):
        raise ValueError("potential samples must be finite")
    return v


# ---------------------------------------------------------------------------
# exact spectral propagators
# ---------------------------------------------------------------------------

def evolve_schrodinger_spectral(psi0: WaveField, m: float,
                                consts: PhysicalConstants = NATURAL_UNITS,
                                t: float = 0.0) -> WaveField:
    """Free-particle evolution psi_hat(k, t) = psi_hat(k, 0) e^{-i omega(k) t}.

    Exact for any t (no time-step error); the L2 norm is preserved to rounding.
    """
    if not m > 0:
        raise ValueError(f"mass must be positive, got {m}")
    if t == 0.0:
        return psi0.copy()
    spec = dft(psi0)
    w = consts.hbar * spec.wavenumbers ** 2 / (2.0 * m)
    return idft(SpectralField(psi0.grid, spec.mode_amplitudes * np.exp(-1j * w * t)))


def _require_second_order(eq: EquationKind):
    if not is_second_order(eq):
        raise WrongEquationFamily(
            f"{type(eq).__name__} is first-order in time; use the Schrodinger propagators"
        )


def _rotate_modes(w, a0, b0, t: float):
    """(psi_hat, psidot_hat) at time t, by the rotation of `evolve_second_order_spectral`."""
    with np.errstate(invalid="ignore", over="ignore"):
        wt = w * t
        cos_wt = np.cos(wt)
        sin_wt = np.sin(wt)
        # sin(wt)/w from the same rounded argument as cos(wt), so the rotation
        # stays unitary at any wt; the w = 0 limit is t
        sin_over_w = np.divide(sin_wt, w, out=np.full(w.shape, float(t)), where=w != 0.0)
        a = a0 * cos_wt + b0 * sin_over_w
        b = -w * sin_wt * a0 + b0 * cos_wt
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise NumericalFailure(f"non-finite mode amplitudes at t = {t}")
    return a, b


def evolve_second_order_spectral(state0: SecondOrderState, eq: EquationKind,
                                 consts: PhysicalConstants = NATURAL_UNITS,
                                 t: float = 0.0) -> SecondOrderState:
    """Per-mode rotation for the second-order families.

    psi_hat(t)     =  psi_hat_0 cos(wt) + psidot_hat_0 sin(wt)/w
    psidot_hat(t)  = -w psi_hat_0 sin(wt) + psidot_hat_0 cos(wt)

    The w = 0 mode uses the sin(wt)/w -> t limit, i.e. psi_hat = psi_hat_0 +
    psidot_hat_0 * t.  Each mode conserves w^2 |psi_hat|^2 + |psidot_hat|^2.
    """
    _require_second_order(eq)
    if t == 0.0:
        return state0.copy()
    grid = state0.grid
    w = omega_of_k(eq, grid.wavenumbers, consts)
    a, b = _rotate_modes(w, dft(state0.psi).mode_amplitudes,
                         dft(state0.psi_dot).mode_amplitudes, t)
    return SecondOrderState(
        idft(SpectralField(grid, a)),
        idft(SpectralField(grid, b)),
    )


def second_order_psi_snapshots(state0: SecondOrderState, eq: EquationKind,
                               consts: PhysicalConstants, times) -> list:
    """psi at each of `times`, equal to `evolve_second_order_spectral(...).psi`.

    omega(k) and the forward transforms of psi and psi_dot are computed once;
    each time then costs one rotation and one inverse transform.
    """
    _require_second_order(eq)
    grid = state0.grid
    w = omega_of_k(eq, grid.wavenumbers, consts)
    a0 = dft(state0.psi).mode_amplitudes
    b0 = dft(state0.psi_dot).mode_amplitudes
    return [
        state0.psi.copy() if t == 0.0
        else idft(SpectralField(grid, _rotate_modes(w, a0, b0, t)[0]))
        for t in times
    ]


def positive_branch_init(psi0: WaveField, eq: EquationKind,
                         consts: PhysicalConstants = NATURAL_UNITS) -> SecondOrderState:
    """Pair psi0 with psidot_hat = -i omega(k) psi_hat so every mode evolves as e^{-i omega t}."""
    _require_second_order(eq)
    spec = dft(psi0)
    w = omega_of_k(eq, spec.wavenumbers, consts)
    psi_dot = idft(SpectralField(psi0.grid, -1j * w * spec.mode_amplitudes))
    return SecondOrderState(psi0.copy(), psi_dot)


# ---------------------------------------------------------------------------
# stepping schemes (Schrodinger with potential)
# ---------------------------------------------------------------------------

def _snapshot_steps(n_steps: int, every: int) -> list:
    """Steps that get a snapshot: 0, each multiple of `every` (if > 0), and n_steps."""
    steps = list(range(0, n_steps + 1, every)) if every > 0 else [0]
    if steps[-1] != n_steps:
        steps.append(n_steps)
    return steps


def _stepped_evolution(psi0: WaveField, step, time: TimeSpec,
                       snapshot_every: int) -> EvolutionResult:
    """Apply `step(samples) -> samples` n_steps times, recording each snapshot step."""
    snapshots, norms = [], []
    psi = psi0.samples.copy()
    done = 0
    for n in _snapshot_steps(time.n_steps, snapshot_every):
        for _ in range(n - done):
            psi = step(psi)
        done = n
        fld = WaveField(psi0.grid, psi.copy())
        snapshots.append((n * time.dt, fld))
        norms.append(l2_norm(fld))
    return EvolutionResult(final=snapshots[-1][1].copy(), snapshots=snapshots, norms=norms)


def _strang_step(psi, half_kick, drift, spec, out):
    """One Strang step: half kick, spectral drift, half kick.

    Writes the new samples into `out` (which may be `psi`) and returns it;
    `spec` is a caller-owned spectrum buffer, so the step allocates nothing.
    The factors are complex for real time and real for imaginary time, and
    `drift` carries the inverse transform's 1/N: N is a power of two, so the
    unscaled inverse of the pre-scaled product equals the scaled inverse of
    the plain product bit for bit (barring subnormals).  Each product keeps
    the factor as the first operand: complex multiplication is not bitwise
    commutative.
    """
    np.multiply(half_kick, psi, out=out)
    np.fft.fft(out, out=spec)
    np.multiply(drift, spec, out=spec)
    np.fft.ifft(spec, norm="forward", out=out)
    np.multiply(half_kick, out, out=out)
    return out


def split_step_evolve(psi0: WaveField, m: float, potential,
                      consts: PhysicalConstants = NATURAL_UNITS,
                      time: TimeSpec = TimeSpec(0.01, 1),
                      snapshot_every: int = 0) -> EvolutionResult:
    """Strang splitting: half kick e^{-iV dt/2 hbar}, spectral drift, half kick.

    Both factors are unitary, so the norm is conserved to rounding per step;
    the global error against the exact solution is O(dt^2).  Snapshots are
    recorded at step 0, every `snapshot_every` steps (if > 0), and at the
    final step.
    """
    if not m > 0:
        raise ValueError(f"mass must be positive, got {m}")
    grid = psi0.grid
    v = _check_potential(potential, grid)
    dt = time.dt
    with np.errstate(invalid="ignore", over="ignore"):
        half_kick = np.exp(-0.5j * v * dt / consts.hbar)
        drift = np.exp(-1j * consts.hbar * grid.wavenumbers ** 2 * dt / (2.0 * m))
    if not (np.all(np.isfinite(half_kick)) and np.all(np.isfinite(drift))):
        raise NumericalFailure(f"non-finite Strang factors at dt = {dt}", step=0)
    drift /= grid.n_points  # the 1/N of the kernel's unscaled inverse transform
    spec = np.empty(grid.n_points, dtype=np.complex128)
    return _stepped_evolution(psi0, lambda psi: _strang_step(psi, half_kick, drift, spec, psi),
                              time, snapshot_every)


def crank_nicolson_evolve(psi0: WaveField, m: float, potential,
                          consts: PhysicalConstants = NATURAL_UNITS,
                          time: TimeSpec = TimeSpec(0.01, 1),
                          snapshot_every: int = 0) -> EvolutionResult:
    """Cayley-form implicit scheme on the central-difference Laplacian.

    (1 + i dt H / 2 hbar) psi^{n+1} = (1 - i dt H / 2 hbar) psi^n with periodic
    boundaries, i.e. a tridiagonal system with corner entries.  H is Hermitian,
    so the step is exactly unitary in exact arithmetic; accuracy is
    O(dt^2 + dx^2).  Used only as an independent cross-check of the spectral
    split-step scheme, so scipy is imported here and never by the CLI.
    """
    from scipy import sparse
    from scipy.sparse.linalg import splu

    if not m > 0:
        raise ValueError(f"mass must be positive, got {m}")
    grid = psi0.grid
    v = _check_potential(potential, grid)
    n = grid.n_points
    dx = grid.spacing
    hbar = consts.hbar

    hop = -hbar * hbar / (2.0 * m * dx * dx)
    ham = sparse.diags(
        [np.full(n - 1, hop), -2.0 * hop + v, np.full(n - 1, hop)],
        offsets=[-1, 0, 1], format="lil", dtype=complex,
    )
    ham[0, n - 1] = hop  # periodic corners
    ham[n - 1, 0] = hop
    z = 1j * time.dt / (2.0 * hbar)
    eye = sparse.identity(n, format="csc", dtype=complex)
    a_mat = (eye + z * ham.tocsc()).tocsc()
    b_mat = (eye - z * ham.tocsc()).tocsr()
    try:
        lu = splu(a_mat)
    except RuntimeError as exc:  # singular system; cannot occur for dt > 0
        raise LinearSolveFailure(str(exc)) from exc
    return _stepped_evolution(psi0, lambda psi: lu.solve(b_mat @ psi), time, snapshot_every)


# ---------------------------------------------------------------------------
# Gaussian packets and moment diagnostics
# ---------------------------------------------------------------------------

def gaussian_packet(spec: GaussianPacketSpec, grid: Grid1D,
                    normalize: bool = True) -> WaveField:
    """Sample exp(-(x-x0)^2/4 sigma^2) e^{i k0 x}, optionally L2-normalized.

    Periodic images are ignored; the packet-width guidance on
    GaussianPacketSpec keeps them negligible.
    """
    dx = grid.spacing
    if spec.sigma < 4.0 * dx:
        warnings.warn(
            f"sigma = {spec.sigma} is below 4 dx = {4.0 * dx}; packet underresolved",
            stacklevel=2,
        )
    if spec.sigma > grid.length / 8.0:
        warnings.warn(
            f"sigma = {spec.sigma} exceeds L/8 = {grid.length / 8.0}; "
            "periodic images may overlap",
            stacklevel=2,
        )
    x = grid.positions
    with np.errstate(over="ignore"):  # a sigma**2 overflow is the flat envelope's limit
        four_var = 4.0 * np.float64(spec.sigma) ** 2
    psi = np.exp(-((x - spec.x0) ** 2) / four_var + 1j * spec.k0 * x)
    fld = WaveField(grid, psi)
    if normalize:
        fld = WaveField(grid, fld.samples / l2_norm(fld))
    return fld


def analytic_free_gaussian(spec: GaussianPacketSpec, grid: Grid1D, m: float,
                           consts: PhysicalConstants = NATURAL_UNITS,
                           t: float = 0.0, normalize: bool = True) -> WaveField:
    """Closed-form free evolution of the Gaussian packet, sampled on the grid.

    With complex width alpha(t) = sigma^2 + i hbar t / 2m and drifting center
    x0 + hbar k0 t / m:

        psi = (sigma/sqrt(alpha)) exp(-(x - x0 - v t)^2 / 4 alpha)
              exp(i(k0 x - hbar k0^2 t / 2m))

    This is the exact continuum solution and serves as the oracle for the
    spectral propagator.
    """
    if not m > 0:
        raise ValueError(f"mass must be positive, got {m}")
    hbar = consts.hbar
    x = grid.positions
    alpha = spec.sigma ** 2 + 0.5j * hbar * t / m
    beta = x - spec.x0 - hbar * spec.k0 * t / m
    psi = (spec.sigma / np.sqrt(alpha)) * np.exp(
        -beta ** 2 / (4.0 * alpha) + 1j * (spec.k0 * x - hbar * spec.k0 ** 2 * t / (2.0 * m))
    )
    if normalize:
        psi = psi / (2.0 * np.pi * spec.sigma ** 2) ** 0.25
    return WaveField(grid, psi)


def packet_moments(field: WaveField) -> tuple:
    """(centroid, RMS width) of |psi|^2 from one pass over the samples.

    Offsets are unwrapped around the density maximum, so both are
    periodic-aware; the centroid lies in [0, L).
    """
    w = np.abs(field.samples) ** 2
    total = float(w.sum())
    if total == 0.0:
        raise ZeroField("centroid/width undefined for a zero field")
    grid = field.grid
    n = grid.n_points
    j_peak = int(np.argmax(w))
    offsets = (np.arange(n) - j_peak + n // 2) % n - n // 2
    mean_off = float(w @ offsets) / total
    var = float(w @ (offsets - mean_off) ** 2) / total
    return (float((j_peak + mean_off) * grid.spacing % grid.length),
            float(np.sqrt(var) * grid.spacing))


def centroid(field: WaveField) -> float:
    """First moment of |psi|^2, unwrapped around the density maximum; in [0, L)."""
    return packet_moments(field)[0]


def packet_width(field: WaveField) -> float:
    """RMS width of |psi|^2 around its centroid (periodic-aware)."""
    return packet_moments(field)[1]


def _kinetic_symbol(grid: Grid1D, m: float, consts: PhysicalConstants) -> np.ndarray:
    """hbar^2 k^2 / 2m on the grid's modes."""
    return consts.hbar ** 2 * grid.wavenumbers ** 2 / (2.0 * m)


def _energies(samples: np.ndarray, v: np.ndarray, symbol: np.ndarray, dx: float):
    """(<psi|H|psi> / <psi|psi>, <psi|psi>) of each row of `samples`, shape (..., N).

    `symbol` is the kinetic symbol of `_kinetic_symbol`.  Row-wise transforms
    and sums of a C-contiguous stack equal the 1-D calls bit for bit, so a
    batch of states gets the energies of one at a time.
    """
    amps = np.fft.fft(samples, norm="ortho", axis=-1)
    kinetic = np.sum(symbol * np.abs(amps) ** 2, axis=-1) * dx
    dens = np.abs(samples) ** 2
    pot = np.sum(v * dens, axis=-1) * dx
    norm_sq = np.sum(dens, axis=-1) * dx
    with np.errstate(divide="ignore", invalid="ignore"):
        return (kinetic + pot) / norm_sq, norm_sq


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
    v = _check_potential(potential, grid)
    energy, norm_sq = _energies(field.samples, v, _kinetic_symbol(grid, m, consts),
                                grid.spacing)
    if norm_sq == 0.0:
        raise ZeroField("energy expectation undefined for a zero field")
    return float(energy)
