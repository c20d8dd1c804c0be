"""Independent reference implementations used only to check the package.

Everything here is deliberately slow and simple: direct O(N^2) transform
sums, trigonometric interpolation by explicit mode summation, plain moment
integrals, the closed-form free packet, a dense Crank-Nicolson scheme and the
phase path in long double.  None of it shares code with the package paths it
checks, except the bit-pinning references at the end: they keep an earlier,
more wasteful loop around the package's own arithmetic, so that a leaner loop
can be held to the same bits.
Two oracles reuse package types but none of its arithmetic, so that a test
swaps them for a package path: `analytic_free_gaussian` returns a `WaveField`,
and `crank_nicolson_evolve` takes `PhysicalConstants` and a `TimeSpec` and
yields (t, WaveField) as `split_step_evolve` does.  Test code refuses nothing:
neither checks its arguments nor its results.
"""

import math

import numpy as np

from wavelab import PhysicalConstants, TimeSpec, WaveField


def dft_bruteforce(samples):
    """Unitary forward transform by direct summation (FFT mode order)."""
    samples = np.asarray(samples, dtype=complex)
    n = len(samples)
    j = np.arange(n)
    out = np.empty(n, dtype=complex)
    for mode in range(n):
        out[mode] = np.sum(samples * np.exp(-2j * np.pi * mode * j / n))
    return out / np.sqrt(n)


def idft_bruteforce(amps):
    """Unitary inverse transform by direct summation."""
    amps = np.asarray(amps, dtype=complex)
    n = len(amps)
    modes = np.arange(n)
    out = np.empty(n, dtype=complex)
    for j in range(n):
        out[j] = np.sum(amps * np.exp(2j * np.pi * modes * j / n))
    return out / np.sqrt(n)


def trig_interpolate(samples, length, x_eval):
    """Evaluate the band-limited interpolant of grid samples at arbitrary x.

    Uses the signed-wavenumber representatives (Nyquist at -N/2), which is the
    minimal-bandwidth interpolant consistent with the package's mode layout.
    """
    samples = np.asarray(samples, dtype=complex)
    n = len(samples)
    coeffs = dft_bruteforce(samples)
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=length / n)
    x_eval = np.atleast_1d(np.asarray(x_eval, dtype=float))
    out = np.zeros(len(x_eval), dtype=complex)
    for c, kk in zip(coeffs, k):
        out += c * np.exp(1j * kk * x_eval)
    return out / np.sqrt(n)


def moment_mean_and_width(samples, positions):
    """Plain (non-periodic) first moment and RMS width of |psi|^2.

    Valid for packets well inside the box; used as the oracle for the
    package's periodic-aware moment routines.
    """
    w = np.abs(np.asarray(samples)) ** 2
    total = w.sum()
    mean = float((w * positions).sum() / total)
    var = float((w * (positions - mean) ** 2).sum() / total)
    return mean, float(np.sqrt(var))


def zero_potential(grid):
    """V = 0 on every grid point."""
    return np.zeros(grid.n_points)


def constant_potential(grid, v0):
    """V = v0 on every grid point."""
    return np.full(grid.n_points, float(v0))


def inner_product(bra, ket, dx):
    """Discrete inner product sum conj(bra_j) ket_j dx of two sample arrays."""
    return complex(np.vdot(bra, ket) * dx)


def harmonic_ground_exact(grid, m, omega_c, hbar):
    """Analytic ground state exp(-m omega_c (x - L/2)^2 / 2 hbar), grid-normalized samples."""
    psi = np.exp(-m * omega_c * (grid.positions - grid.length / 2.0) ** 2 / (2.0 * hbar))
    return psi / np.sqrt(np.sum(np.abs(psi) ** 2) * grid.spacing)


def coherent_state_oracle(grid, m, omega_c, hbar, displacement, center, t):
    """Closed-form displaced-ground-state evolution in a harmonic well.

    Center of mass follows the classical trajectory a cos(omega t); the quoted
    phase was verified symbolically to satisfy the time-dependent equation.
    Returns raw samples (unit continuum norm).
    """
    x = grid.positions - center
    a = displacement
    xt = a * np.cos(omega_c * t)
    phase = (omega_c * t / 2.0
             + (m * omega_c / hbar) * (x * a * np.sin(omega_c * t)
                                       - (a * a / 4.0) * np.sin(2.0 * omega_c * t)))
    return ((m * omega_c / (np.pi * hbar)) ** 0.25
            * np.exp(-(m * omega_c / (2.0 * hbar)) * (x - xt) ** 2 - 1j * phase))


def line_moments(cfg, t):
    """(centroid in [0, L), width) at time t of an `evolve` run's Gaussian packet on the line.

    `cfg` maps the keys of the run's config_echo.cfg to their text.  The packet's Wigner
    function is exp(-(x - x0)^2 / 2 sigma^2) exp(-2 sigma^2 (k - k0)^2), so x and k are
    independent normals (k of standard deviation 1 / 2 sigma) and every symmetrised moment of
    the linear Heisenberg position is a moment of them: x(t) = x + v(k) t with v = d omega / dk,
    so <x> = x0 + <v> t and Var x = sigma^2 + Var v t^2, and in a harmonic trap
    x(t) - x_c = (x - x_c) cos(omega_c t) + hbar k / (m omega_c) sin(omega_c t).  <v> and its
    deviation are closed forms but for Klein-Gordon, whose are a trapezoid sum over +-40
    deviations of k.
    """
    f = {key: float(value) for key, value in cfg.items()
         if key not in ("scenario", "family", "packet_kind", "potential")}
    x0, k0, sigma, length, hbar = f["x0"], f["k0"], f["sigma"], f["length"], f["hbar"]
    if t == 0.0:
        return x0 % length, sigma
    s = 0.5 / sigma
    family = cfg["family"]
    if family.startswith("schrodinger"):
        mean_v, sd_v = hbar * k0 / f["mass"], hbar * s / f["mass"]
    elif family == "klein_gordon":  # v = c k / hypot(k, m c / hbar)
        with np.errstate(all="ignore"):
            z = np.linspace(-40.0, 40.0, 16001)
            weight = np.exp(-0.5 * z * z) / np.sum(np.exp(-0.5 * z * z))
            v = f["c"] * (k0 + s * z) / np.hypot(k0 + s * z, f["mass"] * f["c"] / hbar)
            mean_v = float(np.sum(weight * v))
            sd_v = float(np.sqrt(np.sum(weight * (v - mean_v) ** 2)))
    else:  # v = speed sign(k): P(k > 0) = erfc(-z) / 2
        speed = f["wave_speed"] if family == "classical_wave" else f["c"]
        z = k0 / (s * math.sqrt(2.0))
        mean_v, sd_v = speed * math.erf(z), speed * math.sqrt(math.erfc(z) * math.erfc(-z))
    if cfg["potential"] == "harmonic":
        omega_c = f["omega_c"]
        x_c = 0.5 * length if f["x_c"] < 0 else f["x_c"]
        a, b = math.cos(omega_c * t), math.sin(omega_c * t) / omega_c
    else:
        x_c, a, b = 0.0, 1.0, t
    return (x_c + a * (x0 - x_c) + b * mean_v) % length, math.hypot(a * sigma, b * sd_v)


def group_law_gap(propagate, psi0, a, b, field=lambda psi: psi):
    """||U(b) U(a) psi0 - U(a + b) psi0|| / ||psi0|| of an exact propagator, `propagate(psi,
    t)` returning U(t) psi, and `field(state)` its WaveField (a second-order state's psi).

    U(b) U(a) = U(a + b) holds exactly, so the gap is rounding alone, with no reference
    solution and at any N.  a = b is degenerate (omega 2a = 2 (omega a) exactly), so draw
    non-dyadic splits.  A bias linear in t (a wrong omega(k), or a reduction against the
    float 2 pi) composes consistently: the law complements the closed forms, never
    replaces them.
    """
    gap = field(propagate(propagate(psi0, a), b)).samples - field(propagate(psi0, a + b)).samples
    return math.sqrt(np.sum(np.abs(gap) ** 2) / np.sum(np.abs(field(psi0).samples) ** 2))


def phase_twin(psi0, omega, t):
    """F^-1 e^{-i omega t} F psi0, the phase path's formula in long double (`np.clongdouble`,
    every transform unitary), reading the same float64 samples `psi0` and omega(k).

    Both paths share the discretisation, so their gap is the float64 path's rounding alone,
    against a reference whose own is ~2^11 times finer (eps 1.08e-19 on x86_64 Linux).
    Where long double is double, the gap measures nothing.
    """
    amps = np.fft.fft(np.asarray(psi0, dtype=np.clongdouble), norm="ortho")
    phase = np.asarray(omega, dtype=np.longdouble) * np.longdouble(t)
    return np.fft.ifft(amps * np.exp(-1j * phase), norm="ortho")


def grid_hamiltonian(length, m, v, hbar):
    """Dense H = F^-1 diag(hbar^2 k^2 / 2m) F + diag(V), F the unitary DFT matrix.

    The spatial discretisation of the spectral propagators and of the
    imaginary-time relaxation, on the grid of the samples of `v`.
    """
    n = len(v)
    j = np.arange(n)
    dft_matrix = np.exp(-2j * np.pi * np.outer(j, j) / n) / np.sqrt(n)
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=length / n)
    kinetic = hbar * hbar * k * k / (2.0 * m)
    return dft_matrix.conj().T @ (kinetic[:, None] * dft_matrix) + np.diag(np.asarray(v, float))


def central_difference_hamiltonian(v, dx, m, hbar):
    """Dense H / hbar = -(hbar / 2m) D2 + diag(V / hbar), D2 the periodic three-point Laplacian.

    The spatial discretisation of `crank_nicolson_evolve`, built from shifted
    identities (`np.roll`), so that no hbar^2 is formed.
    """
    eye = np.eye(len(v))
    laplacian = (np.roll(eye, 1, axis=0) - 2.0 * eye + np.roll(eye, -1, axis=0)) / (dx * dx)
    return -(hbar / (2.0 * m)) * laplacian + np.diag(np.asarray(v, float) / hbar)


def crank_nicolson_evolve(psi0, m, potential, consts=PhysicalConstants(), time=TimeSpec(0.01, 1),
                          snapshot_every=0):
    """(t, WaveField) at step 0, every `snapshot_every` steps (if > 0) and the last of the
    Crank-Nicolson scheme (1 + i dt H / 2 hbar) psi^{n+1} = (1 - i dt H / 2 hbar) psi^n.

    H / hbar is the dense `central_difference_hamiltonian`, so the error is O(dt^2 + dx^2).
    Its `numpy.linalg.eigh` basis, H / hbar = U diag(lam) U^T, makes each step the Cayley map
    U diag((1 - ia) / (1 + ia)) U^T with a = lam dt / 2: unitary to rounding at any dt.
    O(N^3) once and one O(N^2) matvec per step.
    """
    dt, n_steps = time.dt, time.n_steps
    lam, u = np.linalg.eigh(central_difference_hamiltonian(potential, psi0.grid.spacing, m,
                                                           consts.hbar))
    a = lam * (0.5 * dt)
    cayley = (u * ((1.0 - 1j * a) / (1.0 + 1j * a))) @ u.T
    psi = psi0.samples.copy()
    for n in range(n_steps + 1):
        if n > 0:
            psi = cayley @ psi
        if n in (0, n_steps) or snapshot_every and n % snapshot_every == 0:
            yield n * dt, WaveField(psi0.grid, psi)


def analytic_free_gaussian(spec, grid, m, consts=PhysicalConstants(), t=0.0):
    """The exact continuum free evolution of `gaussian_packet`'s spec, sampled on the grid.

    With complex width alpha(t) = sigma^2 + i hbar t / 2m and drifting centre x0 + hbar k0 t / m:

        psi = (2 pi sigma^2)^(-1/4) (sigma / sqrt(alpha)) exp(-(x - x0 - v t)^2 / 4 alpha)
              exp(i (k0 x - hbar k0^2 t / 2m))
    """
    hbar, x, sigma, k0 = consts.hbar, grid.positions, spec.sigma, spec.k0
    alpha = sigma ** 2 + 0.5j * hbar * t / m
    beta = x - spec.x0 - hbar * k0 * t / m
    psi = (sigma / np.sqrt(alpha)) * np.exp(
        -beta ** 2 / (4.0 * alpha) + 1j * (k0 * x - hbar * k0 ** 2 * t / (2.0 * m))
    ) / (2.0 * np.pi * sigma ** 2) ** 0.25
    return WaveField(grid, psi)


def grid_exact_evolution(length, m, v, hbar, psi0, times):
    """psi(t) = U e^{-iEt/hbar} U^dagger psi0 for the dense `grid_hamiltonian`, each t in `times`.

    Diagonalised by `numpy.linalg.eigh`, so exact to rounding for any t: the
    difference from a propagator isolates its time error.  O(N^3): about 0.04 s
    at N = 256.
    """
    psi0 = np.asarray(psi0, dtype=complex)
    energies, vectors = np.linalg.eigh(grid_hamiltonian(length, m, v, hbar))
    coeffs = vectors.conj().T @ psi0
    return np.array([vectors @ (np.exp(-1j * energies * t / hbar) * coeffs) for t in times])


def grid_imaginary_time_evolution(length, m, v, hbar, psi0, tau):
    """(energy, psi): U e^{-E tau/hbar} U^dagger psi0 for the dense `grid_hamiltonian`, normalised.

    The exact imaginary-time relaxation of the grid problem over tau, diagonalised
    by `numpy.linalg.eigh` and shifted by the lowest eigenvalue so that no factor
    overflows.  `psi` has unit sum |psi_j|^2; at large tau it is the grid's ground
    vector, in the phase of the start's ground component, and `energy` (its <H>)
    is the grid's lowest eigenvalue.  O(N^3).
    """
    energies, vectors = np.linalg.eigh(grid_hamiltonian(length, m, v, hbar))
    coeffs = vectors.conj().T @ np.asarray(psi0, dtype=complex)
    coeffs *= np.exp(-(energies - energies[0]) * tau / hbar)
    weights = np.abs(coeffs) ** 2
    return (float(np.sum(energies * weights) / np.sum(weights)),
            vectors @ coeffs / np.sqrt(np.sum(weights)))


def imaginary_time_oracle(n, length, m, omega_c, hbar, tau, energy_tol, max_iters,
                          psi0=None):
    """Exact-step imaginary-time relaxation in a centred harmonic trap, in complex arithmetic.

    Each step is Mehler's e^{-phi H / hbar omega_c}: the half kick
    exp(-(m omega_c / 2 hbar) tanh(phi/2) (x - L/2)^2) around the drift
    exp(-hbar k^2 sinh(phi) / 2 m omega_c), through the full spectrum.  phi
    starts at omega_c tau and doubles up to phi_max, where
    sinh(phi_max) = (L / dx*)^2 / 128 and dx* = sqrt(hbar / 2 m omega_c).
    Returns (energy, samples, iterations) at the first step at phi_max whose
    energy differs by less than energy_tol from the previous step's, also at
    phi_max, or None if max_iters pass without that.  The start defaults to
    the Gaussian twice as wide as the ground state.
    """
    dx = length / n
    x = np.arange(n) * dx
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=dx)
    v = 0.5 * m * omega_c * omega_c * (x - length / 2.0) ** 2
    width = np.sqrt(hbar / (2.0 * m * omega_c))
    if psi0 is None:
        psi0 = np.exp(-((x - length / 2.0) ** 2) / (4.0 * (2.0 * width) ** 2))
    psi = np.array(psi0, dtype=np.complex128)
    psi /= np.sqrt(np.sum(np.abs(psi) ** 2) * dx)
    phi_max = np.arcsinh((length / width) ** 2 / 128.0)
    phi, previous = min(omega_c * tau, phi_max), np.inf
    for iteration in range(1, max_iters + 1):
        half_kick = np.exp(-(m * omega_c / (2.0 * hbar)) * np.tanh(phi / 2.0)
                           * (x - length / 2.0) ** 2)
        drift = np.exp(-hbar * k ** 2 * np.sinh(phi) / (2.0 * m * omega_c))
        psi = half_kick * np.fft.ifft(drift * np.fft.fft(half_kick * psi))
        psi /= np.sqrt(np.sum(np.abs(psi) ** 2) * dx)
        if phi == phi_max:
            amps = np.fft.fft(psi, norm="ortho")
            kinetic = float(np.sum(hbar ** 2 * k ** 2 / (2.0 * m) * np.abs(amps) ** 2) * dx)
            dens = np.abs(psi) ** 2
            energy = ((kinetic + float(np.sum(v * dens) * dx))
                      / float(np.sum(dens) * dx))
            if abs(energy - previous) < energy_tol:
                return energy, psi, iteration
            previous = energy
        phi = min(2.0 * phi, phi_max)
    return None


def rest_phase_envelope(samples, m, hbar, c, t):
    """The slow envelope psi_c = e^{+i m c^2 t / hbar} psi of lab-frame samples at time t.

    The particle branch carries the rest phase e^{-i m c^2 t / hbar}; this removes it.
    """
    return np.exp(1j * (m * c * c / hbar * t)) * np.asarray(samples)


def central_difference_dominance(envelopes, dt, dx, m, hbar, c):
    """(small, big): the norms of d^2 psi_c/dt^2 and of w^2 psi_c + 2 i w d psi_c/dt.

    w = m c^2/hbar, and `envelopes` is a series of envelope samples at uniformly
    spaced times dt apart.  The time derivatives are second-order central
    differences, and each norm is the grid L2 norm averaged over the interior
    times.
    """
    stack = np.asarray(envelopes)
    w = m * c * c / hbar
    prev, mid, nxt = stack[:-2], stack[1:-1], stack[2:]
    d1 = (nxt - prev) / (2.0 * dt)
    d2 = (nxt - 2.0 * mid + prev) / (dt * dt)

    def norm(rows):
        return float(np.mean(np.sqrt(np.sum(np.abs(rows) ** 2, axis=-1) * dx)))
    return norm(d2), norm(w * w * mid + 2j * w * d1)


def relaxation_energy_every_step(problem, grid, tau_step=0.02, max_iters=50000,
                                 energy_tol=1e-12, initial=None):
    """`imaginary_time_ground_state`'s loop as it was when it took <H> after every step.

    Each step is built afresh and followed by `_energies`, whose <H> is read only
    at phi_max; the stopped state goes through the package's `_accept`.  The
    preamble's refusals are left out, and so is the nodal restart: use it on
    starts with a ground component.  Returns the GroundState, or None once
    max_iters steps pass without stopping.
    """
    from wavelab.core import _l2
    from wavelab.oscillator import _accept, minimize_bound_analytic
    from wavelab.propagate import _energies, _kinetic_symbol, _strang, harmonic_potential

    dx = grid.spacing
    ground_width = minimize_bound_analytic(problem).delta_x
    if initial is None:
        with np.errstate(all="ignore"):
            four_var = 4.0 * np.float64(2.0 * ground_width) ** 2
            start = np.exp(-((grid.positions - grid.length / 2.0) ** 2) / four_var)
    else:
        start = initial.samples
    real = not np.any(start.imag)
    psi = start.astype(np.complex128)
    psi *= 1.0 / _l2(psi, dx)
    m, hbar, omega_c = problem.m, problem.consts.hbar, problem.omega_c
    v = harmonic_potential(grid, m, omega_c)
    symbol = _kinetic_symbol(grid, m, problem.consts)
    phi_max = math.asinh((grid.length / ground_width) ** 2 / 128.0)
    phi, energy_prev = min(max(omega_c * tau_step, math.ulp(0.0)), phi_max), math.inf
    for _ in range(max_iters):
        step = _strang(v / math.cosh(0.5 * phi) ** 2, grid, m, hbar, math.sinh(phi) / omega_c, 1)
        step(psi, psi)
        with np.errstate(all="ignore"):
            h, norm_sq = _energies(psi, v, symbol, dx)
        psi *= 1.0 / math.sqrt(norm_sq)
        if phi == phi_max:
            energy = h / norm_sq
            if abs(energy - energy_prev) < energy_tol:
                return _accept(problem, grid, v, symbol, psi.real if real else psi)
            energy_prev = energy
        phi = min(2.0 * phi, phi_max)
    return None


def bound_energy_per_call(problem, delta_x):
    """E(dx) of the bound curve as `energy_bound` took it when each call converted its own
    float64 constants under its own errstate; NumericalFailure when E is not finite."""
    from wavelab.exceptions import NumericalFailure

    hbar, m, omega_c, dx = (np.float64(v) for v in
                            (problem.consts.hbar, problem.m, problem.omega_c, delta_x))
    with np.errstate(all="ignore"):
        e = hbar * ((hbar / (8.0 * m)) / dx ** 2) + (0.5 * m * omega_c) * (omega_c * dx ** 2)
    if not np.isfinite(e):
        raise NumericalFailure(f"bound curve E(dx) = {float(e)!r} at dx = {delta_x!r}")
    return float(e)


def golden_section_per_call(problem, bracket, tol):
    """(delta_x, energy): the golden-section search of `minimize_bound_numeric` on
    `bound_energy_per_call`, one conversion and one errstate per evaluation."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    lo, hi = float(bracket[0]), float(bracket[1])

    def f(d):
        return bound_energy_per_call(problem, d)

    mid = 0.5 * (lo + hi)
    if f(lo) < f(mid) and f(hi) < f(mid):
        raise ValueError(f"E({lo}) and E({hi}) both lie below E({mid}); no interior minimum")
    c = hi - (hi - lo) * inv_phi
    d = lo + (hi - lo) * inv_phi
    fc, fd = f(c), f(d)
    while hi - lo > max(tol, 4.0 * math.ulp(0.5 * (lo + hi))):
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - (hi - lo) * inv_phi
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + (hi - lo) * inv_phi
            fd = f(d)
    best = 0.5 * (lo + hi)
    return best, f(best)
