"""Independent reference implementations used only to check the package.

Everything here is deliberately slow and simple: direct O(N^2) transform
sums, trigonometric interpolation by explicit mode summation, and plain
moment integrals.  None of it shares code with the package paths it checks.
"""

import numpy as np


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


def imaginary_time_oracle(n, length, m, omega_c, hbar, tau, energy_tol, max_iters,
                          psi0=None):
    """Imaginary-time Strang relaxation in a centred harmonic trap, checked every step.

    Returns (energy, samples, iterations) at the first iteration whose energy
    differs from the previous one by less than energy_tol, or None if
    max_iters pass without that.  The start defaults to the Gaussian twice as
    wide as the ground state.
    """
    dx = length / n
    x = np.arange(n) * dx
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=dx)
    v = 0.5 * m * omega_c * omega_c * (x - length / 2.0) ** 2
    half_kick = np.exp(-0.5 * v * tau / hbar)
    drift = np.exp(-hbar * k ** 2 * tau / (2.0 * m))
    if psi0 is None:
        width = np.sqrt(hbar / (2.0 * m * omega_c))
        psi0 = np.exp(-((x - length / 2.0) ** 2) / (4.0 * (2.0 * width) ** 2))
    psi = np.array(psi0, dtype=np.complex128)
    psi /= np.sqrt(np.sum(np.abs(psi) ** 2) * dx)
    previous = np.inf
    for iteration in range(1, max_iters + 1):
        psi = half_kick * psi
        psi = np.fft.ifft(drift * np.fft.fft(psi))
        psi = half_kick * psi
        psi /= np.sqrt(np.sum(np.abs(psi) ** 2) * dx)
        amps = np.fft.fft(psi, norm="ortho")
        kinetic = float(np.sum(hbar ** 2 * k ** 2 / (2.0 * m) * np.abs(amps) ** 2) * dx)
        dens = np.abs(psi) ** 2
        energy = ((kinetic + float(np.sum(v * dens) * dx))
                  / float(np.sum(dens) * dx))
        if abs(energy - previous) < energy_tol:
            return energy, psi, iteration
        previous = energy
    return None


def real_imaginary_time_oracle(n, length, m, omega_c, hbar, tau, energy_tol, max_iters,
                               psi0=None):
    """The relaxation of `imaginary_time_oracle` in real arithmetic, checked every step.

    The imaginary-time factors are real, so a real start stays real: the state
    is stepped through `rfft`/`irfft` and normalised by a real norm.  A complex
    start is relaxed as two real rows, Re and Im, which share one norm.  The
    stopping energy is taken from the half spectrum, where each mode
    0 < k < N/2 stands for itself and its mirror.  Returns (energy, samples,
    iterations) as `imaginary_time_oracle` does, with the energy of the
    returned complex samples taken over the full spectrum, or None.
    """
    dx = length / n
    x = np.arange(n) * dx
    k = 2.0 * np.pi * np.fft.rfftfreq(n, d=dx)
    v = 0.5 * m * omega_c * omega_c * (x - length / 2.0) ** 2
    half_kick = np.exp(-0.5 * v * tau / hbar)
    drift = np.exp(-hbar * k ** 2 * tau / (2.0 * m))
    weight = np.full(len(k), 2.0)
    weight[0] = 1.0
    if n % 2 == 0:
        weight[-1] = 1.0  # the Nyquist mode has no mirror
    kinetic_symbol = weight * (hbar ** 2 * k ** 2 / (2.0 * m))
    if psi0 is None:
        width = np.sqrt(hbar / (2.0 * m * omega_c))
        psi0 = np.exp(-((x - length / 2.0) ** 2) / (4.0 * (2.0 * width) ** 2))
    psi0 = np.asarray(psi0)
    rows = [psi0.real, psi0.imag] if np.any(psi0.imag) else [psi0.real]
    psi = np.array(rows, dtype=np.float64)
    psi = psi * (1.0 / np.sqrt(np.sum(psi ** 2) * dx))
    previous = np.inf
    for iteration in range(1, max_iters + 1):
        psi = half_kick * psi
        psi = np.fft.irfft(drift * np.fft.rfft(psi), n=n)
        psi = half_kick * psi
        psi = psi * (1.0 / np.sqrt(np.sum(psi ** 2) * dx))
        energy_sum = norm_sum = 0.0
        for row in psi:
            amps = np.fft.rfft(row, norm="ortho")
            kinetic = np.sum(kinetic_symbol * np.abs(amps) ** 2) * dx
            energy_sum = energy_sum + (kinetic + np.sum(v * row ** 2) * dx)
            norm_sum = norm_sum + np.sum(row ** 2) * dx
        energy = float(energy_sum / norm_sum)
        if abs(energy - previous) < energy_tol:
            samples = psi[0] + 1j * psi[1] if len(psi) == 2 else psi[0] + 0j
            amps = np.fft.fft(samples, norm="ortho")
            k_full = 2.0 * np.pi * np.fft.fftfreq(n, d=dx)
            kinetic = float(np.sum(hbar ** 2 * k_full ** 2 / (2.0 * m) * np.abs(amps) ** 2) * dx)
            dens = np.abs(samples) ** 2
            return ((kinetic + float(np.sum(v * dens) * dx)) / float(np.sum(dens) * dx),
                    samples, iteration)
        previous = energy
    return None
