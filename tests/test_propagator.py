import math
import platform
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavelab import (
    ClassicalWave,
    Electromagnetic,
    GaussianPacketSpec,
    Grid1D,
    KleinGordon,
    PhysicalConstants,
    PlaneWaveMode,
    SchrodingerFree,
    SecondOrderState,
    TimeSpec,
    WaveField,
    centroid,
    dft,
    evolve_schrodinger_spectral,
    evolve_second_order_spectral,
    gaussian_packet,
    group_velocity,
    harmonic_potential,
    imaginary_time_ground_state,
    l2_norm,
    omega_of_k,
    packet_width,
    planewave_sample,
    positive_branch_init,
    split_step_evolve,
)
from wavelab import cli
from wavelab.exceptions import WrongEquationFamily, ZeroField
from wavelab.oscillator import OscillatorProblem
from wavelab.core import _PHASE_TOL, _mode_power
from wavelab.propagate import (
    _energies,
    _harmonic_snapshots,
    _kinetic_symbol,
    energy_expectation,
)

from oracles import (
    analytic_free_gaussian,
    central_difference_hamiltonian,
    coherent_state_oracle,
    constant_potential,
    crank_nicolson_evolve,
    dft_bruteforce,
    grid_exact_evolution,
    group_law_gap,
    inner_product,
    moment_mean_and_width,
    phase_twin,
    zero_potential,
)

NATURAL = PhysicalConstants()


def rel_l2(a: WaveField, b: WaveField) -> float:
    return l2_norm(WaveField(a.grid, a.samples - b.samples)) / l2_norm(b)


def last_field(snapshots) -> WaveField:
    """The field of a stepper's last (t, psi) snapshot."""
    *_, (_, fld) = snapshots
    return fld


# ---------------------------------------------------------------------------
# first-order spectral propagation
# ---------------------------------------------------------------------------

def test_schrodinger_spectral_identity_at_t0():
    grid = Grid1D(64, 16.0)
    psi0 = gaussian_packet(GaussianPacketSpec(8.0, 1.0, 1.0), grid)
    out = evolve_schrodinger_spectral(psi0, 1.0, NATURAL, 0.0)
    assert np.array_equal(out.samples, psi0.samples)


def test_schrodinger_spectral_single_mode_phase():
    grid = Grid1D(64, 16.0)
    k = 2 * np.pi * 3 / grid.length
    psi0 = planewave_sample(PlaneWaveMode(1.0, k, 0.0), grid, 0.0)
    t = 5.7
    out = evolve_schrodinger_spectral(psi0, 1.0, NATURAL, t)
    w = omega_of_k(SchrodingerFree(1.0), k)
    want = psi0.samples * np.exp(-1j * w * t)
    assert np.max(np.abs(out.samples - want)) < 1e-12
    assert np.max(np.abs(np.abs(out.samples) - np.abs(psi0.samples))) < 1e-13


def test_schrodinger_spectral_matches_analytic_gaussian():
    grid = Grid1D(512, 64.0)
    spec = GaussianPacketSpec(16.0, 1.0, 1.0)
    psi0 = gaussian_packet(spec, grid)
    t = 3.5  # width grows by ~2x
    got = evolve_schrodinger_spectral(psi0, 1.0, NATURAL, t)
    want = analytic_free_gaussian(spec, grid, 1.0, NATURAL, t)
    assert rel_l2(got, want) <= 1e-8


def test_schrodinger_spectral_norm_and_composition():
    grid = Grid1D(128, 32.0)
    psi0 = gaussian_packet(GaussianPacketSpec(16.0, 2.0, 1.0), grid)
    a = evolve_schrodinger_spectral(psi0, 1.0, NATURAL, 0.8)
    assert abs(l2_norm(a) - l2_norm(psi0)) <= 1e-12
    b = evolve_schrodinger_spectral(a, 1.0, NATURAL, 1.7)
    c = evolve_schrodinger_spectral(psi0, 1.0, NATURAL, 2.5)
    assert np.max(np.abs(b.samples - c.samples)) <= 1e-11


# ---------------------------------------------------------------------------
# second-order spectral propagation
# ---------------------------------------------------------------------------

def test_second_order_requires_second_order_family():
    grid = Grid1D(16, 4.0)
    psi0 = WaveField(grid, np.ones(16))
    with pytest.raises(WrongEquationFamily):
        positive_branch_init(psi0, SchrodingerFree(1.0))
    state = positive_branch_init(psi0, KleinGordon(1.0))
    with pytest.raises(WrongEquationFamily):
        evolve_second_order_spectral(state, SchrodingerFree(1.0), NATURAL, 1.0)


def test_second_order_identity_at_t0():
    grid = Grid1D(32, 8.0)
    psi0 = gaussian_packet(GaussianPacketSpec(4.0, 1.0, 1.0), grid)
    state = positive_branch_init(psi0, KleinGordon(1.0))
    out = evolve_second_order_spectral(state, KleinGordon(1.0), NATURAL, 0.0)
    assert np.array_equal(out.psi.samples, state.psi.samples)
    assert np.array_equal(out.psi_dot.samples, state.psi_dot.samples)


def test_positive_branch_mode_rotates_as_single_phase():
    grid = Grid1D(64, 16.0)
    eq = KleinGordon(1.0)
    k = 2 * np.pi * 5 / grid.length
    psi0 = planewave_sample(PlaneWaveMode(1.0, k, 0.0), grid, 0.0)
    state = positive_branch_init(psi0, eq)
    w = omega_of_k(eq, k)
    assert np.max(np.abs(state.psi_dot.samples + 1j * w * psi0.samples)) < 1e-12
    t = 4.2
    out = evolve_second_order_spectral(state, eq, NATURAL, t)
    want = psi0.samples * np.exp(-1j * w * t)
    assert np.max(np.abs(out.psi.samples - want)) < 1e-12


def test_positive_branch_zero_field_stays_zero():
    grid = Grid1D(16, 4.0)
    state = positive_branch_init(WaveField(grid, np.zeros(16)), Electromagnetic())
    assert np.max(np.abs(state.psi_dot.samples)) == 0.0


def test_positive_branch_packet_preserves_norm():
    grid = Grid1D(256, 64.0)
    eq = KleinGordon(1.0)
    consts = PhysicalConstants(1.0, 10.0)
    psi0 = gaussian_packet(GaussianPacketSpec(16.0, 1.0, 2.0), grid)
    state = positive_branch_init(psi0, eq, consts)
    for t in (0.5, 3.0, 9.0):
        out = evolve_second_order_spectral(state, eq, consts, t)
        assert abs(l2_norm(out.psi) - l2_norm(psi0)) <= 1e-10


def test_zero_mode_evolves_linearly_in_time():
    grid = Grid1D(16, 4.0)
    eq = ClassicalWave(1.0)
    psi0 = WaveField(grid, np.full(16, 2.0 + 0.0j))
    psi_dot0 = WaveField(grid, np.full(16, 0.5 + 0.0j))
    t = 3.0
    out = evolve_second_order_spectral(SecondOrderState(psi0, psi_dot0), eq, NATURAL, t)
    assert np.max(np.abs(out.psi.samples - (2.0 + 0.5 * t))) < 1e-12
    assert np.max(np.abs(out.psi_dot.samples - 0.5)) < 1e-12


def test_per_mode_energy_conserved():
    grid = Grid1D(64, 16.0)
    eq = Electromagnetic()
    rng = np.random.default_rng(3)
    psi0 = WaveField(grid, rng.standard_normal(64) + 1j * rng.standard_normal(64))
    psi_dot0 = WaveField(grid, rng.standard_normal(64) + 1j * rng.standard_normal(64))
    state0 = SecondOrderState(psi0, psi_dot0)
    w = omega_of_k(eq, grid.wavenumbers)
    e0 = w ** 2 * np.abs(dft(psi0).mode_amplitudes) ** 2 \
        + np.abs(dft(psi_dot0).mode_amplitudes) ** 2
    out = evolve_second_order_spectral(state0, eq, NATURAL, 7.3)
    e1 = w ** 2 * np.abs(dft(out.psi).mode_amplitudes) ** 2 \
        + np.abs(dft(out.psi_dot).mode_amplitudes) ** 2
    mask = w > 0
    assert np.max(np.abs(e1[mask] - e0[mask]) / e0[mask]) <= 1e-12


def test_second_order_composition():
    grid = Grid1D(64, 16.0)
    eq = KleinGordon(2.0)
    psi0 = gaussian_packet(GaussianPacketSpec(8.0, 1.0, 1.0), grid)
    state = positive_branch_init(psi0, eq)
    ab = evolve_second_order_spectral(
        evolve_second_order_spectral(state, eq, NATURAL, 1.3), eq, NATURAL, 2.1)
    once = evolve_second_order_spectral(state, eq, NATURAL, 3.4)
    assert np.max(np.abs(ab.psi.samples - once.psi.samples)) <= 1e-11


def test_dalembert_standing_wave_split():
    # psi_dot0 = 0 under the classical wave equation splits into two
    # half-amplitude packets moving both ways; with v*t an integer number of
    # cells the shifted profiles are exact index rolls of the initial data.
    grid = Grid1D(256, 32.0)
    v = 1.0
    eq = ClassicalWave(v)
    bump = np.exp(-((grid.positions - 16.0) ** 2) / (4.0 * 1.0 ** 2)).astype(complex)
    state0 = SecondOrderState(WaveField(grid, bump), WaveField(grid, np.zeros(256)))
    shift_cells = 48
    t = shift_cells * grid.spacing / v
    out = evolve_second_order_spectral(state0, eq, NATURAL, t)
    want = 0.5 * (np.roll(bump, shift_cells) + np.roll(bump, -shift_cells))
    assert np.max(np.abs(out.psi.samples - want)) <= 1e-10


# ---------------------------------------------------------------------------
# split-step and Crank-Nicolson
# ---------------------------------------------------------------------------

def test_split_step_exact_for_zero_potential():
    grid = Grid1D(128, 32.0)
    psi0 = gaussian_packet(GaussianPacketSpec(16.0, 1.0, 1.0), grid)
    time = TimeSpec(0.25, 8)  # deliberately coarse; splitting exact when V = 0
    got = last_field(split_step_evolve(psi0, 1.0, zero_potential(grid), NATURAL, time))
    want = evolve_schrodinger_spectral(psi0, 1.0, NATURAL, 2.0)
    assert np.max(np.abs(got.samples - want.samples)) <= 1e-10


def test_split_step_constant_potential_is_global_phase():
    grid = Grid1D(128, 32.0)
    psi0 = gaussian_packet(GaussianPacketSpec(16.0, 1.0, 1.0), grid)
    v0 = 0.7
    time = TimeSpec(0.05, 40)
    got = last_field(split_step_evolve(psi0, 1.0, constant_potential(grid, v0), NATURAL, time))
    free = evolve_schrodinger_spectral(psi0, 1.0, NATURAL, 2.0)
    want = free.samples * np.exp(-1j * v0 * 2.0)
    assert np.max(np.abs(got.samples - want)) <= 1e-10


def test_split_step_snapshots_and_unitarity():
    grid = Grid1D(128, 20.0)
    psi0 = gaussian_packet(GaussianPacketSpec(10.0, 0.0, 1.0), grid)
    v = harmonic_potential(grid, 1.0, 1.0)
    snaps = list(split_step_evolve(psi0, 1.0, v, NATURAL, TimeSpec(0.01, 100), snapshot_every=10))
    times = [t for t, _ in snaps]
    assert times[0] == 0.0
    assert np.array_equal(snaps[0][1].samples, psi0.samples)
    assert times == pytest.approx(np.arange(0, 11) * 0.1)
    norms = np.array([l2_norm(fld) for _, fld in snaps])
    assert np.max(np.abs(np.diff(norms))) / norms[0] <= 1e-12


@pytest.mark.parametrize("evolve", [split_step_evolve])
def test_negative_snapshot_every_is_refused(evolve):
    # it was read as 0: a first and a last snapshot only
    grid = Grid1D(128, 20.0)
    psi0 = gaussian_packet(GaussianPacketSpec(10.0, 0.0, 1.0), grid)
    with pytest.raises(ValueError, match="snapshot_every must be >= 0, got -1"):
        evolve(psi0, 1.0, zero_potential(grid), NATURAL, TimeSpec(0.01, 10), snapshot_every=-1)


def test_split_step_equals_out_of_place_strang_loop():
    # the in-place kernel must round exactly like the plain out-of-place step
    grid = Grid1D(256, 20.0)
    psi0 = gaussian_packet(GaussianPacketSpec(8.0, 1.5, 1.0), grid)
    v = harmonic_potential(grid, 1.0, 1.3)
    dt = 0.01
    got = last_field(split_step_evolve(psi0, 1.0, v, NATURAL, TimeSpec(dt, 200)))
    half_kick = np.exp(-0.5j * v * dt)
    drift = np.exp(-1j * grid.wavenumbers ** 2 * dt / 2.0)
    psi = psi0.samples.copy()
    for _ in range(200):
        psi = half_kick * psi
        psi = np.fft.ifft(drift * np.fft.fft(psi))
        psi = half_kick * psi
    assert np.array_equal(got.samples, psi)


@pytest.mark.parametrize("n", [8, 1024, 4096], ids=lambda n: f"N={n}")
def test_strang_kernel_matches_out_of_place_loop(n):
    # the kernel's buffers and its 1/N folded into the drift must round exactly
    # like the plain loop with the scaled inverse transform, at every snapshot
    grid = Grid1D(n, 0.05 * n)
    rng = np.random.default_rng(n)
    psi0 = WaveField(grid, rng.standard_normal(n) + 1j * rng.standard_normal(n))
    v = harmonic_potential(grid, 1.0, 1.1)
    dt = 0.003
    snaps = list(split_step_evolve(psi0, 1.0, v, NATURAL, TimeSpec(dt, 60), snapshot_every=25))
    half_kick = np.exp(-0.5j * v * dt)
    drift = np.exp(-1j * grid.wavenumbers ** 2 * dt / 2.0)
    psi = psi0.samples.copy()
    want = {0: psi.copy()}
    for step in range(1, 61):
        psi = half_kick * psi
        psi = np.fft.ifft(drift * np.fft.fft(psi))
        psi = half_kick * psi
        want[step] = psi
    assert [t for t, _ in snaps] == [0.0, 25 * dt, 50 * dt, 60 * dt]
    for (_, fld), step in zip(snaps, (0, 25, 50, 60)):
        assert np.array_equal(fld.samples, want[step])


@pytest.mark.parametrize("rows", [(), (1,), (2,), (8, 1), (4, 2)], ids=str)
def test_real_batch_energies_equal_the_public_formula(rows):
    # `_energies` of a real stack, shape rows + (N,), is that of all its rows
    # together, the public `energy_expectation` of each row weighted by its
    # squared norm, to the last bits
    grid = Grid1D(256, 20.0)
    v = harmonic_potential(grid, 1.0, 1.3)
    x = np.random.default_rng(7).standard_normal(rows + (256,))
    h, norm_sq = _energies(x, v, _kinetic_symbol(grid, 1.0, NATURAL), grid.spacing)
    fields = [WaveField(grid, row) for row in x.reshape(-1, 256)]
    norms = np.array([l2_norm(fld) ** 2 for fld in fields])
    energies = np.array([energy_expectation(fld, v, 1.0) for fld in fields])
    want = np.sum(energies * norms) / np.sum(norms)
    eps = np.finfo(float).eps
    assert abs(h / norm_sq - want) <= 64 * eps * want
    assert abs(norm_sq - np.sum(norms)) <= 64 * eps * norm_sq


def test_split_step_ground_state_is_stationary():
    problem = OscillatorProblem(1.0, 1.0)
    grid = Grid1D(256, 20.0)
    ground = imaginary_time_ground_state(problem, grid)
    v = harmonic_potential(grid, 1.0, 1.0)
    snaps = list(split_step_evolve(ground.psi, 1.0, v, NATURAL, TimeSpec(0.005, 400),
                                   snapshot_every=40))
    overlaps = [inner_product(ground.psi.samples, fld.samples, grid.spacing)
                for _, fld in snaps]
    assert min(abs(o) for o in overlaps) >= 1.0 - 1e-6
    phases = np.unwrap([np.angle(o) for o in overlaps])
    slope = np.polyfit([t for t, _ in snaps], phases, 1)[0]
    # accumulated phase ~ -E0 t / hbar with E0 = hbar omega_c / 2
    assert slope == pytest.approx(-0.5, abs=1e-5)


def test_split_step_order_two_against_coherent_oracle():
    grid = Grid1D(256, 20.0)
    v = harmonic_potential(grid, 1.0, 1.0)
    psi0 = WaveField(grid, coherent_state_oracle(grid, 1.0, 1.0, 1.0, 2.0, 10.0, 0.0))
    ref = WaveField(grid, coherent_state_oracle(grid, 1.0, 1.0, 1.0, 2.0, 10.0, 2.0))
    dts = [0.1, 0.05, 0.025, 0.0125]
    errs = []
    for dt in dts:
        time = TimeSpec(dt, int(round(2.0 / dt)))
        got = last_field(split_step_evolve(psi0, 1.0, v, NATURAL, time))
        errs.append(l2_norm(WaveField(grid, got.samples - ref.samples)))
    slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    assert abs(slope - 2.0) <= 0.15


@pytest.mark.parametrize("a", [0.0, 1.0])
def test_harmonic_snapshots_match_grid_exact_reference(a):
    # the exact trap propagator has no time error, so it stays on the grid
    # Hamiltonian's own evolution at any t (measured 2.2e-15 to 5.7e-12)
    grid = Grid1D(256, 20.0)
    psi0 = WaveField(grid, coherent_state_oracle(grid, 1.0, 1.0, 1.0, a, 10.0, 0.0))
    times = [0.0, 0.25, 2.0, np.pi, 10.0, 100.0]
    ref = grid_exact_evolution(grid.length, 1.0, harmonic_potential(grid, 1.0, 1.0, 10.0), 1.0,
                               psi0.samples, times)
    for (t, got), want in zip(_harmonic_snapshots(psi0, 1.0, 1.0, 10.0, 1.0, times), ref):
        assert np.max(np.abs(got.samples - want)) <= 1e-12 * max(1.0, t), t


_GROUP_LAW_CFG = {"wave_speed": 1.3, "mass": 1.0, "potential": "constant", "v0": 0.5,
                  "omega_c": 1.0, "x_c": -1.0}
GROUP_LAW_C = 8.0  # 800 draws read up to 2.94 (the trap at N = 65536)
# the library's rotation of (psi, psi_dot), on each second-order family's positive branch
_ROTATIONS = [f"rotation/{f}" for f in ("classical_wave", "electromagnetic", "klein_gordon")]


@st.composite
def group_law_case(draw):
    """(path, N, displacement A, decades below the phase budget's limit of a + b, ratio b / a,
    no power of two); the trap at A <= 2 only, on harmonic_ground.cfg's grid scaled with N,
    since a larger A reaches the box edge (ROADMAP item 9)."""
    path = draw(st.sampled_from([*cli._FAMILIES, "trap", *_ROTATIONS]))
    n = draw(st.sampled_from([256, 4096, 65536]))
    ratio = draw(st.floats(0.1, 10.0).filter(
        lambda r: abs(math.log2(r) - round(math.log2(r))) > 0.01))  # not 1, 2, 1/2, ...
    return (path, n, draw(st.floats(0.0, 2.0)), draw(st.floats(0.001, 15.0)), ratio)


@settings(max_examples=90, deadline=None, derandomize=True, database=None)
@given(case=group_law_case())
def test_exact_paths_obey_the_group_law_up_to_the_phase_budget(case):
    # every path `evolve` runs, and the rotation, is exact, so U(b) U(a) = U(a + b) up to
    # rounding: the gap stays within C eps (1 + W (a + b)), W the path's phase-budget weight
    path, n, shift, decades, ratio = case
    family = path.removeprefix("rotation/")
    if path == "trap":  # omega_c = 1, the matched packet displaced by A
        eq, trap = cli._FAMILIES["schrodinger_potential"](_GROUP_LAW_CFG), (1.0, None)
        length = {256: 20.0, 4096: 80.0, 65536: 320.0}[n]
        psi0 = gaussian_packet(GaussianPacketSpec(length / 2 + shift, 0.0, math.sqrt(0.5)),
                               Grid1D(n, length))
        w = 1.0
    else:  # dx = 1/4, as ROADMAP item 20's N = 256, L = 64 probe
        eq, trap = cli._FAMILIES[family](_GROUP_LAW_CFG), None
        psi0 = gaussian_packet(GaussianPacketSpec(n / 8.0, 1.0, 1.0), Grid1D(n, n / 4.0))
        power = np.abs(dft(psi0).mode_amplitudes) ** 2
        w = np.dot(power / power.sum(), np.abs(omega_of_k(eq, psi0.grid.wavenumbers, NATURAL)))

    def propagate(psi, t):
        (_, psi_t), = cli._propagate(eq, psi, NATURAL, [t], trap)
        return psi_t

    a = _PHASE_TOL / (sys.float_info.epsilon * w) * 10.0 ** -decades / (1.0 + ratio)
    b = ratio * a
    if family != path:  # (psi, psi_dot) through both legs
        gap = group_law_gap(lambda state, t: evolve_second_order_spectral(state, eq, NATURAL, t),
                            positive_branch_init(psi0, eq, NATURAL), a, b, lambda s: s.psi)
    else:
        gap = group_law_gap(propagate, psi0, a, b)
    assert gap <= GROUP_LAW_C * sys.float_info.epsilon * (1.0 + w * (a + b)), (gap, a, b)


LONG_DOUBLE = np.finfo(np.longdouble).eps <= 1e-18  # x87's; double on Windows, macOS arm64
TWIN_C = 4.0  # 72 cases read up to 1.47 (schrodinger_free at N = 65536, t = 0.5)


def test_long_double_twin_runs_on_linux_x86_64():
    # the twin's tests skip where long double is double, so where CI runs they must not
    if sys.platform.startswith("linux") and platform.machine() == "x86_64":
        assert LONG_DOUBLE


@pytest.mark.skipif(not LONG_DOUBLE, reason="long double is double here")
@pytest.mark.parametrize("n", [256, 4096, 65536])
@pytest.mark.parametrize("family, fast", [(f, False) for f in cli._FAMILIES]
                         + [("schrodinger_free", True)])
def test_phase_path_is_rounding_from_its_long_double_twin(family, fast, n):
    # the only error of the exact phase path is float64 rounding, measured against the
    # same formula in long double: the gap stays within C eps (1 + W t), W as the path's
    # phase budget forms it
    length = n / 16.0
    sigma, k0 = (min(2.0, length / 16.0), 20.0) if fast else (min(8.0, length / 16.0), 1.0)
    psi0 = gaussian_packet(GaussianPacketSpec(length / 2.0, k0, sigma), Grid1D(n, length))
    eq = cli._FAMILIES[family](_GROUP_LAW_CFG)
    omega = omega_of_k(eq, psi0.grid.wavenumbers, NATURAL)
    w = float(np.dot(_mode_power(dft(psi0).mode_amplitudes), np.abs(omega)))
    for t, got in cli._propagate(eq, psi0, NATURAL, [0.5, 10.0, 1e3, 1e5]):
        gap = got.samples - phase_twin(psi0.samples, omega, t)
        rel = float(np.sqrt(np.sum(np.abs(gap) ** 2) / np.sum(np.abs(psi0.samples) ** 2)))
        assert rel <= TWIN_C * sys.float_info.epsilon * (1.0 + w * t), (t, rel, w)


def test_split_step_order_two_against_grid_exact_reference():
    # the reference has no time error, so the fit sees Strang's alone
    grid = Grid1D(256, 20.0)
    v = harmonic_potential(grid, 1.0, 1.0)
    psi0 = WaveField(grid, coherent_state_oracle(grid, 1.0, 1.0, 1.0, 1.0, 10.0, 0.0))
    ref = grid_exact_evolution(grid.length, 1.0, v, 1.0, psi0.samples, [2.0])[0]
    dts = [0.1, 0.05, 0.025, 0.0125]
    errs = [np.max(np.abs(last_field(split_step_evolve(psi0, 1.0, v, NATURAL,
                                                       TimeSpec(dt, round(2.0 / dt))))
                          .samples - ref)) for dt in dts]
    assert np.polyfit(np.log(dts), np.log(errs), 1)[0] == pytest.approx(2.0, abs=0.05)


def test_crank_nicolson_unitarity_over_1000_steps():
    grid = Grid1D(128, 32.0)
    psi0 = gaussian_packet(GaussianPacketSpec(16.0, 1.0, 1.0), grid)
    norms = np.array([l2_norm(fld) for _, fld in crank_nicolson_evolve(
        psi0, 1.0, zero_potential(grid), NATURAL, TimeSpec(0.02, 1000), snapshot_every=1)])
    assert np.max(np.abs(np.diff(norms))) / norms[0] <= 1e-10


def test_crank_nicolson_tiny_step_is_near_identity():
    grid = Grid1D(128, 20.0)
    psi0 = gaussian_packet(GaussianPacketSpec(10.0, 1.0, 1.0), grid)
    got = last_field(crank_nicolson_evolve(psi0, 1.0, harmonic_potential(grid, 1.0, 1.0),
                                           NATURAL, TimeSpec(1e-8, 1)))
    assert l2_norm(WaveField(grid, got.samples - psi0.samples)) <= 1e-6


CN_DEFINITION_CASES = [(n, trap, dt, 1.0, 1.0) for n in (64, 128, 256) for trap in (False, True)
                       for dt in (1e-2, 1e-1, 1.0)]
CN_DEFINITION_CASES.append((128, False, 1e-3, 1e-170, 1e-300))  # hbar^2 underflowed: psi0 back


@pytest.mark.parametrize("n_points, trap, dt, hbar, m", CN_DEFINITION_CASES)
def test_crank_nicolson_step_satisfies_its_definition(n_points, trap, dt, hbar, m):
    # (I + zH) psi^1 = (I - zH) psi^0, z = i dt / 2 hbar, to rounding in the size of zH; at
    # hbar = 1e-170 the hop -hbar^2 / 2m dx^2 underflowed to -0.0 and the residual read 1.6e-2
    grid = Grid1D(n_points, 20.0)
    psi0 = gaussian_packet(GaussianPacketSpec(10.0, 1.0, 1.5), grid).samples
    v = harmonic_potential(grid, m, 1.0) if trap else zero_potential(grid)
    psi1 = last_field(crank_nicolson_evolve(WaveField(grid, psi0), m, v,
                                            PhysicalConstants(hbar=hbar), TimeSpec(dt, 1))).samples
    zh = 0.5j * dt * central_difference_hamiltonian(v, grid.spacing, m, hbar)
    residual = np.linalg.norm(psi1 + zh @ psi1 - (psi0 - zh @ psi0))
    scale = np.linalg.norm(psi0) * (1.0 + np.linalg.norm(zh, 2))
    assert residual <= 64 * np.finfo(float).eps * scale


@pytest.mark.parametrize("dt, n_steps, hbar, m", [(1e300, 1, 1.0, 1.0), (1e-3, 5, 1e-160, 1e-300)],
                         ids=["dt_1e300", "hbar_1e-160"])
def test_crank_nicolson_is_unitary_at_stiff_steps(dt, n_steps, hbar, m):
    # the sparse LU solve read norms 1.126 and 2.10 here
    grid = Grid1D(128, 20.0)
    psi0 = gaussian_packet(GaussianPacketSpec(10.0, 1.0, 1.0), grid)
    got = last_field(crank_nicolson_evolve(psi0, m, zero_potential(grid),
                                           PhysicalConstants(hbar=hbar), TimeSpec(dt, n_steps)))
    assert abs(l2_norm(got) - 1.0) <= 1e-13


def test_schemes_self_converge_at_order_two():
    # same harmonic scenario on a (dt, dx) halving ladder; the scheme-to-scheme
    # gap must start at/below 1e-3 and fall ~4x per halving
    diffs = []
    for n_points, dt in [(512, 0.01), (1024, 0.005)]:
        grid = Grid1D(n_points, 20.0)
        v = harmonic_potential(grid, 1.0, 1.0)
        psi0 = WaveField(grid, coherent_state_oracle(grid, 1.0, 1.0, 1.0, 1.0, 10.0, 0.0))
        time = TimeSpec(dt, int(round(2.0 / dt)))
        ss = last_field(split_step_evolve(psi0, 1.0, v, NATURAL, time))
        cn = last_field(crank_nicolson_evolve(psi0, 1.0, v, NATURAL, time))
        diffs.append(l2_norm(WaveField(grid, ss.samples - cn.samples)))
    assert diffs[0] <= 1e-3
    assert 3.5 <= diffs[0] / diffs[1] <= 4.5


# ---------------------------------------------------------------------------
# packets and moments
# ---------------------------------------------------------------------------

def test_gaussian_packet_symmetric_when_k0_zero():
    grid = Grid1D(128, 32.0)
    fld = gaussian_packet(GaussianPacketSpec(16.0, 0.0, 1.5), grid)
    assert np.max(np.abs(fld.samples.imag)) == 0.0
    left = fld.samples[1:64]
    right = fld.samples[65:][::-1]
    assert np.max(np.abs(left - right)) < 1e-12
    assert abs(centroid(fld) - 16.0) <= grid.spacing


def test_gaussian_packet_normalization_and_spectrum_peak():
    grid = Grid1D(256, 64.0)
    fld = gaussian_packet(GaussianPacketSpec(32.0, 1.5, 2.0), grid)
    assert l2_norm(fld) == pytest.approx(1.0, abs=1e-10)
    amps = dft_bruteforce(fld.samples)
    k_peak = grid.wavenumbers[int(np.argmax(np.abs(amps)))]
    dk = 2 * np.pi / grid.length
    assert abs(k_peak - 1.5) <= dk / 2 + 1e-12


def test_gaussian_packet_warns_when_underresolved_or_wide():
    # the wide half (sigma > L/8) went with its warning: `evolve` refuses a packet that
    # does not fit the box by its t = 0 line moments (exit 4)
    grid = Grid1D(64, 16.0)
    with pytest.warns(UserWarning, match="underresolved"):
        gaussian_packet(GaussianPacketSpec(8.0, 0.0, 0.5 * grid.spacing), grid)


def test_analytic_gaussian_reduces_to_packet_at_t0():
    grid = Grid1D(256, 64.0)
    spec = GaussianPacketSpec(32.0, 1.0, 2.0)
    a = gaussian_packet(spec, grid)
    b = analytic_free_gaussian(spec, grid, 1.0, NATURAL, 0.0)
    assert np.max(np.abs(a.samples - b.samples)) <= 1e-12


def test_analytic_gaussian_centroid_and_width_follow_closed_form():
    grid = Grid1D(512, 64.0)
    spec = GaussianPacketSpec(16.0, 1.0, 1.0)
    m, t = 1.0, 3.0
    fld = analytic_free_gaussian(spec, grid, m, NATURAL, t)
    mean, width = moment_mean_and_width(fld.samples, grid.positions)
    assert mean == pytest.approx(16.0 + t * 1.0 / m, abs=1e-6)
    want_width = spec.sigma * np.sqrt(1.0 + (t / (2 * m * spec.sigma ** 2)) ** 2)
    assert width == pytest.approx(want_width, rel=1e-3)


def test_centroid_and_width_against_moment_oracle():
    grid = Grid1D(256, 32.0)
    fld = gaussian_packet(GaussianPacketSpec(12.0, 0.5, 1.0), grid)  # sigma = 8 dx
    mean, width = moment_mean_and_width(fld.samples, grid.positions)
    assert centroid(fld) == pytest.approx(mean, abs=1e-9)
    assert packet_width(fld) == pytest.approx(width, rel=1e-9)
    assert abs(packet_width(fld) - 1.0) / 1.0 <= 0.02


def test_centroid_handles_wraparound():
    # roll a centered packet across the seam; the sampled formula itself
    # ignores periodic images, so the wrap must come from an index shift
    grid = Grid1D(128, 32.0)
    fld = gaussian_packet(GaussianPacketSpec(16.0, 0.0, 1.0), grid)
    wrapped = WaveField(grid, np.roll(fld.samples, -62))  # center 16.0 -> 0.5
    c = centroid(wrapped)
    assert min(abs(c - 0.5), abs(c - 0.5 - 32.0), abs(c - 0.5 + 32.0)) <= grid.spacing
    assert packet_width(wrapped) == pytest.approx(packet_width(fld), rel=1e-12)


def test_delta_field_centroid_and_zero_field_error():
    grid = Grid1D(64, 16.0)
    s = np.zeros(64)
    s[13] = 3.0
    fld = WaveField(grid, s)
    assert centroid(fld) == pytest.approx(13 * grid.spacing, abs=1e-12)
    with pytest.raises(ZeroField):
        centroid(WaveField(grid, np.zeros(64)))
    with pytest.raises(ZeroField):
        packet_width(WaveField(grid, np.zeros(64)))


def test_transport_matches_group_velocity():
    # narrowband packet: centroid velocity ~ d(omega)/dk at the carrier
    grid = Grid1D(512, 64.0)
    t = 8.0
    spec = GaussianPacketSpec(16.0, 2.0, 2.0)
    psi0 = gaussian_packet(spec, grid)

    free = evolve_schrodinger_spectral(psi0, 1.0, NATURAL, t)
    v_meas = (centroid(free) - centroid(psi0)) / t
    assert abs(v_meas - group_velocity(SchrodingerFree(1.0), 2.0)) <= 0.01 * 2.0

    consts = PhysicalConstants(1.0, 10.0)
    eq = KleinGordon(1.0)
    state = positive_branch_init(psi0, eq, consts)
    out = evolve_second_order_spectral(state, eq, consts, t)
    v_kg = (centroid(out.psi) - centroid(psi0)) / t
    v_want = group_velocity(eq, 2.0, consts)
    assert abs(v_kg - v_want) <= 0.01 * abs(v_want)
