import math
import signal
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavelab import (
    Grid1D,
    OscillatorProblem,
    PhysicalConstants,
    WaveField,
    energy_bound,
    harmonic_ground_exact,
    harmonic_potential,
    imaginary_time_ground_state,
    inner_product,
    l2_norm,
    minimize_bound_analytic,
    minimize_bound_numeric,
)
from wavelab import oscillator, propagate
from wavelab.exceptions import (
    GridTooCoarse,
    InvalidBracket,
    NoConvergence,
    NonPositiveDeltaX,
    NumericalFailure,
)
from wavelab.oscillator import _stopping_energies
from wavelab.propagate import _kinetic_symbol, energy_expectation

from oracles import grid_hamiltonian, imaginary_time_oracle, real_imaginary_time_oracle

UNIT = OscillatorProblem(1.0, 1.0)


def test_problem_validation():
    with pytest.raises(ValueError):
        OscillatorProblem(0.0, 1.0)
    with pytest.raises(ValueError):
        OscillatorProblem(1.0, -2.0)
    with pytest.raises(ValueError):
        OscillatorProblem(np.inf, 1.0)
    with pytest.raises(ValueError):
        OscillatorProblem(1.0, np.inf)


# ---------------------------------------------------------------------------
# the bound curve
# ---------------------------------------------------------------------------

def test_energy_bound_example_point():
    point = energy_bound(UNIT, 1.0)
    assert point.energy == pytest.approx(0.625, abs=1e-15)


def test_energy_bound_minimum_point():
    dx_star = math.sqrt(0.5)
    assert energy_bound(UNIT, dx_star).energy == pytest.approx(0.5, abs=1e-15)


def test_energy_bound_dual_width_symmetry():
    # the two terms swap under dx -> hbar / (2 m omega_c dx)
    for dx in (0.1, 0.33, 2.7):
        dual = 1.0 / (2.0 * dx)
        a = energy_bound(UNIT, dx).energy
        b = energy_bound(UNIT, dual).energy
        assert a == pytest.approx(b, rel=1e-12)


@pytest.mark.parametrize("problem, dx", [
    (UNIT, 1e300),                           # dx^2 overflows
    (OscillatorProblem(5e-324, 1.0), 0.05),  # 8 m dx^2 underflows to 0
], ids=["dx_overflow", "subnormal_mass"])
def test_energy_bound_overflow_is_numerical_failure(problem, dx):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalFailure, match="bound curve"):
            energy_bound(problem, dx)


def test_energy_bound_rejects_non_positive_width():
    with pytest.raises(NonPositiveDeltaX):
        energy_bound(UNIT, 0.0)
    with pytest.raises(NonPositiveDeltaX):
        energy_bound(UNIT, -1.0)


def test_bound_holds_on_200_log_spaced_widths():
    problem = OscillatorProblem(1.7, 0.6, PhysicalConstants(hbar=1.3))
    dx_star, e0 = minimize_bound_analytic(problem)
    for dx in np.geomspace(1e-3 * dx_star, 1e3 * dx_star, 200):
        assert energy_bound(problem, float(dx)).energy >= e0 - 1e-12


@settings(max_examples=50, deadline=None)
@given(
    m=st.floats(0.1, 10.0),
    omega_c=st.floats(0.1, 10.0),
    hbar=st.floats(0.1, 10.0),
    log_dx=st.floats(-2.0, 2.0),
)
def test_bound_property(m, omega_c, hbar, log_dx):
    problem = OscillatorProblem(m, omega_c, PhysicalConstants(hbar=hbar))
    dx = minimize_bound_analytic(problem).delta_x * 10.0 ** log_dx
    assert energy_bound(problem, dx).energy >= 0.5 * hbar * omega_c * (1.0 - 1e-12)


# ---------------------------------------------------------------------------
# minimization
# ---------------------------------------------------------------------------

def test_analytic_minimum_examples():
    dx_star, e0 = minimize_bound_analytic(UNIT)
    assert dx_star == pytest.approx(0.7071067811865476, rel=1e-15)
    assert e0 == 0.5
    assert minimize_bound_analytic(OscillatorProblem(1.0, 4.0)).energy == pytest.approx(2.0)
    heavy = minimize_bound_analytic(OscillatorProblem(4.0, 1.0))
    assert heavy.delta_x == pytest.approx(dx_star / 2.0, rel=1e-15)
    assert heavy.energy == pytest.approx(0.5)


def test_analytic_minimum_is_stationary():
    dx_star, _ = minimize_bound_analytic(UNIT)
    h = 1e-6
    deriv = (energy_bound(UNIT, dx_star + h).energy
             - energy_bound(UNIT, dx_star - h).energy) / (2 * h)
    assert abs(deriv) <= 1e-8


def test_golden_section_default_bracket():
    got = minimize_bound_numeric(UNIT, (0.1, 10.0), 1e-12)
    # the quadratic minimum is flat at the sqrt(eps) scale, so the width is
    # localized to ~1e-8 while the energy is already exact to ~1e-16
    assert got.delta_x == pytest.approx(0.7071067811865476, abs=1e-7)
    assert abs(got.energy - 0.5) <= 1e-10


def test_golden_section_energy_quadratic_in_tol():
    got = minimize_bound_numeric(UNIT, (0.1, 10.0), 1e-6)
    assert abs(got.energy - 0.5) <= 1e-11


def test_golden_section_bracket_excluding_minimum_hits_boundary():
    got = minimize_bound_numeric(UNIT, (2.0, 10.0), 1e-9)
    assert got.delta_x == pytest.approx(2.0, abs=1e-6)


def test_golden_section_tol_below_ulp_floor_returns():
    # hi - lo cannot shrink below ~1 ulp of the minimum, so a tolerance under
    # that used to loop forever; the alarm only detects a hang
    def hang(signum, frame):
        pytest.fail("minimize_bound_numeric did not return")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(60)
    try:
        for tol in (1e-16, 5e-324):
            got = minimize_bound_numeric(UNIT, (0.05, 20.0), tol)
            assert got.delta_x == pytest.approx(0.7071067811865476, abs=1e-7)
            assert got.energy == 0.5
        # dx* ~ 7e11: one ulp there (1.2e-4) dwarfs the default tolerance
        wide = OscillatorProblem(1e-12, 1e-12)
        dx_star, e0 = minimize_bound_analytic(wide)
        got = minimize_bound_numeric(wide, (1.0, 1e13), 1e-12)
        assert got.delta_x == pytest.approx(dx_star, rel=1e-7)
        assert got.energy == pytest.approx(e0, rel=1e-12)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_golden_section_rejects_bad_bracket():
    with pytest.raises(InvalidBracket):
        minimize_bound_numeric(UNIT, (5.0, 1.0), 1e-9)
    with pytest.raises(InvalidBracket):
        minimize_bound_numeric(UNIT, (-1.0, 1.0), 1e-9)


def test_golden_section_agrees_with_analytic_on_random_problems():
    rng = np.random.default_rng(20240810)
    for _ in range(20):
        m, omega_c, hbar = 10.0 ** rng.uniform(-1.0, 1.0, size=3)
        problem = OscillatorProblem(m, omega_c, PhysicalConstants(hbar=hbar))
        ana = minimize_bound_analytic(problem)
        tol = 1e-6
        num = minimize_bound_numeric(problem, (ana.delta_x / 50, ana.delta_x * 50), tol)
        assert abs(num.delta_x - ana.delta_x) <= tol
        assert abs(num.energy - ana.energy) / ana.energy <= 1e-10


def test_scaling_laws():
    rng = np.random.default_rng(5)
    for _ in range(10):
        m, omega_c, hbar = 10.0 ** rng.uniform(-1.0, 1.0, size=3)
        got = minimize_bound_analytic(OscillatorProblem(m, omega_c, PhysicalConstants(hbar=hbar)))
        assert got.energy == pytest.approx(0.5 * hbar * omega_c, rel=1e-12)
        assert got.delta_x == pytest.approx(math.sqrt(hbar / (2 * m * omega_c)), rel=1e-12)


# ---------------------------------------------------------------------------
# imaginary-time relaxation
# ---------------------------------------------------------------------------

def test_ground_state_energy_default_problem():
    grid = Grid1D(256, 20.0)
    got = imaginary_time_ground_state(UNIT, grid)
    assert abs(got.energy - 0.5) <= 5e-5
    assert l2_norm(got.psi) == pytest.approx(1.0, abs=1e-10)
    exact = harmonic_ground_exact(UNIT, grid)
    assert abs(inner_product(exact, got.psi)) >= 1.0 - 1e-6


def test_ground_state_energy_is_the_grid_ground_energy():
    # oscillator.cfg's grid and step: the relaxation lands on the lowest eigenvalue
    # of the grid Hamiltonian (measured 7.7e-13 from it, itself 7.6e-14 from
    # hbar omega / 2), so it converges to the grid's own ground state
    grid = Grid1D(256, 20.0)
    got = imaginary_time_ground_state(UNIT, grid, tau_step=0.02, max_iters=50000,
                                      energy_tol=1e-12)
    h = grid_hamiltonian(grid.length, 1.0, harmonic_potential(grid, 1.0, 1.0), 1.0)
    assert abs(got.energy - np.linalg.eigh(h)[0][0]) <= 1e-10


def test_ground_state_energy_scaled_frequency():
    problem = OscillatorProblem(1.0, 2.0)
    got = imaginary_time_ground_state(problem, Grid1D(256, 20.0))
    assert abs(got.energy - 1.0) <= 1e-4


def test_ground_state_attains_uncertainty_bound():
    problem = OscillatorProblem(2.0, 0.5)
    e0 = minimize_bound_analytic(problem).energy
    got = imaginary_time_ground_state(problem, Grid1D(256, 20.0))
    assert abs(got.energy - e0) / e0 <= 1e-4


def test_ground_state_from_random_start():
    grid = Grid1D(256, 20.0)
    rng = np.random.default_rng(11)
    noisy = WaveField(grid, rng.standard_normal(256) + 1j * rng.standard_normal(256))
    got = imaginary_time_ground_state(UNIT, grid, initial=noisy)
    assert abs(got.energy - 0.5) <= 5e-5


def test_grid_too_coarse_raises():
    with pytest.raises(GridTooCoarse):
        imaginary_time_ground_state(UNIT, Grid1D(8, 20.0))  # dx too big
    with pytest.raises(GridTooCoarse):
        imaginary_time_ground_state(UNIT, Grid1D(256, 5.0))  # box too small


@pytest.mark.parametrize("m, omega_c, width", [(1e-200, 1e-200, math.inf), (1e200, 1e200, 0.0)])
def test_trap_length_scale_never_raises(m, omega_c, width):
    # 2 m omega_c underflowing to 0 raised ZeroDivisionError; the relaxation takes
    # its ground width from the same dx* and refuses one of 0 or inf
    problem = OscillatorProblem(m, omega_c)
    assert minimize_bound_analytic(problem).delta_x == width
    with pytest.raises(NumericalFailure, match="ground width sqrt"):
        imaginary_time_ground_state(problem, Grid1D(64, 20.0))


def test_overflowing_start_state_is_a_numerical_failure():
    # (2 dx*)^2 = 4e308 raised OverflowError in Python floats
    with pytest.raises(NumericalFailure, match="start state has norm nan"):
        imaginary_time_ground_state(OscillatorProblem(0.5, 1e-308), Grid1D(256, 2e155))


def test_no_convergence_when_iteration_budget_tiny():
    with pytest.raises(NoConvergence):
        imaginary_time_ground_state(UNIT, Grid1D(256, 20.0), max_iters=3)


@pytest.mark.parametrize("key, value", [
    ("max_iters", 0), ("max_iters", -5), ("energy_tol", 0.0), ("energy_tol", -1.0),
])
def test_empty_budget_or_tolerance_is_refused(key, value):
    # max_iters < 1 raised NoConvergence "after 0 iterations"; energy_tol <= 0
    # can never be met, so the relaxation ran out its whole budget first
    with pytest.raises(ValueError, match=key):
        imaginary_time_ground_state(UNIT, Grid1D(256, 20.0), **{key: value})


# (n_points, length, omega_c, tau_step, energy_tol, random start); the package
# checks energies in batches of min(8, 8192 // n_points) iterates
RELAX_CASES = {
    # the shipped config: stops at iteration 253, the 5th of a batch of 8
    "shipped": (256, 20.0, 1.0, 0.02, 1e-12, False),
    # stops at iteration 145, the first of a batch: the previous energy comes
    # from the batch before
    "batch_start": (256, 20.0, 1.0, 0.05, 1e-11, False),
    # stops at iteration 152, the last of a batch of 8
    "batch_end": (256, 20.0, 1.0, 0.03, 1e-10, False),
    # batches of 4, from noise
    "noisy_start": (2048, 40.0, 2.0, 0.01, 1e-10, True),
    # the oscillator_relax benchmark's size: stops at iteration 2721, the
    # first of a batch of 8
    "benchmark": (1024, 40.0, 1.0, 0.002, 1e-12, False),
}


def _relax_both(case, oracle, max_iters=50000):
    n, length, omega_c, tau, tol, noisy = RELAX_CASES[case]
    start = None
    if noisy:
        rng = np.random.default_rng(3)
        start = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    want = oracle(n, length, 1.0, omega_c, 1.0, tau, tol, max_iters, start)
    grid = Grid1D(n, length)
    initial = None if start is None else WaveField(grid, start)
    return want, lambda iters: imaginary_time_ground_state(
        OscillatorProblem(1.0, omega_c), grid, tau_step=tau, max_iters=iters,
        energy_tol=tol, initial=initial)


@pytest.mark.parametrize("case", sorted(RELAX_CASES))
def test_batched_stopping_rule_equals_per_iteration_rule(case):
    # the oracle steps in the kernel's real arithmetic, so the bits must agree
    want, relax = _relax_both(case, real_imaginary_time_oracle)
    energy, psi, iterations = want
    got = relax(50000)
    assert got.energy == energy
    assert np.array_equal(got.psi.samples, psi)
    # the same iteration count: a budget of exactly that many steps suffices,
    # and one step fewer (not a multiple of the batch size) does not
    last = relax(iterations)
    assert last.energy == energy
    assert np.array_equal(last.psi.samples, psi)
    with pytest.raises(NoConvergence):
        relax(iterations - 1)


@pytest.mark.parametrize("case", sorted(RELAX_CASES))
def test_real_relaxation_tracks_the_complex_one(case):
    # against the complex per-step relaxation: the real stack drops only the
    # imaginary rounding noise, so it stops at the same iteration, nearly
    # bit for bit
    want, relax = _relax_both(case, imaginary_time_oracle)
    energy, psi, iterations = want
    got = relax(iterations)
    assert abs(got.energy - energy) <= 1e-12
    assert np.max(np.abs(got.psi.samples - psi)) <= 1e-13
    with pytest.raises(NoConvergence):
        relax(iterations - 1)


# ground width 1: a 64-point grid of length 16 is the coarsest the relaxation accepts
_CHECK_TRAP = OscillatorProblem(1.0, 0.5)


def _trap_check(n, shape):
    grid = Grid1D(n, 16.0)
    v = harmonic_potential(grid, 1.0, 0.5)
    return grid, v, _stopping_energies(v, _kinetic_symbol(grid, 1.0, PhysicalConstants()), shape)


@pytest.mark.parametrize("n", [64, 1024])
@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("b", [1, 3, 8])
def test_stopping_energy_of_a_state_is_the_same_in_any_batch(b, r, n):
    # relax(iterations) == relax(50000) needs this: the stop's batch is cut short
    # there, so the stopping state's energy must not depend on its neighbours
    _, _, energies = _trap_check(n, (b, r, n))
    stack = np.random.default_rng(b * r * n).standard_normal((b, r, n))
    got = energies(stack)
    _, _, alone = _trap_check(n, (1, r, n))
    assert got == [alone(stack[i:i + 1])[0] for i in range(b)]
    assert got == [energies(stack[i:i + 1])[0] for i in range(b)]
    assert got[:2] == energies(stack[:2])


def _as_field(grid, rows):
    return WaveField(grid, rows[0] + 1j * rows[1] if len(rows) == 2 else rows[0])


@pytest.mark.parametrize("n", [64, 1024])
@pytest.mark.parametrize("r", [1, 2])
def test_stopping_energies_within_64_ulps_of_the_energy_expectation(r, n):
    # Re^2 + Im^2 and numpy's reductions in place of |a|^2 and np.sum: the
    # stopping energies may move in the last bits only
    grid, v, energies = _trap_check(n, (3, r, n))
    states = np.random.default_rng(r * n).standard_normal((3, r, n))
    relaxed = imaginary_time_ground_state(_CHECK_TRAP, grid, initial=_as_field(grid, states[0]))
    states[2] = np.stack([relaxed.psi.samples.real, relaxed.psi.samples.imag][:r])
    for rows, energy in zip(states, energies(states)):
        want = energy_expectation(_as_field(grid, rows), v, 1.0)
        assert abs(energy - want) <= 64 * np.finfo(float).eps * abs(want)


def test_relaxation_transform_count(monkeypatch):
    # the shipped config stops at iteration 253, so 32 batches of 8 steps run:
    # each step transforms forward and back, and each batch forward once more
    calls = {"forward": 0, "inverse": 0}
    forward, inverse = propagate._real_kernels()

    def counted(kernel, name):
        def call(*args, **kwargs):
            calls[name] += 1
            return kernel(*args, **kwargs)
        return call

    def kernels():
        return counted(forward, "forward"), counted(inverse, "inverse")

    monkeypatch.setattr(propagate, "_real_kernels", kernels)
    monkeypatch.setattr(oscillator, "_real_kernels", kernels)
    imaginary_time_ground_state(UNIT, Grid1D(256, 20.0))
    assert calls == {"forward": 288, "inverse": 256}


def test_real_start_relaxes_to_a_real_state():
    got = imaginary_time_ground_state(UNIT, Grid1D(256, 20.0))
    assert np.all(got.psi.samples.imag == 0.0)


@pytest.mark.parametrize("theta", [0.3, 1.0, 2.5, -2.0])
def test_complex_start_relaxes_as_its_real_and_imaginary_parts(theta):
    # e^{i theta} g relaxes as two real rows, cos(theta) g and sin(theta) g,
    # under one shared norm: the result is e^{i theta} times g's
    grid = Grid1D(256, 20.0)
    g = np.random.default_rng(5).standard_normal(256)
    phase = np.exp(1j * theta)
    base = imaginary_time_ground_state(UNIT, grid, initial=WaveField(grid, g))
    got = imaginary_time_ground_state(UNIT, grid, initial=WaveField(grid, phase * g))
    assert np.max(np.abs(got.psi.samples - phase * base.psi.samples)) <= 1e-14
    assert abs(got.energy - base.energy) <= 1e-15


@pytest.mark.parametrize("tau_step", [1.0, 5.0, 1e300])
def test_frozen_wrong_state_is_refused(tau_step):
    # a large step stops changing long before it is an eigenstate
    with pytest.raises(NoConvergence, match="energy spread"):
        imaginary_time_ground_state(UNIT, Grid1D(256, 20.0), tau_step=tau_step)


def test_coarse_but_valid_step_is_accepted():
    # sigma / E is 7e-3 here, under the 1e-2 acceptance bound
    got = imaginary_time_ground_state(UNIT, Grid1D(256, 20.0), tau_step=0.2)
    assert abs(got.energy - 0.5) <= 5e-5


def test_state_wiped_out_by_the_kick_is_a_numerical_failure():
    # a start on the box edge, where the half kick of a huge step underflows to 0
    grid = Grid1D(256, 20.0)
    start = np.zeros(256, dtype=complex)
    start[0] = 1.0
    with pytest.raises(NumericalFailure):
        imaginary_time_ground_state(UNIT, grid, tau_step=1e300,
                                    initial=WaveField(grid, start))
