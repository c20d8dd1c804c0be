import math
import re
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
    harmonic_potential,
    imaginary_time_ground_state,
    l2_norm,
    minimize_bound_analytic,
    minimize_bound_numeric,
)
from wavelab import oscillator
from wavelab.exceptions import (
    GridTooCoarse,
    InvalidBracket,
    NoConvergence,
    NonPositiveDeltaX,
    NumericalFailure,
)
from wavelab.propagate import _energies, _kinetic_symbol, energy_expectation

from oracles import (
    bound_energy_per_call,
    golden_section_per_call,
    grid_hamiltonian,
    grid_imaginary_time_evolution,
    harmonic_ground_exact,
    imaginary_time_oracle,
    inner_product,
    relaxation_energy_every_step,
)

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


@pytest.mark.parametrize("problem, dx, e", [
    (UNIT, 1e300, "inf"),                           # dx^2 overflows
    (OscillatorProblem(5e-324, 1.0), 0.05, "inf"),  # 8 m dx^2 underflows to 0
    # hbar / 8m and dx^2 both underflow to 0: 0 / 0
    (OscillatorProblem(1e300, 1.0, PhysicalConstants(hbar=1e-300)), 1e-200, "nan"),
], ids=["dx_overflow", "subnormal_mass", "zero_over_zero"])
def test_energy_bound_overflow_is_numerical_failure(problem, dx, e):
    # the curve's constants are converted once per search: its refusal names E and dx as
    # each call's own conversion did, in energy_bound and in the search (whose first
    # probe is lo)
    message = f"bound curve E(dx) = {e} at dx = {dx!r}"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (energy_bound, bound_energy_per_call,
                     lambda p, d: minimize_bound_numeric(p, (d, 2.0 * d), 1e300)):
            with pytest.raises(NumericalFailure, match=f"^{re.escape(message)}$"):
                call(problem, dx)


@pytest.mark.parametrize("dx", [1.507312435950805, 2.780227525271408, 13.929142875532719,
                                14.030786776585998])
def test_energy_bound_squares_by_pow(dx):
    # near-tie squares: glibc's pow (numpy's scalar **) and dx * dx differ in the last bit
    # here, and so does E(dx); the curve keeps the per-call pow's bits
    assert energy_bound(UNIT, dx).energy == bound_energy_per_call(UNIT, dx)


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


# (m, omega_c, hbar, bracket, tol) at the float range's edges
GOLDEN_EDGES = {
    "shipped": (1.0, 1.0, 1.0, (0.05, 20.0), 1e-12),
    "mass_1e300": (1e300, 1.0, 1.0, (1e-160, 1e-140), 1e-165),
    "mass_1e-300": (1e-300, 1.0, 1.0, (1e140, 1e160), 1e135),
    "mass_1e300_slow": (1e300, 1e-300, 1.0, (0.1, 10.0), 1e-12),
    "mass_1e-300_fast": (1e-300, 1e300, 1.0, (0.1, 10.0), 1e-12),
    "hbar_1e-300": (1e300, 1.0, 1e-300, (1e-310, 1e-290), 1e-320),
    "omega_c_squared_underflow": (1.0, 1e-200, 1.0, (1e99, 1e101), 1e86),
    "subnormal_mass": (5e-324, 1.0, 1.0, (1e-2, 1e2), 1e-12),  # E = inf: refused
}


def _search_outcome(search, problem, bracket, tol):
    """The search's (delta_x, energy), or its NumericalFailure's text."""
    try:
        return tuple(search(problem, bracket, tol))
    except NumericalFailure as exc:
        return str(exc)


def _assert_golden_section_bits(m, omega_c, hbar, bracket, tol):
    problem = OscillatorProblem(m, omega_c, PhysicalConstants(hbar=hbar))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _search_outcome(minimize_bound_numeric, problem, bracket, tol)
    assert got == _search_outcome(golden_section_per_call, problem, bracket, tol)


@pytest.mark.parametrize("case", sorted(GOLDEN_EDGES))
def test_golden_section_has_the_per_call_bits(case):
    # the curve's constants are converted once per search, under one errstate: every
    # probe, the result and any refusal are those of one energy_bound per probe
    _assert_golden_section_bits(*GOLDEN_EDGES[case])


def test_golden_section_has_the_per_call_bits_on_random_problems():
    rng = np.random.default_rng(32)
    for _ in range(200):
        m, omega_c, hbar = 10.0 ** rng.uniform(-90.0, 90.0, size=3)
        dx_star = math.sqrt(hbar / (2.0 * m * omega_c))
        lo, hi = dx_star * 10.0 ** rng.uniform(-3.0, 0.5), dx_star * 10.0 ** rng.uniform(0.5, 3.0)
        _assert_golden_section_bits(m, omega_c, hbar, (lo, hi),
                                    dx_star * 10.0 ** rng.uniform(-16.0, -2.0))


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
    exact = harmonic_ground_exact(grid, 1.0, 1.0, 1.0)
    assert abs(inner_product(exact, got.psi.samples, grid.spacing)) >= 1.0 - 1e-6


def test_ground_state_energy_is_the_grid_ground_energy():
    # oscillator.cfg's grid and step: the relaxation lands on the lowest eigenvalue
    # of the grid Hamiltonian (measured 7.6e-14 from it, itself 7.6e-14 below
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


# (n_points, length, omega_c) of boxes small enough for the dense grid Hamiltonian
DENSE_GRIDS = {
    # the smallest box the relaxation accepts, L = 16 dx*: the ground state's amplitude
    # at the box edge is e^-16 ~ 1e-7, so the grid's ground vector and the exact
    # step's fixed point differ there by ~1e-7 (measured 8.6e-8); E by 6.4e-13
    "minimal": (64, 16.0, 0.5),
    "narrow": (128, 16.0, 2.0),
    "slow": (128, 24.0, 0.7),
    "shipped": (256, 20.0, 1.0),
    "fast": (256, 20.0, 3.0),
    "wide": (256, 40.0, 0.25),
}
# omega_c tau_step of the first step: doubling from well below phi_max, or capped at once
FIRST_PHIS = (0.002, 0.5, 5.0, 1e300)


def _start(grid, omega_c, kind):
    """The samples of a start: the default Gaussian, complex noise, or a displaced Gaussian."""
    x, center = grid.positions, grid.length / 2.0
    if kind == "default":  # what the relaxation builds when given no start
        return np.exp(-((x - center) ** 2) / (4.0 * (2.0 * math.sqrt(0.5 / omega_c)) ** 2))
    if kind == "noisy":
        rng = np.random.default_rng(grid.n_points)
        return rng.standard_normal(grid.n_points) + 1j * rng.standard_normal(grid.n_points)
    return np.exp(-((x - center - 1.0) ** 2))


def _relax_against_dense(case, kind, energy_tol):
    """[(relaxed, dense ground energy, dense ground vector)] for each of FIRST_PHIS."""
    n, length, omega_c = DENSE_GRIDS[case]
    grid = Grid1D(n, length)
    start = _start(grid, omega_c, kind)
    # e^-80 of the first excited component is left: the grid's ground vector to rounding
    e0, ground = grid_imaginary_time_evolution(
        length, 1.0, harmonic_potential(grid, 1.0, omega_c), 1.0, start, 80.0 / omega_c)
    initial = None if kind == "default" else WaveField(grid, start)
    return [(imaginary_time_ground_state(OscillatorProblem(1.0, omega_c), grid,
                                         tau_step=phi / omega_c, energy_tol=energy_tol,
                                         initial=initial), e0, ground)
            for phi in FIRST_PHIS]


@pytest.mark.parametrize("kind", ["default", "noisy", "displaced"])
@pytest.mark.parametrize("case", sorted(DENSE_GRIDS))
def test_relaxed_energy_is_the_dense_grid_ground_energy(case, kind):
    # each step is exact, so no step size biases the fixed point: E lands on the
    # lowest eigenvalue of the grid Hamiltonian from any start and any first step
    for got, e0, _ in _relax_against_dense(case, kind, 1e-12):
        assert abs(got.energy - e0) <= 1e-12


@pytest.mark.parametrize("kind", ["default", "noisy", "displaced"])
@pytest.mark.parametrize("case", sorted(set(DENSE_GRIDS) - {"minimal"}))
def test_relaxed_state_is_the_dense_grid_ground_vector(case, kind):
    # the state's error is about sqrt(E - E0), so energy_tol = 1e-14 (measured at most
    # 2.3e-9 here; 2.9e-8 at the default 1e-12)
    for got, _, ground in _relax_against_dense(case, kind, 1e-14):
        samples = got.psi.samples * math.sqrt(got.psi.grid.spacing)
        overlap = np.vdot(ground, samples)
        assert np.max(np.abs(samples - overlap / abs(overlap) * ground)) <= 1e-8


def _assert_every_step_bits(problem, grid, tau_step, initial):
    got = imaginary_time_ground_state(problem, grid, tau_step=tau_step, initial=initial)
    want = relaxation_energy_every_step(problem, grid, tau_step, initial=initial)
    assert got.energy == want.energy
    assert np.array_equal(got.psi.samples, want.psi.samples)


@pytest.mark.parametrize("kind", ["default", "noisy", "displaced"])
@pytest.mark.parametrize("case", sorted(DENSE_GRIDS))
def test_relaxation_has_the_every_step_energy_bits(case, kind):
    # <H> is taken only at phi_max, the norm alone below it, and the step at phi_max is
    # built once: the energy and samples are still those of the loop that took <H>
    # after every step and built every step, bit for bit
    n, length, omega_c = DENSE_GRIDS[case]
    grid = Grid1D(n, length)
    initial = None if kind == "default" else WaveField(grid, _start(grid, omega_c, kind))
    for phi in FIRST_PHIS:
        _assert_every_step_bits(OscillatorProblem(1.0, omega_c), grid, phi / omega_c, initial)


@pytest.mark.parametrize("seed", range(4))
def test_relaxation_has_the_every_step_energy_bits_from_random_starts(seed):
    rng = np.random.default_rng(seed)
    grid = Grid1D(256, 20.0)
    start = rng.standard_normal(256) + (1j * rng.standard_normal(256) if seed % 2 else 0.0)
    _assert_every_step_bits(UNIT, grid, 10.0 ** rng.uniform(-3.0, 0.0), WaveField(grid, start))


@pytest.mark.parametrize("n, length, omega_c, tau_step", [
    (256, 20.0, 1.0, 0.02),  # oscillator.cfg
    (1024, 40.0, 1.05, 0.002 / 1.05),  # the oscillator_relax benchmark at one seed
])
def test_relaxation_has_the_every_step_energy_bits_on_shipped_problems(n, length, omega_c,
                                                                        tau_step):
    _assert_every_step_bits(OscillatorProblem(1.0, omega_c), Grid1D(n, length), tau_step, None)


def _odd_noise(grid):
    """Complex noise odd about the trap's center L/2: psi(L/2 + x) = -psi(L/2 - x)."""
    n = grid.n_points
    rng = np.random.default_rng(17)
    noise = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    j = np.arange(1, n // 2)
    odd = np.zeros(n, dtype=complex)
    odd[n // 2 + j], odd[n // 2 - j] = noise[j], -noise[j]
    return odd


@pytest.mark.parametrize("kind", ["odd", "second", "odd_noise"])
def test_start_with_no_ground_component_relaxes_to_the_ground_state(kind):
    # the odd start returned 1.5000000000000002 and the even second state
    # 2.499999999999906: eigenstates that pass the spread guard.  The ground state is
    # nodeless, so a stopped state with a node restarts from |psi|
    grid = Grid1D(256, 20.0)
    x = grid.positions - 10.0
    start = {"odd": x * np.exp(-x ** 2), "second": (2.0 * x ** 2 - 1.0) * np.exp(-x ** 2 / 2.0),
             "odd_noise": _odd_noise(grid)}[kind]
    got = imaginary_time_ground_state(UNIT, grid, initial=WaveField(grid, start))
    assert abs(got.energy - 0.5) <= 64 * np.finfo(float).eps * 0.5
    samples = got.psi.samples
    assert abs(np.sum(samples)) >= (1.0 - 1e-6) * np.sum(np.abs(samples))


def test_restart_counts_toward_the_iteration_budget(monkeypatch):
    # the odd start stops on the odd state, restarts, and stops again: one step fewer
    # than all of them is refused
    steps = _counted_steps(monkeypatch)
    grid = Grid1D(256, 20.0)
    x = grid.positions - 10.0
    odd = WaveField(grid, x * np.exp(-x ** 2))
    imaginary_time_ground_state(UNIT, grid, initial=odd)
    with pytest.raises(NoConvergence, match=f"after {len(steps) - 1} iterations"):
        imaginary_time_ground_state(UNIT, grid, max_iters=len(steps) - 1, initial=odd)


@pytest.mark.parametrize("n, length, omega_c", [
    (256, 20.0, 1.0), (256, 20.0, 2.0), (512, 40.0, 1.0), (1024, 40.0, 0.9),
    (1024, 40.0, 1.1), (2048, 40.0, 2.0), (2048, 80.0, 0.5),
])
def test_relaxed_energy_is_the_bound_to_rounding(n, length, omega_c):
    # on a box that holds the ground state, E reads hbar omega_c / 2 to rounding
    # (the worst measured 13 eps hbar omega_c / 2, from noise on N = 256)
    grid = Grid1D(n, length)
    problem = OscillatorProblem(1.0, omega_c)
    noisy = WaveField(grid, _start(grid, omega_c, "noisy"))
    for phi in (0.002, 1.0, 5.0):
        for initial in (None, noisy):
            got = imaginary_time_ground_state(problem, grid, tau_step=phi / omega_c,
                                              initial=initial)
            assert abs(got.energy - 0.5 * omega_c) <= 64 * np.finfo(float).eps * 0.5 * omega_c


# (n_points, length, omega_c, tau_step, energy_tol, random start); the names are those
# of the batches of 8 Strang steps that the relaxation once checked its energy in
RELAX_CASES = {
    # the shipped config: stops at iteration 10
    "shipped": (256, 20.0, 1.0, 0.02, 1e-12, False),
    # a larger first step and a looser tolerance: stops at iteration 9
    "batch_start": (256, 20.0, 1.0, 0.05, 1e-11, False),
    "batch_end": (256, 20.0, 1.0, 0.03, 1e-10, False),
    # a complex start from noise: stops at iteration 11
    "noisy_start": (2048, 40.0, 2.0, 0.01, 1e-10, True),
    # the oscillator_relax benchmark's size: stops at iteration 13
    "benchmark": (1024, 40.0, 1.0, 0.002, 1e-12, False),
}


@pytest.mark.parametrize("case", sorted(RELAX_CASES))
def test_real_relaxation_tracks_the_complex_one(case):
    # against the same exact steps written out in plain numpy, checked every step: the
    # relaxation stops at the same iteration, nearly bit for bit, and a real start
    # drops only the imaginary rounding noise
    n, length, omega_c, tau, tol, noisy = RELAX_CASES[case]
    start = None
    if noisy:
        rng = np.random.default_rng(3)
        start = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    energy, psi, iterations = imaginary_time_oracle(n, length, 1.0, omega_c, 1.0, tau, tol,
                                                    50000, start)
    grid = Grid1D(n, length)
    initial = None if start is None else WaveField(grid, start)

    def relax(iters):
        return imaginary_time_ground_state(OscillatorProblem(1.0, omega_c), grid,
                                           tau_step=tau, max_iters=iters, energy_tol=tol,
                                           initial=initial)
    got = relax(iterations)
    assert abs(got.energy - energy) <= 1e-12
    assert np.max(np.abs(got.psi.samples - psi)) <= 1e-13
    with pytest.raises(NoConvergence):
        relax(iterations - 1)


def _counted_steps(monkeypatch):
    """A list that each relaxation step appends to: `oscillator._strang` wrapped."""
    steps, build = [], oscillator._strang

    def counted(*args, **kwargs):
        step = build(*args, **kwargs)

        def call(psi, out):
            steps.append(args[4])  # the step size sinh(phi) / omega_c
            return step(psi, out)
        return call

    monkeypatch.setattr(oscillator, "_strang", counted)
    return steps


def test_iteration_count_does_not_grow_with_n(monkeypatch):
    # oscillator_relax's omega_c tau = 0.002 took 2,721 Strang steps at N = 1024; doubling,
    # step 12 is the first at phi_max = asinh((L / dx*)^2 / 128), whatever N is
    steps = _counted_steps(monkeypatch)
    counts = []
    for n in (256, 1024, 4096):
        steps.clear()
        imaginary_time_ground_state(UNIT, Grid1D(n, 40.0), tau_step=0.002)
        counts.append(len(steps))
    assert counts[0] <= 16 and counts == [counts[0]] * 3


def test_steps_double_up_to_the_wrap_cap(monkeypatch):
    # phi = omega_c tau doubles from omega_c tau_step; iterate j is the exact relaxation
    # at (2^j - 1) tau_step until the drift's width reaches L/8; the energies of two
    # steps at that cap are compared
    steps = _counted_steps(monkeypatch)
    omega_c, tau = 2.0, 0.01
    grid = Grid1D(256, 20.0)
    imaginary_time_ground_state(OscillatorProblem(1.0, omega_c), grid, tau_step=tau)
    phi_max = math.asinh(grid.length ** 2 * 2.0 * omega_c / 128.0)  # dx*^2 = 1 / (2 omega_c)
    phis = [min(omega_c * tau * 2.0 ** j, phi_max) for j in range(len(steps))]
    assert steps == [math.sinh(phi) / omega_c for phi in phis]
    assert phis[-2:] == [phi_max] * 2


@pytest.mark.parametrize("n", [64, 1024])
@pytest.mark.parametrize("r", [1, 2])
def test_stopping_energies_within_64_ulps_of_the_energy_expectation(r, n):
    # H is real, so `_energies` of the real rows Re and Im is the energy of Re + i Im:
    # it may move from `energy_expectation`'s in the last bits only, on random and on
    # relaxed states
    problem = OscillatorProblem(1.0, 0.5)  # ground width 1: the coarsest box at N = 64
    grid = Grid1D(n, 16.0)
    v = harmonic_potential(grid, 1.0, 0.5)
    symbol = _kinetic_symbol(grid, 1.0, PhysicalConstants())
    states = np.random.default_rng(r * n).standard_normal((3, r, n))
    relaxed = imaginary_time_ground_state(problem, grid, initial=_as_field(grid, states[0]))
    states[2] = np.stack([relaxed.psi.samples.real, relaxed.psi.samples.imag][:r])
    for rows in states:
        h, norm_sq = _energies(rows, v, symbol, grid.spacing)
        want = energy_expectation(_as_field(grid, rows), v, 1.0)
        assert abs(h / norm_sq - want) <= 64 * np.finfo(float).eps * abs(want)


def _as_field(grid, rows):
    return WaveField(grid, rows[0] + 1j * rows[1] if len(rows) == 2 else rows[0])


def test_relaxation_transform_count(monkeypatch):
    # oscillator.cfg's problem stops after 10 exact steps: each step transforms forward
    # and back by the public fft and ifft, and only the 3 steps at phi_max, where the loop
    # can stop, take their energy by one more fft; the stopped state's energy and spread
    # take 2 fft and 1 ifft
    calls = {"fft": 0, "ifft": 0}

    def counted(transform, name):
        def call(*args, **kwargs):
            calls[name] += 1
            return transform(*args, **kwargs)
        return call

    monkeypatch.setattr(np.fft, "fft", counted(np.fft.fft, "fft"))
    monkeypatch.setattr(np.fft, "ifft", counted(np.fft.ifft, "ifft"))
    imaginary_time_ground_state(UNIT, Grid1D(256, 20.0))
    assert calls == {"fft": 15, "ifft": 11}


def test_real_start_relaxes_to_a_real_state():
    got = imaginary_time_ground_state(UNIT, Grid1D(256, 20.0))
    assert np.all(got.psi.samples.imag == 0.0)


@pytest.mark.parametrize("theta", [0.3, 1.0, 2.5, -2.0])
def test_complex_start_relaxes_as_its_real_and_imaginary_parts(theta):
    # the step is linear with real factors, so e^{i theta} g relaxes as
    # e^{i theta} times g's result
    grid = Grid1D(256, 20.0)
    g = np.random.default_rng(5).standard_normal(256)
    phase = np.exp(1j * theta)
    base = imaginary_time_ground_state(UNIT, grid, initial=WaveField(grid, g))
    got = imaginary_time_ground_state(UNIT, grid, initial=WaveField(grid, phase * g))
    assert np.max(np.abs(got.psi.samples - phase * base.psi.samples)) <= 1e-14
    assert abs(got.energy - base.energy) <= 1e-15


@pytest.mark.parametrize("tau_step", [1.0, 5.0, 1e300, 5e-324, 1e-9])
def test_any_first_step_relaxes_to_the_bound(tau_step):
    # a Strang step of 1, 5 or 1e300 froze a wrong state (NoConvergence "energy spread"),
    # 5e-324 stopped at once with that refusal, and 1e-9 ran out its 50,000 iterations;
    # an exact step is capped at phi_max and doubles up to it from any size
    got = imaginary_time_ground_state(UNIT, Grid1D(256, 20.0), tau_step=tau_step)
    assert abs(got.energy - 0.5) <= 64 * np.finfo(float).eps * 0.5


def _plain_strang(monkeypatch, tau_step):
    """Relax UNIT's trap by plain imaginary-time Strang steps of size tau_step."""
    build = oscillator._strang

    def plain(v, grid, m, hbar, dt, unit):
        return build(harmonic_potential(grid, m, 1.0), grid, m, hbar, tau_step, unit)

    monkeypatch.setattr(oscillator, "_strang", plain)


@pytest.mark.parametrize("tau_step", [1.0, 5.0, 1e300])
def test_frozen_wrong_state_is_refused(monkeypatch, tau_step):
    # a plain Strang step this large stops changing long before it is an
    # eigenstate; the spread guard refuses the state it freezes
    _plain_strang(monkeypatch, tau_step)
    with pytest.raises(NoConvergence, match="energy spread"):
        imaginary_time_ground_state(UNIT, Grid1D(256, 20.0), tau_step=tau_step)


def test_first_step_that_underflows_starts_at_the_least_subnormal():
    # omega_c tau_step = 1e-330 rounds to 0, and a step of phi = 0 never moves
    problem = OscillatorProblem(1e300, 1e-300)  # dx* = sqrt(1/2), hbar omega_c / 2 = 5e-301
    got = imaginary_time_ground_state(problem, Grid1D(256, 20.0), tau_step=1e-30)
    assert abs(got.energy - 5e-301) <= 64 * np.finfo(float).eps * 5e-301


def test_a_state_that_is_no_eigenstate_is_refused():
    # the spread guard: the default start, a Gaussian twice as wide as the ground state
    grid = Grid1D(256, 20.0)
    v = harmonic_potential(grid, 1.0, 1.0)
    start = np.exp(-((grid.positions - 10.0) ** 2) / 8.0)
    with pytest.raises(NoConvergence, match="energy spread"):
        oscillator._accept(UNIT, grid, v, _kinetic_symbol(grid, 1.0, PhysicalConstants()),
                           start / l2_norm(WaveField(grid, start)))


def test_coarse_but_valid_step_is_accepted():
    got = imaginary_time_ground_state(UNIT, Grid1D(256, 20.0), tau_step=0.2)
    assert abs(got.energy - 0.5) <= 5e-5


def test_state_wiped_out_by_the_kick_is_a_numerical_failure():
    # a start on the edge of a box of ~1,000 ground widths, where even the half kick
    # at phi_max (tanh(phi_max / 2) ~ 1) underflows to 0
    grid = Grid1D(4096, 707.0)
    start = np.zeros(4096, dtype=complex)
    start[0] = 1.0
    with pytest.raises(NumericalFailure, match="state lost at iteration 1"):
        imaginary_time_ground_state(UNIT, grid, tau_step=1e300,
                                    initial=WaveField(grid, start))
