import math
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavelab import (
    ClassicalWave,
    GaussianPacketSpec,
    Grid1D,
    KleinGordon,
    OscillatorProblem,
    PhysicalConstants,
    PlaneWaveMode,
    SchrodingerFree,
    SchrodingerPotential,
    SecondOrderState,
    SpectralField,
    TimeSpec,
    WaveField,
    analytic_free_gaussian,
    crank_nicolson_evolve,
    dft,
    dominance_terms_mode,
    energy_bound,
    energy_expectation,
    evolve_schrodinger_spectral,
    evolve_second_order_spectral,
    gaussian_packet,
    harmonic_potential,
    idft,
    imaginary_time_ground_state,
    l2_norm,
    minimize_bound_numeric,
    nr_expansion_error,
    nr_limit_report,
    omega_of_k,
    planewave_sample,
    positive_branch_init,
    split_step_evolve,
)
import wavelab
from wavelab import cli, core, exceptions, propagate
from wavelab.exceptions import (
    ConfigError,
    GridTooCoarse,
    InvalidBracket,
    NonPositiveDeltaX,
    NumericalFailure,
    WaveLabError,
)

from oracles import dft_bruteforce, idft_bruteforce


def random_field(grid, seed):
    rng = np.random.default_rng(seed)
    return WaveField(grid, rng.standard_normal(grid.n_points)
                     + 1j * rng.standard_normal(grid.n_points))


# ---------------------------------------------------------------------------
# type invariants
# ---------------------------------------------------------------------------

def test_constants_require_positive_values():
    with pytest.raises(ValueError):
        PhysicalConstants(hbar=0.0)
    with pytest.raises(ValueError):
        PhysicalConstants(c=-1.0)
    with pytest.raises(ValueError):
        PhysicalConstants(hbar=np.inf)
    with pytest.raises(ValueError):
        PhysicalConstants(c=np.inf)


@pytest.mark.parametrize("n", [0, 4, 7, 12, 100])
def test_grid_rejects_non_power_of_two(n):
    with pytest.raises(ValueError):
        Grid1D(n, 10.0)


def test_grid_rejects_non_positive_length():
    with pytest.raises(ValueError):
        Grid1D(16, 0.0)
    with pytest.raises(ValueError):
        Grid1D(64, np.inf)


def test_grid_geometry():
    grid = Grid1D(16, 8.0)
    assert grid.spacing == 0.5
    assert np.allclose(grid.positions, np.arange(16) * 0.5)
    # signed layout with the Nyquist mode on the negative side
    k = grid.wavenumbers
    assert k[0] == 0.0
    assert k[1] == pytest.approx(2 * np.pi / 8.0)
    assert k[8] == pytest.approx(-2 * np.pi * 8 / 8.0)
    assert np.min(k) == k[8]


def test_wavenumbers_are_computed_once_and_read_only():
    # every Strang step build and kinetic symbol called fftfreq again; one array per grid
    # is shared now, so no caller may write into it
    grid = Grid1D(16, 8.0)
    k = grid.wavenumbers
    assert grid.wavenumbers is k
    assert np.array_equal(k, 2.0 * np.pi * np.fft.fftfreq(16, d=0.5))
    with pytest.raises(ValueError, match="read-only"):
        k[0] = 1.0
    assert k[0] == 0.0


def test_timespec_validation():
    with pytest.raises(ValueError):
        TimeSpec(0.0, 10)
    with pytest.raises(ValueError):
        TimeSpec(0.1, 0)
    with pytest.raises(ValueError):
        TimeSpec(np.inf, 3)


def test_wavefield_validation():
    grid = Grid1D(8, 1.0)
    with pytest.raises(ValueError):
        WaveField(grid, np.zeros(7))
    bad = np.zeros(8, dtype=complex)
    bad[3] = np.nan
    with pytest.raises(ValueError):
        WaveField(grid, bad)


def test_packet_spec_rejects_non_positive_sigma():
    with pytest.raises(ValueError):
        GaussianPacketSpec(0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        GaussianPacketSpec(0.0, 1.0, np.inf)


def test_grid_refuses_a_spacing_below_the_normal_range():
    # 1/dx overflowed: |psi|^2 of a unit-norm packet raised OverflowError in the
    # evolve writer, and dx = 0 ZeroDivisionError in Grid1D.wavenumbers
    tiny = np.finfo(np.float64).tiny
    assert Grid1D(8, 8 * tiny).spacing == tiny
    for n, length in [(16, 8 * tiny), (512, 1e-310), (8, 5e-324)]:
        with pytest.raises(ConfigError, match=f"grid spacing length / n_points = {length} / {n} "):
            Grid1D(n, length)


def test_grid_refuses_more_points_than_numpy_can_hold():
    # numpy's "array is too big" ValueError came from the first array of the grid
    assert Grid1D(2 ** 58, 1.0).n_points == 2 ** 58  # nothing is allocated here
    with pytest.raises(ConfigError, match=r"n_points must be at most 2\*\*58, got 2305843009213693952"):
        Grid1D(2 ** 61, 1.0)


def test_refusals_are_config_errors_and_value_errors():
    assert issubclass(ConfigError, ValueError) and issubclass(ConfigError, WaveLabError)
    assert issubclass(InvalidBracket, ConfigError) and issubclass(NonPositiveDeltaX, ConfigError)
    # every error is in exactly one of the three families the CLI maps to exits 2, 3 and 4
    families = (ConfigError, NumericalFailure, GridTooCoarse)
    errors = [cls for cls in vars(exceptions).values()
              if isinstance(cls, type) and issubclass(cls, WaveLabError) and cls is not WaveLabError]
    assert {"DispersionUndefined", "ZeroField", "NoConvergence", "LinearSolveFailure"} <= {
        cls.__name__ for cls in errors}
    for cls in errors:
        assert sum(issubclass(cls, family) for family in families) == 1, cls.__name__


_GRID8 = Grid1D(8, 1.0)
_PSI8 = WaveField(_GRID8, np.ones(8))
_UNIT_TRAP = OscillatorProblem(1.0, 1.0)
_PSI8_HUGE = WaveField(Grid1D(8, 8.0), np.full(8, 1e308))  # finite; its transform overflows
# the one positivity rule, at every parameter it guards: (name in the message, call)
POSITIVE_SITES = {
    "hbar": ("hbar", lambda v: PhysicalConstants(hbar=v)),
    "c": ("c", lambda v: PhysicalConstants(c=v)),
    "length": ("length", lambda v: Grid1D(8, v)),
    "dt": ("dt", lambda v: TimeSpec(v, 1)),
    "sigma": ("sigma", lambda v: GaussianPacketSpec(0.0, 0.0, v)),
    "wave_speed": ("wave speed", ClassicalWave),
    "klein_gordon": ("mass", KleinGordon),
    "schrodinger_free": ("mass", SchrodingerFree),
    "schrodinger_potential": ("mass", lambda v: SchrodingerPotential(v, np.zeros(8))),
    "oscillator_mass": ("mass", lambda v: OscillatorProblem(v, 1.0)),
    "omega_c": ("omega_c", lambda v: OscillatorProblem(1.0, v)),
    "tol": ("tol", lambda v: minimize_bound_numeric(_UNIT_TRAP, tol=v)),
    "tau_step": ("tau_step", lambda v: imaginary_time_ground_state(_UNIT_TRAP, _GRID8,
                                                                   tau_step=v)),
    "energy_tol": ("energy_tol", lambda v: imaginary_time_ground_state(_UNIT_TRAP, _GRID8,
                                                                       energy_tol=v)),
    "split_step": ("mass", lambda v: split_step_evolve(_PSI8, v, np.zeros(8))),
    "crank_nicolson": ("mass", lambda v: crank_nicolson_evolve(_PSI8, v, np.zeros(8))),
    "analytic_gaussian": ("mass", lambda v: analytic_free_gaussian(
        GaussianPacketSpec(0.5, 0.0, 0.1), _GRID8, v)),
    "nr_expansion": ("mass", lambda v: nr_expansion_error(v, 1.0)),
}


_KG = KleinGordon(1.0)
_DISPERSION_K = cli.build_config("dispersion", [], [("--set #1", "k_max", "1e100")])
# the one finiteness rule, at every site that refuses a computed value: (message, call
# that drives the value to inf or nan)
FINITE_SITES = {
    "trap_potential": (
        "non-finite trap potential at m = 1e+300, omega_c = 1e+300, center = None",
        lambda: harmonic_potential(_GRID8, 1e300, 1e300)),
    "phase_amplitudes": (
        "non-finite mode amplitudes at t = 1e+300",
        lambda: list(propagate._phase_snapshots(_PSI8, np.full(8, 1e300), [1e300]))),
    "trap_angle": (
        "non-finite trap angle omega_c * t at t = inf",
        lambda: list(propagate._harmonic_snapshots(_PSI8, 1.0, 1.0, None, 1.0, [math.inf]))),
    "rotation_amplitudes": (
        "non-finite mode amplitudes at t = 1e+308",
        lambda: evolve_second_order_spectral(positive_branch_init(_PSI8, _KG), _KG, t=1e308)),
    "strang_factors": (
        "non-finite Strang factors at dt = 1e+300",
        lambda: split_step_evolve(_PSI8, 1.0, np.full(8, 1e300), time=TimeSpec(1e300, 1))),
    "crank_nicolson_hamiltonian": (  # the sparse LU raised "Factor is exactly singular"
        "non-finite Crank-Nicolson H / hbar at dx = 1e-160",
        lambda: crank_nicolson_evolve(WaveField(Grid1D(8, 8e-160), np.ones(8)), 1.0, np.zeros(8))),
    "crank_nicolson_step": (  # ConfigError "field samples must all be finite", and a warning
        "non-finite Crank-Nicolson step lam dt / 2 at dt = 10000000000.0",
        lambda: crank_nicolson_evolve(_PSI8, 1.0, np.full(8, 1e308), time=TimeSpec(1e10, 1))),
    "dominance_terms": (
        "non-finite dominance terms at c = 1e+200 (m c^2/hbar = inf)",
        lambda: dominance_terms_mode(1.0, 1.0, PhysicalConstants(c=1e200))),
    "envelope_phase": (
        "non-finite envelope phase (t = inf) or dominance ratio at c = 1.0 (m c^2/hbar = 1.0)",
        lambda: nr_limit_report(_PSI8, 1.0, time=TimeSpec(1.7e308, 20))),
    "bound_curve": (
        "bound curve E(dx) = inf at dx = 1e+300",
        lambda: energy_bound(_UNIT_TRAP, 1e300)),
    "dispersion_row": (
        "dispersion row at k = 1.25e+99 has nr_bound = inf",
        lambda: cli.cmd_dispersion(_DISPERSION_K, "never-written")),
    "energy_expectation": (
        "non-finite energy expectation inf / 1.0",
        lambda: energy_expectation(_PSI8, np.full(8, 1e308), 1.0)),
    "kinetic_symbol": (  # hbar^2 in Python floats raised a bare OverflowError
        "kinetic symbol hbar^2 k^2 / 2m is not finite at hbar = 1e+200, m = 1.0",
        lambda: energy_expectation(_PSI8, np.zeros(8), 1.0, PhysicalConstants(hbar=1e200))),
    "positive_branch_rate": (  # ConfigError "mode amplitudes must all be finite", and a warning
        "non-finite -i omega psi_hat at c = 1e+160, hbar = 1.0",
        lambda: positive_branch_init(_PSI8, _KG, PhysicalConstants(c=1e160))),
    "forward_transform": (  # ConfigError, after an overflow warning
        "non-finite mode amplitudes: the forward transform overflowed",
        lambda: dft(WaveField(Grid1D(64, 1.0), np.full(64, 1.7e308)))),
    "inverse_transform": (  # ConfigError, after an overflow warning
        "non-finite field samples: the inverse transform overflowed",
        lambda: idft(SpectralField(Grid1D(64, 1.0), np.full(64, 1.7e308)))),
    "l2_norm": (  # returned inf, with an overflow warning
        "non-finite L2 norm: sum |psi|^2 dx overflowed",
        lambda: l2_norm(WaveField(_GRID8, np.full(8, 1e200)))),
    "plane_wave": (  # ConfigError "field samples must all be finite", and a warning
        "non-finite plane-wave samples at t = 1e+300, omega = 1e+300",
        lambda: planewave_sample(PlaneWaveMode(1.0, 2 * math.pi / 16, 1e300), Grid1D(8, 16.0),
                                 1e300)),
    "analytic_gaussian_width": (  # sigma ** 2 in Python floats raised a bare OverflowError
        "non-finite analytic packet at t = 0.0 (sigma = 1e+200, m = 1.0)",
        lambda: analytic_free_gaussian(GaussianPacketSpec(0.5, 0.0, 1e200), _GRID8, 1.0)),
    "analytic_gaussian_time": (  # ConfigError "field samples must all be finite", and a warning
        "non-finite analytic packet at t = 10000000000.0 (sigma = 0.1, m = 5e-324)",
        lambda: analytic_free_gaussian(GaussianPacketSpec(0.5, 0.0, 0.1), _GRID8, 5e-324,
                                       t=1e10)),
    "trap_snapshot": (  # ConfigError "field samples must all be finite", after 3 warnings
        "non-finite trap snapshot at t = 0.5",
        lambda: list(propagate._harmonic_snapshots(_PSI8_HUGE, 1.0, 1.0, None, 1.0, [0.5]))),
    "stepper_snapshot": (  # ConfigError "field samples must all be finite", after 4 warnings
        "non-finite stepper snapshot at t = 0.1",
        lambda: list(split_step_evolve(_PSI8_HUGE, 1.0, np.zeros(8), time=TimeSpec(0.1, 1)))),
    "relaxation_start_norm": (  # a RuntimeWarning from the start's norm came first
        "start state has norm inf",
        lambda: imaginary_time_ground_state(_UNIT_TRAP, Grid1D(256, 20.0), initial=WaveField(
            Grid1D(256, 20.0), np.full(256, 1e308)))),
}


@pytest.mark.parametrize("site", FINITE_SITES)
def test_every_non_finite_result_is_a_numerical_failure(site):
    # the sites each tested finiteness their own way, or not at all; now `core._finite`
    # decides, and the arithmetic before it is quiet: no numpy warning on the way
    message, call = FINITE_SITES[site]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalFailure, match=f"^{re.escape(message)}$"):
            call()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("kind", [float, np.float64, np.complex128, lambda v: np.array([1.0, v])],
                         ids=["float", "float64", "complex128", "array"])
def test_finite_refuses_each_non_finite_scalar_and_array(kind, value):
    # a real scalar takes `math.isfinite`, anything else numpy's reduction: both must refuse
    with pytest.raises(NumericalFailure, match=f"^value {value!r} refused$"):
        core._finite(f"value {value!r} refused", kind(1.0), kind(value))
    with pytest.raises(NumericalFailure, match="^lazy$"):
        core._finite(lambda: "lazy", kind(value))
    for finite in (0.0, -5e-324, 1.7976931348623157e308):
        core._finite(lambda: pytest.fail(f"{finite!r} refused"), kind(finite), kind(-finite))


def test_budget_passes_only_a_value_at_or_below_its_bound():
    # `core._budget` is the one bound rule: value <= bound, so a nan fails, and the label
    # of a passing case is never formatted
    for value in (1.0, 0.0, -math.inf):
        core._budget(value, 1.0, lambda: pytest.fail(f"{value!r} refused or its label formatted"))
    for value in (math.nan, math.inf, math.nextafter(1.0, 2.0)):
        with pytest.raises(NumericalFailure, match=f"^gap: {re.escape(repr(value))} > 1.0$"):
            core._budget(value, 1.0, "gap")
    with pytest.raises(NumericalFailure, match="^gap: 0.0 > nan$"):
        core._budget(0.0, math.nan, "gap")


def test_budget_prints_numpy_scalars_as_plain_floats():
    # numpy 2 prints repr(np.float64(2.5)) as "np.float64(2.5)"
    with pytest.raises(NumericalFailure, match=r"^lazy gap: 2\.5 > 1\.0$"):
        core._budget(np.float64(2.5), np.float32(1.0), lambda: "lazy gap")


_PACKET = gaussian_packet(GaussianPacketSpec(16.0, 1.0, 2.0), Grid1D(256, 64.0))
_POWER = np.abs(dft(_PACKET).mode_amplitudes) ** 2
_POWER /= _POWER.sum()  # the normalized mode power p
_C10 = PhysicalConstants(c=10.0)

# each exact path's phase: (its W = sum p |frequency| on _PACKET, a run of the path to t)
PHASE_PATHS = {
    "phase": (lambda: _POWER @ omega_of_k(SchrodingerFree(1.0), _PACKET.grid.wavenumbers),
              lambda t: evolve_schrodinger_spectral(_PACKET, 1.0, t=t)),
    "trap": (lambda: 2.5,
             lambda t: list(propagate._harmonic_snapshots(_PACKET, 1.0, 2.5, None, 1.0, [0.0, t]))),
    "envelope": (  # |delta / 2| = Omega^2 / 4 omega_r
        lambda: _POWER @ (0.5 * nr_expansion_error(1.0, _PACKET.grid.wavenumbers, _C10)[0]),
        lambda t: nr_limit_report(_PACKET, 1.0, _C10, TimeSpec(t, 1))),
    "rotation": (  # a positive-branch state: the phase path's W of its family
        lambda: _POWER @ omega_of_k(_KG, _PACKET.grid.wavenumbers),
        lambda t: evolve_second_order_spectral(positive_branch_init(_PACKET, _KG), _KG, t=t)),
}


@pytest.mark.parametrize("path", PHASE_PATHS)
def test_each_phase_path_refuses_a_time_just_past_its_budget(path):
    # eps |t| W <= _PHASE_TOL: inside it the run goes through, a part in 1e6 past it is refused
    w, run = PHASE_PATHS[path]
    limit = float(core._PHASE_TOL / (sys.float_info.epsilon * w()))
    run(limit * (1.0 - 1e-6))
    t = limit * (1.0 + 1e-6)
    with pytest.raises(NumericalFailure,
                       match=f"^phase rounding bound eps \\|t\\| W at t = {re.escape(repr(t))}"):
        run(t)


# each exact stream over `times`, with the W of PHASE_PATHS
STREAMS = {
    "phase": lambda times: propagate._phase_snapshots(
        _PACKET, omega_of_k(SchrodingerFree(1.0), _PACKET.grid.wavenumbers), times),
    "trap": lambda times: propagate._harmonic_snapshots(_PACKET, 1.0, 2.5, None, 1.0, times),
}


@pytest.mark.parametrize("path", STREAMS)
def test_each_stream_refuses_the_first_snapshot_past_its_budget(path):
    # the budget was checked once the stream had ended: it yielded every snapshot, t = 1e300
    # with no correct phase digit among them, and then named the last t
    w, _ = PHASE_PATHS[path]
    limit = float(core._PHASE_TOL / (sys.float_info.epsilon * w()))
    times = [0.0, limit * (1.0 - 1e-6), limit * (1.0 + 1e-6), 1e300]
    seen = []
    with pytest.raises(NumericalFailure, match=f"^phase rounding bound eps \\|t\\| W at t = "
                                                f"{re.escape(repr(times[2]))}: "):
        for t, _ in STREAMS[path](times):
            seen.append(t)
    assert seen == times[:2]


@pytest.mark.parametrize("samples", [np.zeros(8), np.full(8, 1e200)], ids=["zero", "1e200"])
def test_phase_budget_weighs_a_zero_or_huge_field_without_refusing_it(samples):
    # W is formed from |a| / max |a|: a zero field has W = 0, and a field whose |a|^2
    # overflows (its transform is finite) has a finite W, so neither is refused at any t
    psi = WaveField(Grid1D(8, 8.0), samples)
    assert np.array_equal(evolve_schrodinger_spectral(psi, 1.0, t=0.0).samples, samples)
    assert np.isfinite(evolve_schrodinger_spectral(psi, 1.0, t=1.0).samples).all()
    for t, _ in propagate._phase_snapshots(psi, np.full(8, 1e300), [0.0, 1e-300]):
        pass  # eps * 1e-300 * 1e300 = eps: within the budget
    assert t == 1e-300


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 31), n_exp=st.integers(3, 12), low=st.floats(-150.0, 150.0),
       decades=st.floats(0.0, 149.9))
def test_mode_power_has_the_plain_quotients_bits(seed, n_exp, low, decades):
    # scaling |a| by a power of two is exact: with |a| in [1e-150, 1e150] and under 150
    # decades of range, no square is subnormal and no sum overflows, so p has the bits
    # of |a|^2 / sum |a|^2 (nr_limit_report's form before `_mode_power`)
    rng = np.random.default_rng(seed)
    exps = low + min(decades, 150.0 - low) * rng.random(2 ** n_exp)
    amps = 10.0 ** exps * np.exp(2j * np.pi * rng.random(2 ** n_exp))
    power = np.abs(amps) ** 2
    assert np.array_equal(core._mode_power(amps), power / np.sum(power))


def test_mode_power_of_a_zero_or_huge_field():
    # a zero field has no power to share, and |a|^2 of this finite field overflows
    assert np.array_equal(core._mode_power(np.zeros(8, complex)), np.zeros(8))
    p = core._mode_power(dft(WaveField(Grid1D(8, 8.0), np.full(8, 1e200))).mode_amplitudes)
    assert np.isfinite(p).all() and p.sum() == 1.0


def test_nrlimit_weighs_a_field_whose_power_overflows():
    # |a|^2 / sum |a|^2 overflowed: "non-finite envelope phase (t = 1.0) or dominance ratio"
    psi = WaveField(Grid1D(8, 8.0), np.full(8, 1e200))
    report = nr_limit_report(psi, 1.0, _C10, TimeSpec(1.0, 1))
    assert np.isfinite(report.deviation + report.dominance_ratio).all()


def test_rotation_weighs_a_mode_whose_reach_passes_the_largest_float():
    # at w ~ 1e-309, |psidot_hat_0| / w overflowed to inf, and the W it gave (nan) refused a
    # phase of 1e-309 rad; the field is psi_0 + psidot_0 t to rounding
    grid = Grid1D(8, 8.0)
    psi, psi_dot = np.ones(8), np.cos(np.pi * np.arange(8) / 4)
    state = SecondOrderState(WaveField(grid, psi), WaveField(grid, psi_dot))
    out = evolve_second_order_spectral(state, ClassicalWave(1e-308), t=1.0)
    assert np.allclose(out.psi.samples, psi + psi_dot, rtol=0.0, atol=1e-15)


def test_phase_budget_charges_nothing_at_t_zero():
    # a phase omega * 0 is exactly 0, even where omega overflows to inf (m = 1e-310)
    psi = WaveField(Grid1D(8, 8.0), np.ones(8))
    assert np.array_equal(evolve_schrodinger_spectral(psi, 1e-310, t=0.0).samples, np.ones(8))


def test_all_lists_exactly_the_public_names():
    public = {name for name, value in vars(wavelab).items()
              if not name.startswith("_") and not isinstance(value, type(wavelab))}
    assert len(set(wavelab.__all__)) == len(wavelab.__all__)
    assert set(wavelab.__all__) == public


def _second_order_fields(psi):
    start = positive_branch_init(psi, _KG)
    later = evolve_second_order_spectral(start, _KG, t=0.5)
    yield from (start.psi, start.psi_dot, later.psi, later.psi_dot)


# every library path that forms a field: each returns a lazy iterable of the fields (and
# spectra) it forms, after the checks of the caller's own arrays
_TIMES5 = [0.0, 0.25, 0.5, 0.5, 1.0]
LIBRARY_FIELDS = {
    "dft": lambda psi, v: map(dft, [psi]),
    "idft": lambda psi, v: map(idft, [dft(psi)]),
    "dft_idft_round_trip": lambda psi, v: map(lambda f: idft(dft(f)), [psi]),
    "copy": lambda psi, v: map(WaveField.copy, [psi]),
    "phase_snapshots": lambda psi, v: (f for _, f in propagate._phase_snapshots(
        psi, np.linspace(0.0, 3.0, psi.grid.n_points), _TIMES5)),
    "trap_snapshots": lambda psi, v: (f for _, f in propagate._harmonic_snapshots(
        psi, 1.0, 1.0, None, 1.0, _TIMES5)),
    "split_step": lambda psi, v: (f for _, f in split_step_evolve(
        psi, 1.0, v, time=TimeSpec(0.05, 4), snapshot_every=1)),
    "crank_nicolson": lambda psi, v: (f for _, f in crank_nicolson_evolve(
        psi, 1.0, v, time=TimeSpec(0.05, 4), snapshot_every=1)),
    "second_order": lambda psi, v: _second_order_fields(psi),
    "plane_wave": lambda psi, v: map(lambda t: planewave_sample(
        PlaneWaveMode(1.0, 2 * math.pi / 16, 1.0), Grid1D(8, 16.0), t), [0.0, 0.5]),
    "analytic_gaussian": lambda psi, v: map(lambda t: analytic_free_gaussian(
        GaussianPacketSpec(0.5, 0.0, 0.1), _GRID8, 1.0, t=t), [0.0, 0.5]),
    "gaussian_packet": lambda psi, v: map(
        gaussian_packet, [GaussianPacketSpec(0.0, 1.0, 1.0)], [Grid1D(64, 16.0)]),
    "plane_wave_packet": lambda psi, v: map(
        cli._build_packet, [{"packet_kind": "plane_wave", "k0": 2 * math.pi}], [_GRID8]),
}


@pytest.mark.parametrize("path", LIBRARY_FIELDS)
def test_library_formed_fields_skip_the_input_check(path, monkeypatch):
    # `_on_grid` checks arrays from outside the library; a field the library formed was
    # refused through `_finite` already, so no second pass runs on it
    psi = random_field(_GRID8, seed=3)
    fields = LIBRARY_FIELDS[path](psi, harmonic_potential(_GRID8, 1.0, 1.0))
    calls = []
    real = core._on_grid
    for module in (core, propagate):
        monkeypatch.setattr(module, "_on_grid", lambda *a, **k: calls.append(a) or real(*a, **k))
    fields = list(fields)
    assert calls == []
    assert fields
    for f in fields:
        samples = f.samples if isinstance(f, WaveField) else f.mode_amplitudes
        assert samples.dtype == np.complex128 and samples.shape == (f.grid.n_points,)
        assert np.isfinite(samples).all()
    if path in ("phase_snapshots", "trap_snapshots"):
        assert len(fields) == 5


_NAN8 = [math.nan] * 8
# every array that comes from outside the library: (message, call that hands over a nan)
USER_ARRAYS = {
    "wave_field": ("field samples", lambda: WaveField(_GRID8, _NAN8)),
    "spectral_field": ("mode amplitudes", lambda: SpectralField(_GRID8, _NAN8)),
    "relaxation_initial": ("field samples", lambda: imaginary_time_ground_state(
        _UNIT_TRAP, _GRID8, initial=WaveField(_GRID8, _NAN8))),
    "schrodinger_potential": ("potential samples", lambda: SchrodingerPotential(1.0, _NAN8)),
    "split_step_potential": ("potential samples", lambda: split_step_evolve(_PSI8, 1.0, _NAN8)),
    "crank_nicolson_potential": ("potential samples",
                                 lambda: crank_nicolson_evolve(_PSI8, 1.0, _NAN8)),
    "energy_potential": ("potential samples", lambda: energy_expectation(_PSI8, _NAN8, 1.0)),
}


@pytest.mark.parametrize("site", USER_ARRAYS)
def test_every_non_finite_user_array_is_a_config_error(site):
    # a user's array is refused at the boundary, exit 2's family, with one message per
    # quantity: `SchrodingerPotential` said "potential samples must be finite"
    what, call = USER_ARRAYS[site]
    with pytest.raises(ConfigError, match=f"^{what} must all be finite$"):
        call()


@pytest.mark.parametrize("value", [math.inf, -1.0], ids=["inf", "negative"])
@pytest.mark.parametrize("site", POSITIVE_SITES)
def test_every_positive_parameter_refuses_the_same_values(site, value):
    # seven of the eight mass checks took m = inf, and the messages disagreed
    name, call = POSITIVE_SITES[site]
    with pytest.raises(ConfigError, match=f"^{name} must be positive and finite, got {value}$"):
        call(value)


# ---------------------------------------------------------------------------
# transform examples
# ---------------------------------------------------------------------------

def test_dft_constant_field_is_zero_mode():
    grid = Grid1D(8, 4.0)
    spec = dft(WaveField(grid, np.ones(8)))
    amps = spec.mode_amplitudes
    assert amps[0] == pytest.approx(np.sqrt(8), abs=1e-12)
    assert np.max(np.abs(amps[1:])) < 1e-12


def test_dft_single_mode():
    grid = Grid1D(16, 5.0)
    k1 = 2 * np.pi / grid.length
    fld = WaveField(grid, np.exp(1j * k1 * grid.positions))
    amps = dft(fld).mode_amplitudes
    assert abs(amps[1]) == pytest.approx(np.sqrt(16), abs=1e-12)
    others = np.delete(np.abs(amps), 1)
    assert np.max(others) < 1e-12


def test_dft_matches_bruteforce_oracle():
    grid = Grid1D(64, 11.0)
    fld = random_field(grid, seed=101)
    got = dft(fld).mode_amplitudes
    want = dft_bruteforce(fld.samples)
    assert np.max(np.abs(got - want)) < 1e-11


def test_idft_zero_spectrum_and_single_mode():
    grid = Grid1D(8, 3.0)
    zero = idft(SpectralField(grid, np.zeros(8)))
    assert np.max(np.abs(zero.samples)) == 0.0
    amps = np.zeros(8, dtype=complex)
    amps[1] = 1.0
    fld = idft(SpectralField(grid, amps))
    k1 = 2 * np.pi / grid.length
    want = np.exp(1j * k1 * grid.positions) / np.sqrt(8)
    assert np.max(np.abs(fld.samples - want)) < 1e-14


def test_idft_matches_bruteforce_oracle():
    grid = Grid1D(32, 7.0)
    rng = np.random.default_rng(55)
    amps = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    got = idft(SpectralField(grid, amps)).samples
    want = idft_bruteforce(amps)
    assert np.max(np.abs(got - want)) < 1e-11


def test_parseval_on_random_field():
    grid = Grid1D(64, 9.0)
    fld = random_field(grid, seed=7)
    spec = dft(fld)
    a = np.sum(np.abs(spec.mode_amplitudes) ** 2)
    b = np.sum(np.abs(fld.samples) ** 2)
    assert abs(a - b) <= 1e-12 * b


# ---------------------------------------------------------------------------
# transform properties
# ---------------------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 31), n_exp=st.integers(3, 7))
def test_roundtrip_property(seed, n_exp):
    grid = Grid1D(2 ** n_exp, 6.0)
    fld = random_field(grid, seed)
    back = idft(dft(fld))
    scale = np.max(np.abs(fld.samples))
    assert np.max(np.abs(back.samples - fld.samples)) <= 1e-12 * scale


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2 ** 31),
    a_re=st.floats(-3, 3), a_im=st.floats(-3, 3),
    b_re=st.floats(-3, 3), b_im=st.floats(-3, 3),
)
def test_linearity_property(seed, a_re, a_im, b_re, b_im):
    grid = Grid1D(32, 4.0)
    a = a_re + 1j * a_im
    b = b_re + 1j * b_im
    f = random_field(grid, seed)
    g = random_field(grid, seed + 1)
    combo = dft(WaveField(grid, a * f.samples + b * g.samples)).mode_amplitudes
    separate = a * dft(f).mode_amplitudes + b * dft(g).mode_amplitudes
    scale = max(np.max(np.abs(combo)), 1.0)
    assert np.max(np.abs(combo - separate)) <= 1e-12 * scale


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def test_l2_norm_zero_field():
    grid = Grid1D(16, 2.0)
    assert l2_norm(WaveField(grid, np.zeros(16))) == 0.0


def test_l2_norm_constant_field():
    grid = Grid1D(64, 10.0)
    norm = l2_norm(WaveField(grid, np.ones(64)))
    assert norm ** 2 == pytest.approx(10.0, abs=1e-12)


def test_l2_norm_normalized_gaussian():
    grid = Grid1D(256, 32.0)
    packet = gaussian_packet(GaussianPacketSpec(16.0, 2.0, 1.5), grid)
    assert l2_norm(packet) == pytest.approx(1.0, abs=1e-10)
