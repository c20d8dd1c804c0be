"""Every pinned wavelab command line, with its exit code and what its stderr must name.

A row is (id, argv, exit code, stderr fragments, note, files); a new reproducer is one
row.  `check` is the one verdict on a finished run.  tests/test_cli.py runs every row in
process, as the test its id names, and sends the extreme-value gate's drawn cases through
`check` too.  Run as a script, this file sends every row through the `wavelab` script on
PATH instead, as an installed package runs:

    python tests/reproducers.py

Standard library only: the script must not import the package it checks.
"""

import json
import math
import os
import subprocess
import sys
import tempfile
from typing import NamedTuple

CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")
COMMANDS = ("dispersion", "evolve", "nrlimit", "oscillator", "verify")
PREFIX = {2: "config error: ", 3: "numerical failure: ", 4: "resolution error: "}
LABEL_COLUMNS = {"family", "method"}
# documented nan: the NR pair of a massless family's dispersion row
NAN_COLUMNS = {("dispersion.csv", "nr_gap"), ("dispersion.csv", "nr_bound")}


class Row(NamedTuple):
    id: str  # the test's name in the suite: "test_name" or "test_name[case]"
    argv: tuple  # {tmp} is the row's directory, {configs} the shipped configs
    code: int
    fragments: tuple  # each must appear in stderr
    note: str  # what the command line did before it was pinned
    files: dict  # path under {tmp} -> text, written before the run


def row(id, argv, code, *fragments, note="", files=None):
    return Row(id, tuple(argv.split()), code, fragments, note, files or {})


REFUSED = "test_refused_config_is_one_line_and_writes_nothing"
FAILED = "test_failed_run_writes_nothing"
DISP3 = "test_dispersion_non_finite_row_is_exit_3"
ENVELOPE = "test_nrlimit_non_finite_envelope_is_exit_3"
BOUND3 = "test_oscillator_overflowing_bound_curve_is_exit_3"
REPRO = "test_reproducer"  # a row with no older test of its own
OSC = "oscillator --config {configs}/oscillator.cfg"
NR = "nrlimit --config {configs}/nrlimit_ladder.cfg"
TRAP = "evolve --set family=schrodinger_potential --set potential=harmonic"
NO_POTENTIAL = "does not take a potential; use family = schrodinger_potential"

ROWS = (
    # -- a config refused, in one line that names its source, before anything is written ----
    row("test_unknown_key_is_exit_2", "evolve --set sgima=1.0", 2, "unknown key 'sgima'"),
    row("test_bad_value_is_exit_2", "evolve --set dt=fast", 2,
        "--set #1: dt must be a number, got 'fast'"),
    row("test_duplicate_key_is_exit_2", "evolve --config {tmp}/c.cfg", 2,
        "c.cfg:2: duplicate key 'dt' (first set on line 1)",
        files={"c.cfg": "dt = 0.1\ndt = 0.2\n"}),
    row("test_scenario_mismatch_is_exit_2", "oscillator --config {configs}/free_gaussian.cfg", 2,
        "free_gaussian.cfg:2: config is for scenario 'evolve', command is 'oscillator'"),
    row("test_malformed_line_reports_line_number", "evolve --config {tmp}/c.cfg", 2, "c.cfg:2:",
        files={"c.cfg": "# fine\nnot a pair\n"}),
    row("test_invariant_violating_parameters_are_exit_2", "evolve --set n_points=100", 2,
        "n_points must be a power of two"),
    row(f"{REPRO}[negative_mass]", "dispersion --set mass=-1.0", 2,
        "mass must be positive and finite, got -1.0"),
    *(row(f"test_non_finite_float_is_exit_2[{scenario}-{key}={value}]",
          f"{scenario} --set {key}={value}", 2, f"{key} must be finite")
      for scenario, key, value in (("dispersion", "k_max", "nan"), ("dispersion", "c", "inf"),
                                   ("evolve", "mass", "inf"), ("nrlimit", "c_ladder", "10.0,inf"))),
    # the single-key bounds were checked in the command bodies, after config_echo.cfg had been
    # written to --out; a library's refusal left that echo behind, and a --seed refusal was
    # named after the last --set item
    row(f"{REFUSED}[k_count]", "dispersion --set k_count=0", 2,
        "--set #1: k_count must be >= 1, got 0"),
    row(f"{REFUSED}[n_steps]", "evolve --set n_steps=-1", 2,
        "--set #1: n_steps must be >= 0, got -1"),
    row(f"{REFUSED}[snapshot_every]", "evolve --set snapshot_every=-1", 2,
        "--set #1: snapshot_every must be >= 0"),
    row(f"{REFUSED}[nrlimit_snapshot_every]", "nrlimit --set snapshot_every=-1", 2,
        "--set #1: snapshot_every must be >= 0, got -1",
        note="nrlimit's parser took any integer, so the library's refusal named no source"),
    row(f"{REFUSED}[ladder_of_one]", "nrlimit --set c_ladder=10", 2,
        "--set #1: c_ladder must list at least 2"),
    row(f"{REFUSED}[ladder_negative]", "nrlimit --set c_ladder=10,-1", 2,
        "--set #1: c_ladder must be > 0"),
    row(f"{REFUSED}[ladder_empty]", "nrlimit --set c_ladder=,", 2,
        "--set #1: c_ladder must list at least 2"),
    row(f"{REFUSED}[set_without_equals]", "evolve --set n_steps", 2,
        "--set #1: expected key=value"),
    row(f"{REFUSED}[empty_key]", "evolve --config {tmp}/empty_key.cfg", 2,
        "empty_key.cfg:2: empty key", files={"empty_key.cfg": "dt = 0.1\n= 3\n"}),
    row(f"{REFUSED}[missing_config]", "evolve --config {tmp}/missing.cfg", 2, "missing.cfg"),
    row(f"{REFUSED}[unknown_family]", "evolve --set family=foo", 2,
        "--set #1: family must be one of"),
    row(f"{REFUSED}[negative_seed]", "evolve --seed -1", 2, "seed must be >= 0, got -1"),
    row(f"{REFUSED}[n_steps_not_integer]", "evolve --set n_steps=abc", 2,
        "--set #1: n_steps must be an integer, got 'abc'"),
    row(f"{REFUSED}[seed_past_u64]", "evolve --seed 18446744073709551616", 2,
        "--seed: seed must fit in u64"),
    row(f"{REFUSED}[seed_named_as_itself]", "evolve --set dt=0.1 --set n_steps=3 --seed -1", 2,
        "--seed: seed must be >= 0, got -1"),
    row(f"{REFUSED}[n_points_library_bound]", "evolve --set n_points=100", 2,
        "n_points must be a power of two"),
    row(f"{REFUSED}[max_iters_library_bound]", "oscillator --set max_iters=0", 2,
        "max_iters must be >= 1, got 0"),
    row(f"{REFUSED}[ladder_one_speed_twice]", "nrlimit --set c_ladder=10,10", 2,
        "--set #1: c_ladder must list at least 2 distinct"),
    row(f"{REFUSED}[ladder_one_speed_thrice]", "nrlimit --set c_ladder=10,10,10", 2,
        "2 distinct speeds, got 1"),
    row(f"{REFUSED}[plane_wave_k0_overflow]", "evolve --set packet_kind=plane_wave --set k0=1e308",
        2, "k0 = 1e+308 has no grid mode on length = 64.0",
        note="round() of an infinite mode index raised OverflowError, exit 1"),
    row(f"{REFUSED}[plane_wave_k0_overflow_negative]",
        "nrlimit --set packet_kind=plane_wave --set k0=-1e308", 2,
        "k0 = -1e+308 has no grid mode on length = 64.0"),
    row(f"{REFUSED}[dispersion_potential_without_family]",
        "dispersion --set family=klein_gordon --set potential=constant --set v0=3", 2,
        f"family 'klein_gordon' {NO_POTENTIAL}",
        note="the scan exited 0 and echoed a potential it never used"),
    row(f"{REFUSED}[subnormal_spacing_evolve]", "evolve --set length=1e-310 --set x0=0", 2,
        "grid spacing length / n_points = 1e-310 / 512 is subnormal",
        note="1/dx overflowed: |psi|^2 raised OverflowError in the writer (exit 1)"),
    row(f"{REFUSED}[zero_spacing_oscillator]", "oscillator --set length=5e-324 --set hbar=5e-324",
        2, "grid spacing length / n_points = 5e-324 / 256 is subnormal",
        note="dx = 0: Grid1D.wavenumbers raised ZeroDivisionError (exit 1)"),
    row(f"{REFUSED}[zero_spacing_evolve]", "evolve --set length=5e-324", 2,
        "grid spacing length / n_points = 5e-324 / 512",
        note='named "packet ... has no finite, nonzero samples on the grid"'),
    row(f"{REFUSED}[n_points_past_numpy]", "evolve --set n_points=4611686018427387904", 2,
        "n_points must be at most 2**58, got 4611686018427387904",
        note="numpy's \"array is too big\" ValueError, which main reported as a config error"),
    row(f"{REFUSED}[k_count_past_numpy]", "dispersion --set k_count=4611686018427387904", 2,
        "--set #1: k_count must be <= 288230376151711744, got 4611686018427387904"),
    row("test_library_refusal_is_exit_2_in_one_line[grid]", "evolve --set n_points=100", 2,
        "config error: n_points must be a power of two >= 8, got 100\n"),
    row("test_library_refusal_is_exit_2_in_one_line[bracket]",
        "oscillator --set bracket_lo=5 --set bracket_hi=1", 2,
        "config error: need 0 < lo < hi, got (5.0, 1.0)\n"),
    row("test_verify_refuses_physics_keys", "verify --set hbar=2", 2, "unknown key 'hbar'",
        note="verify reads no config: hbar = 2 used to pass in natural units, exit 0"),
    row(f"{REPRO}[unknown_command]", "nosuch", 2, "invalid choice: 'nosuch'"),
    row(f"{REPRO}[unwritable_out]", "evolve --out {tmp}/afile/sub", 2,
        "config error: cannot write output:", files={"afile": ""},
        note="an --out under a regular file: a NotADirectoryError traceback, exit 1"),
    # -- a failed run writes nothing: config_echo.cfg was written before the command ran, so
    # every exit 3 or 4 left it in --out
    row(f"{FAILED}[bound_overflow]", "oscillator --set bracket_hi=1e300", 3,
        "bound curve E(dx) = inf"),
    row(f"{FAILED}[grid_too_coarse]", "oscillator --set n_points=8", 4, "ground width"),
    row(f"{FAILED}[strang_factor_overflow]", f"{TRAP} --set dt=1e307", 3,
        "non-finite trap angle omega_c * t at t = inf"),
    row(f"{FAILED}[phase_overflow_at_2]",
        "evolve --set dt=4e305 --set n_steps=3 --set snapshot_every=1", 3,
        "non-finite mode amplitudes at t = 8e+305", note="snapshots 0 and 1 succeed first"),
    row(f"{REPRO}[existing_out_kept]",
        "evolve --set dt=4e305 --set n_steps=3 --set snapshot_every=1", 3,
        "non-finite mode amplitudes at t = 8e+305", files={"out/notes.txt": "kept\n"},
        note="a write error at snapshot 2 left snapshots 0 and 1 in an existing --out"),
    row(f"{FAILED}[trap_factor_overflow]", f"{TRAP} --set mass=1e-310 --set n_steps=3", 3,
        "non-finite trap factors at t = 0.03 (interval 0.03)",
        note="the trap's refusal named its inner step size, dt = 0.02999550020249566"),
    row(f"{FAILED}[trap_potential_overflow_at_0_steps]",
        f"{TRAP} --set omega_c=1e200 --set n_steps=0", 3, "non-finite trap potential",
        note="the trap builds its potential even where no step is built"),
    row(f"{FAILED}[ground_width_inf]", "oscillator --set mass=1e-200 --set omega_c=1e-200", 3,
        "ground width sqrt(hbar / 2 m omega_c) = inf",
        note="2 m omega_c underflowed to 0: ZeroDivisionError (exit 1)"),
    row(f"{FAILED}[start_state_overflow]",
        "oscillator --set mass=0.5 --set omega_c=1e-308 --set length=2e155", 3,
        "start state has norm nan", note="(2 dx*)^2 overflowed in Python floats: exit 1"),
    row(f"{FAILED}[nrlimit_time_overflow]", "nrlimit --set dt=1.7e308 --set n_steps=20", 3,
        "non-finite envelope phase (t = inf)",
        note="t = 20 dt is inf: exit 0 with inf times and nan deviations"),
    row(f"{FAILED}[trap_potential_over_cos2_overflow]",
        f"{TRAP} --set omega_c=5.4e152 --set dt=0.3 --set n_steps=3", 3,
        "non-finite trap factors at t = 0.8999999999999999 (interval 0.8999999999999999)",
        note="V / cos^2(theta/2) overflowed in the trap: a numpy RuntimeWarning first"),
    row(f"{FAILED}[packet_moments_overflow]",
        "evolve --set n_points=64 --set length=6.334430136296258e-306 --set n_steps=0", 3,
        "non-finite packet moments at dx = 9.897547087962903e-308",
        note="the moment sums of a density near 1/dx: a RuntimeWarning, then width = inf"),
    # -- dispersion: each ended in a traceback (exit 1) or wrote inf/nan rows with exit 0
    row(f"{DISP3}[k4_overflow]", "dispersion --set k_max=1e100", 3,
        "dispersion row at k = 1.25e+99 has nr_bound = inf", note="k ** 4 overflows"),
    row(f"{DISP3}[zero_omega]", "dispersion --set family=klein_gordon --set c=5e-324 "
        "--set k_min=1e-300", 3, "dispersion row at k = 1e-300 has group_velocity = nan",
        note="omega = 0: 0/0"),
    row(f"{DISP3}[rest_frequency_overflow]", "dispersion --set family=klein_gordon --set c=1e200",
        3, "dispersion row at k = 0.0 has omega = inf", note="m c^2/hbar = inf"),
    row(f"{DISP3}[k_span_overflow]", "dispersion --set k_min=-1e308 --set k_max=1e308", 3,
        "dispersion row at k = nan has k = nan", note="k_max - k_min overflows"),
    row(f"{REPRO}[shipped_dispersion_kg]", "dispersion --config {configs}/dispersion_kg.cfg", 0),
    row(f"{REPRO}[dispersion_v0_only_with_constant]",
        "dispersion --set family=schrodinger_potential --set v0=0.25", 0),
    # -- evolve
    row(f"{REPRO}[shipped_free_gaussian]", "evolve --config {configs}/free_gaussian.cfg", 0),
    row("test_evolve_rejects_potential_for_free_families",
        "evolve --set family=schrodinger_free --set potential=harmonic", 2,
        f"family 'schrodinger_free' {NO_POTENTIAL}"),
    *(row(f"{REPRO}[{family}_potential]", f"evolve --set family={family} --set potential=constant",
          2, f"family '{family}' {NO_POTENTIAL}")
      for family in ("klein_gordon", "classical_wave", "electromagnetic")),
    row("test_evolve_nonfinite_potential_is_exit_3", f"{TRAP} --set omega_c=1e200", 3,
        "non-finite trap potential"),
    *(row(f"test_evolve_overflowing_dt_is_exit_3[{family}]",
          f"evolve --set family={family} --set dt=1e306 --set n_steps=1000", 3,
          "non-finite mode amplitudes at t = 1e+308")
      for family in ("schrodinger_free", "klein_gordon")),
    row("test_second_order_negative_dt_is_exit_2", "evolve --set family=klein_gordon "
        "--set dt=-0.01 --set n_steps=10 --set snapshot_every=5", 2, "dt must be positive"),
    *(row(f"test_negative_dt_is_exit_2_even_without_steps[{family}]",
          f"evolve --set family={family} --set dt=-0.01 --set n_steps=0", 2,
          "dt must be positive",
          note="no TimeSpec was built: exit 0, and the second-order families wrote t = -0.0")
      for family in ("schrodinger_free", "schrodinger_potential", "klein_gordon",
                     "classical_wave", "electromagnetic")),
    row(f"{REPRO}[flat_packet]", "evolve --set sigma=1e308", 0,
        note="sigma ** 2 overflowed (OverflowError, exit 1)"),
    row(f"{REPRO}[trap_huge_interval]", f"{TRAP} --set dt=1e307 --set n_steps=1", 0,
        note="t = 1e307 overflowed a Strang factor; whole periods are reduced away now"),
    # each exited 2 after numpy RuntimeWarnings, naming neither sigma nor x0
    row("test_degenerate_packet_is_exit_2[evolve_sigma_underflow]", "evolve --set sigma=1e-300",
        2, "sigma = ", "x0 = ", note="4 sigma^2 underflows: 0/0 at x0"),
    row("test_degenerate_packet_is_exit_2[nrlimit_sigma_underflow]",
        "nrlimit --set sigma=1e-300", 2, "sigma = ", "x0 = "),
    row("test_degenerate_packet_is_exit_2[evolve_packet_off_grid]",
        "evolve --set x0=1e308 --set sigma=1e-3", 2, "sigma = ", "x0 = ",
        note="zero on every grid point"),
    # -- nrlimit: m c^2/hbar underflows to 0 or overflows (exit 0 with nan deviations and null
    # fits), or, in the last two, (m c^2/hbar)^2 of the carrier's terms overflows (exit 1)
    row(f"{ENVELOPE}[1e-200,1e-100]", f"{NR} --set c_ladder=1e-200,1e-100", 3,
        "non-finite envelope phase (t = 20.0) or dominance ratio at c = 1e-200 (m c^2/hbar = 0.0)"),
    row(f"{ENVELOPE}[10.0,1e200]", f"{NR} --set c_ladder=10.0,1e200", 3,
        "non-finite envelope phase (t = 20.0) or dominance ratio at c = 1e+200 (m c^2/hbar = inf)"),
    row(f"{ENVELOPE}[1e100,1e150]", f"{NR} --set c_ladder=1e100,1e150", 3,
        "non-finite dominance terms at c = 1e+100 (m c^2/hbar = 1e+200)"),
    row(f"{ENVELOPE}[1e60,1e80]", f"{NR} --set c_ladder=1e60,1e80", 3,
        "non-finite dominance terms at c = 1e+80 (m c^2/hbar = 1e+160)"),
    row("test_nrlimit_requires_ladder_of_two", "nrlimit --set c_ladder=10.0", 2,
        "--set #1: c_ladder must list at least 2"),
    row(f"{REPRO}[shipped_nrlimit_ladder]", NR, 0),
    row(f"{REPRO}[nrlimit_flat_packet_in_tiny_box]", f"{NR} --set length=1e-12 --set sigma=1e300",
        0, note="sigma ** 2 overflowed in the packet (OverflowError, exit 1)"),
    # -- oscillator
    row("test_oscillator_bad_bracket_is_exit_2",
        f"{OSC} --set bracket_lo=5.0 --set bracket_hi=1.0", 2, "need 0 < lo < hi, got (5.0, 1.0)"),
    # E(dx) overflowed (OverflowError) or divided by an underflowed 8 m dx^2
    # (ZeroDivisionError) in the golden-section search: both exited 1
    row(f"{BOUND3}[bracket_overflow]", f"{OSC} --set bracket_hi=1e300", 3,
        "bound curve E(dx) = inf at dx = 5e+299"),
    row(f"{BOUND3}[subnormal_mass]", f"{OSC} --set mass=5e-324", 3,
        "bound curve E(dx) = inf at dx = 0.05"),
    row(f"{REPRO}[oscillator_subnormal_mass]", "oscillator --set mass=5e-324", 3,
        "bound curve E(dx) = inf at dx = 0.05"),
    row("test_oscillator_iteration_budget_exhausted_is_exit_3", f"{OSC} --set max_iters=2", 3,
        "energy change still above 1e-12 after 2 iterations"),
    *(row(f"test_oscillator_empty_budget_or_tolerance_is_exit_2[{key}={value}]",
          f"{OSC} --set {key}={value}", 2, f"config error: {key} must be {bound}, got {got}\n",
          note="exited 3 after 0 iterations, or, for energy_tol <= 0, after all 50,000")
      for key, value, bound, got in (("max_iters", "0", ">= 1", "0"),
                                     ("max_iters", "-5", ">= 1", "-5"),
                                     ("energy_tol", "0", "positive and finite", "0.0"),
                                     ("energy_tol", "-1", "positive and finite", "-1.0"))),
    row("test_oscillator_coarse_grid_is_exit_4", f"{OSC} --set n_points=8", 4,
        "ground width 0.7071 is below 4 dx = 10", "hint: raise n_points"),
    row(f"{REPRO}[omega_c_squared_underflow]", f"{OSC} --set omega_c=1e-200 --set length=2e101 "
        "--set bracket_lo=1e99 --set bracket_hi=1e101 --set search_tol=1e86 --set tau_step=1e198",
        0, note="omega_c^2 underflowed: golden_section 1.25e-203 and imaginary_time 1.13e-202, "
        "below hbar omega_c / 2 = 5e-201"),
    row(f"{REPRO}[verify]", "verify", 0),
    # -- the extreme-value gate's pinned cases, at its sizes (N = 64, 20 steps, 300 iterations)
    # unless raised: each ended in a traceback (exit 1), printed a numpy RuntimeWarning
    # (exit 1 with warnings as errors), or exited 0 with an energy row below hbar omega_c / 2
    row(f"{REPRO}[gate_subnormal_spacing]",
        "evolve --set n_points=64 --set n_steps=20 --set length=1e-310 --set x0=0.0", 2,
        "grid spacing length / n_points = 1e-310 / 64 is subnormal",
        note="OverflowError in the writer's |psi|^2"),
    row(f"{REPRO}[gate_zero_spacing]", "oscillator --set n_points=64 --set max_iters=300 "
        "--set length=5e-324 --set hbar=5e-324", 2,
        "grid spacing length / n_points = 5e-324 / 64 is subnormal",
        note="ZeroDivisionError at dx = 0"),
    row(f"{REPRO}[gate_ground_width_inf]", "oscillator --set n_points=64 --set max_iters=300 "
        "--set mass=1e-200 --set omega_c=1e-200", 3, "ground width sqrt(hbar / 2 m omega_c) = inf",
        note="ZeroDivisionError at 2 m omega_c = 0"),
    row(f"{REPRO}[gate_start_state_overflow]", "oscillator --set n_points=256 "
        "--set max_iters=300 --set mass=0.5 --set omega_c=1e-308 --set length=2e155", 3,
        "start state has norm nan", note="OverflowError in the relaxation's start state"),
    row(f"{REPRO}[gate_omega_divide_overflow]",
        "evolve --set mass=5e-324 --set x_c=1e-160 --set n_points=64 --set n_steps=20", 3,
        "non-finite mode amplitudes at t = 0.2", note="omega(k) overflowed in a divide"),
    row(f"{REPRO}[gate_omega_multiply_overflow]",
        "evolve --set n_points=64 --set n_steps=20 --set hbar=1.7e308 --set x_c=1e300", 3,
        "non-finite mode amplitudes at t = 0.2", note="omega(k) overflowed in a multiply"),
    row(f"{REPRO}[gate_infinite_carrier_ratio]",
        "nrlimit --set mass=5e-324 --set length=1.7e308 --set n_points=64 --set n_steps=20", 0,
        note="the carrier's ratio overflowed outside any errstate"),
    row(f"{REPRO}[gate_tau_step_huge]",
        "oscillator --set n_points=256 --set max_iters=300 --set tau_step=1e300", 0,
        note='exited 3: "energy spread ... tau_step too large?"'),
    row(f"{REPRO}[gate_tau_step_subnormal]",
        "oscillator --set n_points=256 --set max_iters=50000 --set tau_step=5e-324", 0,
        note='exited 3: "energy spread ... tau_step too large?"'),
    row(f"{REPRO}[gate_tau_step_tiny]",
        "oscillator --set n_points=256 --set max_iters=300 --set tau_step=1e-9", 0,
        note="exited 3 after 50,000 iterations"),
    row(f"{REPRO}[gate_omega_c_squared_underflow]", "oscillator --set n_points=256 "
        "--set max_iters=50000 --set mass=1e300 --set omega_c=1e-300", 0,
        note="golden_section 3.1e-304 against hbar omega_c / 2 = 5e-301"),
    row(f"{REPRO}[gate_hbar_squared_underflow]", "oscillator --set n_points=256 "
        "--set max_iters=300 --set hbar=1e-200 --set mass=1e-200", 0,
        note="golden_section 1.25e-203, imaginary_time 2.5000007e-201, against 5e-201"),
    row(f"{REPRO}[gate_hbar_squared_underflow_tiny_box]", "oscillator --set n_points=256 "
        "--set max_iters=300 --set hbar=1e-200 --set length=2e-99 --set bracket_lo=1e-101 "
        "--set bracket_hi=1e-100 --set search_tol=1e-114", 0,
        note="an energy row below hbar omega_c / 2"),
)


def prepare(row, root):
    """Write the row's files under `root`; return its argv, with an --out under `root`."""
    for name, text in row.files.items():
        path = os.path.join(root, name)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            fh.write(text)
    argv = [arg.format(tmp=root, configs=CONFIGS) for arg in row.argv]
    return argv if "--out" in argv else [*argv, "--out", os.path.join(root, "out")]


def tree(root):
    """{path under root: bytes, or None for a directory}."""
    found = {}
    for top, dirs, files in os.walk(root):
        found.update((os.path.relpath(os.path.join(top, name), root), None) for name in dirs)
        for name in files:
            with open(os.path.join(top, name), "rb") as fh:
                found[os.path.relpath(fh.name, root)] = fh.read()
    return found


def refuse_constant(name):
    raise AssertionError(f"non-finite {name} in a JSON artifact")


def _assert_finite_artifacts(out):
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name)) as fh:
            text = fh.read()
        if name.endswith(".json"):
            json.loads(text, parse_constant=refuse_constant)
        elif name.endswith(".csv"):
            header, *rows = (line.split(",") for line in text.splitlines())
            for cells in rows:
                for column, cell in zip(header, cells):
                    if column not in LABEL_COLUMNS and (name, column) not in NAN_COLUMNS:
                        assert math.isfinite(float(cell)), f"{name}: {column} = {cell}"


def check(argv, code, fragments, rc, err, before, root):
    """Assert that wavelab `argv`, run in `root` (whose tree was `before`), ended as pinned.

    A refusal (`code` 2, 3 or 4) prints its family's one line (a hint line too for 4; an
    unknown command prints argparse's usage) naming every fragment, with no traceback, and
    leaves `root` as it was: --out untouched and no stage.  A success leaves finite CSV and
    JSON cells, no energy row of `oscillator` below the analytic one, and no stage.  With
    `code` None any of 0, 2, 3 and 4 passes.
    """
    run = f"wavelab {' '.join(argv)}: exit {rc}\n{err}"
    assert rc == code if code is not None else rc in (0, 2, 3, 4), run
    assert "Traceback" not in err and all(f in err for f in fragments), run
    after = tree(root)
    if rc:
        if argv[0] in COMMANDS:
            assert err.startswith(PREFIX[rc]) and err.count("\n") == (2 if rc == 4 else 1), run
        else:
            assert err.startswith("usage: wavelab ") and "wavelab: error: " in err, run
        assert after == before, f"{run}changed {sorted(set(after) ^ set(before))} or their bytes"
        return
    assert not [p for p in after if ".wavelab-" in p], f"{run}left a stage behind"
    if argv[0] == "verify":  # writes no file
        return
    out = argv[argv.index("--out") + 1]
    _assert_finite_artifacts(out)
    if argv[0] == "oscillator":  # the paper's bound: no row below hbar omega_c / 2
        with open(os.path.join(out, "oscillator.csv")) as fh:
            bound, *energies = (float(line.split(",")[2]) for line in fh.read().splitlines()[1:])
        low = bound * (1 - 64 * sys.float_info.epsilon)
        assert all(e >= low for e in energies), f"{run}energies {energies} below {bound}"


def main():
    """Run every row through the `wavelab` on PATH; exit 1 if any row fails."""
    if not __debug__:
        sys.exit("the checks are assert statements: run without -O")
    env = dict(os.environ, PYTHONWARNINGS="error::RuntimeWarning,ignore::UserWarning")
    failed = []
    for case in ROWS:
        with tempfile.TemporaryDirectory() as root:
            argv = prepare(case, root)
            before = tree(root)
            proc = subprocess.run(["wavelab", *argv], env=env, cwd=root, capture_output=True,
                                  text=True, timeout=600)
            try:
                check(argv, case.code, case.fragments, proc.returncode, proc.stderr, before, root)
            except AssertionError as exc:
                failed.append(case.id)
                print(f"FAIL {case.id} ({case.note or 'no note'}):\n{exc}\n", flush=True)
    print(f"{len(ROWS) - len(failed)} of {len(ROWS)} reproducers pass through wavelab on PATH")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
