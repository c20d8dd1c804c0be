"""Every pinned wavelab command line, with its exit code and what its stderr must name.

A row is (id, argv, exit code, stderr fragments, note, files); a new reproducer is one
row.  `check` is the one verdict on a finished run.  tests/test_cli.py runs every row in
process, as the test its id names, and sends the extreme-value gate's drawn cases through
`check` too.  Run as a script, this file sends every row through the `wavelab` script on
PATH instead, as an installed package runs:

    python tests/reproducers.py

The rows pinned to exit 0 are also the artifact streams.  With a git revision,

    python tests/reproducers.py --against REV

runs each of them through `python -m wavelab` on this tree and on REV (extracted with
`git archive`), each tree with its own src and configs, and compares the exit code, stdout
and every file under the row's directory byte for byte.  It prints each differing
`row-id/path` and exits 1 unless those are exactly the paths listed in `MOVED`.

Standard library only: the script must not import the package it checks.
"""

import argparse
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from typing import NamedTuple

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIGS = os.path.join(REPO, "configs")
ENV = dict(os.environ, PYTHONWARNINGS="error::RuntimeWarning,ignore::UserWarning")
# "row-id/path" of every artifact whose bytes this tree moves on purpose against its parent,
# each said in CHANGES.md; a listed path whose bytes do not move fails the comparison too
MOVED = set()
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
        "--seed: seed must be <= 18446744073709551615"),
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
    row(f"{REFUSED}[plane_wave_k0_overflow]", "nrlimit --set packet_kind=plane_wave --set k0=1e308",
        2, "k0 = 1e+308 has no grid mode on length = 64.0",
        note="round() of an infinite mode index raised OverflowError, exit 1 (in evolve, which "
        "has no plane wave since)"),
    row(f"{REFUSED}[plane_wave_k0_overflow_negative]",
        "nrlimit --set packet_kind=plane_wave --set k0=-1e308", 2,
        "k0 = -1e+308 has no grid mode on length = 64.0"),
    row(f"{REFUSED}[evolve_plane_wave]", "evolve --set packet_kind=plane_wave", 2,
        "--set #1: packet_kind must be one of gaussian",
        note="exit 0 with centroids 1.19, 45.31, 57.69 and 20.44 at t = 0..3: a uniform density "
        "has no centroid, and the written one was the argmax of rounding noise"),
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
    # past 2**53 a step count is not exact in step * dt
    row(f"{REFUSED}[evolve_n_steps_past_2**53]",
        "evolve --set n_steps=4611686018427387904 --set snapshot_every=0", 2,
        "--set #1: n_steps must be <= 9007199254740992, got 4611686018427387904",
        note="exit 0 with t = 4.6e16 and width 18.57, phase noise"),
    row(f"{REFUSED}[nrlimit_n_steps_past_2**53]",
        "nrlimit --set n_steps=4611686018427387904 --set snapshot_every=0", 2,
        "--set #1: n_steps must be <= 9007199254740992, got 4611686018427387904",
        note="exit 0 with final_deviation_c_exponent -0.197"),
    row(f"{REFUSED}[snapshot_every_past_2**53]", "nrlimit --set snapshot_every=9007199254740993",
        2, "--set #1: snapshot_every must be <= 9007199254740992, got 9007199254740993"),
    row(f"{REFUSED}[max_iters_past_2**53]", "oscillator --set max_iters=9007199254740993", 2,
        "--set #1: max_iters must be <= 9007199254740992, got 9007199254740993"),
    row(f"{REPRO}[n_steps_at_2**53]", "evolve --set n_steps=9007199254740992 "
        "--set snapshot_every=0", 3, "phase rounding bound eps |t| W at t = 90071992547409.92",
        note="the largest step count the parser takes; its t is past the phase budget"),
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
        "phase rounding bound eps |t| W at t = 4e+305", note="snapshot 0 succeeds first"),
    row(f"{REPRO}[existing_out_kept]",
        "evolve --set dt=4e305 --set n_steps=3 --set snapshot_every=1", 3,
        "phase rounding bound eps |t| W at t = 4e+305", files={"out/notes.txt": "kept\n"},
        note="a write error at snapshot 2 left snapshots 0 and 1 in an existing --out; "
        "snapshot 0 succeeds first"),
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
    row(f"{REPRO}[shipped_harmonic_ground]", "evolve --config {configs}/harmonic_ground.cfg", 0),
    # two snapshot streams beyond the shipped configs: 401 trap snapshots, whose float
    # intervals rebuild the trap step, and 21 Klein-Gordon snapshots, the shape of the
    # benchmark's write-bound workload
    row(f"{REPRO}[harmonic_ground_401]", "evolve --config {configs}/harmonic_ground.cfg "
        "--set dt=0.1 --set n_steps=400 --set snapshot_every=1", 0),
    row(f"{REPRO}[klein_gordon_21]", "evolve --config {configs}/free_gaussian.cfg "
        "--set family=klein_gordon --set dt=0.5 --set n_steps=20 --set snapshot_every=1", 0),
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
    row(f"{REPRO}[flat_packet]", "evolve --set sigma=1e308", 4,
        "at t = 0.0 (x0 = 16.0, sigma = 1e+308), so enlarge length; line-moment gap: ",
        note="sigma ** 2 overflowed (OverflowError, exit 1); then exit 0 with a flat density, "
        "width L / sqrt(12) for sigma 1e308 and a centroid of rounding noise"),
    # -- the line moments: each row's centroid (on the circle) and width within 1e-9 of the
    # width from the packet spec at t = 0, else from the closed-form Heisenberg moments; each
    # exited 0 with the moments of a packet that no longer fits the box
    row(f"{REPRO}[moments_free_wrap]", "evolve --config {configs}/free_gaussian.cfg --set dt=5 "
        "--set n_steps=12 --set snapshot_every=1", 4, "at t = 15.0, so enlarge length; ",
        note="width 19.42 and centroid 27.91 at t = 45, where the line packet has 22.52 and 61.0"),
    row(f"{REPRO}[moments_trap_orbit]", "evolve --config {configs}/harmonic_ground.cfg "
        "--set omega_c=5 --set sigma=0.31622776601683794 --set x0=18 --set dt=0.3 --set n_steps=1",
        4, "at t = 0.0 (x0 = 18.0, sigma = 0.31622776601683794), so enlarge length; ",
        note="width 1.280 and centroid 10.23 at t = 0.3, where the coherent state has 0.3162 "
        "at 10.57"),
    row(f"{REPRO}[moments_trap_edge]", "evolve --config {configs}/harmonic_ground.cfg --set x0=17 "
        "--set dt=1.5 --set n_steps=2 --set snapshot_every=1", 4,
        "at t = 0.0 (x0 = 17.0, sigma = 0.7071067811865476), so enlarge length; ",
        note="centroid 16.999956 at t = 0, and a width 1.1e-3 (relative) off the closed form "
        "at t = 1.5"),
    row(f"{REPRO}[moments_non_finite_prediction]", "evolve --set n_points=64 --set length=1e6 "
        "--set sigma=62500 --set x0=5e5 --set k0=0 --set mass=1e-313 --set dt=1e-300 "
        "--set n_steps=1", 3, "non-finite line moments at t = 1e-300",
        note="new with the rule: hbar k / m overflows at the Nyquist mode, where omega is finite"),
    row(f"{REPRO}[trap_huge_interval]", f"{TRAP} --set dt=1e307 --set n_steps=1", 3,
        "phase rounding bound eps |t| W at t = 1e+307: ",
        note="t = 1e307 overflowed a Strang factor (exit 3); with whole periods reduced away it "
        "exited 0, pinned so, though omega_c t kept no correct digit"),
    # -- the phase budget: eps |t| W <= 1e-6 rad, W the path's power-weighted |frequency|; each
    # exited 0 with a phase that kept no correct digit
    row(f"{REPRO}[phase_budget_trap]", "evolve --config {configs}/harmonic_ground.cfg "
        "--set x0=12 --set dt=1e16 --set n_steps=1", 3,
        "phase rounding bound eps |t| W at t = 1e+16: 2.22",
        note="centroid 8.249, where the coherent state sits at 8.748"),
    row(f"{REPRO}[phase_budget_free]", "evolve --config {configs}/free_gaussian.cfg "
        "--set dt=1e16 --set n_steps=1", 3, "phase rounding bound eps |t| W at t = 1e+16: 1.38",
        note="width 16.57"),
    row(f"{REPRO}[phase_budget_klein_gordon]", "evolve --set family=klein_gordon --set dt=1e300 "
        "--set n_steps=2 --set snapshot_every=1", 3, "phase rounding bound eps |t| W at t = 1e+300",
        note="three unit norms, pinned so: the rotation stays unitary at any phase; "
        "snapshot 0 succeeds first"),
    row(f"{REPRO}[phase_budget_first_snapshot]", "evolve --set dt=1e16 --set n_steps=3000 "
        "--set snapshot_every=1", 3, "phase rounding bound eps |t| W at t = 1e+16: ",
        note="3,000 snapshots computed and staged before exit 3 named t = 3e+19"),
    row(f"{REPRO}[phase_budget_nrlimit]", "nrlimit --set dt=1e13 --set n_steps=20 "
        "--set snapshot_every=0", 3,
        "phase rounding bound eps |t| W at t = 200000000000000.0, c = 10.0: 3.8",
        note="final_deviation_c_exponent -0.11, where the law says -2"),
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
    row(f"{REPRO}[shipped_oscillator]", OSC, 0),
    row(f"{REPRO}[oscillator_relax]", f"{OSC} --set n_points=1024 --set length=40.0 "
        "--set omega_c=1.05 --set tau_step=0.0019047619047619048", 0,
        note="the oscillator_relax benchmark's problem"),
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
        "ground width 0.7071 is below 4 dx = 10; increase n_points or shrink length\n"),
    row(f"{REPRO}[oscillator_small_box]", f"{OSC} --set length=5", 4,
        "length 5 is below 16 x ground width 11.31; enlarge the box\n",
        note="a fixed hint followed: raise n_points, shrink length, or lower omega_c, "
        "of which the last two make the box smaller still against the ground width"),
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


def prepare(row, root, configs=CONFIGS):
    """Write the row's files under `root`; return its argv, with an --out under `root`."""
    for name, text in row.files.items():
        path = os.path.join(root, name)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            fh.write(text)
    argv = [arg.format(tmp=root, configs=configs) for arg in row.argv]
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
        if name.endswith(".json"):  # json's own text of its value, keys sorted
            value = json.loads(text, parse_constant=refuse_constant)
            assert json.dumps(value, indent=2, sort_keys=True) + "\n" == text, name
        elif name.endswith(".csv"):
            header, *rows = (line.split(",") for line in text.splitlines())
            for cells in rows:
                for column, cell in zip(header, cells):
                    if column not in LABEL_COLUMNS and (name, column) not in NAN_COLUMNS:
                        assert math.isfinite(float(cell)), f"{name}: {column} = {cell}"


def check(argv, code, fragments, rc, err, before, root):
    """Assert that wavelab `argv`, run in `root` (whose tree was `before`), ended as pinned.

    A refusal (`code` 2, 3 or 4) prints its family's one line (an unknown command prints
    argparse's usage) naming every fragment, with no traceback, and leaves `root` as it
    was: --out untouched and no stage.  A success leaves finite CSV and
    JSON cells, no energy row of `oscillator` below the analytic one, and no stage.  With
    `code` None any of 0, 2, 3 and 4 passes.
    """
    run = f"wavelab {' '.join(argv)}: exit {rc}\n{err}"
    assert rc == code if code is not None else rc in (0, 2, 3, 4), run
    assert "Traceback" not in err and all(f in err for f in fragments), run
    after = tree(root)
    if rc:
        if argv[0] in COMMANDS:
            assert err.startswith(PREFIX[rc]) and err.count("\n") == 1, run
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
    failed = []
    for case in ROWS:
        with tempfile.TemporaryDirectory() as root:
            argv = prepare(case, root)
            before = tree(root)
            proc = subprocess.run(["wavelab", *argv], env=ENV, cwd=root, capture_output=True,
                                  text=True, timeout=600)
            try:
                check(argv, case.code, case.fragments, proc.returncode, proc.stderr, before, root)
            except AssertionError as exc:
                failed.append(case.id)
                print(f"FAIL {case.id} ({case.note or 'no note'}):\n{exc}\n", flush=True)
    print(f"{len(ROWS) - len(failed)} of {len(ROWS)} reproducers pass through wavelab on PATH")
    return 1 if failed else 0


def compare(rows, theirs, ours, moved):
    """The verdict of `--against`: (every differing "row-id/path", whether they are `moved`).

    `theirs` and `ours` map a row id to its run, as `stream` returns it.  Only the rows pinned
    to exit 0 are compared: a refusal writes nothing.
    """
    differ = sorted(f"{row.id}/{path}" for row in rows if row.code == 0
                    for path in theirs[row.id].keys() | ours[row.id].keys()
                    if theirs[row.id].get(path) != ours[row.id].get(path))
    return differ, set(differ) == moved


def stream(row, root, top):
    """The row's run by `python -m wavelab` from the tree at `top`, in `root`: {path under
    `root`: bytes, or None for a directory}, with the exit code and stdout under "exit" and
    "stdout"."""
    argv = prepare(row, root, os.path.join(top, "configs"))
    proc = subprocess.run([sys.executable, "-m", "wavelab", *argv], cwd=root, timeout=600,
                          env=dict(ENV, PYTHONPATH=os.path.join(top, "src")), capture_output=True)
    return {**tree(root), "exit": str(proc.returncode).encode(), "stdout": proc.stdout}


def against(rev):
    """Run every exit-0 row on this tree and on `rev`; exit 1 unless exactly `MOVED` differ."""
    rows = [row for row in ROWS if row.code == 0]
    archive = subprocess.run(["git", "-C", REPO, "archive", rev], capture_output=True)
    if archive.returncode:
        sys.exit(f"git archive {rev}: {archive.stderr.decode().strip()}")
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        parent = os.path.join(tmp, "parent")
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(parent, filter="data")
        for top in (parent, REPO):
            # each tree's own sources, not an installed wavelab
            want = os.path.join(top, "src", "wavelab", "__init__.py")
            found = subprocess.run(
                [sys.executable, "-c", "import wavelab; print(wavelab.__file__)"], cwd=tmp,
                env=dict(ENV, PYTHONPATH=os.path.join(top, "src")), capture_output=True, text=True)
            if found.stdout.strip() != want:
                sys.exit(f"PYTHONPATH={top}/src imports wavelab from {found.stdout or 'nowhere'}")
            runs.append({})
            for row in rows:  # one directory for both trees, so no path differs in the bytes
                root = os.path.join(tmp, "run")
                os.mkdir(root)
                runs[-1][row.id] = stream(row, root, top)
                shutil.rmtree(root)
    differ, same_as_moved = compare(rows, *runs, MOVED)
    for path in differ:
        print(f"{'moved' if path in MOVED else 'DIFFERS'}: {path}")
    for path in sorted(MOVED - set(differ)):
        print(f"listed in MOVED but as at {rev}: {path}")
    files = sum(value is not None and path not in ("exit", "stdout")
                for run in runs[1].values() for path, value in run.items())
    print(f"{len(rows)} rows against {rev}: {files} files, each exit code and stdout; "
          f"{len(differ)} differ, {len(MOVED)} listed in MOVED")
    return 0 if same_as_moved else 1


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Run every pinned wavelab command line.")
    parser.add_argument("--against", metavar="REV",
                        help="compare the exit-0 rows' artifacts with those of git revision REV")
    rev = parser.parse_args().against
    sys.exit(main() if rev is None else against(rev))
