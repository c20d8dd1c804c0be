import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from wavelab import cli
from wavelab import (
    ClassicalWave,
    Electromagnetic,
    GaussianPacketSpec,
    Grid1D,
    KleinGordon,
    PhysicalConstants,
    TimeSpec,
    constant_potential,
    evolve_second_order_spectral,
    gaussian_packet,
    nr_expansion_error,
    positive_branch_init,
    split_step_evolve,
    zero_potential,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def read_csv(path: Path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def column(rows, header, name, convert=float):
    idx = header.index(name)
    return [convert(r[idx]) for r in rows]


def tree_bytes(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def main_strict(argv, allowed=None):
    """(exit code, allowed warnings that fired) of cli.main, with every warning
    but the `allowed` message raised as an error."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("error")
        if allowed:
            warnings.filterwarnings("always", message=allowed)
        rc = cli.main(argv)
    return rc, [str(w.message) for w in caught]


def assert_finite_csv(path: Path):
    _, rows = read_csv(path)
    values = np.array(rows, dtype=float)
    assert values.size and np.all(np.isfinite(values))


def _refuse_constant(name):
    raise AssertionError(f"non-finite {name} in a JSON artifact")


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

def test_unknown_key_is_exit_2(tmp_path):
    rc = cli.main(["evolve", "--out", str(tmp_path / "o"), "--set", "sgima=1.0"])
    assert rc == 2


def test_bad_value_is_exit_2(tmp_path):
    rc = cli.main(["evolve", "--out", str(tmp_path / "o"), "--set", "dt=fast"])
    assert rc == 2


def test_duplicate_key_is_exit_2(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("dt = 0.1\ndt = 0.2\n")
    rc = cli.main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2


def test_scenario_mismatch_is_exit_2(tmp_path):
    rc = cli.main(["oscillator", "--config", str(CONFIGS / "free_gaussian.cfg"),
                   "--out", str(tmp_path / "o")])
    assert rc == 2


def test_invariant_violating_parameters_are_exit_2(tmp_path):
    rc = cli.main(["evolve", "--out", str(tmp_path / "o"), "--set", "n_points=100"])
    assert rc == 2  # not a power of two
    rc = cli.main(["dispersion", "--out", str(tmp_path / "o2"), "--set", "mass=-1.0"])
    assert rc == 2


@pytest.mark.parametrize("scenario, override", [
    ("dispersion", "k_max=nan"),
    ("dispersion", "c=inf"),
    ("evolve", "mass=inf"),
    ("nrlimit", "c_ladder=10.0,inf"),
])
def test_non_finite_float_is_exit_2(tmp_path, capsys, scenario, override):
    rc = cli.main([scenario, "--out", str(tmp_path / "o"), "--set", override])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert "must be finite" in err


def test_malformed_line_reports_line_number(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("# fine\nnot a pair\n")
    rc = cli.main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert ":2:" in capsys.readouterr().err


def test_config_echo_roundtrips(tmp_path):
    out = tmp_path / "run"
    assert cli.main(["dispersion", "--config", str(CONFIGS / "dispersion_kg.cfg"),
                     "--out", str(out)]) == 0
    echoed = out / "config_echo.cfg"
    pairs = cli.parse_config_file(echoed)
    cfg = cli.build_config("dispersion", pairs, [])
    assert cfg["mass"] == 1.0
    assert cfg["k_count"] == 9


# ---------------------------------------------------------------------------
# dispersion command
# ---------------------------------------------------------------------------

def test_dispersion_massive_scan(tmp_path):
    out = tmp_path / "disp"
    rc = cli.main(["dispersion", "--config", str(CONFIGS / "dispersion_kg.cfg"),
                   "--out", str(out)])
    assert rc == 0
    header, rows = read_csv(out / "dispersion.csv")
    assert ",".join(header) == "family,k,omega,group_velocity,p,E,nr_gap,nr_bound"
    ks = column(rows, header, "k")
    omegas = column(rows, header, "omega")
    assert ks[0] == 0.0
    assert omegas[0] == 1.0  # rest frequency m c^2 / hbar
    assert len(rows) == 9


def test_dispersion_massless_scan(tmp_path):
    for family in ("electromagnetic", "classical_wave"):
        out = tmp_path / family
        rc = cli.main(["dispersion", "--out", str(out),
                       "--set", f"family={family}", "--set", "k_count=5"])
        assert rc == 0
        header, rows = read_csv(out / "dispersion.csv")
        ks = column(rows, header, "k")
        omegas = column(rows, header, "omega")
        assert omegas == ks
        assert all(np.isnan(v) for v in column(rows, header, "nr_gap"))


def test_dispersion_free_particle_row(tmp_path):
    out = tmp_path / "disp"
    rc = cli.main(["dispersion", "--out", str(out),
                   "--set", "family=schrodinger_free",
                   "--set", "k_min=2.0", "--set", "k_max=2.0", "--set", "k_count=1"])
    assert rc == 0
    header, rows = read_csv(out / "dispersion.csv")
    row = rows[0]
    assert column([row], header, "omega")[0] == 2.0
    assert column([row], header, "group_velocity")[0] == 2.0
    assert column([row], header, "p")[0] == 2.0
    assert column([row], header, "E")[0] == 2.0


@pytest.mark.parametrize("potential, omega", [("none", 4.5), ("constant", 4.75)])
def test_dispersion_potential_family_applies_v0_only_for_constant(tmp_path, potential, omega):
    # v0 used to be added whatever the potential key said
    out = tmp_path / "disp"
    rc = cli.main(["dispersion", "--out", str(out), "--set", "family=schrodinger_potential",
                   "--set", "v0=0.25", "--set", f"potential={potential}",
                   "--set", "k_min=-3.0", "--set", "k_max=-3.0", "--set", "k_count=1"])
    assert rc == 0
    header, rows = read_csv(out / "dispersion.csv")
    assert column(rows, header, "omega") == [omega]
    assert column(rows, header, "E") == [omega]


@pytest.mark.parametrize("overrides", [
    ["k_max=1e100"],                                           # k ** 4 overflows
    ["family=klein_gordon", "c=5e-324", "k_min=1e-300"],       # omega = 0: 0/0
    ["family=klein_gordon", "c=1e200"],                        # m c^2/hbar = inf
], ids=["k4_overflow", "zero_omega", "rest_frequency_overflow"])
def test_dispersion_non_finite_row_is_exit_3(tmp_path, capsys, overrides):
    # these used to end in a traceback (exit 1) or write inf/nan rows with exit 0
    sets = [arg for item in overrides for arg in ("--set", item)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning may reach stderr
        rc = cli.main(["dispersion", "--out", str(tmp_path / "o"), *sets])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:") and err.count("\n") == 1
    assert not (tmp_path / "o" / "dispersion.csv").exists()


# ---------------------------------------------------------------------------
# evolve command
# ---------------------------------------------------------------------------

def test_evolve_free_gaussian_norm_constant(tmp_path):
    out = tmp_path / "run"
    rc = cli.main(["evolve", "--config", str(CONFIGS / "free_gaussian.cfg"),
                   "--out", str(out)])
    assert rc == 0
    header, rows = read_csv(out / "summary.csv")
    assert ",".join(header) == "t,norm,centroid,width"
    norms = column(rows, header, "norm")
    assert max(abs(n - norms[0]) for n in norms) <= 1e-12
    snapshots = sorted(out.glob("snapshot_*.csv"))
    assert len(snapshots) == len(rows)
    sheader, srows = read_csv(snapshots[0])
    assert ",".join(sheader) == "t,x,re_psi,im_psi,abs2"
    assert len(srows) == 512


def test_evolve_zero_steps_emits_initial_packet(tmp_path):
    out = tmp_path / "run"
    rc = cli.main(["evolve", "--config", str(CONFIGS / "free_gaussian.cfg"),
                   "--out", str(out), "--set", "n_steps=0"])
    assert rc == 0
    header, rows = read_csv(out / "snapshot_0000.csv")
    grid = Grid1D(512, 64.0)
    want = gaussian_packet(GaussianPacketSpec(16.0, 1.0, 1.0), grid)
    got = np.array(column(rows, header, "re_psi")) \
        + 1j * np.array(column(rows, header, "im_psi"))
    assert np.max(np.abs(got - want.samples)) == 0.0
    assert len(sorted(out.glob("snapshot_*.csv"))) == 1


def test_evolve_harmonic_ground_width_constant(tmp_path):
    out = tmp_path / "run"
    rc = cli.main(["evolve", "--config", str(CONFIGS / "harmonic_ground.cfg"),
                   "--out", str(out)])
    assert rc == 0
    header, rows = read_csv(out / "summary.csv")
    widths = column(rows, header, "width")
    assert max(abs(w - widths[0]) for w in widths) <= 1e-6


def test_evolve_second_order_family(tmp_path):
    out = tmp_path / "run"
    rc = cli.main(["evolve", "--config", str(CONFIGS / "free_gaussian.cfg"),
                   "--out", str(out),
                   "--set", "family=klein_gordon", "--set", "c=10.0",
                   "--set", "n_steps=100"])
    assert rc == 0
    header, rows = read_csv(out / "summary.csv")
    norms = column(rows, header, "norm")
    assert max(abs(n - norms[0]) for n in norms) <= 1e-10


def test_evolve_rejects_potential_for_free_families(tmp_path):
    rc = cli.main(["evolve", "--out", str(tmp_path / "o"),
                   "--set", "family=schrodinger_free", "--set", "potential=harmonic"])
    assert rc == 2
    rc = cli.main(["evolve", "--out", str(tmp_path / "o2"),
                   "--set", "family=klein_gordon", "--set", "potential=constant"])
    assert rc == 2
    for family in ("classical_wave", "electromagnetic"):
        rc = cli.main(["evolve", "--out", str(tmp_path / family),
                       "--set", f"family={family}", "--set", "potential=constant"])
        assert rc == 2


def test_evolve_nonfinite_potential_is_exit_3(tmp_path):
    rc = cli.main(["evolve", "--out", str(tmp_path / "o"),
                   "--set", "family=schrodinger_potential",
                   "--set", "potential=harmonic", "--set", "omega_c=1e200"])
    assert rc == 3


@pytest.mark.parametrize("family", ["schrodinger_free", "klein_gordon"])
def test_evolve_overflowing_dt_is_exit_3(tmp_path, capsys, family):
    rc = cli.main(["evolve", "--out", str(tmp_path / "o"), "--set", f"family={family}",
                   "--set", "dt=1e306", "--set", "n_steps=1000"])
    assert rc == 3
    assert "numerical failure" in capsys.readouterr().err


def test_second_order_negative_dt_is_exit_2(tmp_path, capsys):
    rc = cli.main(["evolve", "--out", str(tmp_path / "o"), "--set", "family=klein_gordon",
                   "--set", "dt=-0.01", "--set", "n_steps=10", "--set", "snapshot_every=5"])
    assert rc == 2
    assert "dt must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("family", list(cli._FAMILIES))
def test_negative_dt_is_exit_2_even_without_steps(tmp_path, capsys, family):
    # with n_steps = 0 no TimeSpec used to be built, so the run exited 0
    # (and the second-order families wrote t = -0.0)
    out = tmp_path / "o"
    rc = cli.main(["evolve", "--out", str(out), "--set", f"family={family}",
                   "--set", "dt=-0.01", "--set", "n_steps=0"])
    assert rc == 2
    assert "dt must be positive" in capsys.readouterr().err
    assert not list(out.glob("*.csv"))


def test_evolve_flat_packet_is_exit_0(tmp_path):
    # sigma ** 2 overflowed (OverflowError, exit 1); the envelope is now flat,
    # so the packet is the normalised plane wave of the carrier
    out = tmp_path / "o"
    rc, seen = main_strict(["evolve", "--out", str(out), "--set", "sigma=1e308"],
                           allowed="sigma = .* periodic images")
    assert rc == 0 and seen
    paths = sorted(out.glob("*.csv"))
    assert len(paths) == 7  # six snapshots and the summary
    for path in paths:
        assert_finite_csv(path)
    header, rows = read_csv(out / "snapshot_0000.csv")
    assert column(rows, header, "abs2") == pytest.approx([1.0 / 64.0] * 512, rel=1e-12)


def test_second_order_rotation_stays_unitary_at_huge_time(tmp_path):
    out = tmp_path / "o"
    rc = cli.main(["evolve", "--out", str(out), "--set", "family=klein_gordon",
                   "--set", "dt=1e300", "--set", "n_steps=2", "--set", "snapshot_every=1"])
    assert rc == 0
    header, rows = read_csv(out / "summary.csv")
    norms = column(rows, header, "norm")
    assert len(norms) == 3
    assert max(abs(n - 1.0) for n in norms) <= 1e-12


# family -> extra --set overrides of its CLI run
_CSV_FAMILY_SETS = {
    "schrodinger_free": [],
    "schrodinger_potential": ["potential=constant", "v0=0.5"],
    "klein_gordon": [],
    "classical_wave": ["wave_speed=1.5"],
    "electromagnetic": [],
}


def _library_snapshots(family):
    """free_gaussian.cfg at n_steps=50, snapshot_every=25, evolved without the CLI."""
    grid = Grid1D(512, 64.0)
    psi0 = gaussian_packet(GaussianPacketSpec(16.0, 1.0, 1.0), grid)
    dt = 0.01
    if family in ("schrodinger_free", "schrodinger_potential"):
        v = constant_potential(grid, 0.5) if family == "schrodinger_potential" \
            else zero_potential(grid)
        return split_step_evolve(psi0, 1.0, v, PhysicalConstants(),
                                 TimeSpec(dt, 50), snapshot_every=25).snapshots
    eq = {"klein_gordon": KleinGordon(1.0), "classical_wave": ClassicalWave(1.5),
          "electromagnetic": Electromagnetic()}[family]
    consts = PhysicalConstants(c=10.0)
    state = positive_branch_init(psi0, eq, consts)
    return [(0.0, psi0)] + [
        (step * dt, evolve_second_order_spectral(state, eq, consts, step * dt).psi)
        for step in (25, 50)
    ]


@pytest.mark.parametrize("family", list(_CSV_FAMILY_SETS))
def test_snapshot_csv_text_matches_library_fields(tmp_path, family):
    out = tmp_path / "run"
    sets = [arg for item in _CSV_FAMILY_SETS[family] for arg in ("--set", item)]
    assert cli.main(["evolve", "--config", str(CONFIGS / "free_gaussian.cfg"),
                     "--out", str(out), "--set", f"family={family}", "--set", "c=10.0",
                     "--set", "n_steps=50", "--set", "snapshot_every=25", *sets]) == 0
    snaps = _library_snapshots(family)
    paths = sorted(out.glob("snapshot_*.csv"))
    assert len(paths) == len(snaps)
    for path, (t, fld) in zip(paths, snaps):
        want = ["t,x,re_psi,im_psi,abs2"] + [
            ",".join(repr(v) for v in
                     (t, float(x), float(s.real), float(s.imag), float(abs(s) ** 2)))
            for x, s in zip(fld.grid.positions, fld.samples)
        ]
        assert path.read_text() == "\n".join(want) + "\n"


def test_evolve_deterministic_and_reproducible_from_echo(tmp_path):
    args = ["evolve", "--config", str(CONFIGS / "free_gaussian.cfg"),
            "--set", "n_steps=50", "--set", "snapshot_every=25"]
    out1, out2, out3 = (tmp_path / n for n in ("a", "b", "c"))
    assert cli.main(args + ["--out", str(out1)]) == 0
    assert cli.main(args + ["--out", str(out2)]) == 0
    assert tree_bytes(out1) == tree_bytes(out2)
    # the echoed config alone reproduces the artifacts
    assert cli.main(["evolve", "--config", str(out1 / "config_echo.cfg"),
                     "--out", str(out3)]) == 0
    assert tree_bytes(out1) == tree_bytes(out3)


# ---------------------------------------------------------------------------
# nrlimit command
# ---------------------------------------------------------------------------

def test_nrlimit_report_and_fits(tmp_path):
    out = tmp_path / "nr"
    rc = cli.main(["nrlimit", "--config", str(CONFIGS / "nrlimit_ladder.cfg"),
                   "--out", str(out)])
    assert rc == 0
    header, rows = read_csv(out / "nrlimit.csv")
    assert ",".join(header) == "c,t,deviation,dominance_ratio"
    for row in rows:
        if float(row[header.index("t")]) == 0.0:
            assert float(row[header.index("deviation")]) == 0.0
    tree = json.loads((out / "report.json").read_text())
    assert abs(tree["fits"]["final_deviation_c_exponent"] + 2.0) <= 0.3
    assert abs(tree["fits"]["carrier_dominance_c_exponent"] + 4.0) <= 0.2
    assert [entry["c"] for entry in tree["ladder"]] == [10.0, 20.0, 40.0]


def test_nrlimit_dominance_column_is_exact_parseval_value(tmp_path):
    # shipped config, c = 10: the ratio of the envelope equation's terms under
    # exact evolution, summed over the packet's modes by Parseval
    out = tmp_path / "nr"
    assert cli.main(["nrlimit", "--config", str(CONFIGS / "nrlimit_ladder.cfg"),
                     "--out", str(out)]) == 0
    header, rows = read_csv(out / "nrlimit.csv")
    got = [r for c, r in zip(column(rows, header, "c"), column(rows, header, "dominance_ratio"))
           if c == 10.0]

    grid = Grid1D(512, 64.0)
    psi0 = gaussian_packet(GaussianPacketSpec(16.0, 1.0, 2.0), grid, normalize=True)
    power = np.abs(np.fft.fft(psi0.samples)) ** 2
    c, omega_rest = 10.0, 100.0
    big_omega = np.sqrt((grid.wavenumbers * c) ** 2 + omega_rest ** 2) - omega_rest
    want = np.sqrt(np.sum(power * big_omega ** 4)
                   / np.sum(power * (omega_rest ** 2 + 2.0 * omega_rest * big_omega) ** 2))
    assert want == pytest.approx(4.6966e-5, rel=1e-4)
    assert len(got) == 5
    for ratio in got:
        assert abs(ratio - want) <= 1e-10 * want


def test_nrlimit_single_mode_matches_gap_oracle(tmp_path):
    out = tmp_path / "nr"
    k0 = 2 * np.pi * 4 / 16.0
    rc = cli.main(["nrlimit", "--out", str(out),
                   "--set", "packet_kind=plane_wave", "--set", f"k0={k0!r}",
                   "--set", "n_points=64", "--set", "length=16.0",
                   "--set", "c_ladder=10.0,20.0",
                   "--set", "dt=0.05", "--set", "n_steps=40",
                   "--set", "snapshot_every=5"])
    assert rc == 0
    header, rows = read_csv(out / "nrlimit.csv")
    for row in rows:
        c = float(row[header.index("c")])
        t = float(row[header.index("t")])
        dev = float(row[header.index("deviation")])
        gap = nr_expansion_error(1.0, k0, PhysicalConstants(1.0, c)).exact_gap
        assert abs(dev - 2.0 * abs(np.sin(gap * t / 2.0))) <= 1e-8


def test_nrlimit_rest_mode_run_stays_at_noise_floor(tmp_path):
    # k0 = 0 plane wave: the rest phase cancels exactly, so the deviation
    # column never rises above rounding noise and the carrier fit (a genuine
    # zero ratio) is reported as null
    out = tmp_path / "nr"
    rc = cli.main(["nrlimit", "--out", str(out),
                   "--set", "packet_kind=plane_wave", "--set", "k0=0.0",
                   "--set", "n_points=64", "--set", "length=16.0",
                   "--set", "c_ladder=5.0,10.0",
                   "--set", "dt=0.05", "--set", "n_steps=20",
                   "--set", "snapshot_every=5"])
    assert rc == 0
    header, rows = read_csv(out / "nrlimit.csv")
    for dev in column(rows, header, "deviation"):
        assert dev <= 1e-12
    tree = json.loads((out / "report.json").read_text())
    assert tree["fits"]["carrier_dominance_c_exponent"] is None


@pytest.mark.parametrize("ladder", ["1e-200,1e-100", "10.0,1e200", "1e100,1e150", "1e60,1e80"])
def test_nrlimit_non_finite_envelope_is_exit_3(tmp_path, capsys, ladder):
    # m c^2/hbar underflows to 0 (or overflows to inf): the run used to exit 0
    # with nan deviations and null fits.  In the last two ladders the report is
    # finite but (m c^2/hbar)^2 of the carrier's dominance terms overflows,
    # which used to end in an OverflowError traceback
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning may reach stderr
        rc = cli.main(["nrlimit", "--config", str(CONFIGS / "nrlimit_ladder.cfg"),
                       "--out", str(tmp_path / "o"), "--set", f"c_ladder={ladder}"])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:") and err.count("\n") == 1
    assert not (tmp_path / "o" / "nrlimit.csv").exists()


def test_nrlimit_flat_packet_in_tiny_box_is_exit_0(tmp_path):
    # sigma ** 2 overflowed in the packet (OverflowError, exit 1)
    out = tmp_path / "o"
    rc, seen = main_strict(["nrlimit", "--config", str(CONFIGS / "nrlimit_ladder.cfg"),
                            "--out", str(out), "--set", "length=1e-12", "--set", "sigma=1e300"],
                           allowed="sigma = .* periodic images")
    assert rc == 0 and seen
    assert_finite_csv(out / "nrlimit.csv")
    tree = json.loads((out / "report.json").read_text(), parse_constant=_refuse_constant)
    assert None not in tree["fits"].values()


def test_nrlimit_requires_ladder_of_two(tmp_path):
    rc = cli.main(["nrlimit", "--out", str(tmp_path / "o"),
                   "--set", "c_ladder=10.0"])
    assert rc == 2


# ---------------------------------------------------------------------------
# oscillator command
# ---------------------------------------------------------------------------

def test_oscillator_three_methods_agree(tmp_path):
    out = tmp_path / "osc"
    rc = cli.main(["oscillator", "--config", str(CONFIGS / "oscillator.cfg"),
                   "--out", str(out)])
    assert rc == 0
    header, rows = read_csv(out / "oscillator.csv")
    assert ",".join(header) == "method,delta_x,energy"
    methods = column(rows, header, "method", convert=str)
    assert methods == ["analytic", "golden_section", "imaginary_time"]
    for e in column(rows, header, "energy"):
        assert abs(e - 0.5) <= 1e-4
    tree = json.loads((out / "report.json").read_text())
    assert tree["imaginary_time"]["relative_error_vs_analytic"] <= 1e-4


def test_oscillator_scaled_frequency(tmp_path):
    out = tmp_path / "osc"
    rc = cli.main(["oscillator", "--config", str(CONFIGS / "oscillator.cfg"),
                   "--out", str(out), "--set", "omega_c=2.0"])
    assert rc == 0
    header, rows = read_csv(out / "oscillator.csv")
    for e in column(rows, header, "energy"):
        assert abs(e - 1.0) <= 2e-4


def test_oscillator_bad_bracket_is_exit_2(tmp_path):
    rc = cli.main(["oscillator", "--config", str(CONFIGS / "oscillator.cfg"),
                   "--out", str(tmp_path / "o"),
                   "--set", "bracket_lo=5.0", "--set", "bracket_hi=1.0"])
    assert rc == 2


@pytest.mark.parametrize("override", ["bracket_hi=1e300", "mass=5e-324"],
                         ids=["bracket_overflow", "subnormal_mass"])
def test_oscillator_overflowing_bound_curve_is_exit_3(tmp_path, capsys, override):
    # E(dx) overflowed (OverflowError) or divided by an underflowed 8 m dx^2
    # (ZeroDivisionError) in the golden-section search: both exited 1
    out = tmp_path / "o"
    rc, _ = main_strict(["oscillator", "--config", str(CONFIGS / "oscillator.cfg"),
                         "--out", str(out), "--set", override])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:") and err.count("\n") == 1
    assert not (out / "oscillator.csv").exists()


def test_oscillator_iteration_budget_exhausted_is_exit_3(tmp_path):
    rc = cli.main(["oscillator", "--config", str(CONFIGS / "oscillator.cfg"),
                   "--out", str(tmp_path / "o"), "--set", "max_iters=2"])
    assert rc == 3


@pytest.mark.parametrize("tau_step", ["5", "1e300"])
def test_oscillator_frozen_wrong_state_is_exit_3(tmp_path, capsys, tau_step):
    rc = cli.main(["oscillator", "--config", str(CONFIGS / "oscillator.cfg"),
                   "--out", str(tmp_path / "o"), "--set", f"tau_step={tau_step}"])
    assert rc == 3
    assert "energy spread" in capsys.readouterr().err


def test_oscillator_coarse_valid_step_is_exit_0(tmp_path):
    out = tmp_path / "o"
    rc = cli.main(["oscillator", "--config", str(CONFIGS / "oscillator.cfg"),
                   "--out", str(out), "--set", "tau_step=0.2"])
    assert rc == 0
    header, rows = read_csv(out / "oscillator.csv")
    assert abs(column(rows, header, "energy")[-1] - 0.5) <= 5e-5


def test_oscillator_coarse_grid_is_exit_4(tmp_path, capsys):
    rc = cli.main(["oscillator", "--config", str(CONFIGS / "oscillator.cfg"),
                   "--out", str(tmp_path / "o"), "--set", "n_points=8"])
    assert rc == 4
    err = capsys.readouterr().err
    assert "hint" in err


# ---------------------------------------------------------------------------
# verify command
# ---------------------------------------------------------------------------

def test_verify_passes_and_is_deterministic(capsys):
    assert cli.main(["verify"]) == 0
    first = capsys.readouterr().out
    assert "plane_wave_exactness: PASS" in first
    assert "all checks passed" in first
    assert cli.main(["verify"]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_verify_names_injected_failure(monkeypatch, capsys):
    def wrong_dispersion():
        raise AssertionError("frequency mismatch at k=1")

    monkeypatch.setattr(cli, "DEFAULT_CHECKS",
                        [("wrong_dispersion", wrong_dispersion)] + cli.DEFAULT_CHECKS[1:])
    rc = cli.main(["verify"])
    assert rc == 3
    out = capsys.readouterr().out
    assert "wrong_dispersion: FAIL" in out
    assert "verification failed: wrong_dispersion" in out
