"""Acceptance suite: one test per release criterion, run at stated tolerances.

Each test prints a single verdict line (visible with `pytest -s`), so the
suite doubles as a human-readable checklist.  Runtime limits are asserted with
the stated budgets.
"""

import json
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from wavelab import (
    ClassicalWave,
    Electromagnetic,
    GaussianPacketSpec,
    Grid1D,
    KleinGordon,
    OscillatorProblem,
    PhysicalConstants,
    PlaneWaveMode,
    SchrodingerFree,
    SchrodingerPotential,
    TimeSpec,
    WaveField,
    analytic_free_gaussian,
    centroid,
    cli,
    crank_nicolson_evolve,
    dominance_terms_mode,
    energy_bound,
    evolve_schrodinger_spectral,
    evolve_second_order_spectral,
    gaussian_packet,
    harmonic_potential,
    imaginary_time_ground_state,
    kg_vs_schrodinger,
    l2_norm,
    minimize_bound_analytic,
    minimize_bound_numeric,
    nr_expansion_error,
    nr_limit_report,
    omega_of_k,
    planewave_residual,
    planewave_sample,
    positive_branch_init,
    split_step_evolve,
)

from oracles import coherent_state_oracle, constant_potential

NATURAL = PhysicalConstants()
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@contextmanager
def criterion(number: int, name: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s, f"runtime {elapsed:.2f}s exceeds {budget_s}s budget"
    print(f"ACCEPTANCE {number} ({name}): PASS ({elapsed:.2f}s)")


def test_criterion_1_plane_wave_exactness():
    with criterion(1, "plane-wave exactness", 1.0):
        grid = Grid1D(64, 16.0)
        t = 10.0
        families = [
            ClassicalWave(1.5),
            Electromagnetic(),
            KleinGordon(1.0),
            SchrodingerFree(1.0),
            SchrodingerPotential(1.0, constant_potential(grid, 0.5)),
        ]
        for eq in families:
            for n in range(-32, 32):
                k = 2 * np.pi * n / grid.length
                w = omega_of_k(eq, k)
                mode = PlaneWaveMode(1.0, k, w)
                assert planewave_residual(eq, mode) <= 1e-12
                psi0 = planewave_sample(mode, grid, 0.0)
                if isinstance(eq, SchrodingerPotential):
                    *_, (_, evolved) = split_step_evolve(psi0, eq.m, eq.potential, NATURAL,
                                                         TimeSpec(t / 64, 64))
                elif isinstance(eq, SchrodingerFree):
                    evolved = evolve_schrodinger_spectral(psi0, eq.m, NATURAL, t)
                else:
                    state = positive_branch_init(psi0, eq)
                    evolved = evolve_second_order_spectral(state, eq, NATURAL, t).psi
                want = planewave_sample(mode, grid, t)
                assert np.max(np.abs(evolved.samples - want.samples)) <= 1e-12


def test_criterion_2_massless_reduction():
    with criterion(2, "massless reduction", 1.0):
        length = 16.0
        light = Electromagnetic()
        nearly_massless = KleinGordon(1e-8)
        for n in range(1, 9):
            k = 2 * np.pi * n / length
            w_em = omega_of_k(light, k)
            w_kg = omega_of_k(nearly_massless, k)
            assert abs(w_kg - w_em) / w_em <= 1e-7


def test_criterion_3_nr_frequency_gap():
    with criterion(3, "non-relativistic frequency gap", 1.0):
        consts = PhysicalConstants(1.0, 10.0)
        ks = np.geomspace(0.1, 1.0, 10)  # hbar k < m c throughout
        gaps = []
        for k in ks:
            gap, bound = nr_expansion_error(1.0, float(k), consts)
            assert gap <= bound
            gaps.append(gap)
        slope = np.polyfit(np.log(ks), np.log(gaps), 1)[0]
        assert abs(slope - 4.0) <= 0.1


def test_criterion_4_dominance_scaling():
    with criterion(4, "dominance-term scaling", 1.0):
        cs = np.array([5.0, 10.0, 20.0, 40.0])
        ratios = np.array([
            dominance_terms_mode(1.0, 1.0, PhysicalConstants(1.0, c)).ratio
            for c in cs
        ])
        slope = np.polyfit(np.log(cs), np.log(ratios), 1)[0]
        assert abs(slope + 4.0) <= 0.2


def test_criterion_5_second_order_to_first_order_limit():
    with criterion(5, "massive-equation to Schrodinger limit", 30.0):
        grid = Grid1D(512, 64.0)
        spec = GaussianPacketSpec(x0=16.0, k0=1.0, sigma=64.0 / 32.0)
        time_spec = TimeSpec(0.1, 200)
        cs = [10.0, 20.0, 40.0]
        finals = []
        for c in cs:
            rep = kg_vs_schrodinger(spec, grid, 1.0, PhysicalConstants(1.0, c),
                                    time_spec, snapshot_every=50)
            assert rep.deviation[0] == 0.0
            finals.append(rep.deviation[-1])
        assert finals[0] > finals[1] > finals[2]
        slope = np.polyfit(np.log(cs), np.log(finals), 1)[0]
        assert abs(slope + 2.0) <= 0.3

        # single commensurate mode: deviation is exactly the frequency-gap beat
        mode_grid = Grid1D(64, 16.0)
        consts = PhysicalConstants(1.0, 10.0)
        k = 2 * np.pi * 4 / mode_grid.length
        fld = planewave_sample(PlaneWaveMode(1.0, k, 0.0), mode_grid, 0.0)
        psi0 = WaveField(mode_grid, fld.samples / l2_norm(fld))
        rep = nr_limit_report(psi0, 1.0, consts, TimeSpec(0.05, 100), snapshot_every=10)
        gap = nr_expansion_error(1.0, k, consts).exact_gap
        for t, dev in zip(rep.times, rep.deviation):
            assert abs(dev - 2.0 * abs(np.sin(gap * t / 2.0))) <= 1e-8


def test_criterion_6_free_packet_oracle():
    with criterion(6, "free-packet analytic oracle", 5.0):
        grid = Grid1D(512, 64.0)
        spec = GaussianPacketSpec(x0=16.0, k0=1.0, sigma=1.0)
        psi0 = gaussian_packet(spec, grid)
        t = 2.0 * np.sqrt(3.0)  # width doubles
        got = evolve_schrodinger_spectral(psi0, 1.0, NATURAL, t)
        want = analytic_free_gaussian(spec, grid, 1.0, NATURAL, t)
        rel = l2_norm(WaveField(grid, got.samples - want.samples)) / l2_norm(want)
        assert rel <= 1e-8
        v = (centroid(got) - centroid(psi0)) / t
        assert abs(v - 1.0) <= 0.01


def test_criterion_7_unitarity_and_self_convergence():
    with criterion(7, "unitarity and scheme agreement", 30.0):
        grid = Grid1D(128, 20.0)
        psi0 = gaussian_packet(GaussianPacketSpec(10.0, 1.0, 1.0), grid)
        v = harmonic_potential(grid, 1.0, 1.0)
        time_spec = TimeSpec(0.01, 1000)

        ss = split_step_evolve(psi0, 1.0, v, NATURAL, time_spec, snapshot_every=1)
        norms = np.array([l2_norm(fld) for _, fld in ss])
        assert np.max(np.abs(np.diff(norms))) / norms[0] <= 1e-12

        cn = crank_nicolson_evolve(psi0, 1.0, v, NATURAL, time_spec, snapshot_every=1)
        norms = np.array([l2_norm(fld) for _, fld in cn])
        assert np.max(np.abs(np.diff(norms))) / norms[0] <= 1e-10

        diffs, hs = [], []
        for n_points, dt in [(256, 0.02), (512, 0.01), (1024, 0.005)]:
            g = Grid1D(n_points, 20.0)
            vv = harmonic_potential(g, 1.0, 1.0)
            p0 = WaveField(g, coherent_state_oracle(g, 1.0, 1.0, 1.0, 1.0, 10.0, 0.0))
            ts = TimeSpec(dt, int(round(2.0 / dt)))
            *_, (_, a) = split_step_evolve(p0, 1.0, vv, NATURAL, ts)
            *_, (_, b) = crank_nicolson_evolve(p0, 1.0, vv, NATURAL, ts)
            diffs.append(l2_norm(WaveField(g, a.samples - b.samples)))
            hs.append(dt)
        slope = np.polyfit(np.log(hs), np.log(diffs), 1)[0]
        assert abs(slope - 2.0) <= 0.15


def test_criterion_8_oscillator_bound():
    with criterion(8, "oscillator uncertainty bound", 10.0):
        problem = OscillatorProblem(1.0, 1.0)
        dx_star, e0 = minimize_bound_analytic(problem)
        assert dx_star == pytest.approx(np.sqrt(0.5), rel=1e-14)
        assert e0 == 0.5

        numeric = minimize_bound_numeric(problem, (0.1, 10.0), 1e-12)
        assert abs(numeric.energy - e0) <= 1e-10
        # the energy minimum is flat at sqrt(eps) scale, so the width itself is
        # only localizable to ~1e-8 by any comparison-based search
        assert abs(numeric.delta_x - dx_star) <= 1e-7

        ground = imaginary_time_ground_state(problem, Grid1D(256, 20.0))
        assert abs(ground.energy - e0) / e0 <= 1e-4

        for dx in np.geomspace(1e-3 * dx_star, 1e3 * dx_star, 200):
            assert energy_bound(problem, float(dx)).energy >= e0 - 1e-12


def test_criterion_9_cli_determinism(tmp_path, capsys):
    with criterion(9, "CLI determinism", 60.0):
        assert cli.main(["verify"]) == 0
        first = capsys.readouterr().out
        assert cli.main(["verify"]) == 0
        assert capsys.readouterr().out == first

        jobs = [
            ("dispersion", str(CONFIGS / "dispersion_kg.cfg"), []),
            ("evolve", str(CONFIGS / "free_gaussian.cfg"),
             ["--set", "n_steps=50", "--set", "snapshot_every=25"]),
            ("nrlimit", str(CONFIGS / "nrlimit_ladder.cfg"),
             ["--set", "n_points=128", "--set", "length=32.0", "--set", "x0=8.0",
              "--set", "sigma=1.0", "--set", "c_ladder=5.0,10.0",
              "--set", "n_steps=40", "--set", "snapshot_every=10"]),
            ("oscillator", str(CONFIGS / "oscillator.cfg"), []),
        ]
        for name, config, extra in jobs:
            out_a = tmp_path / f"{name}_a"
            out_b = tmp_path / f"{name}_b"
            assert cli.main([name, "--config", config, *extra, "--out", str(out_a)]) == 0
            # the echoed config alone must reproduce the whole artifact tree
            assert cli.main([name, "--config", str(out_a / "config_echo.cfg"),
                             "--out", str(out_b)]) == 0
            files_a = {p.relative_to(out_a).as_posix(): p.read_bytes()
                       for p in sorted(out_a.rglob("*")) if p.is_file()}
            files_b = {p.relative_to(out_b).as_posix(): p.read_bytes()
                       for p in sorted(out_b.rglob("*")) if p.is_file()}
            assert files_a == files_b, f"{name} artifacts differ"


def test_acceptance_report_files_well_formed(tmp_path):
    # not a numbered criterion: the nrlimit report tree must stay machine-readable
    out = tmp_path / "nr"
    assert cli.main(["nrlimit", "--config", str(CONFIGS / "nrlimit_ladder.cfg"),
                     "--out", str(out),
                     "--set", "n_points=128", "--set", "length=32.0",
                     "--set", "x0=8.0", "--set", "sigma=1.0",
                     "--set", "c_ladder=5.0,10.0", "--set", "n_steps=20",
                     "--set", "snapshot_every=5"]) == 0
    tree = json.loads((out / "report.json").read_text())
    assert set(tree) == {"config", "ladder", "fits"}
    for entry in tree["ladder"]:
        assert entry["deviation"][0] == 0.0
