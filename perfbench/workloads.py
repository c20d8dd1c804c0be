"""The four benchmark workloads: seeded CLI arguments, artifact checks and the
reasoning behind each choice.

Every workload is one ``wavelab`` CLI scenario at a scaled size.  A workload
seed jitters the physics inputs (packet position, carrier wavenumber, trap
frequency) inside ranges that keep every check below valid, while the grid
size, step count and snapshot count -- the amount of work -- stay fixed.

Why each workload exists
------------------------
evolve_strang     FFT-bound Strang loop (harmonic trap, 2 snapshots): FFT-backend and
                  Strang-kernel changes show here.
evolve_snapshots  Write-bound counterpart on the same ``evolve`` path (21 snapshot CSVs,
                  exact KG propagation): the CSV writer shows here, FFT gains must not slow it.
nrlimit_ladder    Exact second-order propagation over a 6-entry c ladder (10 .. 1e6):
                  NR-limit pipeline cost, and its known rounding floor in ``result_err``.
oscillator_relax  Imaginary-time relaxation: the only workload for the ``oscillator``
                  layer and its per-iteration energy check.

Predictions: which end-to-end metric each layer metric should move
------------------------------------------------------------------
core.fft.*, propagate.strang_step_us
    -> wall_s on evolve_strang and oscillator_relax; no change on evolve_snapshots.
cli.self_s, cli.write_mb_per_s
    -> wall_s on evolve_snapshots; no change on nrlimit_ladder or oscillator_relax.
propagate.evolve_second_order_spectral.self_s, nrlimit.nr_limit_report.self_s
    -> wall_s and result_err on nrlimit_ladder, peak_rss_mib if snapshots are
       batched; under 2% of evolve_snapshots.
oscillator.iterations, oscillator.energy_check_share
    -> wall_s and result_err on oscillator_relax; no change elsewhere.
core.wavefield.s
    -> wall_s on nrlimit_ladder and oscillator_relax (about 4% each).
import work
    -> setup_s on every workload, and nothing else.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import numpy as np

C_LADDER = (10.0, 100.0, 1000.0, 10000.0, 100000.0, 1000000.0)


def _evolve_strang(rng: random.Random) -> dict:
    omega_c = rng.uniform(0.9, 1.1)
    x0 = 128.0 + rng.uniform(-16.0, 16.0)
    return {
        "family": "schrodinger_potential", "potential": "harmonic", "mass": 1.0,
        "hbar": 1.0, "n_points": 4096, "length": 256.0, "dt": 0.002,
        "n_steps": 2000, "snapshot_every": 0, "packet_kind": "gaussian",
        "omega_c": omega_c, "x0": x0, "x_c": x0, "k0": 0.0,
        # the stationary ground Gaussian of the trap
        "sigma": math.sqrt(1.0 / (2.0 * omega_c)),
    }


def _evolve_snapshots(rng: random.Random) -> dict:
    return {
        "family": "klein_gordon", "potential": "none", "mass": 1.0, "hbar": 1.0,
        "c": 1.0, "n_points": 4096, "length": 256.0, "dt": 0.5, "n_steps": 20,
        "snapshot_every": 1, "packet_kind": "gaussian", "sigma": 8.0,
        "x0": 64.0 + rng.uniform(-8.0, 8.0), "k0": rng.uniform(0.9, 1.1),
    }


def _nrlimit_ladder(rng: random.Random) -> dict:
    return {
        "mass": 1.0, "hbar": 1.0, "c_ladder": ",".join(repr(c) for c in C_LADDER),
        "n_points": 2048, "length": 128.0, "dt": 0.1, "n_steps": 60,
        "snapshot_every": 1, "packet_kind": "gaussian", "sigma": 2.0,
        "x0": 32.0 + rng.uniform(-4.0, 4.0), "k0": rng.uniform(0.9, 1.1),
    }


def _oscillator_relax(rng: random.Random) -> dict:
    omega_c = rng.uniform(0.9, 1.1)
    return {
        "mass": 1.0, "hbar": 1.0, "omega_c": omega_c, "n_points": 1024,
        "length": 40.0,
        # omega_c * tau_step is held fixed, so the iteration count (the work)
        # does not move with the seed
        "tau_step": 0.002 / omega_c,
        "max_iters": 50000, "energy_tol": 1e-12, "bracket_lo": 0.05,
        "bracket_hi": 20.0, "search_tol": 1e-12,
    }


# name -> (scenario, shipped config the scenario starts from, parameter generator)
WORKLOADS = {
    "evolve_strang": ("evolve", None, _evolve_strang),
    "evolve_snapshots": ("evolve", None, _evolve_snapshots),
    "nrlimit_ladder": ("nrlimit", "configs/nrlimit_ladder.cfg", _nrlimit_ladder),
    "oscillator_relax": ("oscillator", "configs/oscillator.cfg", _oscillator_relax),
}


def generate(name: str, seed: int) -> dict:
    """Physics parameters of workload `name` at `seed` (same seed, same inputs)."""
    _, _, make = WORKLOADS[name]
    return make(random.Random(f"{name}:{seed}"))


def cli_args(name: str, params: dict, out: Path) -> list:
    """The argv handed to ``wavelab.cli.main``; every key is set explicitly, so
    the shipped config file only supplies the scenario it is written for."""
    scenario, config, _ = WORKLOADS[name]
    argv = [scenario]
    if config is not None:
        argv += ["--config", config]
    for key, value in params.items():
        argv += ["--set", f"{key}={value!r}" if isinstance(value, float) else f"{key}={value}"]
    return argv + ["--out", str(out)]


# ---------------------------------------------------------------------------
# artifact checks
# ---------------------------------------------------------------------------

class CheckFailed(Exception):
    pass


def _require(cond: bool, message: str):
    if not cond:
        raise CheckFailed(message)


def _read_csv(path: Path, header: str, rows: int, first_col: int = 0) -> np.ndarray:
    """Numeric columns from `first_col` on, after checking header, rows and finiteness."""
    _require(path.is_file(), f"missing {path.name}")
    with path.open() as fh:
        first = fh.readline().rstrip("\n")
    _require(first == header, f"{path.name}: header {first!r}")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2,
                      usecols=range(first_col, header.count(",") + 1))
    _require(data.shape[0] == rows, f"{path.name}: {data.shape[0]} rows, expected {rows}")
    _require(bool(np.all(np.isfinite(data))), f"{path.name}: non-finite values")
    return data


def _check_files(out: Path, expected: set):
    found = {p.name for p in out.iterdir()}
    _require(found == expected, f"files {sorted(found)}, expected {sorted(expected)}")


def _check_evolve_norms(out: Path, p: dict, n_snaps: int) -> np.ndarray:
    n, dx = p["n_points"], p["length"] / p["n_points"]
    summary = _read_csv(out / "summary.csv", "t,norm,centroid,width", n_snaps)
    for idx in range(n_snaps):
        snap = _read_csv(out / f"snapshot_{idx:04d}.csv", "t,x,re_psi,im_psi,abs2", n)
        norm = math.sqrt(float(np.sum(snap[:, 4])) * dx)
        _require(abs(norm - 1.0) <= 1e-10, f"snapshot {idx}: norm {norm!r} not conserved")
        _require(abs(summary[idx, 1] - 1.0) <= 1e-10,
                 f"summary row {idx}: norm {summary[idx, 1]!r} not conserved")
    return summary


def _check_evolve_strang(out: Path, p: dict):
    _check_files(out, {"config_echo.cfg", "summary.csv", "snapshot_0000.csv", "snapshot_0001.csv"})
    summary = _check_evolve_norms(out, p, 2)
    # Strang splitting moves the stationary state by O((omega_c dt)^2)
    tol = (p["omega_c"] * p["dt"]) ** 2
    widths = np.abs(summary[:, 3] - p["sigma"]) / p["sigma"]
    _require(float(widths.max()) <= tol, f"width drifted by {widths.max()!r} > {tol!r}")
    shift = float(np.max(np.abs(summary[:, 2] - p["x_c"]))) / p["sigma"]
    _require(shift <= tol, f"centroid drifted by {shift!r} sigma > {tol!r}")
    return float(widths[-1])


def _check_evolve_snapshots(out: Path, p: dict):
    n_snaps = p["n_steps"] // p["snapshot_every"] + 1
    names = {f"snapshot_{i:04d}.csv" for i in range(n_snaps)}
    _check_files(out, names | {"config_echo.cfg", "summary.csv"})
    summary = _check_evolve_norms(out, p, n_snaps)
    times = np.arange(n_snaps) * p["dt"]
    _require(bool(np.allclose(summary[:, 0], times, rtol=0, atol=1e-12)), "snapshot times")
    return None


def _check_nrlimit_ladder(out: Path, p: dict):
    _check_files(out, {"config_echo.cfg", "nrlimit.csv", "report.json"})
    n_times = p["n_steps"] // p["snapshot_every"] + 1
    rows = _read_csv(out / "nrlimit.csv", "c,t,deviation,dominance_ratio",
                     len(C_LADDER) * n_times)
    _require(bool(np.all(rows[:, 2] >= 0.0)), "negative deviation")
    fits = json.loads((out / "report.json").read_text())["fits"]
    carrier = fits["carrier_dominance_c_exponent"]
    _require(carrier is not None and abs(carrier + 4.0) <= 0.2,
             f"carrier dominance exponent {carrier!r} not -4 +- 0.2")
    exponent = fits["final_deviation_c_exponent"]
    _require(exponent is not None and math.isfinite(exponent),
             f"final deviation exponent {exponent!r} undefined")
    return abs(float(exponent) + 2.0)


def _check_oscillator_relax(out: Path, p: dict):
    _check_files(out, {"config_echo.cfg", "oscillator.csv", "report.json"})
    rows = _read_csv(out / "oscillator.csv", "method,delta_x,energy", 3, first_col=1)
    bound = 0.5 * p["hbar"] * p["omega_c"]
    analytic, golden, relaxed = (float(v) for v in rows[:, 1])
    _require(abs(analytic - bound) <= 1e-12, f"analytic minimum {analytic!r} != {bound!r}")
    _require(golden >= bound - 1e-12, f"golden-section energy {golden!r} below the bound")
    _require(relaxed >= bound - 1e-12, f"imaginary-time energy {relaxed!r} below the bound")
    err = float(abs(relaxed - bound) / bound)
    _require(err <= 1e-4, f"imaginary-time energy off the bound by {err!r}")
    return err


_CHECKS = {
    "evolve_strang": _check_evolve_strang,
    "evolve_snapshots": _check_evolve_snapshots,
    "nrlimit_ladder": _check_nrlimit_ladder,
    "oscillator_relax": _check_oscillator_relax,
}


def check(name: str, params: dict, out: Path):
    """Check one run's artifacts; returns ``result_err`` (None where undefined).

    Raises CheckFailed on any missing file, wrong row count, non-finite value
    or broken physics invariant.
    """
    return _CHECKS[name](out, params)
