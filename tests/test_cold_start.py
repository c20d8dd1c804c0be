"""Cold start: nothing loads scipy, neither a CLI scenario nor the split-step stepper.

Importing the CLI does not load `numpy.fft` either; `evolve` loads it once,
before it forks its snapshot writers, so no writer process imports it again.

Each check runs in a fresh interpreter, so that no module this test session
has imported counts.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

CHILD = r"""
import json, sys

import numpy as np
import wavelab
import wavelab.cli

fft_at_import = "numpy.fft" in sys.modules  # no module-level binding of the transforms

from wavelab import (GaussianPacketSpec, Grid1D, PhysicalConstants, TimeSpec,
                     gaussian_packet, harmonic_potential, l2_norm, split_step_evolve)

configs, out = sys.argv[1], sys.argv[2]
runs = [("dispersion", "dispersion_kg"), ("evolve", "free_gaussian"),
        ("evolve", "harmonic_ground"), ("nrlimit", "nrlimit_ladder"),
        ("oscillator", "oscillator"), ("verify", None)]
codes = {}
for i, (scenario, name) in enumerate(runs):
    argv = [scenario, "--out", f"{out}/{i}"]
    if name is not None:
        argv += ["--config", f"{configs}/{name}.cfg"]
    codes[f"{scenario}:{name}"] = wavelab.cli.main(argv)

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

after_cli = scipy_modules()
grid = Grid1D(64, 20.0)
psi0 = gaussian_packet(GaussianPacketSpec(10.0, 1.0, 1.0), grid)
*_, (_, final) = split_step_evolve(psi0, 1.0, harmonic_potential(grid, 1.0, 1.0),
                                   PhysicalConstants(), TimeSpec(0.01, 50))
print(json.dumps({
    "fft_at_import": fft_at_import,
    "scenarios": sorted({s for s, _ in runs}),
    "dispatch": sorted(wavelab.cli._DISPATCH),
    "codes": codes,
    "scipy_after_cli": after_cli,
    "scipy_after_stepper": scipy_modules(),
    "stepper_finite": bool(np.all(np.isfinite(final.samples))),
    "stepper_norm": l2_norm(final),
}))
"""


def test_nothing_loads_scipy(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(ROOT / "configs"), str(tmp_path / "out")],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["fft_at_import"] is False
    assert report["scenarios"] == report["dispatch"]  # every scenario was run
    assert all(rc == 0 for rc in report["codes"].values()), report["codes"]
    assert report["scipy_after_cli"] == []
    assert report["scipy_after_stepper"] == []  # the package once stepped through scipy.sparse
    assert report["stepper_finite"]
    assert abs(report["stepper_norm"] - 1.0) <= 1e-10


FORK_CHILD = r"""
import json, os, sys

import wavelab.cli

os.sched_getaffinity = lambda pid: {0, 1}  # two writer processes, whatever the host has
fork, loaded = os.fork, []

def spy():
    loaded.append("numpy.fft" in sys.modules)
    return fork()

os.fork = spy
rc = wavelab.cli.main(["evolve", "--config", sys.argv[1], "--out", sys.argv[2]])
print(json.dumps({"rc": rc, "loaded": loaded}))
"""


@pytest.mark.parametrize("name", ["harmonic_ground", "free_gaussian"])
def test_evolve_loads_numpy_fft_before_it_forks(tmp_path, name):
    # the trap and phase paths first touched numpy.fft inside each process's
    # pass, so every forked writer imported it again
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", FORK_CHILD, str(ROOT / "configs" / f"{name}.cfg"),
         str(tmp_path / "out")],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["rc"] == 0
    assert report["loaded"] and all(report["loaded"]), report
