import ast
import json
import math
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from wavelab import cli
from wavelab import (
    ClassicalWave,
    Electromagnetic,
    GaussianPacketSpec,
    Grid1D,
    KleinGordon,
    PhysicalConstants,
    SchrodingerFree,
    SchrodingerPotential,
    WaveField,
    analytic_free_gaussian,
    dft,
    evolve_second_order_spectral,
    gaussian_packet,
    group_velocity,
    kinematic_map,
    l2_norm,
    nr_expansion_error,
    omega_of_k,
    positive_branch_init,
)
from wavelab import core, exceptions, oscillator, propagate
from wavelab.exceptions import ConfigError, NumericalFailure, WaveLabError
from wavelab.propagate import _phase_snapshots

import reproducers
from oracles import coherent_state_oracle, constant_potential, line_moments

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def read_csv(path: Path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def column(rows, header, name, convert=float):
    idx = header.index(name)
    return [convert(r[idx]) for r in rows]


def main_strict(argv, allowed=None):
    """(exit code, allowed warnings that fired) of cli.main, with every warning
    but the `allowed` message raised as an error."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("error")
        if allowed:
            warnings.filterwarnings("always", message=allowed)
        rc = cli.main(argv)
    return rc, [str(w.message) for w in caught]


def usable_cpus(monkeypatch, n):
    """Make cli see `n` CPUs this process may use, whatever the host has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def assert_finite_csv(path: Path):
    _, rows = read_csv(path)
    values = np.array(rows, dtype=float)
    assert values.size and np.all(np.isfinite(values))


LINE_MOMENTS_TOL = 1e-9  # README's moments rule: each gap within 1e-9 of the width


def assert_line_moments(out: Path):
    """Every summary.csv row of the evolve run in `out` has its centroid (on the circle) and
    width within LINE_MOMENTS_TOL of the width from `oracles.line_moments` of its echo."""
    cfg = dict(line.split(" = ", 1) for line in (out / "config_echo.cfg").read_text().splitlines())
    _, rows = read_csv(out / "summary.csv")
    for t, _, centroid, width in np.array(rows, dtype=float).tolist():
        want, width_want = line_moments(cfg, t)
        gap = max(abs(math.remainder(centroid - want, float(cfg["length"]))),
                  abs(width - width_want))
        assert gap <= LINE_MOMENTS_TOL * width_want, \
            f"t = {t!r}: centroid {centroid!r}, width {width!r}; the line's {want!r}, {width_want!r}"


# ---------------------------------------------------------------------------
# failed runs and --out
# ---------------------------------------------------------------------------

def test_failed_run_leaves_an_existing_out_as_it_was(tmp_path, capsys, monkeypatch):
    # a write error at snapshot 2 left snapshots 0 and 1 in --out; files are now
    # staged and move into --out only once the run has succeeded (a failed step is
    # test_reproducer[existing_out_kept])
    out = tmp_path / "keep"
    out.mkdir()
    (out / "notes.txt").write_text("kept\n")
    before = reproducers.tree(tmp_path)  # staging directories included
    argv = ["evolve", "--out", str(out), "--set", "n_steps=3", "--set", "snapshot_every=1"]

    write_text = cli._write_text  # writes each file but summary.csv in one call

    def full_at_snapshot_2(path, text):
        if os.path.basename(path) == "snapshot_0002.csv":
            raise OSError(f"no space left on device: {os.path.basename(path)}")
        return write_text(path, text)

    usable_cpus(monkeypatch, 1)
    monkeypatch.setattr(cli, "_write_text", full_at_snapshot_2)
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot write output:") and "snapshot_0002.csv" in err
    assert reproducers.tree(tmp_path) == before


@pytest.mark.parametrize("argv", [
    ["nrlimit", "--config", str(CONFIGS / "nrlimit_ladder.cfg")],
    ["evolve", "--config", str(CONFIGS / "free_gaussian.cfg")],
], ids=["nrlimit", "evolve"])
def test_new_out_is_the_stage_renamed(tmp_path, monkeypatch, argv):
    # a new --out, its parents missing too, arrives in one rename of the stage: the
    # same bytes and directory modes as an existing --out filled one file at a time
    old_umask = os.umask(0o027)  # modes that differ from the usual umask's
    try:
        existing = tmp_path / "existing"
        existing.mkdir()  # as the per-file path made a missing --out
        assert cli.main([*argv, "--out", str(existing)]) == 0
        monkeypatch.setattr(os, "replace", lambda *a: pytest.fail("a new --out moved file by file"))
        new = tmp_path / "new" / "a" / "b"
        assert cli.main([*argv, "--out", str(new)]) == 0
    finally:
        os.umask(old_umask)
    assert reproducers.tree(new) == reproducers.tree(existing)
    mode = existing.stat().st_mode
    assert [p.stat().st_mode for p in (new, new.parent, new.parent.parent)] == [mode] * 3
    assert not list(tmp_path.rglob(".wavelab-*"))


def test_run_into_an_existing_out_keeps_its_other_files(tmp_path):
    out = tmp_path / "keep"
    out.mkdir()
    (out / "notes.txt").write_text("kept\n")
    assert cli.main(["nrlimit", "--config", str(CONFIGS / "nrlimit_ladder.cfg"),
                     "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "config_echo.cfg", "notes.txt", "nrlimit.csv", "report.json"]
    assert (out / "notes.txt").read_text() == "kept\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["keep"]  # no staging directory


def test_failed_run_into_a_new_out_leaves_nothing(tmp_path, capsys):
    # the stage sits in the nearest existing ancestor; --out and its parents are made
    # only once the run has succeeded
    argv = ["evolve", "--set", "dt=4e305", "--set", "n_steps=3", "--set", "snapshot_every=1"]
    assert cli.main([*argv, "--out", str(tmp_path / "new" / "a" / "b")]) == 3
    assert "phase rounding bound eps |t| W at t = 4e+305" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_evolve_past_the_budget_is_refused_before_any_transform(tmp_path, capsys, monkeypatch):
    # the budget was checked once the stream had ended: 3,000 inverse transforms and staged
    # snapshots before exit 3 named t = 3e+19
    calls = []
    idft = propagate.idft
    monkeypatch.setattr(propagate, "idft", lambda f: calls.append(f) or idft(f))
    usable_cpus(monkeypatch, 1)  # the writer's one pass runs in this process
    assert cli.main(["evolve", "--set", "dt=1e16", "--set", "n_steps=3000",
                     "--set", "snapshot_every=1", "--out", str(tmp_path / "o")]) == 3
    assert "phase rounding bound eps |t| W at t = 1e+16: " in capsys.readouterr().err
    assert calls == [] and not list(tmp_path.iterdir())


# caps the child's address space at 2 GiB, so an absurd size fails fast and
# leaves the host's memory alone
OUT_OF_MEMORY_CHILD = (
    "import resource, sys\n"
    "_, hard = resource.getrlimit(resource.RLIMIT_AS)\n"
    "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, hard))\n"
    "from wavelab import cli\n"
    "sys.exit(cli.main(sys.argv[1:]))\n"
)


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS bounds allocations on Linux")
@pytest.mark.parametrize("argv", [
    ["dispersion", "--set", "k_count=1000000000000"],
    ["evolve", "--set", "n_points=1099511627776"],
    ["nrlimit", "--set", "n_steps=1000000000000", "--set", "snapshot_every=1"],
    ["oscillator", "--set", "n_points=1099511627776", "--set", "length=1e6"],
], ids=["dispersion_k_count", "evolve_n_points", "nrlimit_n_steps", "oscillator_n_points"])
def test_out_of_memory_exits_3_in_one_line(tmp_path, argv):
    # each size passes its parser; the MemoryError used to end in a traceback, exit 1
    out = tmp_path / "o"
    env = dict(os.environ, PYTHONPATH=str(CONFIGS.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", OUT_OF_MEMORY_CHILD, *argv, "--out", str(out)],
                          env=env, cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 3, proc.stdout + proc.stderr
    assert proc.stderr.startswith("numerical failure: out of memory (")
    assert proc.stderr.count("\n") == 1 and "()" not in proc.stderr
    assert not out.exists()


def test_stray_value_error_is_not_a_config_error(tmp_path, capsys, monkeypatch):
    # main mapped every ValueError to exit 2, so a numpy fault read "config error: ..."
    def fault(cfg, out):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setitem(cli._DISPATCH, "nrlimit", fault)
    with pytest.raises(ValueError, match="broadcast"):
        cli.main(["nrlimit", "--out", str(tmp_path / "o")])
    assert "config error" not in capsys.readouterr().err
    assert not list(tmp_path.iterdir())  # no --out, no stage


_FAMILY_LINES = {2: "config error: boom\n", 3: "numerical failure: boom\n",
                 4: "resolution error: boom\n"}


@pytest.mark.parametrize("error", [cls for cls in vars(exceptions).values()
                                   if isinstance(cls, type) and issubclass(cls, WaveLabError)
                                   and cls is not WaveLabError], ids=lambda cls: cls.__name__)
def test_every_library_error_exits_with_its_family_code(tmp_path, capsys, monkeypatch, error):
    # DispersionUndefined, ZeroField, WrongEquationFamily, ... mapped to no exit code: a traceback
    def fault(cfg, out):
        raise error("boom")

    monkeypatch.setitem(cli._DISPATCH, "nrlimit", fault)
    rc = cli.main(["nrlimit", "--out", str(tmp_path / "o")])
    code = 2 if issubclass(error, ConfigError) else 3 if issubclass(error, NumericalFailure) else 4
    assert rc == code
    assert capsys.readouterr().err == _FAMILY_LINES[code]
    assert not list(tmp_path.iterdir())


def test_nrlimit_infinite_carrier_ratio_has_no_exponent(tmp_path, capsys):
    # the carrier's small / big overflowed outside any errstate: a RuntimeWarning (a
    # traceback, exit 1, with warnings as errors) before an exit 0 with a null fit
    out = tmp_path / "o"
    rc, _ = main_strict(["nrlimit", "--set", "mass=5e-324", "--set", "length=1.7e308",
                         "--set", "n_points=64", "--set", "n_steps=20", "--out", str(out)],
                        allowed="sigma = ")  # the underresolved-packet notice
    assert rc == 0, capsys.readouterr().err
    report = (out / "report.json").read_text()
    fits = json.loads(report, parse_constant=reproducers.refuse_constant)["fits"]
    assert fits["carrier_dominance_c_exponent"] is None


# ---------------------------------------------------------------------------
# the reproducer table and the extreme-value gate: one check for both
# ---------------------------------------------------------------------------

def run_in_process(argv, capsys):
    """(exit code, stderr) of cli.main(argv), with every warning but the packet's resolution
    notices raised as an error, under an alarm that catches a hang."""
    def hang(signum, frame):  # not a timing bound: a case takes milliseconds
        raise TimeoutError(f"wavelab {' '.join(argv)} did not finish within 60 s")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(60)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            warnings.filterwarnings("ignore", "sigma = ", UserWarning)
            try:
                rc = cli.main(argv)
            except SystemExit as exc:  # argparse's refusal of an unknown command
                rc = exc.code
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    return rc, capsys.readouterr().err


def _table_test(rows):
    """The test of one name in the table: one bare row, or rows parametrized by their case."""
    def run(tmp_path, capsys, row):
        argv = reproducers.prepare(row, str(tmp_path))
        before = reproducers.tree(str(tmp_path))
        rc, err = run_in_process(argv, capsys)
        reproducers.check(argv, row.code, row.fragments, rc, err, before, str(tmp_path))

    if "[" not in rows[0].id:
        (row,) = rows
        return lambda tmp_path, capsys: run(tmp_path, capsys, row)
    return pytest.mark.parametrize("row", rows, ids=[r.id.split("[", 1)[1][:-1] for r in rows])(run)


_TABLE = {}
for _row in reproducers.ROWS:
    _TABLE.setdefault(_row.id.split("[")[0], []).append(_row)
globals().update((name, _table_test(rows)) for name, rows in _TABLE.items())


def test_reproducer_table_is_well_formed():
    ids = [row.id for row in reproducers.ROWS]
    assert len(set(ids)) == len(ids)
    for row in reproducers.ROWS:
        assert row.code == 0 or row.fragments, row.id
        if "unknown key" not in " ".join(row.fragments):  # else every key is the schema's
            sets = [item for flag, item in zip(row.argv, row.argv[1:]) if flag == "--set"]
            assert all(item.split("=")[0] in cli.SCHEMAS[row.argv[0]] for item in sets), row.id


def test_every_shipped_config_is_an_artifact_stream():
    # `--against` compares the exit-0 rows, so a new shipped config without one escapes it
    streams = {row.argv for row in reproducers.ROWS if row.code == 0}
    for cfg in sorted(CONFIGS.glob("*.cfg")):
        (scenario,) = re.findall(r"^scenario = (\w+)$", cfg.read_text(), re.M)
        assert (scenario, "--config", f"{{configs}}/{cfg.name}") in streams, cfg.name


# the verdict of `reproducers.py --against`, on two trees' runs of one row
_STREAM = reproducers.row("stream", "evolve", 0)
_RUN = {"exit": b"0", "stdout": b"", "out": None, "out/a.csv": b"x\n1.0\n"}


def _compare(ours, moved=frozenset(), row=_STREAM):
    return reproducers.compare([row], {row.id: _RUN}, {row.id: ours}, moved)


def test_against_fails_on_an_undeclared_difference():
    assert _compare({**_RUN, "out/a.csv": b"x\n1.5\n"}) == (["stream/out/a.csv"], False)
    assert _compare({**_RUN, "out/b.csv": b""}) == (["stream/out/b.csv"], False)


def test_against_passes_a_declared_difference():
    moved = {"stream/out/a.csv"}
    assert _compare({**_RUN, "out/a.csv": b"x\n1.5\n"}, moved) == (["stream/out/a.csv"], True)


def test_against_fails_on_a_declared_path_that_did_not_move():
    assert _compare(dict(_RUN), {"stream/out/a.csv"}) == ([], False)
    moved = {"stream/out/a.csv", "stream/out/b.csv"}
    assert _compare({**_RUN, "out/a.csv": b""}, moved) == (["stream/out/a.csv"], False)


@pytest.mark.parametrize("key, value", [("exit", b"3"), ("stdout", b"all checks passed\n")])
def test_against_fails_on_another_exit_code_or_stdout(key, value):
    assert _compare({**_RUN, key: value}) == ([f"stream/{key}"], False)


def test_against_compares_no_refusal():
    refusal = reproducers.row("refusal", "evolve --set n_steps=-1", 2, "n_steps")
    assert _compare({}, row=refusal) == ([], True)


EXTREMES = (1e300, -1e300, 1.7e308, 1e154, 1e200, 1e-160, 1e-200, 1e-310, 5e-324, 0.0, -1.0)
# the integer keys' extremes, up to 2**62: their parsers refuse anything past 2**53.  2**53
# itself is left out, since a relaxation allowed 2**53 iterations need not end in a test
INT_EXTREMES = (-1, 0, 1, 2 ** 53 + 1, 2 ** 62)
GATE_INTEGERS = {"evolve": ("n_steps", "snapshot_every"), "nrlimit": ("n_steps", "snapshot_every"),
                 "oscillator": ("max_iters",), "dispersion": ()}
# sizes capped so a case takes milliseconds
GATE_SIZES = {
    "dispersion": {"k_count": 5},
    "evolve": {"n_points": 64, "n_steps": 20},
    "nrlimit": {"n_points": 64, "n_steps": 20},
    "oscillator": {"n_points": 64, "max_iters": 300},
}


def choice_options(parse):
    """The options of a `cli._parse_choice` parser, as its refusal of "" lists them."""
    try:
        parse("")
    except ValueError as exc:
        return str(exc).removeprefix("must be one of ").split(", ")


# family, potential and packet_kind, each with the options its scenario's parser accepts
GATE_CHOICES = {
    scenario: {key: choice_options(parse) for key, (parse, _) in cli.SCHEMAS[scenario].items()
               if parse.__qualname__.startswith("_parse_choice.")}
    for scenario in GATE_SIZES
}


@st.composite
def extreme_case(draw):
    """(scenario, ((key, value), ...)): 2-3 of its float keys, each at an extreme value, then
    any subset of its choice keys, each at one of its options, and of its integer keys, each
    at an integer extreme."""
    scenario = draw(st.sampled_from(sorted(GATE_SIZES)))
    floats = [key for key, (parse, _) in cli.SCHEMAS[scenario].items() if parse is cli._parse_float]
    keys = draw(st.lists(st.sampled_from(floats), min_size=2, max_size=3, unique=True))
    pairs = [(key, draw(st.sampled_from(EXTREMES))) for key in keys]
    for key, options in sorted(GATE_CHOICES[scenario].items()):
        if draw(st.booleans()):
            pairs.append((key, draw(st.sampled_from(options))))
    for key in GATE_INTEGERS[scenario]:
        if draw(st.booleans()):
            pairs.append((key, draw(st.sampled_from(INT_EXTREMES))))
    return scenario, tuple(pairs)


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=extreme_case())
def test_extreme_values_exit_0_2_3_or_4_cleanly(tmp_path, capsys, case):
    # the cases this gate has found are rows of the table, named test_reproducer[gate_...]
    scenario, pairs = case
    root = tempfile.mkdtemp(dir=tmp_path)
    argv = [scenario, "--out", os.path.join(root, "o")]
    sets = {**GATE_SIZES[scenario], **dict(pairs)}
    argv += [arg for key, value in sets.items() for arg in ("--set", f"{key}={value}")]
    rc, err = run_in_process(argv, capsys)
    reproducers.check(argv, None, (), rc, err, {}, root)
    if scenario == "evolve" and rc == 0:
        assert_line_moments(Path(root) / "o")
    shutil.rmtree(root)


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


@pytest.mark.parametrize("c", ["1000", "10000"])
def test_dispersion_gap_within_its_bound_at_large_c(tmp_path, c):
    # the gap subtracted two numbers of size m c^2/hbar: at c = 1e4 it read 0.0 at k = 1 and
    # exceeded its own bound at k = 3, 6 and 8
    out = tmp_path / "disp"
    assert cli.main(["dispersion", "--config", str(CONFIGS / "dispersion_kg.cfg"),
                     "--set", f"c={c}", "--out", str(out)]) == 0
    header, rows = read_csv(out / "dispersion.csv")
    rows = [r for r in rows if float(r[header.index("k")]) > 0]
    assert len(rows) == 8
    for gap, bound in zip(column(rows, header, "nr_gap"), column(rows, header, "nr_bound")):
        assert 0.0 < gap <= bound


@pytest.mark.parametrize("family", sorted(cli._FAMILIES))
def test_dispersion_columns_equal_the_scalar_calls(tmp_path, family):
    # the scan is evaluated column by column over the whole k array; each cell must be the
    # bits of the library's scalar call at that k
    rng = np.random.default_rng(sorted(cli._FAMILIES).index(family))
    k_min, k_max = np.sort(rng.uniform(-50.0, 50.0, 2)).tolist()
    sets = {"family": family, "k_min": k_min, "k_max": k_max, "k_count": 37, "c": 3.7,
            "hbar": 0.61, "mass": 1.9, "wave_speed": 2.3, "potential": "none", "v0": 0.4}
    if family == "schrodinger_potential":
        sets["potential"] = "constant"
    cfg = cli.build_config("dispersion", [], [("--set", key, str(v)) for key, v in sets.items()])
    cli.cmd_dispersion(cfg, str(tmp_path))
    header, rows = read_csv(tmp_path / "dispersion.csv")
    consts = PhysicalConstants(hbar=cfg["hbar"], c=cfg["c"])
    eq = cli._equation(cfg)
    m = getattr(eq, "m", None)
    ks = column(rows, header, "k")
    assert ks == np.linspace(k_min, k_max, 37).tolist()
    for row, k in zip(rows, ks):
        w = omega_of_k(eq, k, consts)
        pair = kinematic_map(k, w, consts)
        nr = (math.nan, math.nan) if m is None else nr_expansion_error(m, k, consts)
        want = [k, w, group_velocity(eq, k, consts), pair.p, pair.E, *nr]
        assert row == [family, *(repr(float(v)) for v in want)]


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


def test_evolve_zero_steps_emits_initial_packet(tmp_path, monkeypatch):
    # one config per propagation path: the exact phase and Strang splitting;
    # one snapshot is one writer process, however many CPUs there are
    usable_cpus(monkeypatch, 4)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("a 1-snapshot run forked"))
    for name, grid, spec in [
        ("free_gaussian.cfg", Grid1D(512, 64.0), GaussianPacketSpec(16.0, 1.0, 1.0)),
        ("harmonic_ground.cfg", Grid1D(256, 20.0),
         GaussianPacketSpec(10.0, 0.0, 0.7071067811865476)),
    ]:
        out = tmp_path / name
        rc = cli.main(["evolve", "--config", str(CONFIGS / name),
                       "--out", str(out), "--set", "n_steps=0"])
        assert rc == 0
        header, rows = read_csv(out / "snapshot_0000.csv")
        want = gaussian_packet(spec, grid)
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


@pytest.mark.parametrize("a", [0.0, 1.0])
def test_evolve_trap_matches_coherent_state(tmp_path, a):
    # Strang splitting at this dt missed the closed form by ~1e-2; the exact
    # trap propagator meets it to rounding at every snapshot, the shorter
    # last interval (t = 87.5 -> 100) included
    out = tmp_path / "run"
    rc = cli.main(["evolve", "--config", str(CONFIGS / "harmonic_ground.cfg"), "--out", str(out),
                   "--set", f"x0={10.0 + a!r}", "--set", "dt=0.25", "--set", "n_steps=400",
                   "--set", "snapshot_every=70"])
    assert rc == 0
    snapshots = sorted(out.glob("snapshot_*.csv"))
    assert len(snapshots) == 7
    for path in snapshots:
        header, rows = read_csv(path)
        t = column(rows, header, "t")[0]
        got = np.array(column(rows, header, "re_psi")) \
            + 1j * np.array(column(rows, header, "im_psi"))
        want = coherent_state_oracle(Grid1D(256, 20.0), 1.0, 1.0, 1.0, a, 10.0, t)
        assert np.max(np.abs(got - want)) <= 1e-13, t
    assert t == 100.0


def test_evolve_trap_ground_width_stays_put_at_coarse_dt(tmp_path):
    # with Strang steps this run exited 0 while the stationary width wandered
    # from 0.7071 to 0.7303
    out = tmp_path / "run"
    rc = cli.main(["evolve", "--config", str(CONFIGS / "harmonic_ground.cfg"), "--out", str(out),
                   "--set", "dt=0.5"])
    assert rc == 0
    header, rows = read_csv(out / "summary.csv")
    widths = column(rows, header, "width")
    assert len(widths) == 9
    assert max(abs(w - widths[0]) for w in widths) <= 1e-12


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM")
@pytest.mark.parametrize("overrides, intervals", [
    (["--set", "dt=1e9", "--set", "n_steps=1"], 1),
    ([], 8),
], ids=["huge_interval", "shipped"])
def test_evolve_trap_costs_at_most_two_steps_per_interval(tmp_path, monkeypatch, overrides,
                                                          intervals):
    # t = 1e307 used to overflow a per-step Strang factor (exit 3); whole periods are
    # reduced away, so an interval of any length takes <= 2 steps.  dt = 1e9 is 1.6e8
    # periods, within the phase budget (eps t omega_c = 2.2e-7); 1e307 is past it (exit 3)
    steps, build = [], propagate._strang

    def counting(*args, **kwargs):
        step = build(*args, **kwargs)
        return lambda psi, out: steps.append(1) or step(psi, out)

    def hang(signum, frame):
        raise TimeoutError("evolve did not finish within 20 s")

    monkeypatch.setattr(propagate, "_strang", counting)
    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(20)
    try:
        rc = cli.main(["evolve", "--config", str(CONFIGS / "harmonic_ground.cfg"),
                       "--out", str(tmp_path / "o"), *overrides])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert rc == 0
    assert 0 < len(steps) <= 2 * intervals
    assert_finite_csv(tmp_path / "o" / "summary.csv")


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


def test_second_order_rotation_stays_unitary_at_huge_time(tmp_path, capsys):
    # the largest t the phase budget accepts: eps t W <= 1e-6 rad, W = sum p |omega| of the
    # default packet (1.43), so t = 3.2e9; dt = 1e300 exited 0 here with unit norms too, though
    # no phase kept a correct digit.  Up to t_max evolve's stream keeps unit norms, but its
    # packet has long wrapped the box there, so `evolve` refuses the run by its line moments
    psi0 = gaussian_packet(GaussianPacketSpec(16.0, 1.0, 2.0), Grid1D(512, 64.0))
    power = np.abs(dft(psi0).mode_amplitudes) ** 2
    w = np.dot(power / power.sum(), omega_of_k(KleinGordon(1.0), psi0.grid.wavenumbers,
                                                PhysicalConstants()))
    t_max = float(core._PHASE_TOL / (sys.float_info.epsilon * w))
    dt = 0.5 * t_max * (1 - 1e-9)
    times = [step * dt for step in range(3)]
    norms = [l2_norm(fld) for _, fld in
             cli._propagate(KleinGordon(1.0), psi0, PhysicalConstants(), times)]
    assert len(norms) == 3 and times[-1] > 0.999 * t_max > 3e9
    assert max(abs(n - 1.0) for n in norms) <= 1e-12
    argv = ["evolve", "--set", "family=klein_gordon", "--set", "n_steps=2",
            "--set", "snapshot_every=1"]
    assert cli.main([*argv, "--out", str(tmp_path / "o"), "--set", f"dt={dt!r}"]) == 4
    assert f"at t = {dt!r}, so enlarge length; " in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    assert cli.main([*argv, "--out", str(tmp_path / "past"), "--set", "dt=1e300"]) == 3
    assert "phase rounding bound eps |t| W at t = 1e+300: " in capsys.readouterr().err
    assert not (tmp_path / "past").exists()


def test_trap_centroid_holds_just_inside_the_phase_budget(tmp_path):
    # eps t omega_c = 2.2e-7 rad at t = 1e9: the reduction against the float 2 pi costs
    # 3.9e-17 t, so the centroid sits within 1e-7 of x_c + A cos t (4.3e-8 off)
    out = tmp_path / "o"
    assert cli.main(["evolve", "--config", str(CONFIGS / "harmonic_ground.cfg"), "--out",
                     str(out), "--set", "x0=12", "--set", "dt=1e9", "--set", "n_steps=1"]) == 0
    header, rows = read_csv(out / "summary.csv")
    assert column(rows, header, "t") == [0.0, 1e9]
    assert abs(column(rows, header, "centroid")[-1] - (10.0 + 2.0 * math.cos(1e9))) <= 1e-7


@st.composite
def line_case(draw):
    """--set items of an evolve run: a resolved Gaussian (x0, k0, sigma) on 128 to 4096 points
    of L = 64, sigma from 4 dx to L/16, under a phase family or in a trap (omega_c,
    displacement A), its spectrum 12 deviations inside the grid's band (over the trap's
    orbit too), with 1-4 snapshots past t = 0, each 0.001 to 1 time unit apart."""
    n, length = 2 ** draw(st.integers(7, 12)), 64.0
    dx = length / n
    sigma = 4.0 * dx * 2.0 ** draw(st.floats(0.0, math.log2(n / 64.0)))
    band = math.pi / dx - 6.0 / sigma  # README: a spectrum reaching Nyquist is unresolved
    k0 = draw(st.floats(-1.0, 1.0)) * band
    family = draw(st.sampled_from(["schrodinger_free", "klein_gordon", "classical_wave",
                                   "electromagnetic", "trap"]))
    items = [f"n_points={n}", f"length={length!r}", f"sigma={sigma!r}", f"k0={k0!r}",
             f"dt={10.0 ** draw(st.floats(-3.0, 0.0))!r}", "snapshot_every=1",
             f"n_steps={draw(st.integers(1, 4))}"]
    if family == "trap":
        omega_c, a = draw(st.floats(0.2, 5.0)), draw(st.floats(-0.5, 0.5)) * length
        # the orbit's k: amplitude hypot(k0, omega_c A), deviation up to omega_c sigma
        assume(math.hypot(k0, omega_c * a) + 12.0 * max(0.5 / sigma, omega_c * sigma)
               <= math.pi / dx)
        return items + ["family=schrodinger_potential", "potential=harmonic",
                        f"omega_c={omega_c!r}", f"x0={0.5 * length + a!r}"]
    return items + [f"family={family}", f"x0={draw(st.floats(0.0, length))!r}"]


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(items=line_case())
def test_evolve_rows_follow_the_line_moments_or_exit_4(tmp_path, capsys, items):
    # every summary.csv row is checked against its closed-form line moments: a run exits 0
    # only if each row is within the rule of an independent closed form, else 4 with no --out
    out = Path(tempfile.mkdtemp(dir=tmp_path)) / "o"
    rc, err = run_in_process(["evolve", "--out", str(out),
                              *(arg for item in items for arg in ("--set", item))], capsys)
    if rc == 0:
        assert_line_moments(out)
    else:
        assert rc == 4 and "so enlarge length; line-moment gap: " in err, err
        assert os.listdir(out.parent) == []  # no --out, no stage


# family -> extra --set overrides of its CLI run
_CSV_FAMILY_SETS = {
    "schrodinger_free": [],
    "schrodinger_potential": ["potential=constant", "v0=0.5"],
    "klein_gordon": [],
    "classical_wave": ["wave_speed=1.5", "k0=8.0"],
    "electromagnetic": ["k0=8.0"],
}
# a |k| law splits a packet with weight near k = 0 into two parts with 1/x tails, which no box
# holds to evolve's moments rule (exit 4): at k0 = 8 that weight is e^-128


def _library_case(family):
    """(psi0, equation, constants) of the CLI run of `_run_csv_family`."""
    grid = Grid1D(512, 64.0)
    eq = {"schrodinger_free": SchrodingerFree(1.0),
          "schrodinger_potential": SchrodingerPotential(1.0, constant_potential(grid, 0.5)),
          "klein_gordon": KleinGordon(1.0), "classical_wave": ClassicalWave(1.5),
          "electromagnetic": Electromagnetic()}[family]
    k0 = float(dict(item.split("=") for item in _CSV_FAMILY_SETS[family]).get("k0", 1.0))
    spec = GaussianPacketSpec(16.0, k0, 1.0)
    return gaussian_packet(spec, grid), eq, PhysicalConstants(c=10.0)


def _library_snapshots(family):
    """free_gaussian.cfg at n_steps=50, snapshot_every=25, evolved without the CLI."""
    psi0, eq, consts = _library_case(family)
    omega = omega_of_k(eq, psi0.grid.wavenumbers, consts)
    times = [step * 0.01 for step in (0, 25, 50)]
    return list(_phase_snapshots(psi0, omega, times))


def _run_csv_family(out, family):
    sets = [arg for item in _CSV_FAMILY_SETS[family] for arg in ("--set", item)]
    assert cli.main(["evolve", "--config", str(CONFIGS / "free_gaussian.cfg"),
                     "--out", str(out), "--set", f"family={family}", "--set", "c=10.0",
                     "--set", "n_steps=50", "--set", "snapshot_every=25", *sets]) == 0
    return sorted(out.glob("snapshot_*.csv"))


@pytest.mark.parametrize("family", list(_CSV_FAMILY_SETS))
def test_snapshot_csv_text_matches_library_fields(tmp_path, family):
    paths = _run_csv_family(tmp_path / "run", family)
    snaps = _library_snapshots(family)
    assert len(paths) == len(snaps)
    for path, (t, fld) in zip(paths, snaps):
        want = ["t,x,re_psi,im_psi,abs2"] + [
            ",".join(repr(v) for v in
                     (t, float(x), float(s.real), float(s.imag), float(abs(s) ** 2)))
            for x, s in zip(fld.grid.positions, fld.samples)
        ] + [""]
        got = path.read_text().split("\n")
        # report the first differing line only: pytest's diff of two whole
        # 33 KB texts takes about a minute
        first = next(((g, w) for g, w in zip(got, want) if g != w), None)
        assert first is None and len(got) == len(want)


@pytest.mark.parametrize("family", ["klein_gordon", "classical_wave", "electromagnetic"])
def test_second_order_snapshots_match_public_rotation(tmp_path, family):
    # the CLI takes the phase e^{-i omega t}; the public (psi, psi_dot) rotation
    # of the positive-branch pairing is the same field to rounding
    paths = _run_csv_family(tmp_path / "run", family)
    psi0, eq, consts = _library_case(family)
    state = positive_branch_init(psi0, eq, consts)
    assert len(paths) == 3
    for path in paths:
        header, rows = read_csv(path)
        t = column(rows, header, "t")[0]
        got = np.array(column(rows, header, "re_psi")) \
            + 1j * np.array(column(rows, header, "im_psi"))
        want = evolve_second_order_spectral(state, eq, consts, t).psi.samples
        assert np.max(np.abs(got - want)) <= 1e-14


def test_free_packet_error_does_not_grow_with_step_count(tmp_path):
    # Strang splitting lies 8.9e-13 from the closed form at 30,000 steps; the
    # exact phase keeps the 2.8e-13 it has at 300 steps
    out = tmp_path / "run"
    rc = cli.main(["evolve", "--config", str(CONFIGS / "free_gaussian.cfg"), "--out", str(out),
                   "--set", "dt=1e-4", "--set", "n_steps=30000", "--set", "snapshot_every=0"])
    assert rc == 0
    header, rows = read_csv(out / "snapshot_0001.csv")
    t = column(rows, header, "t")[0]
    got = np.array(column(rows, header, "re_psi")) \
        + 1j * np.array(column(rows, header, "im_psi"))
    want = analytic_free_gaussian(GaussianPacketSpec(16.0, 1.0, 1.0), Grid1D(512, 64.0),
                                  1.0, PhysicalConstants(), t)
    assert t == pytest.approx(3.0, rel=1e-15)
    assert np.max(np.abs(got - want.samples)) <= 5e-13


def _row_args(name):
    """The arguments after the command of the table's row `name`, on the shipped configs."""
    (row,) = [row for row in reproducers.ROWS if row.id == f"{reproducers.REPRO}[{name}]"]
    return [arg.format(configs=CONFIGS) for arg in row.argv[1:]]


# name -> evolve arguments: 2 (harmonic trap: each file in row blocks at 2 and 4
# processes), 3, 9 (harmonic trap) and 21 snapshots (the shape of the benchmark's
# write-bound workload at N = 512), the last two the table's artifact streams
_WRITER_RUNS = {
    "harmonic_2": ["--config", str(CONFIGS / "harmonic_ground.cfg"), "--set", "snapshot_every=0"],
    "free_gaussian": ["--config", str(CONFIGS / "free_gaussian.cfg"),
                      "--set", "n_steps=50", "--set", "snapshot_every=25"],
    "harmonic_ground": _row_args("shipped_harmonic_ground"),
    "klein_gordon_21": _row_args("klein_gordon_21"),
}


def test_evolve_deterministic_and_reproducible_from_echo(tmp_path, monkeypatch):
    # the bytes depend neither on the run nor on how many processes write the
    # snapshots: the default count, 1 (no fork) and 4
    fork = os.fork
    for name, args in _WRITER_RUNS.items():
        out1, out2, out3 = (tmp_path / name / n for n in ("a", "b", "c"))
        assert cli.main(["evolve", *args, "--out", str(out1)]) == 0
        with monkeypatch.context() as m:
            usable_cpus(m, 1)
            m.setattr(os, "fork", lambda: pytest.fail("a 1-CPU run forked"))
            assert cli.main(["evolve", *args, "--out", str(out2)]) == 0
        assert reproducers.tree(out1) == reproducers.tree(out2)
        # the echoed config alone reproduces the artifacts
        forks = []
        with monkeypatch.context() as m:
            usable_cpus(m, 4)
            m.setattr(os, "fork", lambda: forks.append(1) or fork())
            assert cli.main(["evolve", "--config", str(out1 / "config_echo.cfg"),
                             "--out", str(out3)]) == 0
        assert len(forks) == min(4, len(list(out1.glob("snapshot_*.csv")))) - 1
        assert reproducers.tree(out1) == reproducers.tree(out3)
        for out in (out1, out2, out3):  # no part file of a row block is left behind
            names = {p.name for p in out.iterdir()} - {"config_echo.cfg", "summary.csv"}
            assert names and all(re.fullmatch(r"snapshot_\d{4}\.csv", n) for n in names), names


def test_evolve_memory_does_not_grow_with_snapshot_count(tmp_path, monkeypatch):
    # every snapshot was held until the last one was computed: the traced peak
    # grew from 0.19 to 1.8 MiB between 11 and 401 snapshots at N = 256.  One
    # field is held at a time now (measured 0.18 -> 0.20 MiB)
    usable_cpus(monkeypatch, 2)
    runs = []

    def peak(every):
        runs.append(tmp_path / str(len(runs)))
        tracemalloc.start()
        try:
            assert cli.main(["evolve", "--config", str(CONFIGS / "harmonic_ground.cfg"),
                             "--out", str(runs[-1]), "--set", "n_steps=400",
                             "--set", f"snapshot_every={every}"]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(40)  # warm-up
    few, many = peak(40), peak(1)
    assert len(list(runs[-1].glob("snapshot_*.csv"))) == 401
    assert many <= 1.25 * few


def test_failed_writer_child_share_is_rewritten(tmp_path, monkeypatch):
    # every child fails to write, or no child can be forked: the parent writes their
    # shares (whole files, or the row blocks of a 2-snapshot run).  A child whose CPU
    # pin is refused writes its own share unpinned, so the parent rewrites none
    parent, write_text = os.getpid(), cli._write_text
    written = []

    def counted(path, text):
        if os.getpid() == parent:
            written.append(os.path.basename(path))
        return write_text(path, text)

    def no_fork():
        raise BlockingIOError("fork: resource temporarily unavailable")

    usable_cpus(monkeypatch, 4)
    monkeypatch.setattr(cli, "_write_text", counted)
    for name, run in (("free_gaussian", ["--config", str(CONFIGS / "free_gaussian.cfg")]),
                      ("harmonic_2", _WRITER_RUNS["harmonic_2"])):
        args, top = ["evolve", *run], tmp_path / name
        faults, pins = top / "faults", top / "pins"
        faults.mkdir(parents=True)
        pins.mkdir()

        def parent_only(path, text):
            if os.getpid() != parent:
                write_text(str(faults / str(os.getpid())), "")  # the fault fired in this child
                raise OSError("no space left on device")
            return write_text(path, text)

        def no_pin(pid, cpus):
            write_text(str(pins / str(os.getpid())), "")
            raise OSError(22, "Invalid argument")

        written.clear()
        assert cli.main([*args, "--out", str(top / "a")]) == 0
        shares = list(written)
        with monkeypatch.context() as m:
            m.setattr(cli, "_write_text", parent_only)
            assert cli.main([*args, "--out", str(top / "b")]) == 0
        children = min(4, len(list((top / "a").glob("snapshot_*")))) - 1
        assert len(list(faults.iterdir())) == children
        written.clear()
        with monkeypatch.context() as m:
            m.setattr(os, "sched_setaffinity", no_pin)
            assert cli.main([*args, "--out", str(top / "c")]) == 0
        assert written == shares  # the parent wrote its own units and no child's
        assert len(list(pins.iterdir())) == children
        with monkeypatch.context() as m:
            m.setattr(os, "fork", no_fork)
            assert cli.main([*args, "--out", str(top / "d")]) == 0
        a, b, c, d = (reproducers.tree(top / out) for out in "abcd")
        assert a == b == c == d, name


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity here")
def test_each_writer_child_asks_for_one_cpu_of_its_own(tmp_path, monkeypatch):
    # a forked writer starts on its parent's CPU and mostly stayed there, so the
    # writers took turns on one CPU.  The caller is held on one CPU for the run
    pin, real = os.sched_setaffinity, os.sched_getaffinity(0)
    here = max(real)
    low = max(here - 1, 0)  # the caller's CPU is not the first usable one, where it can be
    args, pins = ["evolve", "--config", str(CONFIGS / "free_gaussian.cfg")], tmp_path / "pins"
    pins.mkdir()

    def record(pid, cpus):
        (pins / str(os.getpid())).write_text(" ".join(map(str, sorted(cpus))))

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(low, low + 4)))
    monkeypatch.setattr(os, "sched_setaffinity", record)
    pin(0, {here})
    try:
        assert cli.main([*args, "--out", str(tmp_path / "out")]) == 0  # 4 snapshots: 3 children
    finally:
        pin(0, real)
    asked = {p.name: p.read_text().split() for p in pins.iterdir()}
    assert len(asked) == 3 and str(os.getpid()) not in asked, asked
    assert all(len(cpus) == 1 for cpus in asked.values()), asked
    cpus = {int(cpu) for (cpu,) in asked.values()}
    assert len(cpus) == 3 and here not in cpus and cpus <= set(range(low, low + 4)), asked


def test_unwritable_snapshot_path_is_exit_2(tmp_path, capsys, monkeypatch):
    # the child writing the odd snapshots fails; the parent's rewrite of its
    # share raises the fault as its own error
    usable_cpus(monkeypatch, 2)
    out = tmp_path / "o"
    (out / "snapshot_0001.csv").mkdir(parents=True)
    rc = cli.main(["evolve", "--config", str(CONFIGS / "free_gaussian.cfg"), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot write output:") and err.count("\n") == 1
    assert "snapshot_0001.csv" in err and "Traceback" not in err


@pytest.mark.parametrize("scenario", ["dispersion", "evolve", "nrlimit", "oscillator"])
def test_unwritable_out_is_exit_2(tmp_path, capsys, scenario):
    # an --out under a regular file ended in a NotADirectoryError traceback, exit 1
    (tmp_path / "afile").touch()
    rc = cli.main([scenario, "--out", str(tmp_path / "afile" / "sub")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot write output:") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("scenario", ["dispersion", "evolve", "nrlimit", "oscillator"])
def test_unwritable_out_is_refused_before_the_work(tmp_path, capsys, monkeypatch, scenario):
    # checked before the command runs, so a long run does not fail only at its first write
    def never(cfg, out):
        raise AssertionError(f"{scenario} ran with an unwritable --out")

    monkeypatch.setitem(cli._DISPATCH, scenario, never)
    (tmp_path / "afile").touch()
    rc = cli.main([scenario, "--out", str(tmp_path / "afile" / "sub")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot write output:") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile"]


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
    psi0 = gaussian_packet(GaussianPacketSpec(16.0, 1.0, 2.0), grid)
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


def test_nrlimit_flat_packet_in_tiny_box_is_exit_0(tmp_path):
    # sigma ** 2 overflowed in the packet (OverflowError, exit 1)
    out = tmp_path / "o"
    rc, _ = main_strict(["nrlimit", "--config", str(CONFIGS / "nrlimit_ladder.cfg"),
                         "--out", str(out), "--set", "length=1e-12", "--set", "sigma=1e300"])
    assert rc == 0  # with no warning: the L/8 one is gone
    assert_finite_csv(out / "nrlimit.csv")
    tree = json.loads((out / "report.json").read_text(), parse_constant=reproducers.refuse_constant)
    assert None not in tree["fits"].values()


def test_nrlimit_snapshot_every_means_what_evolve_means(tmp_path, capsys):
    # 0 is the first and last snapshot only, as in evolve (it used to become 1,
    # a row per step); a negative value is refused, as in evolve
    out = tmp_path / "nr"
    assert cli.main(["nrlimit", "--config", str(CONFIGS / "nrlimit_ladder.cfg"),
                     "--out", str(out), "--set", "snapshot_every=0"]) == 0
    header, rows = read_csv(out / "nrlimit.csv")
    assert column(rows, header, "c") == [10.0, 10.0, 20.0, 20.0, 40.0, 40.0]
    assert column(rows, header, "t") == [0.0, 200 * 0.1] * 3
    rc = cli.main(["nrlimit", "--config", str(CONFIGS / "nrlimit_ladder.cfg"),
                   "--out", str(tmp_path / "neg"), "--set", "snapshot_every=-1"])
    assert rc == 2
    assert "snapshot_every must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "neg" / "nrlimit.csv").exists()


def test_nrlimit_ladder_may_repeat_a_speed():
    cfg = cli.build_config("nrlimit", [], [("--set #1", "c_ladder", "10,10,20")])
    assert cfg["c_ladder"] == (10.0, 10.0, 20.0)


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
    # hbar omega_c / 2 = 0.5 to 64 eps of it (the Strang relaxation read 7.0e-13 above it)
    eps = sys.float_info.epsilon
    for e in column(rows, header, "energy"):
        assert abs(e - 0.5) <= 64 * eps * 0.5
    tree = json.loads((out / "report.json").read_text())
    assert tree["imaginary_time"]["relative_error_vs_analytic"] <= 64 * eps


def test_oscillator_scaled_frequency(tmp_path):
    out = tmp_path / "osc"
    rc = cli.main(["oscillator", "--config", str(CONFIGS / "oscillator.cfg"),
                   "--out", str(out), "--set", "omega_c=2.0"])
    assert rc == 0
    header, rows = read_csv(out / "oscillator.csv")
    for e in column(rows, header, "energy"):
        assert abs(e - 1.0) <= 2e-4


@pytest.mark.parametrize("tau_step", ["5", "1e300"])
def test_oscillator_frozen_wrong_state_is_exit_3(monkeypatch, capsys, tmp_path, tau_step):
    # relaxed by plain Strang steps of this size in place of the exact ones (the config's
    # trap has omega_c = 1), the state freezes before it is an eigenstate; the spread
    # guard's refusal is exit 3
    build = oscillator._strang

    def plain(v, grid, m, hbar, dt, unit):
        return build(propagate.harmonic_potential(grid, m, 1.0), grid, m, hbar,
                     float(tau_step), unit)

    monkeypatch.setattr(oscillator, "_strang", plain)
    rc = cli.main(["oscillator", "--config", str(CONFIGS / "oscillator.cfg"),
                   "--out", str(tmp_path / "o"), "--set", f"tau_step={tau_step}"])
    assert rc == 3
    assert "energy spread" in capsys.readouterr().err


@pytest.mark.parametrize("tau_step", ["5", "1e300", "5e-324", "1e-9"])
def test_oscillator_any_first_step_is_exit_0_at_the_bound(tmp_path, capsys, tau_step):
    # each exited 3: 5 and 1e300 froze a wrong state, 5e-324 was refused with the same
    # "tau_step too large?" hint, 1e-9 ran out its 50,000 iterations
    out = tmp_path / "o"
    rc = cli.main(["oscillator", "--config", str(CONFIGS / "oscillator.cfg"),
                   "--out", str(out), "--set", f"tau_step={tau_step}"])
    assert rc == 0, capsys.readouterr().err
    header, rows = read_csv(out / "oscillator.csv")
    assert abs(column(rows, header, "energy")[-1] - 0.5) <= 64 * sys.float_info.epsilon * 0.5


def test_oscillator_coarse_valid_step_is_exit_0(tmp_path):
    out = tmp_path / "o"
    rc = cli.main(["oscillator", "--config", str(CONFIGS / "oscillator.cfg"),
                   "--out", str(out), "--set", "tau_step=0.2"])
    assert rc == 0
    header, rows = read_csv(out / "oscillator.csv")
    assert abs(column(rows, header, "energy")[-1] - 0.5) <= 5e-5


# ---------------------------------------------------------------------------
# verify command
# ---------------------------------------------------------------------------

def test_verify_passes_and_is_deterministic(capsys):
    assert cli.main(["verify"]) == 0
    first = capsys.readouterr().out
    assert "plane_wave_exactness: PASS" in first
    assert "oscillator_bound: PASS" in first
    assert first.splitlines()[-1] == "all checks passed"
    assert cli.main(["verify"]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_every_verify_check_returns_nothing():
    # a check refuses its first case past the bound through `_budget`: no (value, bound,
    # label) comes back for a second comparison
    assert [fn() for _, fn in cli.DEFAULT_CHECKS] == [None] * len(cli.DEFAULT_CHECKS)


def test_python_m_wavelab(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(CONFIGS.parent / "src"))

    def run(*args):
        return subprocess.run([sys.executable, "-m", "wavelab", *args], env=env, cwd=tmp_path,
                              capture_output=True, text=True, timeout=300)

    ok = run("verify")
    assert ok.returncode == 0, ok.stdout + ok.stderr
    assert ok.stdout.splitlines()[-1] == "all checks passed"
    refused = run("dispersion", "--set", "k_count=0")
    assert refused.returncode == 2
    assert refused.stderr == "config error: --set #1: k_count must be >= 1, got 0\n"
    assert not (tmp_path / "out").exists()
    unknown = run("nosuch")
    assert unknown.returncode == 2 and "Traceback" not in unknown.stderr
    assert unknown.stderr.startswith("usage: wavelab ")
    assert "invalid choice: 'nosuch'" in unknown.stderr


@pytest.mark.parametrize("command", list(cli._DISPATCH))
def test_every_command_takes_the_four_options(command):
    args = cli._build_parser().parse_args(
        [command, "--config", "c.cfg", "--out", "o", "--seed", "7", "--set", "a=1", "--set", "b=2"])
    assert (args.command, args.config, args.out, args.seed, args.set) == (
        command, "c.cfg", "o", 7, ["a=1", "b=2"])


def test_help_lists_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    assert "{dispersion,evolve,nrlimit,oscillator,verify}" in capsys.readouterr().out


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


def test_verify_phase_error_above_rounding_fails(monkeypatch, capsys):
    # 1e-12 passed the old fixed bound of 1e-11; the bound is now 64 eps max(1, |omega t|)
    propagate = cli._propagate

    def off_by_1e_12(*args):
        return [(t, WaveField(fld.grid, fld.samples + 1e-12)) for t, fld in propagate(*args)]

    monkeypatch.setattr(cli, "_propagate", off_by_1e_12)
    assert cli.main(["verify"]) == 3
    out = capsys.readouterr().out
    assert "plane_wave_exactness: FAIL (phase error for " in out
    assert "verification failed: plane_wave_exactness" in out
    assert "transform_parseval: PASS" in out  # the other checks still run


def test_verify_catches_a_trap_that_drifts_the_norm(monkeypatch, capsys):
    # the norm check ran the library's split_step_evolve, which no command runs;
    # it now runs the trap propagator of evolve, so a drift of 1e-13 per interval fails
    trap = cli._harmonic_snapshots

    def drifting(*args):
        for k, (t, fld) in enumerate(trap(*args)):
            yield t, WaveField(fld.grid, fld.samples * (1.0 + 1e-13 * k))

    monkeypatch.setattr(cli, "_harmonic_snapshots", drifting)
    assert cli.main(["verify"]) == 3
    out = capsys.readouterr().out
    assert "norm_conservation: FAIL (per-interval norm drift: " in out
    assert "verification failed: norm_conservation" in out
    assert "plane_wave_exactness: PASS" in out  # the phase path is untouched


def test_verify_catches_a_relaxation_off_the_bound(monkeypatch, capsys):
    # the Strang relaxation read 7.0e-13 above hbar omega_c / 2 on this problem; the
    # bound is 64 eps hbar omega_c / 2 = 7.1e-15
    relax = cli.imaginary_time_ground_state

    def off_by_1e_13(*args, **kwargs):
        return relax(*args, **kwargs)._replace(energy=0.5 + 1e-13)

    monkeypatch.setattr(cli, "imaginary_time_ground_state", off_by_1e_13)
    assert cli.main(["verify"]) == 3
    out = capsys.readouterr().out
    assert "oscillator_bound: FAIL (relaxation gap to hbar omega_c / 2: 1.000" in out
    assert "verification failed: oscillator_bound" in out
    assert "dominance_scaling: PASS" in out


def test_verify_catches_a_relaxation_stuck_on_the_odd_state(monkeypatch, capsys):
    # verify relaxed from the even default start only, which the nodal rule leaves untouched;
    # without that rule an odd start stops on the lowest odd state, 3 hbar omega_c / 2
    monkeypatch.setattr(oscillator, "_NODE_TOL", 2.0)  # accept any stopped state
    assert cli.main(["verify"]) == 3
    out = capsys.readouterr().out
    assert ("oscillator_bound: FAIL (odd-start relaxation gap to hbar omega_c / 2: "
            "1.0000000000000002 > ") in out
    assert "verification failed: oscillator_bound" in out


def test_verify_nan_value_fails(monkeypatch, capsys):
    # a check is `_budget` over its cases, and a nan fails it
    nan_value = ("nan_value", lambda: cli._budget(math.nan, 1.0, "gap"))
    monkeypatch.setattr(cli, "DEFAULT_CHECKS", cli.DEFAULT_CHECKS + [nan_value])
    assert cli.main(["verify"]) == 3
    out = capsys.readouterr().out
    assert "nan_value: FAIL (gap: nan > 1.0)" in out
    assert "verification failed: nan_value" in out


def test_verify_fails_under_python_optimize(tmp_path):
    # -O strips assert statements; a failing check must still exit 3
    child = (
        "import sys, types\n"
        "from wavelab import cli\n"
        "cli.dominance_terms_mode = lambda m, k, consts: types.SimpleNamespace(ratio=consts.c)\n"
        "sys.exit(cli.main(['verify']))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(CONFIGS.parent / "src"))
    proc = subprocess.run([sys.executable, "-O", "-c", child], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 3, proc.stdout + proc.stderr
    assert "dominance_scaling: FAIL (dominance c-exponent 1." in proc.stdout
    assert "verification failed: dominance_scaling" in proc.stdout


def test_python_optimize_strips_nothing_from_the_package():
    # -O drops assert statements and `if __debug__:` blocks; the package has neither, so
    # every check and refusal (the phase budget among them) runs the same under -O
    for path in sorted((CONFIGS.parent / "src" / "wavelab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            assert not isinstance(node, ast.Assert), f"{path.name}:{node.lineno} asserts"
            assert getattr(node, "id", None) != "__debug__", f"{path.name}:{node.lineno}"
