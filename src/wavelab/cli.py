"""Scenario runner: dispersion scans, packet evolutions, the non-relativistic
limit study, the oscillator suite, and a self-verification command.

Configuration is a flat key-value text file (``key = value`` per line, ``#``
comments) plus ``--set key=value`` command-line overrides.  Unknown keys are
hard errors so a misspelled physics parameter can never silently default, and
a key's parser in ``SCHEMAS`` refuses a value past a bound that no library call
enforces (``k_count >= 1``, ...) before any file is written.  The effective
configuration is echoed next to every report; re-running from the echo
reproduces the run byte for byte (floats in shortest-roundtrip decimal form).

Exit codes: 0 ok, 2 config error (a parser's or the library's ConfigError, or an
``--out`` that cannot be written), 3 numerical failure (a NumericalFailure, or out
of memory), 4 resolution precondition failure (GridTooCoarse); any other
exception is a fault, not a refusal.
Files are staged on ``--out``'s filesystem and move into it once the run has
succeeded (a new ``--out`` in one rename, an existing one file by file): a
failed run leaves ``--out`` as it was, unless a move fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from .core import (
    GaussianPacketSpec,
    Grid1D,
    PhysicalConstants,
    TimeSpec,
    WaveField,
    _budget,
    _finite,
    _positive,
    _wrap,
    dft,
    l2_norm,
)
from .dispersion import (
    ClassicalWave,
    Electromagnetic,
    KleinGordon,
    PlaneWaveMode,
    SchrodingerFree,
    SchrodingerPotential,
    _wavenumber_scan,
    group_velocity,
    kinematic_map,
    nr_expansion_error,
    omega_of_k,
    planewave_residual,
    planewave_sample,
)
from .exceptions import ConfigError, GridTooCoarse, NumericalFailure
from .nrlimit import dominance_terms_mode, nr_limit_report
from .oscillator import (
    OscillatorProblem,
    imaginary_time_ground_state,
    minimize_bound_analytic,
    minimize_bound_numeric,
)
from .propagate import (
    _harmonic_snapshots,
    _line_moments,
    _phase_snapshots,
    _snapshot_steps,
    gaussian_packet,
    packet_moments,
    packet_width,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_RESOLUTION = 4

# CLI family name -> builder(cfg) of its equation.  The potential family's equation is
# SchrodingerPotential(m, V0), V0 = v0 if potential = constant, else 0; a trap is `_trap`'s.
_FAMILIES = {
    "classical_wave": lambda cfg: ClassicalWave(cfg["wave_speed"]),
    "electromagnetic": lambda cfg: Electromagnetic(),
    "klein_gordon": lambda cfg: KleinGordon(cfg["mass"]),
    "schrodinger_free": lambda cfg: SchrodingerFree(cfg["mass"]),
    "schrodinger_potential": lambda cfg: SchrodingerPotential(
        cfg["mass"], cfg["v0"] if cfg["potential"] == "constant" else 0.0),
}


# ---------------------------------------------------------------------------
# config schema and parsing
# ---------------------------------------------------------------------------

def _parse_float(s: str) -> float:
    try:
        v = float(s)
    except ValueError:
        raise ValueError(f"must be a number, got {s!r}") from None
    if not math.isfinite(v):
        raise ValueError(f"must be finite, got {s}")
    return v


def _parse_int(minimum=None, maximum=None):
    def parse(s: str) -> int:
        try:
            v = int(s, 10)
        except ValueError:
            raise ValueError(f"must be an integer, got {s!r}") from None
        if minimum is not None and v < minimum:
            raise ValueError(f"must be >= {minimum}, got {v}")
        if maximum is not None and v > maximum:
            raise ValueError(f"must be <= {maximum}, got {v}")
        return v
    return parse


def _parse_choice(*options):
    def parse(s: str) -> str:
        if s not in options:
            raise ValueError(f"must be one of {', '.join(options)}")
        return s
    return parse


def _parse_ladder(s: str) -> tuple:
    ladder = tuple(_parse_float(p) for p in map(str.strip, s.split(",")) if p)
    if len(set(ladder)) < 2:  # a fit through one abscissa gives no exponent
        raise ValueError(f"must list at least 2 distinct speeds, got {len(set(ladder))}")
    if min(ladder) <= 0:
        raise ValueError(f"must be > 0 in every entry, got {min(ladder)!r}")
    return ladder


_COMMON = {
    "hbar": (_parse_float, 1.0),
    "seed": (_parse_int(0, 2 ** 64 - 1), 0),
}

_PACKET = {  # evolve's: a plane wave has no line moments, so only nrlimit takes one
    "packet_kind": (_parse_choice("gaussian"), "gaussian"),
    "x0": (_parse_float, 16.0),
    "k0": (_parse_float, 1.0),
    "sigma": (_parse_float, 2.0),
}

SCHEMAS = {
    "dispersion": {
        **_COMMON,
        "c": (_parse_float, 1.0),
        "family": (_parse_choice(*_FAMILIES), "klein_gordon"),
        "mass": (_parse_float, 1.0),
        "wave_speed": (_parse_float, 1.0),
        "potential": (_parse_choice("none", "constant"), "none"),
        "v0": (_parse_float, 0.0),
        "k_min": (_parse_float, 0.0),
        "k_max": (_parse_float, 8.0),
        "k_count": (_parse_int(1, 2 ** 58), 9),  # as n_points: numpy allocates no longer scan
    },
    "evolve": {
        **_COMMON,
        "c": (_parse_float, 1.0),
        "family": (_parse_choice(*_FAMILIES), "schrodinger_free"),
        "mass": (_parse_float, 1.0),
        "wave_speed": (_parse_float, 1.0),
        "n_points": (_parse_int(), 512),
        "length": (_parse_float, 64.0),
        "dt": (_parse_float, 0.01),
        "n_steps": (_parse_int(0, 2 ** 53), 500),  # past 2**53, step * dt is not exact
        "snapshot_every": (_parse_int(0, 2 ** 53), 100),
        **_PACKET,
        "potential": (_parse_choice("none", "constant", "harmonic"), "none"),
        "v0": (_parse_float, 0.0),
        "omega_c": (_parse_float, 1.0),
        "x_c": (_parse_float, -1.0),  # negative means grid center
    },
    "nrlimit": {
        **_COMMON,
        "mass": (_parse_float, 1.0),
        "c_ladder": (_parse_ladder, (10.0, 20.0, 40.0)),
        "n_points": (_parse_int(), 512),
        "length": (_parse_float, 64.0),
        "dt": (_parse_float, 0.05),
        "n_steps": (_parse_int(maximum=2 ** 53), 400),
        "snapshot_every": (_parse_int(0, 2 ** 53), 20),
        **_PACKET,
        "packet_kind": (_parse_choice("gaussian", "plane_wave"), "gaussian"),
    },
    "oscillator": {
        **_COMMON,
        "mass": (_parse_float, 1.0),
        "omega_c": (_parse_float, 1.0),
        "n_points": (_parse_int(), 256),
        "length": (_parse_float, 20.0),
        "tau_step": (_parse_float, 0.02),
        "max_iters": (_parse_int(maximum=2 ** 53), 50000),
        "energy_tol": (_parse_float, 1e-12),
        "bracket_lo": (_parse_float, 0.05),
        "bracket_hi": (_parse_float, 20.0),
        "search_tol": (_parse_float, 1e-12),
    },
    "verify": {"seed": _COMMON["seed"]},  # verify reads no physics parameter
}


def parse_config_file(path: Path) -> list:
    """Read `key = value` lines; returns [("path:lineno", key, value), ...]."""
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    pairs = []
    seen = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        if key in seen:
            raise ConfigError(
                f"{path}:{lineno}: duplicate key '{key}' (first set on line {seen[key]})"
            )
        seen[key] = lineno
        pairs.append((f"{path}:{lineno}", key, value))
    return pairs


def _override_pairs(items, seed) -> list:
    """[(source, key, value), ...] of `--set` items, then of `--seed` (which wins)."""
    pairs = []
    for i, item in enumerate(items, start=1):
        if "=" not in item:
            raise ConfigError(f"--set #{i}: expected key=value, got {item!r}")
        key, _, raw = item.partition("=")
        pairs.append((f"--set #{i}", key.strip(), raw.strip()))
    if seed is not None:
        pairs.append(("--seed", "seed", str(seed)))
    return pairs


def build_config(scenario: str, pairs, overrides) -> dict:
    """Fill defaults, apply file pairs then overrides (both (source, key, value)
    lists), reject unknowns.  Returns {"scenario": scenario, key: value, ...}
    in schema order.
    """
    schema = SCHEMAS[scenario]
    values = {"scenario": scenario, **{key: default for key, (_, default) in schema.items()}}
    for src, key, raw in (*pairs, *overrides):
        if key == "scenario":
            if raw != scenario:
                raise ConfigError(
                    f"{src}: config is for scenario '{raw}', command is '{scenario}'"
                )
            continue
        if key not in schema:
            raise ConfigError(f"{src}: unknown key '{key}' for scenario '{scenario}'")
        parse, _ = schema[key]
        try:
            values[key] = parse(raw)
        except ValueError as exc:
            raise ConfigError(f"{src}: {key} {exc}") from exc
    return values


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, tuple):
        return ",".join(repr(float(x)) for x in v)
    return str(v)


def echo_config(cfg: dict) -> str:
    return "".join(f"{key} = {_fmt(v)}\n" for key, v in cfg.items())


def _write_text(path: str, text: str):
    with open(path, "w") as f:
        f.write(text)


def _write_csv(path: str, header: str, rows):
    lines = [header]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    _write_text(path, "\n".join(lines) + "\n")


class _Cells(tuple):
    """A JSON array whose items are already rendered: each the repr of a finite float."""


def _json(value, pad: str = "") -> str:
    """json.dumps's text of `value` with a two-space indent and sorted keys (dict keys are str),
    at indent `pad`.  A finite float and an int are their own reprs (json's text for both), a
    `_Cells` goes in verbatim, and any other scalar (str, bool, None, nan, inf, a float
    subclass) is json's."""
    kind = type(value)
    if kind is float and math.isfinite(value) or kind is int:
        return repr(value)
    inner = pad + "  "
    if isinstance(value, dict):
        ends, items = "{}", [f"{json.dumps(k)}: {_json(v, inner)}"
                             for k, v in sorted(value.items())]
    elif isinstance(value, (list, tuple)):
        ends, items = "[]", value if kind is _Cells else [_json(v, inner) for v in value]
    else:
        return json.dumps(value)
    if not items:
        return ends
    return f"{ends[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}{ends[1]}"


def _write_report(out: str, cfg: dict, **sections):
    """report.json: {"config": cfg, **sections} through `_json` (a tuple is a JSON list)."""
    _write_text(os.path.join(out, "report.json"), _json({"config": cfg, **sections}) + "\n")


# ---------------------------------------------------------------------------
# shared builders
# ---------------------------------------------------------------------------

def _equation(cfg: dict):
    """The equation of cfg's family; a potential is refused for a family without one."""
    eq = _FAMILIES[cfg["family"]](cfg)
    if cfg["potential"] != "none" and not isinstance(eq, SchrodingerPotential):
        raise ConfigError(f"family '{cfg['family']}' does not take a potential; "
                          "use family = schrodinger_potential")
    return eq


def _trap(cfg: dict):
    """(omega_c, x_c) of a harmonic potential, x_c None for the grid center; else None."""
    harmonic = cfg["potential"] == "harmonic"
    return (cfg["omega_c"], None if cfg["x_c"] < 0 else cfg["x_c"]) if harmonic else None


def _carrier_k(cfg: dict, grid: Grid1D) -> float:
    """Carrier wavenumber: snapped to the nearest grid mode for plane waves."""
    if cfg["packet_kind"] == "plane_wave":
        n = cfg["k0"] * grid.length / (2.0 * np.pi)
        if not math.isfinite(n):
            raise ConfigError(f"k0 = {cfg['k0']!r} has no grid mode on length = {grid.length!r}")
        return 2.0 * np.pi * round(n) / grid.length
    return cfg["k0"]


def _build_packet(cfg: dict, grid: Grid1D) -> WaveField:
    if cfg["packet_kind"] == "plane_wave":
        fld = planewave_sample(PlaneWaveMode(1.0, _carrier_k(cfg, grid), 0.0), grid, 0.0)
        return _wrap(WaveField, grid, fld.samples / l2_norm(fld))
    spec = GaussianPacketSpec(x0=cfg["x0"], k0=cfg["k0"], sigma=cfg["sigma"])
    return gaussian_packet(spec, grid)


def _loglog_slope(xs, ys):
    """Power-law exponent fit; None when the data cannot support one."""
    ys = np.asarray(ys, dtype=float)
    if not np.all(np.isfinite(ys)) or np.any(ys <= 0.0):
        return None
    return float(np.polyfit(np.log(np.asarray(xs, dtype=float)), np.log(ys), 1)[0])


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_dispersion(cfg: dict, out: str):
    consts = PhysicalConstants(hbar=cfg["hbar"], c=cfg["c"])
    eq = _equation(cfg)
    header = "family,k,omega,group_velocity,p,E,nr_gap,nr_bound"
    m = getattr(eq, "m", None)
    checked = header.split(",")[1:6 if m is None else 8]  # all finite but a massless NR pair
    # one library call per column over the whole scan, the bits of the scalar calls
    k = _wavenumber_scan(cfg["k_min"], cfg["k_max"], cfg["k_count"])
    w = omega_of_k(eq, k, consts)
    nr = (np.full_like(k, np.nan),) * 2 if m is None else nr_expansion_error(m, k, consts)
    cols = [k, w, group_velocity(eq, k, consts), *kinematic_map(k, w, consts), *nr]
    rows = list(zip(*(col.tolist() for col in cols)))
    _finite(lambda: next(f"dispersion row at k = {row[0]!r} has {name} = {v!r}" for row in rows
                         for name, v in zip(checked, row) if not math.isfinite(v)),
            *cols[:len(checked)])
    family = f"{cfg['family']},"  # the one text cell, the same in every row
    lines = [header, *(family + ",".join(map(float.__repr__, row)) for row in rows)]
    _write_text(os.path.join(out, "dispersion.csv"), "\n".join(lines) + "\n")


_MOMENTS_TOL = 1e-9  # of the width: each line-moment gap an evolve summary row may carry


def cmd_evolve(cfg: dict, out: str):
    consts = PhysicalConstants(hbar=cfg["hbar"], c=cfg["c"])
    grid = Grid1D(cfg["n_points"], cfg["length"])
    psi0 = _build_packet(cfg, grid)
    eq = _equation(cfg)
    _positive("dt", cfg["dt"])  # refused even at 0 steps
    steps = _snapshot_steps(cfg["n_steps"], cfg["snapshot_every"])
    trap = _trap(cfg)
    predict = _line_moments(psi0, group_velocity(eq, grid.wavenumbers, consts), trap)

    def rows():
        """Each (t, norm, centroid, width) summary row with its snapshot, in every writer's
        pass, once the row has passed the moments rule: GridTooCoarse (exit 4) unless its
        centroid (on the circle) and width lie within _MOMENTS_TOL of the width from the
        line's, the packet spec at t = 0, else `predict(t)`, the closed form of the same path."""
        for t, fld in _propagate(eq, psi0, consts, (s * cfg["dt"] for s in steps), trap):
            norm, (centroid, width) = l2_norm(fld), packet_moments(fld)  # a WaveField: finite
            start = t == 0.0
            want, width_want = (cfg["x0"] % grid.length, cfg["sigma"]) if start else predict(t)
            _finite(f"non-finite line moments at t = {t!r}", want, width_want)
            gap = max(abs(math.remainder(centroid - want, grid.length)), abs(width - width_want))
            _budget(gap, _MOMENTS_TOL * width_want, lambda: (
                f"packet does not fit length = {grid.length!r} at t = {t!r}"
                + (f" (x0 = {cfg['x0']!r}, sigma = {cfg['sigma']!r})" if start else "")
                + ", so enlarge length; line-moment gap"), GridTooCoarse)
            yield (t, norm, centroid, width), fld

    _write_snapshots(out, rows, len(steps), grid.positions)


def _propagate(eq, psi0: WaveField, consts: PhysicalConstants, times, trap=None):
    """The one propagation door of `evolve` and `verify`: lazy (t, psi) at each t of
    `times` (any iterable, read once).  Every path is exact: the harmonic `trap`
    (omega_c, x_c) of `_trap` by its propagator, any other family by the phase of omega(k).
    """
    return (_harmonic_snapshots(psi0, eq.m, *trap, consts.hbar, times) if trap else
            _phase_snapshots(psi0, omega_of_k(eq, psi0.grid.wavenumbers, consts), times))


def _write_snapshots(out: str, passes, count: int, positions):
    """Write snapshot_NNNN.csv for each of the `count` (row, field) pairs that `passes()`
    yields into `out`, and summary.csv of their rows (t, norm, centroid, width).

    Up to one process per CPU this process may use (forked, so nothing is
    pickled) makes its own pass, the caller's also writing the summary row by
    row, so one field at a time is held.  Each file is cut into B contiguous
    row blocks, B = ceil(2 processes / count) with fewer than two files per
    process and else 1, and block b of file idx, unit idx B + b, is written by
    the process of that number modulo their count.  Block 0, with the header,
    is the file itself; the caller appends the later blocks' part files in
    order and unlinks them.  The bytes do not depend on the count.  The caller
    rewrites the units of any child that fails or cannot be forked: a
    persistent fault then raises here.  Every pass is the same deterministic
    stream, so a refusal in it raises in every process at the same row: each
    child exits by itself, and the caller reaps them all before it re-raises.
    """
    # the x column is the same in every snapshot file: format it once
    x_cells = [f"{xj!r}," for xj in positions.tolist()]
    cpus = (len(os.sched_getaffinity(0))
            if hasattr(os, "fork") and hasattr(os, "sched_getaffinity") else 0)
    n_procs = min(cpus, count) or 1
    # many files balance by whole files; a few unequal ones (zeros format fast) do not
    blocks = -(-2 * n_procs // count) if n_procs > 1 else 1

    def path(idx, b):
        name = os.path.join(out, f"snapshot_{idx:04d}.csv")
        return f"{name}.{b}" if b else name

    def write_share(r, summary=None):
        for idx, (row, fld) in enumerate(passes()):
            if summary is not None:
                summary.write(",".join(map(_fmt, row)) + "\n")
            for b in range((r - idx * blocks) % n_procs, blocks, n_procs):  # r's units of idx
                rows = slice(len(x_cells) * b // blocks, len(x_cells) * (b + 1) // blocks)
                prefix = f"{row[0]!r},"
                # scalar abs(z) ** 2: vectorised np.abs(samples) ** 2 can differ in the last digit
                lines = [] if b else ["t,x,re_psi,im_psi,abs2"]
                lines.extend(f"{prefix}{xc}{z.real!r},{z.imag!r},{abs(z) ** 2!r}"
                             for xc, z in zip(x_cells[rows], fld.samples[rows].tolist()))
                lines.append("")  # one join, so the unit's text exists once
                _write_text(path(idx, b), "\n".join(lines))

    children = {}
    for r in range(1, n_procs):
        try:
            with warnings.catch_warnings():
                # Python >= 3.12 warns on fork in a process with threads (OpenBLAS's
                # workers); the child's pass calls no BLAS, and the child never returns
                warnings.simplefilter("ignore", DeprecationWarning)
                pid = os.fork()
        except OSError:  # no process to spare: the caller writes this share too
            pid = None
        if pid == 0:  # os._exit skips the inherited buffers, atexit handlers and finally clauses
            try:
                write_share(r)
                os._exit(0)
            finally:
                os._exit(1)
        children[r] = pid
    try:
        # after the forks, so no child inherits its buffer; written through, so no row pends
        with open(os.path.join(out, "summary.csv"), "w") as summary:
            summary.reconfigure(write_through=True)
            summary.write("t,norm,centroid,width\n")
            write_share(0, summary)
    finally:
        failed = [r for r, pid in children.items() if pid is None or os.waitpid(pid, 0)[1]]
    for r in failed:
        write_share(r)
    if blocks > 1:
        for idx in range(count):
            # sendfile refuses a file opened for O_APPEND, so seek to the end instead
            with open(path(idx, 0), "r+b") as f:
                f.seek(0, os.SEEK_END)
                for b in range(1, blocks):
                    with open(path(idx, b), "rb") as part:
                        while os.sendfile(f.fileno(), part.fileno(), None, 1 << 30):
                            pass
                    os.unlink(path(idx, b))


def cmd_nrlimit(cfg: dict, out: str):
    ladder = cfg["c_ladder"]
    grid = Grid1D(cfg["n_points"], cfg["length"])
    psi0 = _build_packet(cfg, grid)
    time = TimeSpec(cfg["dt"], cfg["n_steps"])

    runs = [nr_limit_report(psi0, cfg["mass"], PhysicalConstants(hbar=cfg["hbar"], c=c), time,
                            cfg["snapshot_every"]) for c in ladder]
    # each distinct number is rendered once, and nrlimit.csv and report.json share the cells
    # (all finite: nr_limit_report refuses a non-finite phase or ratio): one TimeSpec gives
    # every run the same t cells, and a run's dominance ratio is one value
    t_cells = _Cells(map(repr, runs[0].times))
    lines = ["c,t,deviation,dominance_ratio"]
    series = []
    for c, r in zip(ladder, runs):
        dev_cells, ratio_cell = _Cells(map(repr, r.deviation)), repr(r.dominance_ratio[0])
        prefix, suffix = f"{float(c)!r},", f",{ratio_cell}"
        lines.extend(f"{prefix}{tc},{dev}{suffix}" for tc, dev in zip(t_cells, dev_cells))
        series.append({"c": float(c), "times": t_cells, "deviation": dev_cells,
                       "dominance_ratio": _Cells([ratio_cell] * len(dev_cells))})

    k_carrier = _carrier_k(cfg, grid)
    dev_exponent = _loglog_slope(ladder, [r.deviation[-1] for r in runs])
    mode_ratio = [
        dominance_terms_mode(k_carrier, cfg["mass"], PhysicalConstants(cfg["hbar"], c)).ratio
        for c in ladder
    ]
    ratio_exponent = _loglog_slope(ladder, mode_ratio)

    _write_text(os.path.join(out, "nrlimit.csv"), "\n".join(lines) + "\n")
    _write_report(
        out, cfg,
        ladder=series,
        fits={
            "final_deviation_c_exponent": dev_exponent,
            "carrier_dominance_c_exponent": ratio_exponent,
        },
    )


def cmd_oscillator(cfg: dict, out: str):
    problem = OscillatorProblem(cfg["mass"], cfg["omega_c"],
                                PhysicalConstants(hbar=cfg["hbar"]))
    grid = Grid1D(cfg["n_points"], cfg["length"])
    analytic = minimize_bound_analytic(problem)
    numeric = minimize_bound_numeric(problem, (cfg["bracket_lo"], cfg["bracket_hi"]),
                                     cfg["search_tol"])
    ground = imaginary_time_ground_state(problem, grid, tau_step=cfg["tau_step"],
                                         max_iters=cfg["max_iters"],
                                         energy_tol=cfg["energy_tol"])
    ground_width = packet_width(ground.psi)
    rows = [
        ("analytic", analytic.delta_x, analytic.energy),
        ("golden_section", numeric.delta_x, numeric.energy),
        ("imaginary_time", ground_width, ground.energy),
    ]
    _write_csv(os.path.join(out, "oscillator.csv"), "method,delta_x,energy", rows)
    _write_report(
        out, cfg,
        analytic={"delta_x": analytic.delta_x, "energy": analytic.energy},
        golden_section={
            "delta_x": numeric.delta_x,
            "energy": numeric.energy,
            "energy_gap_vs_analytic": abs(numeric.energy - analytic.energy),
        },
        imaginary_time={
            "delta_x": ground_width,
            "energy": ground.energy,
            "relative_error_vs_analytic": abs(ground.energy - analytic.energy) / analytic.energy,
        },
    )


# ---------------------------------------------------------------------------
# verify: each check measures its cases, and `core._budget` refuses the first past its bound
# ---------------------------------------------------------------------------

_ROUNDING = 64.0 * sys.float_info.epsilon  # bound of a claim "to rounding", per unit scale


def _check_plane_wave_exactness():
    grid = Grid1D(32, 16.0)
    consts = PhysicalConstants()
    cfg = {"wave_speed": 1.3, "mass": 1.0, "potential": "constant", "v0": 0.5}
    t = 3.0
    for eq in (build(cfg) for build in _FAMILIES.values()):
        for n in (0, 1, 3, -5):
            k = 2.0 * np.pi * n / grid.length
            mode = PlaneWaveMode(1.0, k, omega_of_k(eq, k, consts))
            case = f"for {type(eq).__name__}, n={n}"
            _budget(planewave_residual(eq, mode, consts), 1e-12, f"residual {case}")
            psi0 = planewave_sample(mode, grid, 0.0)
            (_, evolved), = _propagate(eq, psi0, consts, [t])
            err = np.max(np.abs(evolved.samples - planewave_sample(mode, grid, t).samples))
            _budget(err, _ROUNDING * max(1.0, abs(mode.omega * t)), f"phase error {case}")


def _check_parseval():
    rng = np.random.default_rng(20240811)
    fld = WaveField(Grid1D(64, 10.0), rng.standard_normal(64) + 1j * rng.standard_normal(64))
    a = float(np.sum(np.abs(dft(fld).mode_amplitudes) ** 2))
    b = float(np.sum(np.abs(fld.samples) ** 2))
    _budget(abs(a - b), _ROUNDING * b, "Parseval gap")


def _check_norm_conservation():
    cfg = {"family": "schrodinger_potential", "mass": 1.0, "potential": "harmonic",
           "omega_c": 1.0, "x_c": -1.0}  # each trap interval is one real-time `_strang` step
    # 2 from the centre, with a box wide enough that the tail, too, stays exact to rounding
    psi0 = gaussian_packet(GaussianPacketSpec(12.0, 1.0, 1.0), Grid1D(128, 28.0))
    norms = [l2_norm(fld) for _, fld in _propagate(_equation(cfg), psi0, PhysicalConstants(),
                                                   (s * 0.01 for s in range(201)), _trap(cfg))]
    _budget(np.max(np.abs(np.diff(norms))) / norms[0], _ROUNDING, "per-interval norm drift")


def _check_massless_limit():
    consts = PhysicalConstants()
    for n in range(1, 9):
        k = 2.0 * np.pi * n / 16.0
        w = omega_of_k(Electromagnetic(), k, consts)
        _budget(abs(omega_of_k(KleinGordon(1e-8), k, consts) - w) / w, 1e-7,
                f"massless-limit gap at mode {n}")


def _check_dominance_scaling():
    cs = [5.0, 10.0, 20.0, 40.0]
    slope = _loglog_slope(cs, [dominance_terms_mode(1.0, 1.0, PhysicalConstants(1.0, c)).ratio
                               for c in cs])
    _budget(abs(math.nan if slope is None else slope + 4.0), 0.2, f"dominance c-exponent {slope}")


def _check_oscillator_bound():
    problem = OscillatorProblem(1.0, 1.0)  # oscillator.cfg's problem, grid and search
    grid = Grid1D(256, 20.0)
    x = grid.positions - grid.length / 2.0  # x e^{-x^2} is odd: it has no ground component
    e0 = minimize_bound_analytic(problem).energy
    golden = minimize_bound_numeric(problem, (0.05, 20.0), 1e-12).energy
    relaxed, odd = (imaginary_time_ground_state(problem, grid, initial=start).energy
                    for start in (None, WaveField(grid, x * np.exp(-x ** 2))))
    for energy, label in ((golden, "golden-section"), (relaxed, "relaxation"),
                          (odd, "odd-start relaxation")):
        _budget(abs(energy - e0), _ROUNDING * e0, f"{label} gap to hbar omega_c / 2")


DEFAULT_CHECKS = [
    ("plane_wave_exactness", _check_plane_wave_exactness),
    ("transform_parseval", _check_parseval),
    ("norm_conservation", _check_norm_conservation),
    ("massless_limit", _check_massless_limit),
    ("dominance_scaling", _check_dominance_scaling),
    ("oscillator_bound", _check_oscillator_bound),
]


def cmd_verify(cfg: dict, out: Path) -> int:
    """One PASS/FAIL line per DEFAULT_CHECKS entry: a check fails by raising, with its message
    (`_budget`'s "label: value > bound" for a case past its bound), and the others still run."""
    failed = None
    for name, check in DEFAULT_CHECKS:
        try:
            check()
        except Exception as exc:
            failed = failed or name
            print(f"{name}: FAIL ({exc})" if str(exc) else f"{name}: FAIL")
        else:
            print(f"{name}: PASS")
    print("all checks passed" if failed is None else f"verification failed: {failed}")
    return EXIT_OK if failed is None else EXIT_NUMERIC


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_DISPATCH = {
    "dispersion": cmd_dispersion,
    "evolve": cmd_evolve,
    "nrlimit": cmd_nrlimit,
    "oscillator": cmd_oscillator,
    "verify": cmd_verify,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wavelab",
        description="1-D spectral wave-equation laboratory",
    )
    parser.add_argument("command", choices=_DISPATCH, help="the scenario to run")
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--out", help="output directory (default out/<scenario>)")
    parser.add_argument("--seed", type=int, help="u64 echoed into config_echo.cfg and "
                        "report.json; no scenario draws a random number")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override one config key (repeatable)")
    return parser


def _stage(out: Path) -> str:
    """A new `.wavelab-<pid>` in `out` or its nearest existing ancestor, on `out`'s filesystem."""
    while not out.exists():
        out = out.parent
    stage = os.path.join(out, f".wavelab-{os.getpid()}")
    os.mkdir(stage)
    return stage


def main(argv=None) -> int:
    """Run one command and return its exit code: 2 for a ConfigError (or an OSError), 3 for a
    NumericalFailure (or a MemoryError), 4 for GridTooCoarse, each with one stderr line and no
    numpy warning (the library refuses non-finite results itself); any other error is a fault."""
    args = _build_parser().parse_args(argv)
    try:
        pairs = parse_config_file(Path(args.config)) if args.config else []
        cfg = build_config(args.command, pairs, _override_pairs(args.set or [], args.seed))
        if args.command == "verify":  # writes no file
            return cmd_verify(cfg, None)
        out = Path(args.out) if args.out else Path("out") / args.command
        fresh = not os.path.lexists(out)
        stage = _stage(out)  # an --out that cannot be written is refused before the work
        try:
            _DISPATCH[args.command](cfg, stage)
            _write_text(os.path.join(stage, "config_echo.cfg"), echo_config(cfg))
            if fresh:  # only a run that succeeded gets here: the stage becomes --out
                out.parent.mkdir(parents=True, exist_ok=True)
                os.rename(stage, out)
            else:
                for name in os.listdir(stage):
                    os.replace(os.path.join(stage, name), os.path.join(out, name))
        finally:
            if os.path.isdir(stage):  # not renamed onto a new --out
                for name in os.listdir(stage):
                    os.unlink(os.path.join(stage, name))
                os.rmdir(stage)
        return EXIT_OK
    except ConfigError as exc:  # a parser's refusal, or a library's
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"config error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalFailure as exc:  # non-finite values, no convergence, a failed solve
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except MemoryError as exc:  # a size no parser bounds, e.g. k_count = 10**12
        print(f"numerical failure: out of memory ({str(exc) or 'MemoryError'})", file=sys.stderr)
        return EXIT_NUMERIC
    except GridTooCoarse as exc:
        print(f"resolution error: {exc}", file=sys.stderr)  # each refusal names its remedy
        return EXIT_RESOLUTION


if __name__ == "__main__":
    raise SystemExit(main())
