"""Scenario runner: dispersion scans, packet evolutions, the non-relativistic
limit study, the oscillator suite, and a self-verification command.

Configuration is a flat key-value text file (``key = value`` per line, ``#``
comments) plus ``--set key=value`` command-line overrides.  Unknown keys are
hard errors so a misspelled physics parameter can never silently default.  The
effective configuration is echoed next to every report, and re-running from
the echoed file reproduces the run byte for byte (floats are serialized in
shortest-roundtrip decimal form).

Exit codes: 0 ok, 2 config error, 3 numerical failure, 4 resolution
precondition failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .core import GaussianPacketSpec, Grid1D, PhysicalConstants, TimeSpec, WaveField, l2_norm
from .dispersion import (
    ClassicalWave,
    Electromagnetic,
    KleinGordon,
    PlaneWaveMode,
    SchrodingerFree,
    SchrodingerPotential,
    group_velocity,
    is_second_order,
    kinematic_map,
    nr_expansion_error,
    omega_of_k,
    planewave_residual,
    planewave_sample,
)
from .exceptions import (
    ConfigError,
    GridTooCoarse,
    InvalidBracket,
    LinearSolveFailure,
    NoConvergence,
    NumericalFailure,
)
from .nrlimit import dominance_terms_mode, nr_limit_report
from .oscillator import (
    OscillatorProblem,
    energy_bound,
    imaginary_time_ground_state,
    minimize_bound_analytic,
    minimize_bound_numeric,
)
from .propagate import (
    _snapshot_steps,
    constant_potential,
    evolve_schrodinger_spectral,
    evolve_second_order_spectral,
    gaussian_packet,
    harmonic_potential,
    packet_moments,
    packet_width,
    positive_branch_init,
    second_order_psi_snapshots,
    split_step_evolve,
    zero_potential,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_RESOLUTION = 4

# CLI family name -> builder(cfg, grid) of its equation.  Without a grid (the
# dispersion scan) the potential family gets v0 if potential = constant, else 0.
_FAMILIES = {
    "classical_wave": lambda cfg, grid: ClassicalWave(cfg["wave_speed"]),
    "electromagnetic": lambda cfg, grid: Electromagnetic(),
    "klein_gordon": lambda cfg, grid: KleinGordon(cfg["mass"]),
    "schrodinger_free": lambda cfg, grid: SchrodingerFree(cfg["mass"]),
    "schrodinger_potential": lambda cfg, grid: SchrodingerPotential(
        cfg["mass"],
        np.full(1, _constant_v0(cfg)) if grid is None else _build_potential(cfg, grid)),
}


# ---------------------------------------------------------------------------
# config schema and parsing
# ---------------------------------------------------------------------------

def _parse_float(s: str) -> float:
    v = float(s)
    if not np.isfinite(v):
        raise ValueError(f"must be finite, got {s}")
    return v


def _parse_int(s: str) -> int:
    return int(s, 10)


def _parse_seed(s: str) -> int:
    v = int(s, 10)
    if not 0 <= v < 2 ** 64:
        raise ValueError("seed must fit in u64")
    return v


def _parse_choice(*options):
    def parse(s: str) -> str:
        if s not in options:
            raise ValueError(f"must be one of {', '.join(options)}")
        return s
    return parse


def _parse_float_list(s: str) -> tuple:
    parts = [p.strip() for p in s.split(",") if p.strip()]
    if not parts:
        raise ValueError("expected a comma-separated list of numbers")
    return tuple(_parse_float(p) for p in parts)


_COMMON = {
    "hbar": (_parse_float, 1.0),
    "seed": (_parse_seed, 0),
}

_PACKET = {
    "packet_kind": (_parse_choice("gaussian", "plane_wave"), "gaussian"),
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
        "k_count": (_parse_int, 9),
    },
    "evolve": {
        **_COMMON,
        "c": (_parse_float, 1.0),
        "family": (_parse_choice(*_FAMILIES), "schrodinger_free"),
        "mass": (_parse_float, 1.0),
        "wave_speed": (_parse_float, 1.0),
        "n_points": (_parse_int, 512),
        "length": (_parse_float, 64.0),
        "dt": (_parse_float, 0.01),
        "n_steps": (_parse_int, 500),
        "snapshot_every": (_parse_int, 100),
        **_PACKET,
        "potential": (_parse_choice("none", "constant", "harmonic"), "none"),
        "v0": (_parse_float, 0.0),
        "omega_c": (_parse_float, 1.0),
        "x_c": (_parse_float, -1.0),  # negative means grid center
    },
    "nrlimit": {
        **_COMMON,
        "mass": (_parse_float, 1.0),
        "c_ladder": (_parse_float_list, (10.0, 20.0, 40.0)),
        "n_points": (_parse_int, 512),
        "length": (_parse_float, 64.0),
        "dt": (_parse_float, 0.05),
        "n_steps": (_parse_int, 400),
        "snapshot_every": (_parse_int, 20),
        **_PACKET,
    },
    "oscillator": {
        **_COMMON,
        "mass": (_parse_float, 1.0),
        "omega_c": (_parse_float, 1.0),
        "n_points": (_parse_int, 256),
        "length": (_parse_float, 20.0),
        "tau_step": (_parse_float, 0.02),
        "max_iters": (_parse_int, 50000),
        "energy_tol": (_parse_float, 1e-12),
        "bracket_lo": (_parse_float, 0.05),
        "bracket_hi": (_parse_float, 20.0),
        "search_tol": (_parse_float, 1e-12),
    },
    "verify": {
        **_COMMON,
    },
}


def parse_config_file(path: Path) -> list:
    """Read `key = value` lines; returns [(lineno, key, value), ...]."""
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


def build_config(scenario: str, pairs, overrides) -> dict:
    """Fill defaults, apply file pairs then --set overrides, reject unknowns.

    Returns {"scenario": scenario, key: value, ...} in schema order.
    """
    schema = SCHEMAS[scenario]
    values = {"scenario": scenario, **{key: default for key, (_, default) in schema.items()}}

    def apply(src, key, raw):
        if key == "scenario":
            if raw != scenario:
                raise ConfigError(
                    f"{src}: config is for scenario '{raw}', command is '{scenario}'"
                )
            return
        if key not in schema:
            raise ConfigError(f"{src}: unknown key '{key}' for scenario '{scenario}'")
        parse, _ = schema[key]
        try:
            values[key] = parse(raw)
        except ValueError as exc:
            raise ConfigError(f"{src}: bad value for '{key}': {exc}") from exc

    for src, key, raw in pairs:
        apply(src, key, raw)
    for i, item in enumerate(overrides, start=1):
        if "=" not in item:
            raise ConfigError(f"--set #{i}: expected key=value, got {item!r}")
        key, _, raw = item.partition("=")
        apply(f"--set #{i}", key.strip(), raw.strip())
    return values


def _fmt(v) -> str:
    if isinstance(v, bool):
        return str(v)
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, tuple):
        return ",".join(repr(float(x)) for x in v)
    return str(v)


def echo_config(cfg: dict) -> str:
    return "".join(f"{key} = {_fmt(v)}\n" for key, v in cfg.items())


def _write_text(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _write_csv(path: Path, header: str, rows):
    lines = [header]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    _write_text(path, "\n".join(lines) + "\n")


def _config_dict(cfg: dict) -> dict:
    return {key: list(v) if isinstance(v, tuple) else v for key, v in cfg.items()}


# ---------------------------------------------------------------------------
# shared builders
# ---------------------------------------------------------------------------

def _constant_v0(cfg: dict) -> float:
    return cfg["v0"] if cfg["potential"] == "constant" else 0.0


def _build_potential(cfg: dict, grid: Grid1D) -> np.ndarray:
    if cfg["potential"] != "harmonic":
        return constant_potential(grid, _constant_v0(cfg))
    center = None if cfg["x_c"] < 0 else cfg["x_c"]
    v = harmonic_potential(grid, cfg["mass"], cfg["omega_c"], center)
    if not np.all(np.isfinite(v)):
        raise NumericalFailure("non-finite potential from config parameters", step=0)
    return v


def _carrier_k(cfg: dict, grid: Grid1D) -> float:
    """Carrier wavenumber: snapped to the nearest grid mode for plane waves."""
    if cfg["packet_kind"] == "plane_wave":
        n = round(cfg["k0"] * grid.length / (2.0 * np.pi))
        return 2.0 * np.pi * n / grid.length
    return cfg["k0"]


def _build_packet(cfg: dict, grid: Grid1D) -> WaveField:
    if cfg["packet_kind"] == "plane_wave":
        k = _carrier_k(cfg, grid)
        fld = planewave_sample(PlaneWaveMode(1.0, k, 0.0), grid, 0.0)
        return WaveField(grid, fld.samples / l2_norm(fld))
    spec = GaussianPacketSpec(x0=cfg["x0"], k0=cfg["k0"], sigma=cfg["sigma"])
    return gaussian_packet(spec, grid, normalize=True)


def _loglog_slope(xs, ys):
    """Power-law exponent fit; None when the data cannot support one."""
    ys = np.asarray(ys, dtype=float)
    if not np.all(np.isfinite(ys)) or np.any(ys <= 0.0):
        return None
    return float(np.polyfit(np.log(np.asarray(xs, dtype=float)), np.log(ys), 1)[0])


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_dispersion(cfg: dict, out: Path) -> int:
    consts = PhysicalConstants(hbar=cfg["hbar"], c=cfg["c"])
    eq = _FAMILIES[cfg["family"]](cfg, None)
    if cfg["k_count"] < 1:
        raise ConfigError("k_count must be >= 1")
    header = "family,k,omega,group_velocity,p,E,nr_gap,nr_bound"
    m = getattr(eq, "m", None)
    # every column must be finite but the NR pair, which is nan for the massless families
    checked = header.split(",")[1:6 if m is None else 8]
    rows = []
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for k in np.linspace(cfg["k_min"], cfg["k_max"], cfg["k_count"]).tolist():
            w = omega_of_k(eq, k, consts)
            pair = kinematic_map(k, w, consts)
            nr = (math.nan, math.nan) if m is None else nr_expansion_error(m, k, consts)
            row = (k, w, group_velocity(eq, k, consts), pair.p, pair.E, *nr)
            for name, v in zip(checked, row):
                if not math.isfinite(v):
                    raise NumericalFailure(f"dispersion row at k = {k!r} has {name} = {v!r}")
            rows.append((cfg["family"], *row))
    _write_csv(out / "dispersion.csv", header, rows)
    return EXIT_OK


def cmd_evolve(cfg: dict, out: Path) -> int:
    consts = PhysicalConstants(hbar=cfg["hbar"], c=cfg["c"])
    grid = Grid1D(cfg["n_points"], cfg["length"])
    n_steps, dt = cfg["n_steps"], cfg["dt"]
    if n_steps < 0:
        raise ConfigError("n_steps must be >= 0")
    if cfg["snapshot_every"] < 0:
        raise ConfigError("snapshot_every must be >= 0")
    psi0 = _build_packet(cfg, grid)
    eq = _FAMILIES[cfg["family"]](cfg, grid)
    if cfg["potential"] != "none" and not isinstance(eq, SchrodingerPotential):
        raise ConfigError(f"family '{cfg['family']}' does not take a potential; "
                          "use family = schrodinger_potential")
    time = TimeSpec(dt, max(n_steps, 1))  # refuses dt <= 0, even when no step is taken

    if is_second_order(eq):
        state0 = positive_branch_init(psi0, eq, consts)
        times = [step * dt for step in _snapshot_steps(n_steps, cfg["snapshot_every"])]
        snaps = list(zip(times, second_order_psi_snapshots(state0, eq, consts, times)))
    elif n_steps == 0:
        snaps = [(0.0, psi0)]
    else:
        potential = eq.potential if isinstance(eq, SchrodingerPotential) else zero_potential(grid)
        snaps = split_step_evolve(psi0, eq.m, potential, consts, time,
                                  snapshot_every=cfg["snapshot_every"]).snapshots

    # the x column is the same in every snapshot file: format it once
    x_cells = [f"{xj!r}," for xj in grid.positions.tolist()]
    summary_rows = []
    for idx, (t, fld) in enumerate(snaps):
        if not np.all(np.isfinite(fld.samples)):
            raise NumericalFailure(f"non-finite field in snapshot {idx}", step=idx)
        prefix = f"{t!r},"
        # scalar abs(z) ** 2: vectorised np.abs(samples) ** 2 can differ in the last digit
        lines = [f"{prefix}{xc}{z.real!r},{z.imag!r},{abs(z) ** 2!r}"
                 for xc, z in zip(x_cells, fld.samples.tolist())]
        _write_text(out / f"snapshot_{idx:04d}.csv",
                    "t,x,re_psi,im_psi,abs2\n" + "\n".join(lines) + "\n")
        summary_rows.append((t, l2_norm(fld), *packet_moments(fld)))
    _write_csv(out / "summary.csv", "t,norm,centroid,width", summary_rows)
    return EXIT_OK


def cmd_nrlimit(cfg: dict, out: Path) -> int:
    ladder = cfg["c_ladder"]
    if len(ladder) < 2:
        raise ConfigError("c_ladder needs at least 2 entries")
    if any(c <= 0 for c in ladder):
        raise ConfigError("c_ladder entries must be positive")
    grid = Grid1D(cfg["n_points"], cfg["length"])
    psi0 = _build_packet(cfg, grid)
    time = TimeSpec(cfg["dt"], cfg["n_steps"])

    runs = []
    lines = ["c,t,deviation,dominance_ratio"]
    for c in ladder:
        consts = PhysicalConstants(hbar=cfg["hbar"], c=c)
        report = nr_limit_report(psi0, cfg["mass"], consts, time,
                                 snapshot_every=max(1, cfg["snapshot_every"]))
        runs.append(report)
        prefix = f"{float(c)!r},"  # the c column is one value per run: format it once
        lines.extend(f"{prefix}{t!r},{dev!r},{ratio!r}" for t, dev, ratio
                     in zip(report.times, report.deviation, report.dominance_ratio))

    k_carrier = _carrier_k(cfg, grid)
    dev_exponent = _loglog_slope(ladder, [r.deviation[-1] for r in runs])
    mode_ratio = [
        dominance_terms_mode(k_carrier, cfg["mass"], PhysicalConstants(cfg["hbar"], c)).ratio
        for c in ladder
    ]
    ratio_exponent = _loglog_slope(ladder, mode_ratio)

    _write_text(out / "nrlimit.csv", "\n".join(lines) + "\n")
    report_tree = {
        "config": _config_dict(cfg),
        "ladder": [
            {
                "c": float(c),
                "times": r.times,
                "deviation": r.deviation,
                "dominance_ratio": r.dominance_ratio,
            }
            for c, r in zip(ladder, runs)
        ],
        "fits": {
            "final_deviation_c_exponent": dev_exponent,
            "carrier_dominance_c_exponent": ratio_exponent,
        },
    }
    _write_text(out / "report.json", json.dumps(report_tree, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def cmd_oscillator(cfg: dict, out: Path) -> int:
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
    _write_csv(out / "oscillator.csv", "method,delta_x,energy", rows)
    report_tree = {
        "config": _config_dict(cfg),
        "analytic": {"delta_x": analytic.delta_x, "energy": analytic.energy},
        "golden_section": {
            "delta_x": numeric.delta_x,
            "energy": numeric.energy,
            "energy_gap_vs_analytic": abs(numeric.energy - analytic.energy),
        },
        "imaginary_time": {
            "delta_x": ground_width,
            "energy": ground.energy,
            "relative_error_vs_analytic": abs(ground.energy - analytic.energy) / analytic.energy,
        },
    }
    _write_text(out / "report.json", json.dumps(report_tree, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _check_plane_wave_exactness():
    grid = Grid1D(32, 16.0)
    consts = PhysicalConstants()
    cfg = {"wave_speed": 1.3, "mass": 1.0, "potential": "constant", "v0": 0.5}
    t = 3.0
    for eq in (build(cfg, grid) for build in _FAMILIES.values()):
        for n in (0, 1, 3, -5):
            k = 2.0 * np.pi * n / grid.length
            w = omega_of_k(eq, k, consts)
            mode = PlaneWaveMode(1.0, k, w)
            res = planewave_residual(eq, mode, consts)
            assert res <= 1e-12, f"residual {res} for {type(eq).__name__}, n={n}"
            psi0 = planewave_sample(mode, grid, 0.0)
            if is_second_order(eq):
                state = positive_branch_init(psi0, eq, consts)
                evolved = evolve_second_order_spectral(state, eq, consts, t).psi
            elif isinstance(eq, SchrodingerPotential):
                evolved = split_step_evolve(psi0, eq.m, eq.potential, consts,
                                            TimeSpec(t / 64, 64)).final
            else:
                evolved = evolve_schrodinger_spectral(psi0, eq.m, consts, t)
            expect = planewave_sample(mode, grid, t)
            err = float(np.max(np.abs(evolved.samples - expect.samples)))
            assert err <= 1e-11, f"phase error {err} for {type(eq).__name__}, n={n}"


def _check_parseval():
    from .core import dft

    rng = np.random.default_rng(20240811)
    grid = Grid1D(64, 10.0)
    fld = WaveField(grid, rng.standard_normal(64) + 1j * rng.standard_normal(64))
    spec = dft(fld)
    a = float(np.sum(np.abs(spec.mode_amplitudes) ** 2))
    b = float(np.sum(np.abs(fld.samples) ** 2))
    assert abs(a - b) <= 1e-12 * b, f"Parseval gap {abs(a - b)}"


def _check_norm_conservation():
    grid = Grid1D(128, 20.0)
    psi0 = gaussian_packet(GaussianPacketSpec(8.0, 1.0, 1.0), grid)
    v = harmonic_potential(grid, 1.0, 1.0)
    result = split_step_evolve(psi0, 1.0, v, PhysicalConstants(),
                               TimeSpec(0.01, 200), snapshot_every=1)
    norms = np.asarray(result.norms)
    drift = float(np.max(np.abs(np.diff(norms)))) / norms[0]
    assert drift <= 1e-12, f"per-step norm drift {drift}"


def _check_massless_limit():
    consts = PhysicalConstants()
    length = 16.0
    for n in range(1, 9):
        k = 2.0 * np.pi * n / length
        w_massive = omega_of_k(KleinGordon(1e-8), k, consts)
        w_massless = omega_of_k(Electromagnetic(), k, consts)
        rel = abs(w_massive - w_massless) / w_massless
        assert rel <= 1e-7, f"massless-limit gap {rel} at mode {n}"


def _check_dominance_scaling():
    cs = np.array([5.0, 10.0, 20.0, 40.0])
    ratios = np.array([
        dominance_terms_mode(1.0, 1.0, PhysicalConstants(1.0, c)).ratio for c in cs
    ])
    slope = float(np.polyfit(np.log(cs), np.log(ratios), 1)[0])
    assert abs(slope + 4.0) <= 0.2, f"dominance c-exponent {slope}"


DEFAULT_CHECKS = [
    ("plane_wave_exactness", _check_plane_wave_exactness),
    ("transform_parseval", _check_parseval),
    ("norm_conservation", _check_norm_conservation),
    ("massless_limit", _check_massless_limit),
    ("dominance_scaling", _check_dominance_scaling),
]


def run_verification(checks=None) -> list:
    """Run (name, callable) checks; returns [(name, passed, message), ...]."""
    results = []
    for name, fn in (DEFAULT_CHECKS if checks is None else checks):
        try:
            fn()
            results.append((name, True, ""))
        except Exception as exc:  # a failing check must not abort the others
            results.append((name, False, str(exc)))
    return results


def cmd_verify(cfg: dict, out: Path) -> int:
    results = run_verification()
    for name, ok, msg in results:
        line = f"{name}: {'PASS' if ok else 'FAIL'}"
        if not ok and msg:
            line += f" ({msg})"
        print(line)
    failures = [name for name, ok, _ in results if not ok]
    if failures:
        print(f"verification failed: {failures[0]}")
        return EXIT_NUMERIC
    print("all checks passed")
    return EXIT_OK


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
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _DISPATCH:
        p = sub.add_parser(name, help=f"run the {name} scenario")
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--out", help="output directory (default out/<scenario>)")
        p.add_argument("--seed", type=int, help="random seed override (u64)")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override one config key (repeatable)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        pairs = parse_config_file(Path(args.config)) if args.config else []
        overrides = list(args.set or [])
        if args.seed is not None:
            overrides.append(f"seed={args.seed}")
        cfg = build_config(args.command, pairs, overrides)
        out = Path(args.out) if args.out else Path("out") / args.command
        if args.command != "verify":
            _write_text(out / "config_echo.cfg", echo_config(cfg))
        return _DISPATCH[args.command](cfg, out)
    except (ConfigError, ValueError, InvalidBracket) as exc:  # incl. a rejected parameter
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericalFailure, LinearSolveFailure, NoConvergence) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except GridTooCoarse as exc:
        print(f"resolution error: {exc}", file=sys.stderr)
        print("hint: raise n_points, shrink length, or lower omega_c", file=sys.stderr)
        return EXIT_RESOLUTION


if __name__ == "__main__":
    raise SystemExit(main())
