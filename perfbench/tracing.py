"""Outside-in tracing of the ``wavelab`` layers.

The benchmark wraps the public functions of each ``src/wavelab`` module from
outside: the wrapper replaces the function in its defining module *and* in
every ``wavelab`` module that bound it by name (``from .propagate import
energy_expectation`` makes a local binding the defining module cannot reach).
Spans live in memory and are reduced to per-layer metrics after a run.

Transforms are counted at ``numpy.fft.fft``/``ifft``, because
``split_step_evolve`` and ``imaginary_time_ground_state`` call numpy directly
instead of ``core.dft``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import sys
from time import perf_counter

import numpy as np


def _fft_points(args, kwargs):
    """(points, computed flop) of one fft/ifft call: 5 n log2 n per transform."""
    x = args[0] if args else kwargs["a"]
    shape = np.shape(x)
    axis = kwargs.get("axis", args[2] if len(args) > 2 else -1)
    n = kwargs.get("n", args[1] if len(args) > 1 else None) or shape[axis]
    size = math.prod(shape)
    return size, 5.0 * n * math.log2(n) * (size // shape[axis])


def _split_steps(args, kwargs):
    time = kwargs.get("time", args[4] if len(args) > 4 else None)
    return (time.n_steps if time is not None else 1), 0.0


# (owner, attribute, span name, work counter); the owner is a module or a class
TARGETS = (
    ("numpy.fft", "fft", "core.fft", _fft_points),
    ("numpy.fft", "ifft", "core.fft", _fft_points),
    # dft and idft share a name: the validation wrapped around either transform
    ("wavelab.core", "dft", "core.dft", None),
    ("wavelab.core", "idft", "core.dft", None),
    ("wavelab.core.WaveField", "__post_init__", "core.wavefield", None),
    ("wavelab.core", "l2_norm", "propagate.moments", None),
    ("wavelab.dispersion", "omega_of_k", "dispersion.omega_of_k", None),
    ("wavelab.propagate", "split_step_evolve", "propagate.split_step_evolve", _split_steps),
    ("wavelab.propagate", "evolve_second_order_spectral",
     "propagate.evolve_second_order_spectral", None),
    ("wavelab.propagate", "evolve_schrodinger_spectral",
     "propagate.evolve_schrodinger_spectral", None),
    ("wavelab.propagate", "energy_expectation", "propagate.energy_expectation", None),
    ("wavelab.propagate", "centroid", "propagate.moments", None),
    ("wavelab.propagate", "packet_width", "propagate.moments", None),
    ("wavelab.nrlimit", "nr_limit_report", "nrlimit.nr_limit_report", None),
    ("wavelab.oscillator", "imaginary_time_ground_state",
     "oscillator.imaginary_time_ground_state", None),
    ("wavelab.cli", "main", "cli.main", None),
)

# span record fields
NAME, START, END, PARENT, UNITS, FLOP, NESTED = range(7)


def _resolve(path: str):
    """Import `path` as a module, or as a class inside a module."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, cls = path.rpartition(".")
        return getattr(importlib.import_module(module), cls)


class Tracer:
    """In-memory span recorder for a single-threaded call tree."""

    def __init__(self):
        self.spans = []
        self.missing = []
        self._stack = []
        self._active = {}

    def wrap(self, name, fn, counter=None):
        spans, stack, active = self.spans, self._stack, self._active

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            units, flop = counter(args, kwargs) if counter else (0, 0.0)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, units, flop,
                   active.get(name, 0) > 0]
            stack.append(len(spans))
            spans.append(rec)
            active[name] = active.get(name, 0) + 1
            rec[START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                active[name] -= 1
                stack.pop()

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore."""
        wavelab_modules = [m for n, m in list(sys.modules.items())
                           if (n == "wavelab" or n.startswith("wavelab.")) and m is not None]
        patches = []
        try:
            for owner_path, attr, span, counter in TARGETS:
                try:
                    owner = _resolve(owner_path)
                except (ImportError, AttributeError):
                    self.missing.append(f"{owner_path}.{attr}")
                    continue
                orig = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
                if orig is None:
                    self.missing.append(f"{owner_path}.{attr}")
                    continue
                wrapped = self.wrap(span, orig, counter)
                patches.append((owner, attr, orig))
                setattr(owner, attr, wrapped)
                for module in wavelab_modules:
                    for key, value in list(vars(module).items()):
                        if value is orig:
                            patches.append((module, key, orig))
                            setattr(module, key, wrapped)
            yield self
        finally:
            for owner, attr, orig in reversed(patches):
                setattr(owner, attr, orig)


def _under(spans, i, name) -> bool:
    p = spans[i][PARENT]
    while p >= 0:
        if spans[p][NAME] == name:
            return True
        p = spans[p][PARENT]
    return False


def layer_metrics(spans, bytes_written: int, files_written: int) -> dict:
    """Reduce one scenario run's spans to the per-layer metrics (plain floats).

    ``calls`` counts spans; ``s`` is inclusive time of the outermost span of a
    name; ``self_s`` is span time minus the time its direct child spans cover.
    """
    dur = [rec[END] - rec[START] for rec in spans]
    child = [0.0] * len(spans)       # time covered by direct child spans
    child_other = [0.0] * len(spans)  # the same, transforms excluded
    for i, rec in enumerate(spans):
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += dur[i]
            if rec[NAME] != "core.fft":
                child_other[rec[PARENT]] += dur[i]
    calls, incl, self_t, units, flop = {}, {}, {}, {}, {}
    for i, rec in enumerate(spans):
        name = rec[NAME]
        calls[name] = calls.get(name, 0) + 1
        self_t[name] = self_t.get(name, 0.0) + dur[i] - child[i]
        units[name] = units.get(name, 0) + rec[UNITS]
        flop[name] = flop.get(name, 0.0) + rec[FLOP]
        if not rec[NESTED]:
            incl[name] = incl.get(name, 0.0) + dur[i]

    def c(name):
        return calls.get(name, 0)

    def s(name):
        return incl.get(name, 0.0)

    def self_s(name):
        return self_t.get(name, 0.0)

    # Strang loop time: split_step_evolve minus the snapshot bookkeeping it calls
    strang_s = sum(dur[i] - child_other[i] for i, rec in enumerate(spans)
                   if rec[NAME] == "propagate.split_step_evolve")
    steps = units.get("propagate.split_step_evolve", 0)
    checks = [i for i, rec in enumerate(spans)
              if rec[NAME] == "propagate.energy_expectation"
              and _under(spans, i, "oscillator.imaginary_time_ground_state")]
    relax_s = s("oscillator.imaginary_time_ground_state")
    fft_s = s("core.fft")
    gflop = flop.get("core.fft", 0.0) / 1e9
    cli_self = self_s("cli.main")
    return {
        "core.fft.calls": c("core.fft"),
        "core.fft.s": fft_s,
        "core.fft.points": units.get("core.fft", 0),
        "core.fft.gflop_computed": gflop,
        "core.fft.gflops": gflop / fft_s if fft_s > 0 else 0.0,
        "core.dft.calls": c("core.dft"),
        "core.dft.self_s": self_s("core.dft"),
        "core.wavefield.calls": c("core.wavefield"),
        "core.wavefield.s": s("core.wavefield"),
        "dispersion.omega_of_k.calls": c("dispersion.omega_of_k"),
        "dispersion.omega_of_k.s": s("dispersion.omega_of_k"),
        "propagate.split_step_evolve.s": s("propagate.split_step_evolve"),
        "propagate.split_step_evolve.self_s": self_s("propagate.split_step_evolve"),
        "propagate.strang_step_us": 1e6 * strang_s / steps if steps else 0.0,
        "propagate.evolve_second_order_spectral.calls": c("propagate.evolve_second_order_spectral"),
        "propagate.evolve_second_order_spectral.s": s("propagate.evolve_second_order_spectral"),
        "propagate.evolve_second_order_spectral.self_s":
            self_s("propagate.evolve_second_order_spectral"),
        "propagate.evolve_schrodinger_spectral.calls": c("propagate.evolve_schrodinger_spectral"),
        "propagate.evolve_schrodinger_spectral.s": s("propagate.evolve_schrodinger_spectral"),
        "propagate.energy_expectation.calls": c("propagate.energy_expectation"),
        "propagate.energy_expectation.s": s("propagate.energy_expectation"),
        "propagate.moments.calls": c("propagate.moments"),
        "propagate.moments.s": s("propagate.moments"),
        "nrlimit.nr_limit_report.calls": c("nrlimit.nr_limit_report"),
        "nrlimit.nr_limit_report.s": s("nrlimit.nr_limit_report"),
        "nrlimit.nr_limit_report.self_s": self_s("nrlimit.nr_limit_report"),
        "oscillator.imaginary_time_ground_state.s": relax_s,
        "oscillator.imaginary_time_ground_state.self_s":
            self_s("oscillator.imaginary_time_ground_state"),
        "oscillator.iterations": len(checks),
        "oscillator.energy_check_share":
            sum(dur[i] for i in checks) / relax_s if relax_s > 0 else 0.0,
        "cli.main.s": s("cli.main"),
        "cli.self_s": cli_self,
        "cli.bytes_written": bytes_written,
        "cli.files_written": files_written,
        "cli.write_mb_per_s": bytes_written / 1e6 / cli_self if cli_self > 0 else 0.0,
    }

