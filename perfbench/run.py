"""Benchmark of the wavelab CLI: four scaled scenario workloads, run in-process
through ``wavelab.cli.main`` as a closed loop (one client; each run starts
after the previous one has finished and its artifacts have been checked).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all            # every workload, one table

Run from the root of a wavelab checkout.  ``--trace 0`` measures the
end-to-end metrics with tracing off:

    wall_s        median wall time of one scenario run (fresh --out directory)
    setup_s       median time a fresh interpreter takes to import wavelab.cli
    peak_rss_mib  median peak resident memory of a fresh process running one scenario

Both times are corrected for the machine speed of the moment (SpeedProbe).

``--trace 1`` runs the same loop with every other run traced from outside (see
tracing.py) and reports the per-layer metrics plus the tracing overhead.

Every run's artifacts are checked (workloads.py).  ``result_err`` (distance
from the physics reference) and ``failed_frac`` are printed with the sample
counts, the generated arguments and the environment on the lines before the
last one; the last line is the JSON result.  Timings are never written inside
``--out``: out directories live under ``.perfbench_out/`` and are removed.
"""

from __future__ import annotations

import os

NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:  # must precede the numpy import
    os.environ[_var] = str(NPROC)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
MIN_RUNS = 3       # timed runs per invocation, even past --seconds
FRESH_PROCS = 5    # fresh interpreters per --trace 0 invocation (setup_s, peak_rss_mib)
FRESH_TIMEOUT_S = 60
CALIBRATION_REF_S = 0.020  # SpeedProbe kernel time that defines a reported second

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}


def _unit(metric: str) -> str:
    if metric.endswith(("calls", "points", "iterations", "files_written")):
        return "count"
    if metric.endswith("bytes_written"):
        return "B"
    if metric.endswith("_us"):
        return "us"
    if metric.endswith("gflop_computed"):
        return "GFLOP"
    if metric.endswith("gflops"):
        return "GFLOP/s"
    if metric.endswith("mb_per_s"):
        return "MB/s"
    if metric.endswith("share"):
        return "1"
    return "s"


class Runner:
    """Runs scenarios for one workload and seed and keeps the tallies."""

    def __init__(self, name: str, seed: int, scratch: Path):
        self.name = name
        self.scratch = scratch
        self.params = workloads.generate(name, seed)
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.result_errs = []

    def _out(self) -> Path:
        return Path(tempfile.mkdtemp(dir=self.scratch)) / "out"

    def argv(self, out: Path) -> list:
        return workloads.cli_args(self.name, self.params, out)

    def _verdict(self, rc, out: Path, error: str | None) -> bool:
        """Check one run's exit code and artifacts, tally it, remove its out dir."""
        self.attempted += 1
        try:
            if error is not None:
                raise workloads.CheckFailed(error)
            if rc != 0:
                raise workloads.CheckFailed(f"exit code {rc}")
            err = workloads.check(self.name, self.params, out)
            if err is not None:
                self.result_errs.append(err)
            return True
        except (workloads.CheckFailed, OSError, ValueError, KeyError) as exc:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(str(exc))
            return False
        finally:
            shutil.rmtree(out.parent, ignore_errors=True)

    def run(self, tracer=None):
        """One in-process scenario run; returns (wall seconds, bytes, files, ok)."""
        import wavelab.cli as cli

        out = self._out()
        argv = self.argv(out)
        error = rc = None
        gc.collect()  # start every run from the same heap state, whatever ran before
        try:
            with tracer.installed() if tracer else contextlib.nullcontext():
                t0 = perf_counter()
                rc = cli.main(argv)
                wall = perf_counter() - t0
        except Exception as exc:  # a crashing run is a failed run, not a crashed benchmark
            wall, error = float("nan"), f"{type(exc).__name__}: {exc}"
        files = [p for p in out.rglob("*") if p.is_file()] if out.is_dir() else []
        size = sum(p.stat().st_size for p in files)
        ok = self._verdict(rc, out, error)
        return wall, size, len(files), ok

    def run_fresh(self):
        """One scenario in a fresh interpreter; returns (import s, peak MiB) or None."""
        out = self._out()
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        cmd = [sys.executable, str(HERE / "fresh.py"), json.dumps(self.argv(out))]
        error = rc = None
        result = None
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                                  timeout=FRESH_TIMEOUT_S)
            rc = proc.returncode
            if rc == 0:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                rc = result["rc"]
            else:
                error = f"fresh process exited {rc}: {proc.stderr.strip()[-300:]}"
        except subprocess.TimeoutExpired:
            error = f"fresh process exceeded {FRESH_TIMEOUT_S} s"
        ok = self._verdict(rc, out, error)
        return (result["import_s"], result["peak_rss_mib"]) if ok else None

    def details(self) -> dict:
        return {
            "failed_frac": self.failed / self.attempted if self.attempted else 1.0,
            "result_err": statistics.median(self.result_errs) if self.result_errs else None,
            "problems": self.problems,
        }


def _summary(values) -> dict:
    if not values:
        return {"n": 0}
    return {"n": len(values), "median": statistics.median(values),
            "min": min(values), "max": max(values)}


class SpeedProbe:
    """Corrects timings for the machine speed of the moment.

    On a shared host a core's speed can swing by 2x for tens of seconds at a
    time (work on its sibling hardware thread comes and goes), which no run
    length averages out.  The probe times a fixed kernel between samples --
    equal parts transforms, float formatting and interpreted loop, the kinds
    of work the workloads do, since each slows down by a different factor --
    and scales each sample by CALIBRATION_REF_S over the mean kernel time just
    before and just after it.  Reported seconds are therefore seconds on a
    machine where the kernel takes CALIBRATION_REF_S; raw medians are printed
    alongside.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._x = rng.standard_normal(8192) + 1j * rng.standard_normal(8192)
        self._values = self._x.real[:4000].tolist()
        self._last = self.kernel_s()

    def kernel_s(self) -> float:
        t0 = perf_counter()
        for _ in range(30):
            np.fft.ifft(np.fft.fft(self._x))
        for _ in range(2):
            ",".join([repr(v) for v in self._values])
        total = 0
        for i in range(80000):
            total += i * i
        return perf_counter() - t0

    def scale(self, seconds: float) -> float:
        """Scale a sample taken since the previous call; times the kernel again."""
        before, self._last = self._last, self.kernel_s()
        return seconds * CALIBRATION_REF_S / (0.5 * (before + self._last))


def measure_end_to_end(runner: Runner, seconds: float):
    runner.run()  # warm-up: lazy imports and caches; checked, not timed
    probe = SpeedProbe()
    raw = {"wall_s": [], "setup_s": [], "peak_rss_mib": []}
    scaled = {"wall_s": [], "setup_s": []}
    deadline = perf_counter() + seconds
    for runs in itertools.count():
        if runs >= MIN_RUNS and perf_counter() >= deadline:
            break
        wall, _, _, ok = runner.run()
        wall_scaled = probe.scale(wall)
        if ok:
            raw["wall_s"].append(wall)
            scaled["wall_s"].append(wall_scaled)
    for _ in range(FRESH_PROCS):
        fresh = runner.run_fresh()
        import_scaled = probe.scale(fresh[0] if fresh else 0.0)
        if fresh:
            raw["setup_s"].append(fresh[0])
            raw["peak_rss_mib"].append(fresh[1])
            scaled["setup_s"].append(import_scaled)
    samples = {**scaled, "peak_rss_mib": raw["peak_rss_mib"]}
    metrics = {k: statistics.median(v) for k, v in samples.items() if v}
    summary = {k: _summary(v) for k, v in samples.items()}
    summary.update({f"{k}_raw": _summary(v) for k, v in raw.items() if k != "peak_rss_mib"})
    return metrics, summary


def measure_layers(runner: Runner, seconds: float):
    runner.run()  # warm-up
    plain, traced, per_run, missing = [], [], [], set()
    deadline = perf_counter() + seconds
    for runs in itertools.count():
        if runs >= MIN_RUNS and perf_counter() >= deadline:
            break
        wall, _, _, ok = runner.run()
        if ok:
            plain.append(wall)
        tracer = tracing.Tracer()
        wall, size, files, ok = runner.run(tracer)
        missing.update(tracer.missing)
        if ok:
            traced.append(wall)
            per_run.append(tracing.layer_metrics(tracer.spans, size, files))
    if not per_run or not plain:
        return {}, {}
    metrics, unsteady = {}, []
    for key, first in per_run[0].items():
        if isinstance(first, int):  # a count: must repeat exactly
            if any(run[key] != first for run in per_run):
                unsteady.append(key)
            metrics[key] = first
        else:
            metrics[key] = statistics.median(run[key] for run in per_run)
    if unsteady:
        runner.failed += 1
        runner.problems.append(f"counts did not repeat across runs: {unsteady}")
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    info = {"traced_wall_s": _summary(traced), "untraced_wall_s": _summary(plain),
            "traced_runs": len(per_run), "untraced_targets": sorted(missing)}
    return metrics, info


def environment() -> dict:
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": NPROC,
        "thread_caps": {var: os.environ[var] for var in THREAD_VARS},
        "machine": platform.machine(),
    }


def bench(name: str, seed: int, seconds: float, trace: bool, scratch: Path):
    runner = Runner(name, seed, scratch)
    if trace:
        values, samples = measure_layers(runner, seconds)
    else:
        values, samples = measure_end_to_end(runner, seconds)
    info = {"workload": name, "seed": seed, "trace": int(trace), "params": runner.params,
            "argv": runner.argv(Path("<out>")), **runner.details(), "samples": samples,
            "environment": environment()}
    return runner, values, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "wavelab" / "cli.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"no wavelab source tree (src/wavelab, configs) under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        print(f"unknown workload {unknown[0]!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2

    out_root = ROOT / ".perfbench_out"
    out_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=out_root))
    attempted = failed = 0
    result = {}
    try:
        for name in names:
            runner, values, info = bench(name, args.seed, args.seconds, bool(args.trace), scratch)
            attempted += runner.attempted
            failed += runner.failed
            print("details: " + json.dumps(info, sort_keys=True))
            print(f"{name}: seed {args.seed}, {runner.attempted} runs, "
                  f"failed_frac {info['failed_frac']!r}, result_err {info['result_err']!r}")
            for metric, value in values.items():
                if args.trace:
                    unit, n = _unit(metric), info["samples"]["traced_runs"]
                else:
                    unit, n = END_TO_END_UNITS[metric], info["samples"][metric]["n"]
                print(f"  {metric:48s} {value!r:>24} {unit:8s} n={n}")
                result[metric if len(names) == 1 else f"{name}.{metric}"] = {"value": value, "unit": unit}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            out_root.rmdir()
        except OSError:
            pass  # another invocation still uses it
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
