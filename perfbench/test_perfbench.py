"""Tests of the benchmark itself (outside pyproject's ``testpaths``, so a plain
``pytest`` skips them):

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys

import pytest

import run
import tracing
import workloads

sys.path.insert(0, str(run.ROOT / "src"))

WORK_KEYS = ("n_points", "length", "dt", "n_steps", "snapshot_every", "c_ladder", "max_iters")
# counts later changes may cite; run.py also fails a traced run whose counts differ
EXACT_COUNTS = ("core.fft.calls", "core.fft.points", "oscillator.iterations",
                "cli.bytes_written", "cli.files_written")


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_seed_jitters_inputs_but_not_the_work(name):
    a, b = workloads.generate(name, 1), workloads.generate(name, 2)
    assert a == workloads.generate(name, 1)
    assert a != b
    assert {k: a[k] for k in WORK_KEYS if k in a} == {k: b[k] for k in WORK_KEYS if k in b}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_exact_counts_repeat(name, tmp_path, monkeypatch):
    """Counts that later changes may cite repeat exactly across two runs at one seed."""
    monkeypatch.chdir(run.ROOT)
    runner = run.Runner(name, 7, tmp_path)
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer()
        _, size, files, ok = runner.run(tracer)
        assert ok, runner.problems
        assert tracer.missing == []
        metrics = tracing.layer_metrics(tracer.spans, size, files)
        counts.append({key: metrics[key] for key in EXACT_COUNTS})
    assert counts[0] == counts[1]
    assert counts[0]["core.fft.calls"] > 0
    assert counts[0]["cli.bytes_written"] > 0
    assert (counts[0]["oscillator.iterations"] > 0) == (name == "oscillator_relax")


def test_refuses_a_tree_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "evolve_strang", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_layer_metrics_self_time_excludes_children():
    spans = [
        ["cli.main", 0.0, 10.0, -1, 0, 0.0, False],
        ["core.fft", 1.0, 3.0, 0, 8, 120.0, False],
        ["core.dft", 4.0, 8.0, 0, 0, 0.0, False],
        ["core.fft", 5.0, 6.0, 2, 8, 120.0, False],
    ]
    m = tracing.layer_metrics(spans, bytes_written=2_000_000, files_written=1)
    assert m["core.fft.calls"] == 2 and m["core.fft.s"] == 3.0
    assert m["core.fft.points"] == 16 and m["core.fft.gflop_computed"] == 240e-9
    assert m["core.dft.self_s"] == 3.0
    assert m["cli.self_s"] == 4.0
    assert m["cli.write_mb_per_s"] == 0.5


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END_UNITS)
    per_layer = tracing.layer_metrics([], 0, 0)
    assert {m["name"] for m in spec["per_layer"]} == set(per_layer) | {"trace.overhead_s"}
    for m in spec["per_layer"]:
        assert m["unit"] == run._unit(m["name"])
