"""Smoke test of the benchmark harness at tiny radii.

    PYTHONPATH=src python -m pytest -q perfbench

Checks that the tracer's wrappers install and restore cleanly, that each
workload's tiny variant passes its checks traced and untraced with identical
result files, and that the metric names match BENCHMARK.json and are well
formed. It says nothing about the program's speed.
"""

import json
import math
import subprocess
import sys

import pytest

import run
import tracer
import worker
from workloads import SMOKE, WORKLOADS, Job, Workload, completes, write_structures

CLI = worker.load_cli()


def _module_state():
    from floydlab import (cli, divergence, floyd_metric, graph_core,
                          group_models, quasigeodesic, thickness)

    mods = (cli, divergence, floyd_metric, graph_core, group_models,
            quasigeodesic, thickness)
    return {(m.__name__, k): v for m in mods for k, v in vars(m).items()}


def test_wrappers_install_and_restore():
    before = _module_state()
    t = tracer.Tracer()
    t.install()
    try:
        patched = t.patched_names()
        during = _module_state()
        assert len(patched) == len(set(patched))
        for name in patched:
            module, attr = name.rsplit(".", 1)
            assert during[(module, attr)] is not before[(module, attr)], name
        assert "floydlab.thickness.wideness_probe" in patched
        assert "floydlab.floyd_metric.dijkstra" in patched
        assert "floydlab.quasigeodesic.bfs_distances" in patched
        with pytest.raises(RuntimeError):
            t.install()
    finally:
        t.uninstall()
    after = _module_state()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_workloads_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert list(SMOKE) == list(WORKLOADS)
    names = [m["name"] for kind in ("end_to_end", "per_layer") for m in spec[kind]]
    assert len(names) == len(set(names))
    assert all(run.NAME.fullmatch(n) for n in names)


@pytest.mark.parametrize("name", list(SMOKE))
def test_smoke_pass(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    workload = SMOKE[name]
    write_structures(workload.structures)
    passes = []
    for traced in (False, True, False, True):
        p = worker.run_pass(CLI, workload, 5, traced)
        p.update(traced=traced, setup_s=0.5, peak_rss_mib=100.0)
        passes.append(p)

    attempted, failed, problems = run.judge(passes, {})
    assert (attempted, failed, problems) == (4 * len(workload.jobs), 0, [])
    declared = run.declared_metrics()
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        metrics = run.summarize(passes, trace)
        assert set(metrics) == set(declared[kind])
        assert all(math.isfinite(v) for v in metrics.values())
    layers = run.summarize(passes, True)
    assert layers["trace.wall_s"] > 0


def test_failing_job_is_counted_not_fatal(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    job = Job(("floyd-diam", "--graph", "missing.graph", "--floyd", "invpow:2",
               "--radii", "1..2"), "missing.csv", completes)
    p = worker.run_pass(CLI, Workload((job,), {}), 0, traced=True)
    assert p["jobs"][0]["rc"] == 1
    assert p["jobs"][0]["problem"].startswith("exit code 1")
    assert p["layers"]["graph_core.read_s"] > 0
    assert p["layers"]["graph_core.file_mib"] == 0


def test_run_prints_result_line():
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", "floyd-geometry",
         "--seed", "3", "--seconds", "1", "--trace", "0", "--smoke"],
        capture_output=True, text=True, timeout=120, cwd=run.ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 6
    assert set(result["metrics"]) == {"wall_s", "setup_s", "peak_rss_mib"}
