"""A reduced-size run of every workload completes with correct outputs."""

import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import metrics, tracing, workloads

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_small_run_completes(name, tmp_path):
    kwargs = {"out_dir": str(tmp_path)} if name == "service-mix" else {}
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    outcome = workloads.WORKLOADS[name](3, 0.1, tracing.NullTracer(), size="small", **kwargs)
    if cpus is not None:
        assert os.sched_getaffinity(0) == cpus  # a pinned workload unpins on return
    assert outcome.violations == []
    assert len(outcome.setup_s) == workloads.SETUP_REPEATS
    assert outcome.attempted > 0 and outcome.elapsed > 0
    if name == "service-mix":
        # Exactly the wrong-arity reads fail: one per client round.
        layout = workloads.SERVICE_SIZES["small"]
        per_round = sum(1 for kind in layout["layout"].values() if kind == "bad_read")
        assert outcome.failed * layout["round"] == outcome.attempted * per_round
        assert outcome.extra["write"]
        assert not os.listdir(tmp_path)  # the data directory is removed
    else:
        assert outcome.failed == 0
        assert len(outcome.reads) >= workloads.MIN_READS


def test_traced_small_run_reports_every_per_layer_metric(tmp_path):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        outcome = workloads.kb_recursive(3, 0.1, tracer, size="small")
    finally:
        tracer.uninstall()
    values = metrics.per_layer(tracer, outcome)
    names = [m["name"] for m in metrics.load_spec()["per_layer"]]
    assert sorted(values) == sorted(names)
    assert values["network.run_s"] > 0
    assert values["cache.graph_hit_ratio"] > 0.5
    assert all(s[6] in ("inputs", "setup", "timed", "check") for s in tracer.spans)
    timed_reads = [s for s in tracer.spans if s[1] == "client.read" and s[6] == "timed"]
    assert len(timed_reads) == len(outcome.reads)
    tracer.write(str(tmp_path / "spans.jsonl"))
    first = json.loads((tmp_path / "spans.jsonl").read_text().splitlines()[0])
    assert set(first) == {"id", "name", "start", "end", "parent", "rid", "phase"}


def test_uninstall_restores_every_layer():
    from repro.network.engine import MessagePassingEngine
    from repro.relational.database import Database
    from repro.session import Session

    originals = (Session.prepare, MessagePassingEngine.run, Database.__dict__["from_facts"])
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert (Session.prepare, MessagePassingEngine.run, Database.__dict__["from_facts"]) == originals


def test_without_program_sources_the_benchmark_fails(tmp_path):
    """In a directory holding only the benchmark, run.py exits non-zero, silently."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__", "out", "trajectory.jsonl"),
    )
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kb-recursive",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_no_process_outlives_a_sharded_run():
    """The cluster's spawned workers start a resource tracker; the run stops it."""
    script = (
        "from multiprocessing import resource_tracker\n"
        "from perfbench import run, tracing, workloads\n"
        "workloads.sharded(3, 0.1, tracing.NullTracer(), size='small')\n"
        "print(resource_tracker._resource_tracker._pid is not None)\n"
        "run.stop_children()\n"
        "print(run._child_pids())\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((ROOT, os.path.join(ROOT, "src"))))
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n")[-3:] == ["True", "[]", ""]
