"""Run one benchmark workload (or all of them) against the shipped defaults.

Usage, from the repository root::

    python3 perfbench/run.py --workload kb-recursive --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

With ``--trace 0`` the last line of standard output is one JSON object
with the end-to-end metrics; with ``--trace 1`` it carries the per-layer
metrics instead, after the layer tables, and the spans are written to
``perfbench/out/``.  Every run appends its record to
``perfbench/trajectory.jsonl``.  The program under test is imported from
``src/`` of the checkout this file sits in, and nowhere else.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from perfbench import metrics, record, tracing, workloads  # noqa: E402
from perfbench.tracing import layer_table  # noqa: E402


def _import_program() -> None:
    """Fail unless ``repro`` comes from this checkout's ``src/``."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise ImportError(f"no program sources under {SRC}")
    import repro

    origin = os.path.realpath(os.path.dirname(repro.__file__))
    if origin != os.path.realpath(os.path.join(SRC, "repro")):
        raise ImportError(f"repro was imported from {origin}, not from {SRC}")


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = metrics.load_spec()
    tracer = tracing.Tracer() if trace else tracing.NullTracer()
    if trace:
        tracer.install()
    try:
        kwargs = {"out_dir": OUT} if workload == "service-mix" else {}
        outcome = workloads.WORKLOADS[workload](seed, seconds, tracer, **kwargs)
    finally:
        if trace:
            tracer.uninstall()
    end_to_end = metrics.end_to_end(outcome)
    extra = metrics.supplementary(outcome)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update({name: s[2] for name, s in metrics.SUPPLEMENTARY.items()})

    print(f"perfbench {workload} seed={seed} seconds={seconds} trace={int(trace)}")
    for name, value in {**end_to_end, **extra}.items():
        print(f"  {name:22s} {value:14.6f} {units[name]}")
    print(
        f"  reads={len(outcome.reads)} attempted={outcome.attempted} "
        f"failed={outcome.failed} setup samples={[round(s, 4) for s in outcome.setup_s]}"
    )
    for note in outcome.notes:
        print(f"  note: {note}")
    for problem in outcome.violations[:10]:
        print(f"  VIOLATION: {problem}", file=sys.stderr)

    entry = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "fingerprint": record.fingerprint(),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "correct": not outcome.violations,
        "violations": outcome.violations[:5],
        "reads": len(outcome.reads),
        "setup_samples": outcome.setup_s,
        "metrics": {**end_to_end, **extra},
    }
    shown = end_to_end
    if trace:
        layers = metrics.per_layer(tracer, outcome)
        for phase, clients in (("setup", ()), ("timed", _client_spans(tracer))):
            table, explained = layer_table(tracer, phase, clients)
            print(f"\nlayer table, {workload}, {phase} phase")
            print(table)
            if explained:
                print(f"spans below the client operations cover {explained:.1%} of their time")
                entry["layer_share_of_client_time"] = explained
        print()
        for name, value in layers.items():
            print(f"  {name:42s} {value:14.6g} {units[name]}")
        path = os.path.join(OUT, f"spans-{workload}-seed{seed}.jsonl")
        tracer.write(path)
        print(f"  spans written to {os.path.relpath(path, ROOT)}")
        entry["per_layer"] = layers
        shown = layers
    record.append(entry)
    return {
        "correct": not outcome.violations,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in shown.items()},
    }


def _client_spans(tracer) -> tuple:
    return tuple(sorted({s[1] for s in tracer.spans if s[1].startswith("client.")}))


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Each workload in its own process, so peak RSS stays per workload."""
    results = {}
    for workload in workloads.WORKLOADS:
        completed = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        lines = completed.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(completed.stderr)
        if completed.returncode != 0:
            raise RuntimeError(f"{workload} exited with {completed.returncode}")
        results[workload] = json.loads(lines[-1])
    print("\nworkload        correct attempted failed")
    for workload, result in results.items():
        print(f"{workload:15s} {str(result['correct']):7s} {result['attempted']:9d} {result['failed']:6d}")
    return results


def stop_children() -> None:
    """Stop every process this run started and wait for each to end.

    The cluster harness spawns its workers, and spawning starts
    multiprocessing's resource tracker, which would otherwise outlive
    the run until it notices its pipe closed.  Any other child still
    present is killed and reaped.
    """
    for child in multiprocessing.active_children():
        child.terminate()
        child.join(5)
        if child.is_alive():
            child.kill()
            child.join(5)
    from multiprocessing import resource_tracker

    stop_tracker = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop_tracker is not None:  # older Pythons: the /proc sweep below reaps it
        stop_tracker()
    for pid in _child_pids():
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass


def _child_pids() -> list[int]:
    """Direct children of this process, read from ``/proc`` (empty elsewhere)."""
    pids = []
    task_dir = f"/proc/{os.getpid()}/task"
    try:
        tasks = os.listdir(task_dir)
    except OSError:
        return pids
    for task in tasks:
        try:
            with open(os.path.join(task_dir, task, "children")) as handle:
                pids.extend(int(pid) for pid in handle.read().split())
        except OSError:
            continue
    return pids


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        _import_program()
    except ImportError as exc:
        print(f"perfbench: cannot load the program under test: {exc}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = metrics.load_spec()["run_seconds"]
    try:
        if args.workload == "all":
            result = run_all(args.seed, args.seconds, bool(args.trace))
        else:
            result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        stop_children()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
