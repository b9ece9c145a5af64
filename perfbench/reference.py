"""Reference figures: the shipped default against ``package_requests=True``.

Usage, from the repository root::

    python3 perfbench/reference.py

Prints, with the environment fingerprint:

* the graph-cached ``t(0, Z)`` root query on the 20,439-fact bushy closure
  (branching 27, depth 3) under ``Session()`` and
  ``Session(package_requests=True)``;
* one ``kb-recursive`` round (seed 1) under both settings;
* columnar against row kernels on that closure, under both settings (the
  old columnar headline was measured packaged);
* write-to-fresh-answer through a materialized query against full
  recomputation, with the recompute under both settings (the old refresh
  headline divided by the default recompute).

This script sets evaluation options on purpose; the benchmark workloads
never do.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (ROOT, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from perfbench import inputs, record, workloads  # noqa: E402

REPEATS = 5


def bushy_closure(branching: int = 27, depth: int = 3) -> tuple[str, int]:
    """The tree closure the older benchmarks call tc-bushy-20439."""
    edges, level, next_id = [], [0], 1
    for _ in range(depth):
        new = []
        for parent in level:
            for _ in range(branching):
                edges.append((parent, next_id))
                new.append(next_id)
                next_id += 1
        level = new
    return inputs.kb_text(inputs.TC_RULES, {"e": edges}), next_id - 1


def timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def median_of(fn, repeats: int = REPEATS) -> float:
    fn()  # warm: graph cache, lazy imports
    return statistics.median(timed(fn) for _ in range(repeats))


def main() -> int:
    from repro import Session
    from repro.core.parser import parse_program
    from repro.network.engine import evaluate

    print(json.dumps(record.fingerprint()))
    text, answers = bushy_closure()
    rows = []

    for package in (False, True):
        session = Session(text, package_requests=package)
        seconds = median_of(lambda: session.query("t(0, Z)"))
        assert len(session.last_result.answers) == answers
        rows.append((f"tc-bushy-20439 t(0, Z), package_requests={package}", seconds))

    kb = workloads.knowledge_base(workloads.KB_SIZES["full"], random.Random(1))
    for package in (False, True):
        session = Session(kb.text, package_requests=package)
        for query in kb.queries:  # warm the graph cache
            session.query(query.text)
        latencies = []
        for query in kb.queries:
            latencies.append(timed(lambda: session.query(query.text)))
            assert session.last_result.answers == kb.expected[query.text]
        rows.append((f"kb-recursive round total, package_requests={package}", sum(latencies)))
        rows.append((f"kb-recursive median read, package_requests={package}", statistics.median(latencies)))

    program = parse_program(text + "?- t(0, Z).\n")
    for package in (False, True):
        for columnar in (False, True):
            seconds = median_of(lambda: evaluate(program, package_requests=package, columnar=columnar))
            rows.append((f"evaluate, package_requests={package}, columnar={columnar}", seconds))

    # Write -> fresh answer, as the old refresh benchmark measured it: a
    # 4-edge chain grafted under the previous tip per write, 6 writes.
    from repro.service import SharedSession

    def write_then_read(package: bool, materialize: bool) -> float:
        shared = SharedSession(
            session=Session(text, package_requests=package), materialize=materialize
        )
        shared.query("t(0, Z)")
        tip, fresh = answers, []
        for _ in range(6):
            chain = "".join(f"e({tip + i}, {tip + i + 1})." for i in range(4))
            tip += 4
            start = time.perf_counter()
            shared.add_facts(chain)
            outcome = shared.query_detailed("t(0, Z)")
            fresh.append(time.perf_counter() - start)
            assert len(outcome.answers) == tip
        return statistics.fmean(fresh)

    rows.append(("write -> fresh answer, delta refresh (materialized)", write_then_read(False, True)))
    for package in (False, True):
        rows.append(
            (f"write -> fresh answer, recompute, package_requests={package}", write_then_read(package, False))
        )

    width = max(len(name) for name, _ in rows)
    for name, seconds in rows:
        print(f"{name:{width}s}  {seconds:9.4f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
