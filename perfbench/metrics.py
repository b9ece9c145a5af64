"""From a run's outcome (and trace) to the named metrics.

End-to-end metrics are measured with tracing off; per-layer metrics come
from a separate traced run.  ``BENCHMARK.json`` lists both with units and
bounds; :data:`SUPPLEMENTARY` adds the end-to-end latencies that only one
workload has (writes on ``service-mix``, each runtime on ``sharded``),
which the trajectory records and ``compare.py`` judges with their own
bounds.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
from typing import Optional

from .stats import median, tail_percentile

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC_PATH = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")

#: name -> (samples key in Outcome.extra, percentile or None for the median,
#: unit, better, bound)
SUPPLEMENTARY = {
    "write_p50_s": ("write", None, "s", "lower", 0.25),
    "write_p90_s": ("write", 0.9, "s", "lower", 0.25),
    "pool_query_p50_s": ("pool_query", None, "s", "lower", 0.2),
    "cluster_query_p50_s": ("cluster_query", None, "s", "lower", 0.2),
}


def load_spec(path: str = SPEC_PATH) -> dict:
    with open(path) as handle:
        return json.load(handle)


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(outcome) -> dict:
    """Every ``end_to_end`` metric of ``BENCHMARK.json``, by name."""
    p90 = tail_percentile(outcome.reads, 0.9)
    if p90 is None:
        raise RuntimeError(
            f"{len(outcome.reads)} reads are too few for a 90th percentile"
        )
    return {
        "setup_s": median(outcome.setup_s),
        "query_p50_s": median(outcome.reads),
        "query_p90_s": p90,
        "ops_per_s": outcome.attempted / outcome.elapsed,
        "peak_rss_mb": peak_rss_mb(),
    }


def supplementary(outcome) -> dict:
    """The workload-specific latencies the run has enough samples for."""
    values = {}
    for name, (key, q, *_) in SUPPLEMENTARY.items():
        samples = outcome.extra.get(key)
        if not samples:
            continue
        value: Optional[float] = median(samples) if q is None else tail_percentile(samples, q)
        if value is not None:
            values[name] = value
    return values


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _delta(before: dict, after: dict, kind: str, name: str, field: Optional[str] = None) -> float:
    if field is None:
        return after[kind].get(name, 0) - before[kind].get(name, 0)
    empty = {"count": 0, "sum": 0.0}
    return after[kind].get(name, empty)[field] - before[kind].get(name, empty)[field]


def per_layer(tracer, outcome) -> dict:
    """Every ``per_layer`` metric; a layer this workload never calls reads 0.

    Times of query-path layers are self seconds per read; set-up layers
    report seconds per call; ``network.*`` counts are per simulator run.
    """
    layer = outcome.layer
    reads = layer.get("reads", 0)
    writes = layer.get("writes", 0)
    timed = tracer.totals("timed")
    setup = tracer.totals("setup")

    def per_read(name: str) -> float:
        return _ratio(timed.get(name, (0, 0.0))[1], reads)

    def per_call(table: dict, name: str) -> float:
        calls, _, total = table.get(name, (0, 0.0, 0.0))
        return _ratio(total, calls)

    def counted(name: str) -> float:
        return tracer.counter("timed", name)

    runs = counted("network.runs")
    values = {
        "session.prepare_s": per_read("session.prepare"),
        "core.rulegoal.build_s": per_read("core.rulegoal.build"),
        "cache.graph_hit_ratio": _ratio(counted("cache.graph_hits"), counted("cache.graph_lookups")),
        "relational.from_facts_s": per_call(setup, "relational.from_facts"),
        "relational.rows_retrieved": _ratio(counted("relational.rows_retrieved"), runs),
        "network.engine_init_s": per_read("network.engine_init"),
        "network.run_s": per_read("network.run"),
        "network.logical_messages": _ratio(counted("network.logical_messages"), runs),
        "network.physical_messages": _ratio(counted("network.physical_messages"), runs),
        "network.probe_lookups": _ratio(counted("network.probe_lookups"), runs),
        "network.protocol_messages": _ratio(counted("network.protocol_messages"), runs),
        "network.tuples_stored": _ratio(counted("network.tuples_stored"), runs),
        "network.answers_per_tuple_stored": _ratio(
            counted("network.answers"), counted("network.tuples_stored")
        ),
    }

    before, after = layer.get("metrics_before"), layer.get("metrics_after")
    service = dict.fromkeys(
        (
            "service.answer_cache.hit_ratio",
            "service.answer_cache.invalidations",
            "service.coalesced_joins",
            "service.server.queue_wait_s",
            "service.shared_session.eval_s",
            "service.transport_s",
        ),
        0.0,
    )
    if before is not None:
        hits = _delta(before, after, "counters", "answer_cache_hits_total")
        misses = _delta(before, after, "counters", "answer_cache_misses_total")
        service.update(
            {
                "service.answer_cache.hit_ratio": _ratio(hits, hits + misses),
                "service.answer_cache.invalidations": _ratio(
                    _delta(before, after, "counters", "answer_cache_invalidations_total"), writes
                ),
                "service.coalesced_joins": _ratio(
                    _delta(before, after, "counters", "coalesced_joins_total"), reads
                ),
                "service.server.queue_wait_s": _ratio(
                    _delta(before, after, "histograms", "queue_wait_seconds", "sum"),
                    _delta(before, after, "histograms", "queue_wait_seconds", "count"),
                ),
                "service.shared_session.eval_s": _ratio(
                    _delta(before, after, "histograms", "evaluation_seconds", "sum"),
                    _delta(before, after, "histograms", "evaluation_seconds", "count"),
                ),
                "service.transport_s": statistics.fmean(layer["transport"])
                if layer.get("transport")
                else 0.0,
            }
        )
    values.update(service)
    values.update(
        {
            "service.persistence.append_s": per_call(timed, "service.persistence.append"),
            "service.persistence.log_bytes_per_write": _ratio(
                counted("service.persistence.log_bytes"), writes
            ),
            "service.persistence.restore_s": per_call(setup, "service.persistence.restore"),
        }
    )

    simulator_run = {}
    for name, phase, _, total, rid in tracer.self_times():
        if name == "network.run" and phase == "check" and isinstance(rid, str):
            simulator_run[rid[len("sim:"):]] = total

    def overhead(runs_of: list) -> float:
        gaps = [latency - simulator_run[text] for text, latency, _ in runs_of if text in simulator_run]
        return statistics.fmean(gaps) if gaps else 0.0

    pool_runs = layer.get("pool_runs", [])
    cluster_runs = layer.get("cluster_runs", [])
    (bytes_before, frames_before), (bytes_after, frames_after) = layer.get(
        "wire", ((0, 0), (0, 0))
    )
    values.update(
        {
            "runtime.pool.overhead_s": overhead(pool_runs),
            "cluster.overhead_s": overhead(cluster_runs),
            "cluster.wire_bytes": _ratio(bytes_after - bytes_before, len(cluster_runs)),
            "cluster.frames": _ratio(frames_after - frames_before, len(cluster_runs)),
            "cluster.worker_start_s": per_call(setup, "cluster.worker_start"),
        }
    )
    return values
