"""Spans around calls into each layer, recorded from outside the program.

:meth:`Tracer.install` replaces layer entry points with wrappers that
record a span per call: name, start, end, the enclosing span on the same
thread, the request id the client set, and the run phase (``inputs``,
``setup``, ``timed`` or ``check``).  Nothing under ``src/`` changes; ``uninstall``
puts every original back.  Spans stay in memory until :meth:`write`.

A span's *self time* is its duration minus the time its child spans
cover; the layer table sums self time per span name.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from typing import Callable, Optional


class NullTracer:
    """The untraced run: client operations are not wrapped at all."""

    def op(self, name: str, rid=None):
        return contextlib.nullcontext()

    def set_phase(self, phase: str) -> None:
        pass


class Tracer:
    def __init__(self) -> None:
        #: (span id, name, start, end, parent id, request id, phase)
        self.spans: list[tuple] = []
        self.phase = "inputs"
        self.counters: dict = defaultdict(float)  # (phase, name) -> total
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple] = []

    # ------------------------------------------------------------------
    def set_phase(self, phase: str) -> None:
        self.phase = phase

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[(self.phase, name)] += amount

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        rid = getattr(self._local, "rid", None)
        phase = self.phase
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, parent, rid, phase))

    @contextlib.contextmanager
    def op(self, name: str, rid=None):
        """A client operation: the root span its request id hangs from."""
        previous = getattr(self._local, "rid", None)
        self._local.rid = rid
        try:
            with self.span(name):
                yield
        finally:
            self._local.rid = previous

    # ------------------------------------------------------------------
    def _traced(self, func: Callable, name: Optional[str], after) -> Callable:
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if name is None:
                result = func(*args, **kwargs)
            else:
                with tracer.span(name):
                    result = func(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        return traced

    def wrap(self, owner, attr: str, name: Optional[str], after=None) -> None:
        """Wrap ``owner.attr``; ``name=None`` only runs ``after`` (a counter)."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            new = classmethod(self._traced(raw.__func__, name, after))
        else:
            new = self._traced(raw, name, after)
        setattr(owner, attr, new)
        self._patches.append((owner, attr, raw))

    def install(self) -> None:
        """Wrap the entry point of every layer the benchmark reports on."""
        import repro.cluster
        import repro.runtime
        import repro.session
        from repro.cache import GraphCache
        from repro.cluster import ClusterHarness
        from repro.network.engine import MessagePassingEngine, QueryResult
        from repro.relational.database import Database
        from repro.service.persistence import DurableStore
        from repro.service.server import QueryServer
        from repro.service.shared_session import SharedSession
        from repro.session import Session

        def graph_lookup(args, result) -> None:
            self.count("cache.graph_lookups")
            if result is not None:
                self.count("cache.graph_hits")

        def network_result(args, result) -> None:
            if not isinstance(result, QueryResult):
                return
            self.count("network.runs")
            self.count("network.logical_messages", result.total_messages)
            self.count("network.physical_messages", result.physical_messages)
            self.count("network.protocol_messages", result.protocol_messages)
            self.count("network.probe_lookups", result.probe_lookups)
            self.count("network.tuples_stored", result.tuples_stored)
            self.count("network.answers", len(result.answers))
            self.count("relational.rows_retrieved", result.db_rows_retrieved)

        self.wrap(Session, "prepare", "session.prepare")
        self.wrap(Session, "query", "session.query")
        self.wrap(Session, "run_query", "session.run_query")
        self.wrap(repro.session, "build_rule_goal_graph", "core.rulegoal.build")
        self.wrap(GraphCache, "get", None, graph_lookup)
        self.wrap(Database, "from_facts", "relational.from_facts")
        self.wrap(MessagePassingEngine, "__init__", "network.engine_init")
        self.wrap(MessagePassingEngine, "run", "network.run", network_result)
        self.wrap(SharedSession, "query_detailed", "service.shared_session.query_detailed")
        self.wrap(SharedSession, "add_facts", "service.shared_session.add_facts")
        self._wrap_append(DurableStore)
        self.wrap(DurableStore, "restore", "service.persistence.restore")
        self.wrap(repro.runtime, "evaluate_pool", "runtime.pool.evaluate")
        self.wrap(repro.cluster, "evaluate_cluster", "cluster.evaluate")
        self.wrap(ClusterHarness, "start", "cluster.worker_start")
        self._wrap_server_dispatch(QueryServer)

    def _wrap_append(self, store_class) -> None:
        """``DurableStore.record`` (the log append), counting bytes appended."""
        raw = store_class.__dict__["record"]
        tracer = self

        @functools.wraps(raw)
        def record(store, *args, **kwargs):
            before = _size(store.log_path)
            with tracer.span("service.persistence.append"):
                seq = raw(store, *args, **kwargs)
            tracer.count("service.persistence.log_bytes", _size(store.log_path) - before)
            return seq

        store_class.record = record
        self._patches.append((store_class, "record", raw))

    def _wrap_server_dispatch(self, server_class) -> None:
        """Carry the request id into the executor thread that evaluates it."""
        raw = server_class.__dict__["_work_for"]
        tracer = self

        @functools.wraps(raw)
        def work_for(server, op, request):
            fn = raw(server, op, request)
            rid = request.get("id")

            def run():
                tracer._local.rid = rid
                try:
                    with tracer.span(f"service.server.{op}"):
                        return fn()
                finally:
                    tracer._local.rid = None

            return run

        server_class._work_for = work_for
        self._patches.append((server_class, "_work_for", raw))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # ------------------------------------------------------------------
    def self_times(self) -> list[tuple]:
        """``(name, phase, self seconds, total seconds, rid)`` per span."""
        covered: dict = defaultdict(float)
        for sid, name, start, end, parent, rid, phase in self.spans:
            if parent is not None:
                covered[parent] += end - start
        return [
            (name, phase, (end - start) - covered.get(sid, 0.0), end - start, rid)
            for sid, name, start, end, parent, rid, phase in self.spans
        ]

    def totals(self, phase: str) -> dict:
        """``name -> [calls, self seconds, total seconds]`` for one phase."""
        table: dict = defaultdict(lambda: [0, 0.0, 0.0])
        for name, span_phase, self_s, total_s, _ in self.self_times():
            if span_phase == phase:
                row = table[name]
                row[0] += 1
                row[1] += self_s
                row[2] += total_s
        return dict(table)

    def counter(self, phase: str, name: str) -> float:
        return self.counters.get((phase, name), 0.0)

    def write(self, path: str) -> None:
        """All spans as JSON lines (times relative to the first span)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        origin = min((s[2] for s in self.spans), default=0.0)
        with open(path, "w") as handle:
            for sid, name, start, end, parent, rid, phase in sorted(
                self.spans, key=lambda s: s[2]
            ):
                handle.write(
                    json.dumps(
                        {
                            "id": sid,
                            "name": name,
                            "start": start - origin,
                            "end": end - origin,
                            "parent": parent,
                            "rid": rid,
                            "phase": phase,
                        }
                    )
                    + "\n"
                )


def _size(path: str) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def layer_table(tracer: Tracer, phase: str, client_names: tuple) -> tuple[str, float]:
    """The layer table for one phase, and the share of client time it explains.

    Rows are span names with calls, self time and its share of the time
    the client operations named in ``client_names`` took.  The share is
    the part of that client time covered by spans below the client
    operations, on the same threads.
    """
    totals = tracer.totals(phase)
    client_total = sum(totals[name][2] for name in client_names if name in totals)
    client_self = sum(totals[name][1] for name in client_names if name in totals)
    lines = [
        f"{'span':44s} {'calls':>7s} {'self s':>9s} {'self/call ms':>12s} {'of client':>9s}"
    ]
    for name, (calls, self_s, _) in sorted(totals.items(), key=lambda kv: -kv[1][1]):
        share = self_s / client_total if client_total else 0.0
        lines.append(
            f"{name:44s} {calls:7d} {self_s:9.4f} {1e3 * self_s / calls:12.4f} {share:9.1%}"
        )
    explained = 1.0 - client_self / client_total if client_total else 0.0
    return "\n".join(lines), explained
