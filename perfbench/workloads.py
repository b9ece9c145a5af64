"""The four workloads, each a closed loop against the shipped defaults.

Every workload builds its inputs from the seed, sets the system up
:data:`SETUP_REPEATS` times (timing each; the last set-up serves the
run), then runs whole rounds of a fixed operation mix until ``seconds``
have passed and at least :data:`MIN_READS` reads completed.  Outputs are
checked against :mod:`perfbench.oracles`; check time is kept out of every
latency and out of the timed elapsed.

``service-mix`` and ``sharded`` run pinned to one CPU (see
:func:`_one_cpu`); the other two are single-threaded.

Only deployment settings are chosen here: ports, the data directory, the
runtime and the worker count.  Every evaluation option keeps its default.
"""

from __future__ import annotations

import contextlib
import gc
import os
import random
import shutil
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

from . import inputs, oracles

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Reads a run completes at least, so ``query_p90_s`` has ten samples above it.
MIN_READS = 100
#: Pool and cluster worker count (the 2-core reference host).
WORKERS = 2


@dataclass
class Outcome:
    """What one run measured and what its checks found."""

    setup_s: list[float]
    reads: list[float]  # latencies of reads that count toward query_*
    elapsed: float = 0.0  # timed wall seconds, checks excluded
    attempted: int = 0
    failed: int = 0
    violations: list[str] = field(default_factory=list)
    extra: dict = field(default_factory=dict)  # latency samples per op kind beyond reads
    layer: dict = field(default_factory=dict)  # inputs to the per-layer metrics
    notes: list[str] = field(default_factory=list)


def _set_up(build: Callable, teardown: Callable, tracer) -> tuple[list[float], object]:
    """Build :data:`SETUP_REPEATS` times; keep the last, tear down the rest."""
    tracer.set_phase("setup")
    times = []
    built = None
    for attempt in range(SETUP_REPEATS):
        if built is not None:
            teardown(built)
            built = None
        gc.collect()
        start = time.perf_counter()
        built = build()
        times.append(time.perf_counter() - start)
    gc.collect()
    return times, built


@contextlib.contextmanager
def _one_cpu():
    """Run the block, and every thread or process it starts, on one allowed CPU.

    For the workloads whose threads or processes hand work to each other:
    on a shared host each hand-off between CPUs cost more than the work
    handed over, and varied run to run with the host's other load.
    """
    if not hasattr(os, "sched_setaffinity"):
        yield
        return
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def _check_result(result, label: str, violations: list) -> None:
    """Every simulator run must finish its §3.2 wave without violations."""
    if not result.completed:
        violations.append(f"{label}: evaluation did not complete")
    if result.protocol_violations:
        violations.append(f"{label}: protocol violations {result.protocol_violations[:3]}")


# ----------------------------------------------------------------------
# kb-recursive
# ----------------------------------------------------------------------
#: Tree shapes and, per level, (depth, distinct queries, times per round).
#: Full size: closures from 21 to 21,844 rows and same-generation answers
#: from 27 to 729 rows; 49 distinct queries, within the 64-entry graph
#: cache, in rounds of 100 reads.  Cheapest first: 26 small reads, 42
#: reads of 243-row same-generation answers (the median sits in their
#: middle), 11 of 340 and 729 rows, 18 of 1,364-row closures (the 90th
#: percentile sits in their middle), then the 5,460- and 21,844-row
#: closures.  That holds for any number of whole rounds.
KB_SIZES = {
    "full": dict(
        tc=(4, 7, 5),
        sg=(3, 7),
        tc_queries=((0, 1, 1), (1, 2, 1), (2, 6, 3), (3, 8, 1), (4, 8, 1), (5, 6, 1)),
        sg_queries=((6, 3, 1), (5, 7, 6), (4, 4, 2), (3, 4, 1)),
    ),
    "small": dict(
        tc=(3, 4, 2),
        sg=(2, 4),
        tc_queries=((0, 1, 1), (1, 2, 2), (2, 2, 2)),
        sg_queries=((4, 2, 1), (3, 2, 2)),
    ),
}


@dataclass(frozen=True)
class KnowledgeBase:
    text: str
    queries: tuple  # inputs.Query, in round order (a query may repeat)
    expected: dict  # query text -> answer rows


def knowledge_base(size: dict, rng: random.Random) -> KnowledgeBase:
    """The closure-plus-same-generation base and its query round."""
    branching, depth, cycle_depth = size["tc"]
    tc = inputs.cyclic_tree(branching, depth, cycle_depth, rng)
    sg_branching, sg_depth = size["sg"]
    family = inputs.labelled_tree(sg_branching, sg_depth, rng, first_label=10_000_000)
    parents = [(child, parent) for parent, child in family.edges]
    round_ = []
    for predicate, tree, spec in (("t", tc, size["tc_queries"]), ("sg", family, size["sg_queries"])):
        for depth_, count, repeats in spec:
            drawn = inputs.draw_queries(predicate, tree, ((depth_, count),), rng)
            round_.extend(drawn * repeats)
    rng.shuffle(round_)
    adj = oracles.adjacency(tc.edges)
    expected = {}
    for query in round_:
        if query.text in expected:
            continue
        if query.predicate == "t":
            answer = oracles.closure(adj, query.constant)
        else:
            answer = oracles.same_generation(parents, query.constant)
        expected[query.text] = oracles.rows(answer)
    text = inputs.kb_text(
        inputs.TC_RULES + inputs.SG_RULES, {"e": tc.edges, "par": parents}
    )
    return KnowledgeBase(text, tuple(round_), expected)


def kb_recursive(seed: int, seconds: float, tracer, size: str = "full") -> Outcome:
    """One client repeats a seeded set of recursive queries on one base."""
    from repro import Session

    kb = knowledge_base(KB_SIZES[size], random.Random(seed))
    setup, session = _set_up(lambda: Session(kb.text), lambda s: s.close(), tracer)
    outcome = Outcome(setup_s=setup, reads=[])
    round_ = [(q.text, kb.expected[q.text]) for q in kb.queries]
    _closed_loop_in_process(session, lambda: round_, seconds, tracer, outcome)
    session.close()
    return outcome


def _closed_loop_in_process(session, next_round, seconds, tracer, outcome) -> None:
    """Whole rounds through ``Session.query``, each answer checked inline.

    ``next_round()`` gives ``(query text, oracle)`` pairs; an oracle is the
    expected answer rows or a callable computing them.
    """
    violations = outcome.violations
    reads = outcome.reads
    checking = 0.0
    tracer.set_phase("timed")
    begin = time.perf_counter()
    while True:
        for text, oracle in next_round():
            with tracer.op("client.read", len(reads)):
                start = time.perf_counter()
                answers = session.query(text)
                done = time.perf_counter()
            reads.append(done - start)
            want = oracle() if callable(oracle) else oracle
            if answers != want:
                violations.append(f"{text}: {len(answers)} answers, oracle has {len(want)}")
            _check_result(session.last_result, text, violations)
            checking += time.perf_counter() - done
        if time.perf_counter() - begin >= seconds and len(reads) >= MIN_READS:
            break
    outcome.elapsed = time.perf_counter() - begin - checking
    tracer.set_phase("check")
    outcome.attempted = len(reads)
    outcome.layer["reads"] = len(reads)


# ----------------------------------------------------------------------
# point-lookups
# ----------------------------------------------------------------------
#: chains x length; a round queries ``round`` fresh constants spread over
#: the first four chain positions (answers of 2 to 4 rows).  Full size:
#: 32,000 queried constants, so a run repeats none below 32,000 reads
#: (1,600 reads/s over 20 s).
POINT_SIZES = {
    "full": dict(chains=8000, length=5, round=50),
    "small": dict(chains=200, length=5, round=10),
}


def point_lookups(seed: int, seconds: float, tracer, size: str = "full") -> Outcome:
    """One client, a fresh constant per query, over a large sparse graph."""
    from repro import Session

    shape = POINT_SIZES[size]
    rng = random.Random(seed)
    chain_list = inputs.chains(shape["chains"], shape["length"], rng)
    rng.shuffle(chain_list)
    edges = inputs.chain_edges(chain_list)
    adj = oracles.adjacency(edges)
    text = inputs.kb_text(inputs.TC_RULES, {"e": edges})
    setup, session = _set_up(lambda: Session(text), lambda s: s.close(), tracer)
    outcome = Outcome(setup_s=setup, reads=[])
    per_round = shape["round"]
    positions = shape["length"] - 1
    issued = 0

    def next_round():
        nonlocal issued
        first, issued = issued, issued + per_round
        for i in range(first, first + per_round):
            # Read i+n (n chains) steps to the next position of read i's
            # chain, so n * positions reads pass before a constant repeats.
            constant = chain_list[i % len(chain_list)][(i + i // len(chain_list)) % positions]
            yield f"t({constant}, Y)", lambda c=constant: oracles.rows(
                oracles.closure(adj, c)
            )

    _closed_loop_in_process(session, next_round, seconds, tracer, outcome)
    session.close()
    return outcome


# ----------------------------------------------------------------------
# service-mix
# ----------------------------------------------------------------------
#: Closed-loop clients (the reference host has 2 cores).
CLIENTS = 2
#: Per-client round layout: the positions that are not reads.  Full size:
#: 100 ops = 97 reads, 1 wrong-arity read, 1 fresh write and 1 duplicate.
#: Keys are depth-5 nodes off every cycle (4-row closures before writes),
#: so an evaluation costs about as much as a served cache hit and the
#: median and 90th percentile stay put wherever the hit ratio settles.
#: The preseeded history leaves the log 10 appends short of the default
#: 1000-record snapshot, so every run crosses exactly one snapshot.
SERVICE_SIZES = {
    "full": dict(
        tree=(4, 6, 4),
        keys=(5, 32),
        preseed=990,
        round=100,
        layout={30: "write", 55: "bad_read", 80: "dup_write"},
        min_rounds=5,
    ),
    "small": dict(
        tree=(3, 4, 2),
        keys=(3, 6),
        preseed=20,
        round=20,
        layout={5: "write", 10: "dup_write", 15: "bad_read"},
        min_rounds=2,
    ),
}
ZIPF_EXPONENT = 1.3
#: Fresh leaf labels: the preseeded history, then one range per client.
PRESEED_LABELS = 500_000
CLIENT_LABELS = 1_000_000


def service_mix(seed: int, seconds: float, tracer, size: str = "full", out_dir: str = "") -> Outcome:
    """Two TCP clients read zipf-skewed keys and grow the closure by writes.

    Pinned to one CPU: the clients and the in-process server share one
    interpreter lock, and run free on two shared CPUs the median read
    latency varied twofold from run to run.
    """
    with _one_cpu():
        return _service_mix(seed, seconds, tracer, size, out_dir)


def _service_mix(seed: int, seconds: float, tracer, size: str, out_dir: str) -> Outcome:
    from repro.service import (
        DurableStore,
        ServerConfig,
        ServerThread,
        ServiceClient,
        ServiceClientError,
        SharedSession,
    )

    shape = SERVICE_SIZES[size]
    rng = random.Random(seed)
    branching, depth, cycle_depth = shape["tree"]
    tree = inputs.cyclic_tree(branching, depth, cycle_depth, rng)
    tree_adj = oracles.adjacency(tree.edges)
    key_depth, key_count = shape["keys"]
    off_cycles = [
        node for node in tree.levels[key_depth]
        if len(oracles.closure(tree_adj, node)) == branching
    ]
    keys = rng.sample(off_cycles, key_count)
    weights = inputs.zipf_weights(len(keys), ZIPF_EXPONENT)
    everywhere = tree.labels()
    preseed = [(rng.choice(everywhere), PRESEED_LABELS + i) for i in range(shape["preseed"])]
    text = inputs.kb_text(inputs.TC_RULES, {"e": tree.edges})
    base_adj = oracles.adjacency(list(tree.edges) + preseed)
    brackets = {key: oracles.ReadBracket(base_adj, key) for key in keys}

    data_dir = os.path.join(out_dir, f"service-{os.getpid()}-{seed}")
    shutil.rmtree(data_dir, ignore_errors=True)
    # A write history to restore from: replayed by every set-up below.  Its
    # fsyncs are batched; the store the service runs on keeps the default
    # fsync-per-append policy.
    history = DurableStore(data_dir, fsync_interval=3600.0)
    seeded, _ = history.restore(text)
    writer = SharedSession(session=seeded, store=history)
    for u, v in preseed:
        writer.add_facts(f"e({u}, {v}).")
    history.close()
    del writer, seeded, history

    def build():
        store = DurableStore(data_dir)
        store.acquire_lock()
        session, _ = store.restore(text)
        shared = SharedSession(session=session, store=store)
        server = ServerThread(shared, ServerConfig(port=0))
        port = server.start()
        clients = []
        for index in range(CLIENTS):
            client = ServiceClient(port=port)
            # Distinct request ids per client, so traced spans join up.
            client._next_id = index * 1_000_000_000
            client.ping()
            clients.append(client)
        return store, shared, server, clients

    def teardown(built) -> None:
        store, _, server, clients = built
        for client in clients:
            client.close()
        server.stop()
        store.close()

    setup, built = _set_up(build, teardown, tracer)
    store, shared, server, clients = built
    outcome = Outcome(setup_s=setup, reads=[])
    writes: dict = {}  # fresh edge -> (first sent, first acknowledged)
    reads: list = []  # (key, sent, done, digest)
    transport: list = []
    failed = [0] * CLIENTS
    attempted = [0] * CLIENTS
    write_latency: list = []
    lock = threading.Lock()
    violations = outcome.violations

    def client_loop(index: int, deadline: float) -> None:
        client = clients[index]
        client_rng = random.Random(f"{seed}/{index}")
        labels = iter(range(CLIENT_LABELS * (index + 1), CLIENT_LABELS * (index + 2)))
        rounds = 0
        try:
            while True:
                # Every fresh write hangs a leaf under a key, growing its closure.
                ops = inputs.service_round(
                    client_rng, keys, weights, keys, labels, shape["layout"], shape["round"]
                )
                for op in ops:
                    rid = client._next_id + 1
                    with tracer.op(f"client.{op.kind}", rid):
                        sent = time.perf_counter()
                        try:
                            if op.kind in ("read", "bad_read"):
                                reply = client.query(op.text)
                            else:
                                client.add_facts(op.text)
                            error = None
                        except ServiceClientError as exc:
                            error = exc
                        done = time.perf_counter()
                    attempted[index] += 1
                    if op.kind == "bad_read":
                        # A wrong-arity query should be refused as bad_request.
                        if error is None or error.error_type != "bad_request":
                            failed[index] += 1
                        continue
                    if error is not None:
                        failed[index] += 1
                        violations.append(f"{op.kind} {op.text!r}: {error.error_type}: {error}")
                        continue
                    if op.kind == "read":
                        outcome.reads.append(done - sent)
                        transport.append(done - sent - reply.elapsed)
                        reads.append((op.key, sent, done, brackets[op.key].digest(reply.answers)))
                    else:
                        write_latency.append(done - sent)
                        with lock:
                            writes.setdefault(op.fact, (sent, done))
                rounds += 1
                if time.perf_counter() >= deadline and rounds >= shape["min_rounds"]:
                    return
        except Exception as exc:  # a crashed client invalidates the run
            violations.append(f"client {index} stopped: {type(exc).__name__}: {exc}")

    try:
        before = shared.metrics.snapshot()
        with _watch_engine_results(violations):
            tracer.set_phase("timed")
            begin = time.perf_counter()
            threads = [
                threading.Thread(target=client_loop, args=(i, begin + seconds), name=f"client-{i}")
                for i in range(CLIENTS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            outcome.elapsed = time.perf_counter() - begin
            tracer.set_phase("check")
        after = shared.metrics.snapshot()
        snapshots = store.snapshots_written
    finally:
        teardown(built)
        shutil.rmtree(data_dir, ignore_errors=True)

    violations.extend(oracles.bracket_violations(brackets, reads, writes))
    outcome.attempted = sum(attempted)
    outcome.failed = sum(failed)
    outcome.extra["write"] = write_latency
    outcome.layer.update(
        reads=len(outcome.reads),
        writes=len(write_latency),
        transport=transport,
        metrics_before=before,
        metrics_after=after,
    )
    outcome.notes.append(f"snapshots written during the run: {snapshots}")
    return outcome


class _watch_engine_results:
    """Check every in-process evaluation the service runs (completed, no violations)."""

    def __init__(self, violations: list) -> None:
        self.violations = violations

    def __enter__(self):
        from repro.network.engine import MessagePassingEngine

        self.raw = MessagePassingEngine.__dict__["run"]
        raw, violations = self.raw, self.violations

        def run(engine):
            result = raw(engine)
            _check_result(result, "service evaluation", violations)
            return result

        MessagePassingEngine.run = run
        return self

    def __exit__(self, *exc_info) -> None:
        from repro.network.engine import MessagePassingEngine

        MessagePassingEngine.run = self.raw


# ----------------------------------------------------------------------
# sharded
# ----------------------------------------------------------------------
#: The kb-recursive query mix at a size two shard workers sustain: closures
#: up to 1,364 rows, same-generation answers up to 243; 16 queries.
SHARD_SIZES = {
    "full": dict(
        tc=(4, 5, 3),
        sg=(3, 5),
        tc_queries=((0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 3, 1)),
        sg_queries=((5, 2, 1), (4, 2, 1), (3, 2, 1), (2, 1, 1)),
    ),
    "small": dict(
        tc=(2, 4, 2),
        sg=(2, 3),
        tc_queries=((0, 1, 1), (1, 1, 1)),
        sg_queries=((3, 1, 1),),
    ),
}


def sharded(seed: int, seconds: float, tracer, size: str = "full") -> Outcome:
    """The recursive query mix through the pool, then the cluster, in turn.

    Pinned to one CPU with its pool and cluster workers: run free on two
    shared CPUs, its median latency moved by half from run to run.  So it
    measures the runtimes' queues, frames and job shipping, not how well
    two workers use two CPUs.
    """
    with _one_cpu():
        return _sharded(seed, seconds, tracer, size)


def _sharded(seed: int, seconds: float, tracer, size: str) -> Outcome:
    from repro import Session

    kb = knowledge_base(SHARD_SIZES[size], random.Random(seed))
    warm = min(kb.queries, key=lambda q: len(kb.expected[q.text])).text

    def build():
        pool = Session(kb.text, runtime="pool", workers=WORKERS)
        cluster = Session(kb.text, runtime="cluster", workers=WORKERS)
        # Lazy start-up belongs to set-up: the pool's first fork and the
        # cluster's worker spawn happen on the first query.
        pool.query(warm)
        cluster.query(warm)
        return pool, cluster

    def teardown(built) -> None:
        for session in built:
            session.close()

    setup, (pool, cluster) = _set_up(build, teardown, tracer)
    outcome = Outcome(setup_s=setup, reads=[])
    runs: dict = {"pool": [], "cluster": []}  # (query text, latency, logical rows)
    violations = outcome.violations
    try:
        wire_before, wire_after = _timed_rounds(
            kb, pool, cluster, seconds, tracer, outcome, runs
        )
    finally:
        teardown((pool, cluster))

    # The simulator on the same queries: the reference for answers and for
    # the runtime-invariant logical tuple-row totals.
    simulator = Session(kb.text)
    sim_rows = {}
    for text, expected in kb.expected.items():
        with tracer.op("check.simulator", f"sim:{text}"):
            result = simulator.run_query(text)
        _check_result(result, f"simulator {text}", violations)
        if result.answers != expected:
            violations.append(f"simulator {text}: answers differ from the oracle")
        sim_rows[text] = (
            result.stats.by_kind.get("TupleMessage", 0) + result.stats.tuple_set_rows
        )
    for text, _, rows in runs["cluster"]:
        if rows != sim_rows[text]:
            violations.append(
                f"cluster {text}: {rows} logical tuple rows, simulator {sim_rows[text]}"
            )
    simulator.close()

    outcome.attempted = len(outcome.reads)
    outcome.extra["pool_query"] = [latency for _, latency, _ in runs["pool"]]
    outcome.extra["cluster_query"] = [latency for _, latency, _ in runs["cluster"]]
    outcome.layer.update(
        reads=len(outcome.reads),
        pool_runs=runs["pool"],
        cluster_runs=runs["cluster"],
        wire=(wire_before, wire_after),
    )
    outcome.notes.append(
        "pool results carry no logical tuple-row total; pool parity is checked on answers only"
    )
    return outcome


def _timed_rounds(kb, pool, cluster, seconds, tracer, outcome, runs) -> tuple:
    """Alternate whole rounds on the pool and the cluster; wire totals around them."""
    violations = outcome.violations
    checking = 0.0
    wire_before = _wire_totals(cluster.cluster_stats())
    tracer.set_phase("timed")
    begin = time.perf_counter()
    rounds = 0
    while True:
        name, session = ("pool", pool) if rounds % 2 == 0 else ("cluster", cluster)
        for query in kb.queries:
            text = query.text
            with tracer.op(f"client.read.{name}", len(outcome.reads)):
                start = time.perf_counter()
                answers = session.query(text)
                done = time.perf_counter()
            outcome.reads.append(done - start)
            result = session.last_result
            runs[name].append((text, done - start, getattr(result, "logical_tuple_rows", None)))
            if answers != kb.expected[text]:
                violations.append(
                    f"{name} {text}: {len(answers)} answers, oracle has {len(kb.expected[text])}"
                )
            if not result.completed or result.degraded or result.attempts != 1:
                violations.append(
                    f"{name} {text}: completed={result.completed}, {result.attempts} attempts,"
                    f" degraded={result.degraded}"
                )
            checking += time.perf_counter() - done
        rounds += 1
        if (
            rounds % 2 == 0
            and time.perf_counter() - begin >= seconds
            and len(outcome.reads) >= MIN_READS
        ):
            break
    outcome.elapsed = time.perf_counter() - begin - checking
    tracer.set_phase("check")
    return wire_before, _wire_totals(cluster.cluster_stats())


def _wire_totals(stats) -> tuple[int, int]:
    """(bytes, BATCH frames) summed over the cluster's workers."""
    workers = (stats or {}).get("workers", {})
    wire = sum(w.get("bytes_in", 0) + w.get("bytes_out", 0) for w in workers.values())
    frames = sum(w.get("batches_in", 0) + w.get("batches_out", 0) for w in workers.values())
    return wire, frames


WORKLOADS = {
    "kb-recursive": kb_recursive,
    "point-lookups": point_lookups,
    "service-mix": service_mix,
    "sharded": sharded,
}
