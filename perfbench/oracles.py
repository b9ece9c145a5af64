"""Answers computed apart from the program under test.

Closures come from a breadth-first search over the generated edges,
same-generation answers from walking the parent relation directly, and
``service-mix`` reads are bracketed by the writes around them.  None of
this shares code with :mod:`repro`.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Mapping, Optional, Sequence


def adjacency(edges: Iterable[tuple]) -> dict:
    adj: dict = {}
    for a, b in edges:
        adj.setdefault(a, []).append(b)
    return adj


def closure(adj: Mapping, source) -> set:
    """Nodes reachable from ``source`` by one or more edges."""
    seen: set = set()
    queue = deque(adj.get(source, ()))
    while queue:
        node = queue.popleft()
        if node in seen:
            continue
        seen.add(node)
        queue.extend(adj.get(node, ()))
    return seen


def same_generation(parent_pairs: Iterable[tuple], person) -> set:
    """``sg(person, Y)``: some ``k >= 1`` steps up from both meet.

    ``parent_pairs`` are ``(child, parent)`` rows.  Walks ``k`` steps up
    from ``person`` and ``k`` steps back down, for every ``k``.
    """
    parents: dict = {}
    children: dict = {}
    for child, parent in parent_pairs:
        parents.setdefault(child, set()).add(parent)
        children.setdefault(parent, set()).add(child)
    result: set = set()
    up = {person}
    steps = 0
    while True:
        up = {p for node in up for p in parents.get(node, ())}
        if not up:
            return result
        steps += 1
        down = up
        for _ in range(steps):
            down = {c for node in down for c in children.get(node, ())}
        result |= down


def rows(values: Iterable) -> frozenset:
    """Unary answer rows, as the program returns them."""
    return frozenset((v,) for v in values)


class ReadBracket:
    """Checks one key's reads against the writes acknowledged around them.

    A write hangs a fresh leaf ``v`` under ``u``; it reaches ``t(key, Y)``
    exactly when ``u`` is ``key`` or in its base closure.  A read sent at
    ``sent`` and completed at ``done`` must include every such leaf whose
    write was acknowledged before ``sent`` and no leaf whose write was
    first sent after ``done``.
    """

    def __init__(self, base_adj: Mapping, key) -> None:
        self.key = key
        self.base = closure(base_adj, key)
        self.reach = self.base | {key}
        self.base_rows = rows(self.base)

    def digest(self, answers: frozenset) -> tuple[bool, frozenset]:
        """What the check needs of one answer set, cheap to keep per read."""
        return self.base_rows <= answers, frozenset(
            row[0] for row in answers - self.base_rows
        )

    def relevant(self, writes: Mapping[tuple, tuple[float, float]]) -> list:
        """``(v, first sent, first acknowledged)`` of writes that reach the key.

        ``writes`` maps each fresh edge ``(u, v)`` to its first send and
        first acknowledgement times.
        """
        return [
            (v, w_sent, w_acked)
            for (u, v), (w_sent, w_acked) in writes.items()
            if u in self.reach
        ]

    def violation(
        self, digest: tuple[bool, frozenset], sent: float, done: float, relevant: list
    ) -> Optional[str]:
        has_base, extra = digest
        if not has_base:
            return f"t({self.key}, Y) lost part of its base closure"
        must = {v for v, _, w_acked in relevant if w_acked <= sent}
        may = {v for v, w_sent, _ in relevant if w_sent < done}
        if not must <= extra:
            return (
                f"t({self.key}, Y) misses {len(must - extra)} leaves whose "
                "writes were acknowledged before the read was sent"
            )
        if not extra <= may:
            return (
                f"t({self.key}, Y) holds {len(extra - may)} rows no write "
                "sent before the read completed can explain"
            )
        return None


def bracket_violations(
    brackets: Mapping,
    reads: Sequence[tuple],
    writes: Mapping[tuple, tuple[float, float]],
) -> list[str]:
    """Check ``(key, sent, done, digest)`` reads; one message per violation."""
    relevant = {key: bracket.relevant(writes) for key, bracket in brackets.items()}
    problems = []
    for key, sent, done, digest in reads:
        problem = brackets[key].violation(digest, sent, done, relevant[key])
        if problem is not None:
            problems.append(problem)
    return problems
