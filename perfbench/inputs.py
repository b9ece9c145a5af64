"""Seeded inputs: knowledge bases, query sets and client scripts.

Every generator takes a :class:`random.Random` built from the run's
``--seed``.  The seed decides labels, which nodes are queried, where cycles
close and which keys clients pick; the *shape* of each input (tree
branching and depth, chain lengths, query counts per depth) is fixed, so
answer sizes and evaluation cost do not depend on the seed.  That keeps
runs with different seeds comparable, which the benchmark's spread bounds
rely on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

#: Linear-recursive transitive closure (left-linear: the bound first
#: argument stays bound in the recursive subgoal).
TC_RULES = "t(X, Y) <- e(X, Y).\nt(X, Y) <- t(X, U), e(U, Y).\n"
#: The nonlinear same-generation program over a child->parent relation.
SG_RULES = (
    "sg(X, Y) <- par(X, P), par(Y, P).\n"
    "sg(X, Y) <- par(X, U), sg(U, V), par(Y, V).\n"
)


@dataclass(frozen=True)
class Tree:
    """A complete tree with shuffled labels.

    ``edges`` are ``(parent, child)`` pairs plus any ``(descendant,
    ancestor)`` back edges that close cycles; ``levels[d]`` lists the
    labels at depth ``d``.
    """

    edges: tuple
    levels: tuple

    def labels(self) -> list:
        return [label for level in self.levels for label in level]


def labelled_tree(
    branching: int, depth: int, rng: random.Random, first_label: int = 0
) -> Tree:
    """A complete ``branching``-ary tree of ``depth`` levels below the root."""
    count = sum(branching**d for d in range(depth + 1))
    labels = list(range(first_label, first_label + count))
    rng.shuffle(labels)
    edges = []
    levels = [[labels[0]]]
    used = 1
    for _ in range(depth):
        level = []
        for parent in levels[-1]:
            for child in labels[used : used + branching]:
                edges.append((parent, child))
                level.append(child)
            used += branching
        levels.append(level)
    return Tree(tuple(edges), tuple(tuple(level) for level in levels))


def cyclic_tree(
    branching: int, depth: int, cycle_depth: int, rng: random.Random
) -> Tree:
    """A labelled tree where every node at ``cycle_depth`` closes one cycle.

    Each such node gets one back edge from a grandchild chosen by ``rng``,
    so closures below ``cycle_depth`` revisit nodes while the closure size
    of every node stays fixed by the shape alone.
    """
    if cycle_depth + 2 > depth:
        raise ValueError("cycle_depth needs two levels of descendants")
    tree = labelled_tree(branching, depth, rng)
    children: dict = {}
    for parent, child in tree.edges:
        children.setdefault(parent, []).append(child)
    back = []
    for node in tree.levels[cycle_depth]:
        grandchildren = [g for c in children[node] for g in children[c]]
        back.append((rng.choice(grandchildren), node))
    return Tree(tree.edges + tuple(back), tree.levels)


def chains(count: int, length: int, rng: random.Random) -> list[list[int]]:
    """``count`` disjoint chains of ``length`` shuffled labels."""
    labels = list(range(count * length))
    rng.shuffle(labels)
    return [labels[i * length : (i + 1) * length] for i in range(count)]


def chain_edges(chain_list: Sequence[Sequence[int]]) -> list[tuple[int, int]]:
    """Path edges of every chain, plus a 2-cycle between its last two nodes."""
    edges = []
    for chain in chain_list:
        edges.extend(zip(chain, chain[1:]))
        edges.append((chain[-1], chain[-2]))
    return edges


def kb_text(rules: str, tables: Mapping[str, Iterable[tuple]]) -> str:
    """Datalog source: the rules, then one fact per row."""
    lines = [rules]
    for predicate in sorted(tables):
        lines.extend(
            f"{predicate}({', '.join(str(v) for v in row)})."
            for row in tables[predicate]
        )
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Query:
    """One read: ``predicate(constant, Y)``."""

    predicate: str
    constant: int

    @property
    def text(self) -> str:
        return f"{self.predicate}({self.constant}, Y)"


def draw_queries(
    predicate: str,
    tree: Tree,
    per_depth: Sequence[tuple[int, int]],
    rng: random.Random,
) -> list[Query]:
    """``count`` distinct constants from each ``(depth, count)`` level."""
    queries = []
    for depth, count in per_depth:
        for constant in rng.sample(tree.levels[depth], count):
            queries.append(Query(predicate, constant))
    return queries


def zipf_weights(n: int, exponent: float) -> list[float]:
    return [1.0 / (rank + 1) ** exponent for rank in range(n)]


@dataclass(frozen=True)
class Op:
    """One client operation in a ``service-mix`` round."""

    kind: str  # "read", "bad_read", "write" or "dup_write"
    text: str  # query text or facts text
    key: int = -1  # queried constant (reads)
    fact: tuple = ()  # (u, v) edge (writes)


def service_round(
    rng: random.Random,
    keys: Sequence[int],
    weights: Sequence[float],
    attach: Sequence[int],
    fresh_labels: Iterable[int],
    layout: Mapping[int, str],
    size: int,
) -> list[Op]:
    """One round of ``size`` ops for one client.

    ``layout`` fixes which positions are writes, duplicate writes and
    wrong-arity reads, so every round has the same mix; every other
    position reads a zipf-drawn key.  A fresh write hangs a new leaf under
    a node drawn from ``attach``; a duplicate write re-sends the round's
    most recent fresh write, which the closed-loop client has already had
    acknowledged.
    """
    ops = []
    last_fact = None
    labels = iter(fresh_labels)
    for position in range(size):
        kind = layout.get(position, "read")
        if kind == "write":
            last_fact = (rng.choice(attach), next(labels))
            ops.append(Op("write", f"e({last_fact[0]}, {last_fact[1]}).", fact=last_fact))
        elif kind == "dup_write":
            if last_fact is None:
                raise ValueError("a duplicate write needs an earlier write in its round")
            ops.append(Op("dup_write", f"e({last_fact[0]}, {last_fact[1]}).", fact=last_fact))
        elif kind == "bad_read":
            key = rng.choices(keys, weights)[0]
            ops.append(Op("bad_read", f"t({key})", key=key))
        else:
            key = rng.choices(keys, weights)[0]
            ops.append(Op("read", f"t({key}, Y)", key=key))
    return ops
