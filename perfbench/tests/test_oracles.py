"""The independent oracles agree with the program and reject wrong answers."""

import random

import pytest

from perfbench import inputs, oracles, workloads
from perfbench.tracing import NullTracer


def test_closure_follows_cycles():
    adj = oracles.adjacency([(1, 2), (2, 3), (3, 2), (4, 1)])
    assert oracles.closure(adj, 1) == {2, 3}
    assert oracles.closure(adj, 2) == {2, 3}
    assert oracles.closure(adj, 3) == {2, 3}
    assert oracles.closure(adj, 5) == set()


def _brute_same_generation(parents, person):
    """sg(x, y) iff some k >= 1 has par^k(x) == par^k(y) (functional parents)."""
    parent = dict(parents)

    def up(node, k):
        for _ in range(k):
            if node not in parent:
                return None
            node = parent[node]
        return node

    nodes = set(parent) | set(parent.values())
    return {
        y
        for y in nodes
        for k in range(1, len(nodes) + 1)
        if up(person, k) is not None and up(person, k) == up(y, k)
    }


def test_same_generation_matches_the_definition():
    family = inputs.labelled_tree(2, 4, random.Random(3))
    parents = [(child, parent) for parent, child in family.edges]
    for person in family.labels():
        assert oracles.same_generation(parents, person) == _brute_same_generation(parents, person)


def test_oracles_agree_with_the_program():
    from repro import Session

    kb = workloads.knowledge_base(workloads.KB_SIZES["small"], random.Random(5))
    session = Session(kb.text)
    for text, expected in kb.expected.items():
        assert session.query(text) == expected, text


class _Result:
    completed = True
    protocol_violations = []


class _WrongSession:
    """Answers one row short of the oracle, as a broken evaluator would."""

    def __init__(self, expected):
        self.expected = expected
        self.last_result = _Result()

    def query(self, text):
        answers = set(self.expected[text])
        answers.pop()
        return answers


def test_the_in_process_check_rejects_a_wrong_answer_set():
    kb = workloads.knowledge_base(workloads.KB_SIZES["small"], random.Random(7))
    nonempty = {t: rows for t, rows in kb.expected.items() if rows}
    round_ = list(nonempty.items())
    outcome = workloads.Outcome(setup_s=[0.0], reads=[])
    workloads._closed_loop_in_process(
        _WrongSession(nonempty), lambda: round_, 0.0, NullTracer(), outcome
    )
    assert len(outcome.violations) == outcome.attempted >= workloads.MIN_READS


def test_the_in_process_check_rejects_an_unfinished_protocol():
    kb = workloads.knowledge_base(workloads.KB_SIZES["small"], random.Random(7))

    class Unfinished(_WrongSession):
        def query(self, text):
            self.last_result = type("R", (), {"completed": False, "protocol_violations": ["x"]})()
            return self.expected[text]

    outcome = workloads.Outcome(setup_s=[0.0], reads=[])
    workloads._closed_loop_in_process(
        Unfinished(kb.expected), lambda: list(kb.expected.items()), 0.0,
        NullTracer(), outcome,
    )
    assert any("did not complete" in v for v in outcome.violations)
    assert any("protocol violations" in v for v in outcome.violations)


@pytest.fixture
def bracket():
    # 1 -> 2 -> 3; a write hangs leaf 10 under 2 and leaf 11 under 9 (unreachable).
    adj = oracles.adjacency([(1, 2), (2, 3), (9, 8)])
    return oracles.ReadBracket(adj, 1)


def _relevant(bracket, writes):
    return bracket.relevant(writes)


def test_bracket_accepts_reads_between_their_writes(bracket):
    writes = {(2, 10): (1.0, 2.0), (9, 11): (1.0, 2.0)}
    relevant = _relevant(bracket, writes)
    before = bracket.digest(frozenset({(2,), (3,)}))
    after = bracket.digest(frozenset({(2,), (3,), (10,)}))
    assert bracket.violation(before, 0.5, 0.9, relevant) is None  # sent before the write
    assert bracket.violation(after, 2.5, 3.0, relevant) is None  # acknowledged before
    # Overlapping the write: either answer is allowed.
    assert bracket.violation(before, 1.5, 1.8, relevant) is None
    assert bracket.violation(after, 1.5, 1.8, relevant) is None


def test_bracket_rejects_a_read_missing_an_acknowledged_write(bracket):
    relevant = _relevant(bracket, {(2, 10): (1.0, 2.0)})
    stale = bracket.digest(frozenset({(2,), (3,)}))
    assert "misses" in bracket.violation(stale, 2.5, 3.0, relevant)


def test_bracket_rejects_rows_from_writes_not_yet_sent(bracket):
    relevant = _relevant(bracket, {(2, 10): (5.0, 6.0)})
    early = bracket.digest(frozenset({(2,), (3,), (10,)}))
    assert "no write" in bracket.violation(early, 1.0, 2.0, relevant)


def test_bracket_rejects_a_lost_base_row(bracket):
    lost = bracket.digest(frozenset({(2,)}))
    assert "base closure" in bracket.violation(lost, 1.0, 2.0, [])


def test_bracket_violations_reports_each_bad_read(bracket):
    writes = {(2, 10): (1.0, 2.0)}
    reads = [
        (1, 2.5, 3.0, bracket.digest(frozenset({(2,), (3,), (10,)}))),
        (1, 2.5, 3.0, bracket.digest(frozenset({(2,), (3,)}))),
    ]
    problems = oracles.bracket_violations({1: bracket}, reads, writes)
    assert len(problems) == 1
