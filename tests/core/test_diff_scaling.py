"""Null-aware row matching stays near-linear on ``diff(union(R, S), T)``.

The instance is ROADMAP's ``diffN`` at N = 1000: ``R = {(i, i % 7)}``,
``S`` holds ``(i, ⊥ᵢ)`` for every 10th ``i`` and ``(i, (i + 1) % 7)``
otherwise, ``T = {(i, i % 5)}`` for even ``i``.  A probe meets only the
rows that agree with it wherever both hold a constant, so the exact
lineage answer and the sound rung each decide at most one pair per row of
``R ∪ S``.  The counts wrap the deciding functions; nothing is timed.
"""

import pytest

import repro
from repro.algebra import parse_ra
from repro.core import sound_certain_answers
from repro.core import sound_evaluation
from repro.datamodel import ConditionKernel, Database, Null, Relation

N = 1000
QUERY = parse_ra("diff(union(R, S), T)")


def diff_database(n):
    return Database.from_relations(
        [
            Relation.create("R", [(i, i % 7) for i in range(n)], attributes=("a", "b")),
            Relation.create(
                "S",
                [(i, Null(f"n{i}")) if i % 10 == 0 else (i, (i + 1) % 7) for i in range(n)],
                attributes=("a", "b"),
            ),
            Relation.create("T", [(i, i % 5) for i in range(0, n, 2)], attributes=("a", "b")),
        ]
    )


@pytest.fixture(scope="module")
def database():
    return diff_database(N)


def _union_size(database):
    return len(database.relation("R").rows | database.relation("S").rows)


def _counting(monkeypatch, owner, name):
    calls = [0]
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_the_lineage_difference_decides_at_most_one_pair_per_union_row(database, monkeypatch):
    expected = repro.connect(database, semantics="cwa").query(QUERY).certain()
    calls = _counting(monkeypatch, ConditionKernel, "row_equality")
    answer = repro.connect(database, semantics="cwa").query(QUERY).certain()
    assert answer.rows == expected.rows and len(answer) > 0
    assert 0 < calls[0] <= _union_size(database) == 2 * N


def test_the_sound_rung_unifies_at_most_one_pair_per_union_row(database, monkeypatch):
    exact = repro.connect(database, semantics="cwa").query(QUERY).certain()
    calls = _counting(monkeypatch, sound_evaluation, "rows_unifiable")
    sound = sound_certain_answers(QUERY, database)
    assert sound.rows == exact.rows
    assert 0 < calls[0] <= _union_size(database)
