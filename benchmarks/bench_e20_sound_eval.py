"""Benchmark E20 — sound evaluation of full relational algebra.

The series shows that the Reiter-style sound evaluation costs a small
constant factor over naive evaluation (one lower/upper pair per node plus
unification checks) while the exact intersection-based answer needs world
enumeration; the report records that it never produced a false positive
and how much of the exact answer it recovered.

The ``diff2000`` cases time the exact lineage answer and the sound rung on
ROADMAP's ``diffN`` instance (``diff(union(R, S), T)`` under cwa, N = 2000),
where both match rows with nulls through ``MayEqualIndex``; they are
reported, not gated.
"""

import pytest

import repro
from repro.algebra import naive_evaluate, parse_ra
from repro.core import sound_certain_answers
from repro.datamodel import Database, Null, Relation
from repro.workloads import orders_payments, random_database, random_full_ra_query

QUERY = parse_ra("diff(project[o_id](Orders), rename[Paid(o_id)](project[ord](Pay)))")

ORDER_SIZES = [10, 30, 80]

DIFF_QUERY = parse_ra("diff(union(R, S), T)")


def diff_database(n):
    """ROADMAP's ``diffN``: ``R = {(i, i % 7)}``; ``S`` = ``(i, ⊥ᵢ)`` every 10th i,
    else ``(i, (i + 1) % 7)``; ``T = {(i, i % 5)}`` for even i."""
    s_rows = [(i, Null(f"n{i}")) if i % 10 == 0 else (i, (i + 1) % 7) for i in range(n)]
    return Database.from_relations(
        [
            Relation.create("R", [(i, i % 7) for i in range(n)], attributes=("a", "b")),
            Relation.create("S", s_rows, attributes=("a", "b")),
            Relation.create("T", [(i, i % 5) for i in range(0, n, 2)], attributes=("a", "b")),
        ]
    )


def _db(num_orders):
    return orders_payments(
        num_orders=num_orders, num_payments=num_orders // 2, null_fraction=0.3, seed=13
    )


@pytest.mark.parametrize("num_orders", ORDER_SIZES)
def test_naive_evaluation(benchmark, num_orders):
    database = _db(num_orders)
    benchmark.group = f"e20 orders={num_orders}"
    benchmark(naive_evaluate, QUERY, database)


@pytest.mark.parametrize("num_orders", ORDER_SIZES)
def test_sound_evaluation(benchmark, num_orders):
    database = _db(num_orders)
    benchmark.group = f"e20 orders={num_orders}"
    benchmark(sound_certain_answers, QUERY, database)


def test_lineage_certain_diff2000(benchmark):
    query = repro.connect(diff_database(2000), semantics="cwa").query(DIFF_QUERY)
    benchmark.group = "e20 diff2000"
    benchmark(query.certain)


def test_sound_evaluation_diff2000(benchmark):
    database = diff_database(2000)
    benchmark.group = "e20 diff2000"
    benchmark(sound_certain_answers, DIFF_QUERY, database)


@pytest.mark.parametrize("seed", range(3))
def test_sound_evaluation_random_queries(benchmark, seed):
    database = random_database(num_nulls=3, rows_per_relation=8, seed=seed)
    query = random_full_ra_query(database.schema, seed=seed)
    benchmark.group = "e20 random full-RA"
    benchmark(sound_certain_answers, query, database)


def test_report_soundness_and_recall(benchmark, report):
    def build_rows():
        rows = []
        for seed in range(6):
            database = random_database(num_nulls=2, rows_per_relation=3, seed=seed)
            query = random_full_ra_query(database.schema, seed=seed)
            sound = sound_certain_answers(query, database)
            exact = repro.connect(database).query(query).certain(method="enumeration")
            rows.append(
                [
                    seed,
                    len(sound),
                    len(exact),
                    sound.rows <= exact.rows,
                    f"{len(sound)}/{len(exact)}" if len(exact) else "n/a",
                ]
            )
        return rows

    rows = benchmark.pedantic(build_rows, rounds=1, iterations=1)
    report(
        "E20: sound evaluation — no false positives, measured recall",
        ["seed", "|sound|", "|exact|", "sound ⊆ exact?", "recall"],
        rows,
    )
    assert all(row[3] for row in rows)
