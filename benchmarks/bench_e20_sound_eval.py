"""Benchmark E20 — sound evaluation of full relational algebra.

The series shows that the Reiter-style sound evaluation costs a small
constant factor over naive evaluation (one lower/upper pair per node plus
unification checks) while the exact intersection-based answer needs world
enumeration; the report records that it never produced a false positive
and how much of the exact answer it recovered.
"""

import pytest

import repro
from repro.algebra import naive_evaluate, parse_ra
from repro.core import sound_certain_answers
from repro.workloads import orders_payments, random_database, random_full_ra_query

QUERY = parse_ra("diff(project[o_id](Orders), rename[Paid(o_id)](project[ord](Pay)))")

ORDER_SIZES = [10, 30, 80]


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
