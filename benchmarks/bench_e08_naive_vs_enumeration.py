"""Benchmark E8 — naive evaluation vs intersection-of-worlds for UCQs (eq. (4)).

Both methods return the *same* certain answers for positive relational
algebra; the point of the series is the cost gap and where it opens:
naive evaluation is flat in the number of nulls while world enumeration is
exponential in it (crossover at 1–2 nulls already).
"""

import pytest

import repro
from repro.algebra import naive_certain_answers, parse_ra
from repro.workloads import random_database

QUERY = parse_ra("union(project[#0](R0), project[#1](R1))")
JOIN_QUERY = parse_ra("project[#0](select[#1 = #2](product(R0, project[#0](R1))))")

NULL_COUNTS = [1, 2, 3]


def _db(num_nulls, rows=6):
    return random_database(
        num_relations=2, arity=2, rows_per_relation=rows, num_nulls=num_nulls, seed=11
    )


@pytest.mark.parametrize("num_nulls", NULL_COUNTS)
def test_naive_evaluation(benchmark, num_nulls):
    database = _db(num_nulls)
    benchmark.group = f"e08 nulls={num_nulls}"
    benchmark(naive_certain_answers, QUERY, database)


@pytest.mark.parametrize("num_nulls", NULL_COUNTS)
def test_world_enumeration(benchmark, num_nulls):
    database = _db(num_nulls)
    benchmark.group = f"e08 nulls={num_nulls}"
    benchmark(repro.connect(database).query(QUERY).certain, method="enumeration")


@pytest.mark.parametrize("num_nulls", NULL_COUNTS[:2])
def test_naive_evaluation_join_query(benchmark, num_nulls):
    database = _db(num_nulls)
    benchmark.group = f"e08 join nulls={num_nulls}"
    benchmark(naive_certain_answers, JOIN_QUERY, database)


@pytest.mark.parametrize("num_nulls", NULL_COUNTS[:2])
def test_world_enumeration_join_query(benchmark, num_nulls):
    database = _db(num_nulls)
    benchmark.group = f"e08 join nulls={num_nulls}"
    benchmark(repro.connect(database).query(JOIN_QUERY).certain, method="enumeration")


def test_report_table(benchmark, report):
    def build_rows():
        rows = []
        for num_nulls in NULL_COUNTS:
            database = _db(num_nulls)
            naive = naive_certain_answers(QUERY, database)
            exact = repro.connect(database).query(QUERY).certain(method="enumeration")
            rows.append(
                [num_nulls, database.size(), len(naive), len(exact), naive.rows == exact.rows]
            )
        return rows

    rows = benchmark.pedantic(build_rows, rounds=1, iterations=1)
    report(
        "E8: UCQ certain answers — naive evaluation agrees with enumeration",
        ["nulls", "db facts", "|naive answer|", "|exact answer|", "equal?"],
        rows,
    )
    assert all(row[4] for row in rows)
