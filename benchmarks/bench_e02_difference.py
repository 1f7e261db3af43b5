"""Benchmark E2 — the R − S / NOT IN anti-join as |R| grows.

Regenerates the Section 1 observation as a cost/correctness series: SQL's
``NOT IN`` anti-join cost grows with |R| while its answer stays (wrongly)
empty as soon as S contains a null; the certain Boolean answer "R − S is
non-empty" is true whenever |R| > |S| and costs a world enumeration whose
size depends on the number of nulls, not on |R|.
"""

import pytest

from repro.algebra import parse_ra
from repro.datamodel import Database, Null, Relation
from repro.semantics import enumerate_certain_boolean
from repro.sqlnulls import execute_sql, parse_sql

SQL_QUERY = parse_sql("SELECT R.A FROM R WHERE R.A NOT IN (SELECT S.A FROM S)")
RA_QUERY = parse_ra("diff(R, S)")

R_SIZES = [10, 50, 200]


def _db(r_size, s_nulls=1):
    return Database.from_relations(
        [
            Relation.create("R", [(i,) for i in range(r_size)], attributes=("A",)),
            Relation.create("S", [(Null(f"s{i}"),) for i in range(s_nulls)], attributes=("A",)),
        ]
    )


@pytest.mark.parametrize("r_size", R_SIZES)
def test_sql_not_in_antijoin(benchmark, r_size):
    database = _db(r_size)
    benchmark.group = f"e02 |R|={r_size}"
    result = benchmark(execute_sql, database, SQL_QUERY)
    assert result == []  # the wrong-but-fast answer


@pytest.mark.parametrize("r_size", R_SIZES)
def test_naive_ra_difference(benchmark, r_size):
    database = _db(r_size)
    benchmark.group = f"e02 |R|={r_size}"
    benchmark(RA_QUERY.evaluate, database)


@pytest.mark.parametrize("r_size", R_SIZES)
def test_certain_nonemptiness_by_enumeration(benchmark, r_size):
    database = _db(r_size)
    benchmark.group = f"e02 |R|={r_size}"
    result = benchmark(
        enumerate_certain_boolean,
        lambda world: bool(RA_QUERY.evaluate(world)),
        database,
        "cwa",
    )
    assert result is True  # |R| > |S| forces a non-empty difference


def test_report_table(benchmark, report):
    def build_rows():
        rows = []
        for r_size in R_SIZES:
            database = _db(r_size)
            sql_rows = execute_sql(database, SQL_QUERY)
            nonempty_certain = enumerate_certain_boolean(
                lambda world: bool(RA_QUERY.evaluate(world)), database, semantics="cwa"
            )
            rows.append([r_size, 1, len(sql_rows), nonempty_certain])
        return rows

    rows = benchmark.pedantic(build_rows, rounds=1, iterations=1)
    report(
        "E2: R − S with a null in S — SQL answer size vs certain non-emptiness",
        ["|R|", "|S| (all null)", "SQL rows returned", "R−S nonempty certain?"],
        rows,
    )
    assert all(row[2] == 0 and row[3] for row in rows)
