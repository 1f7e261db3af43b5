"""Benchmark E1 — SQL 3VL evaluation vs naive evaluation vs world enumeration.

Regenerates the cost/correctness picture behind the Section 1 unpaid-orders
example: SQL-style evaluation and naive evaluation both run in time
polynomial in the data, while the intersection-based certain answers
(possible-world enumeration) blow up with the number of nulls — and SQL's
cheap answer is simply wrong.
"""

import pytest

import repro
from repro.algebra import parse_ra
from repro.core import sound_certain_answers
from repro.sqlnulls import execute_sql, parse_sql
from repro.workloads import orders_payments

SQL_QUERY = parse_sql("SELECT o_id FROM Orders WHERE o_id NOT IN (SELECT ord FROM Pay)")
RA_QUERY = parse_ra("diff(project[o_id](Orders), rename[Paid(o_id)](project[ord](Pay)))")

SIZES = [(10, 4), (20, 6), (40, 8)]


def _db(num_orders, num_payments):
    return orders_payments(
        num_orders=num_orders, num_payments=num_payments, null_fraction=0.4, seed=7
    )


@pytest.mark.parametrize("num_orders,num_payments", SIZES)
def test_sql_3vl_evaluation(benchmark, num_orders, num_payments):
    database = _db(num_orders, num_payments)
    benchmark.group = f"e01 orders={num_orders}"
    benchmark(execute_sql, database, SQL_QUERY)


@pytest.mark.parametrize("num_orders,num_payments", SIZES)
def test_sql_3vl_sqlite_backend(benchmark, num_orders, num_payments):
    # The same criticized query on a real SQL engine (repro.backends):
    # must lose exactly the answers the Python 3VL evaluator loses.
    from repro.datamodel.values import is_null

    database = _db(num_orders, num_payments)
    benchmark.group = f"e01 orders={num_orders}"
    session = repro.connect(database, engine="sqlite")
    sqlite_rows = benchmark(session.sql, SQL_QUERY)
    python_rows = execute_sql(database, SQL_QUERY)

    def normalized(rows):
        return sorted(tuple("NULL" if is_null(v) else v for v in row) for row in rows)

    assert normalized(sqlite_rows) == normalized(python_rows)


@pytest.mark.parametrize("num_orders,num_payments", SIZES)
def test_naive_ra_evaluation(benchmark, num_orders, num_payments):
    database = _db(num_orders, num_payments)
    benchmark.group = f"e01 orders={num_orders}"
    benchmark(RA_QUERY.evaluate, database)


@pytest.mark.parametrize("num_orders,num_payments", SIZES)
def test_sound_evaluation(benchmark, num_orders, num_payments):
    database = _db(num_orders, num_payments)
    benchmark.group = f"e01 orders={num_orders}"
    benchmark(sound_certain_answers, RA_QUERY, database)


@pytest.mark.parametrize("num_orders,num_payments", SIZES[:1])
def test_certain_answers_by_enumeration(benchmark, num_orders, num_payments):
    database = _db(num_orders, num_payments)
    benchmark.group = f"e01 orders={num_orders}"
    benchmark(repro.connect(database).query(RA_QUERY).certain, method="enumeration")


def test_report_correctness_table(benchmark, report):
    def build_rows():
        rows = []
        for num_orders, num_payments in SIZES:
            database = _db(num_orders, num_payments)
            sql_rows = execute_sql(database, SQL_QUERY)
            naive_rows = RA_QUERY.evaluate(database)
            sound = sound_certain_answers(RA_QUERY, database)
            if len(database.nulls()) <= 2:
                certain = str(
                    len(repro.connect(database).query(RA_QUERY).certain(method="enumeration"))
                )
            else:
                certain = "(skipped: too many worlds)"
            rows.append(
                [
                    num_orders,
                    num_payments,
                    len(database.nulls()),
                    len(sql_rows),
                    len(naive_rows),
                    len(sound),
                    certain,
                ]
            )
        return rows

    rows = benchmark.pedantic(build_rows, rounds=1, iterations=1)
    report(
        "E1: unpaid orders — answer sizes per method (SQL loses answers)",
        ["orders", "payments", "nulls", "SQL 3VL", "naive", "sound", "certain (exact)"],
        rows,
    )
    assert rows
