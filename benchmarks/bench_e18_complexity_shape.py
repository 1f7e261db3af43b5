"""Benchmark E18 — the headline complexity picture of Section 2.

Two sweeps:

* over the number of nulls (fixed database size): naive evaluation of a
  positive query stays flat, intersection-of-worlds grows exponentially —
  the operational face of AC⁰ vs coNP-complete;
* over the database size (fixed nulls): both grow polynomially, so the
  exponential separation is genuinely in the number of nulls.

An ablation is included: the same positive query evaluated through the
natural-join (hash) path vs an equivalent product+selection plan, to show
the engine-level design choice called out in DESIGN.md.
"""

import pytest

import repro
from repro.algebra import naive_certain_answers, parse_ra
from repro.semantics import count_cwa_worlds, default_domain
from repro.workloads import random_database

POSITIVE_QUERY = parse_ra("project[#0](select[#1 = #2](product(R0, project[#0](R1))))")
JOIN_PLAN = parse_ra(
    "project[a](join(rename[A(a, b)](R0), rename[B(b, c)](R1)))"
)
FULL_RA_QUERY = parse_ra("diff(project[#0](R0), project[#0](R1))")

NULL_SWEEP = [0, 1, 2, 3]
SIZE_SWEEP = [5, 15, 40]


def _db(num_nulls, rows=6):
    return random_database(
        num_relations=2, arity=2, rows_per_relation=rows, num_nulls=num_nulls, seed=21
    )


class TestNullSweep:
    @pytest.mark.parametrize("num_nulls", NULL_SWEEP)
    def test_naive_positive_query(self, benchmark, num_nulls):
        database = _db(num_nulls)
        benchmark.group = f"e18 nulls={num_nulls}"
        benchmark(naive_certain_answers, POSITIVE_QUERY, database)

    @pytest.mark.parametrize("num_nulls", NULL_SWEEP[:3])
    def test_enumeration_positive_query(self, benchmark, num_nulls):
        database = _db(num_nulls)
        benchmark.group = f"e18 nulls={num_nulls}"
        benchmark(repro.connect(database).query(POSITIVE_QUERY).certain, method="enumeration")

    @pytest.mark.parametrize("num_nulls", NULL_SWEEP[:3])
    def test_enumeration_full_ra_query(self, benchmark, num_nulls):
        database = _db(num_nulls)
        benchmark.group = f"e18 nulls={num_nulls}"
        benchmark(repro.connect(database).query(FULL_RA_QUERY).certain, method="enumeration")


class TestSizeSweep:
    @pytest.mark.parametrize("rows", SIZE_SWEEP)
    def test_naive_positive_query(self, benchmark, rows):
        database = _db(2, rows=rows)
        benchmark.group = f"e18 rows={rows}"
        benchmark(naive_certain_answers, POSITIVE_QUERY, database)

    @pytest.mark.parametrize("rows", SIZE_SWEEP[:2])
    def test_enumeration_positive_query(self, benchmark, rows):
        database = _db(2, rows=rows)
        benchmark.group = f"e18 rows={rows}"
        benchmark(repro.connect(database).query(POSITIVE_QUERY).certain, method="enumeration")


class TestJoinPlanAblation:
    @pytest.mark.parametrize("rows", SIZE_SWEEP)
    def test_hash_join_plan(self, benchmark, rows):
        database = _db(2, rows=rows)
        benchmark.group = f"e18 ablation rows={rows}"
        benchmark(JOIN_PLAN.evaluate, database)

    @pytest.mark.parametrize("rows", SIZE_SWEEP)
    def test_product_selection_plan(self, benchmark, rows):
        database = _db(2, rows=rows)
        benchmark.group = f"e18 ablation rows={rows}"
        benchmark(POSITIVE_QUERY.evaluate, database)


def test_report_table(benchmark, report):
    def build_rows():
        rows = []
        for num_nulls in NULL_SWEEP:
            database = _db(num_nulls)
            domain = default_domain(database)
            rows.append(
                [
                    num_nulls,
                    database.size(),
                    len(domain),
                    count_cwa_worlds(database, domain),
                    len(naive_certain_answers(POSITIVE_QUERY, database)),
                ]
            )
        return rows

    rows = benchmark.pedantic(build_rows, rounds=1, iterations=1)
    report(
        "E18: worlds to enumerate vs naive evaluation (work grows only with nulls)",
        ["nulls", "facts", "domain", "worlds (domain^nulls)", "|naive answer|"],
        rows,
    )
    worlds = [row[3] for row in rows]
    assert all(earlier <= later for earlier, later in zip(worlds, worlds[1:]))
