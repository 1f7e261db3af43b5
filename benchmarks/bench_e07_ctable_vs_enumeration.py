"""Benchmark E7 — c-table algebra vs explicit possible-world enumeration.

Regenerates the Section 2 strong-representation discussion as a cost series:
building the answer *conditional table* for ``R − S`` stays polynomial in
the data, while materialising ``Q([[D]]_cwa)`` by enumerating valuations
grows with (domain size)^(number of nulls).

Also measures the planned c-table path (hash-consed condition kernel +
physical operators, ``engine="plan"``) against the seed interpreter on a
dense join — the workload whose per-row-pair condition construction the
kernel exists to amortize.  ``run_all.py --quick --check`` gates the same
workload at >= 3x.
"""

import random

import pytest

import repro
from repro.algebra import CTableDatabase, ctable_evaluate, parse_ra
from repro.datamodel import Database, Null, Relation
from repro.semantics import answer_space, default_domain

QUERY = parse_ra("diff(R, S)")

CASES = [(4, 1), (6, 2), (8, 3)]  # (|R|, number of nulls in S)

DENSE_QUERY = parse_ra("project[a, c](join(R, S))")
DENSE_CASES = [(40, 6, 0.15), (60, 8, 0.2)]  # (rows per side, join values, null fraction)


def _db(r_size, s_nulls):
    return Database.from_relations(
        [
            Relation.create("R", [(i,) for i in range(r_size)], attributes=("A",)),
            Relation.create("S", [(Null(f"s{i}"),) for i in range(s_nulls)], attributes=("A",)),
        ]
    )


def _dense_ctdb(n, vals, null_fraction, seed=7):
    rng = random.Random(seed)
    rows_r = [
        (f"a{i}", Null(f"x{i % 6}") if rng.random() < null_fraction else rng.randrange(vals))
        for i in range(n)
    ]
    rows_s = [
        (Null(f"y{i % 6}") if rng.random() < null_fraction else rng.randrange(vals), f"c{i}")
        for i in range(n)
    ]
    return CTableDatabase.from_database(
        Database.from_relations(
            [
                Relation.create("R", rows_r, attributes=("a", "b")),
                Relation.create("S", rows_s, attributes=("b", "c")),
            ]
        )
    )


@pytest.mark.parametrize("r_size,s_nulls", CASES)
def test_ctable_algebra(benchmark, r_size, s_nulls):
    database = _db(r_size, s_nulls)
    ctdb = CTableDatabase.from_database(database)
    benchmark.group = f"e07 |R|={r_size} nulls={s_nulls}"
    result = benchmark(repro.connect().evaluate_ctable, QUERY, ctdb)
    assert len(result) == r_size  # one conditional row per R tuple


@pytest.mark.parametrize("r_size,s_nulls", CASES[:2])
def test_world_enumeration(benchmark, r_size, s_nulls):
    database = _db(r_size, s_nulls)
    domain = default_domain(database)
    benchmark.group = f"e07 |R|={r_size} nulls={s_nulls}"
    benchmark(answer_space, QUERY.evaluate, database, "cwa", domain)


@pytest.mark.parametrize("engine", ["plan", "interpreter"])
@pytest.mark.parametrize("n,vals,null_fraction", DENSE_CASES)
def test_ctable_dense_join(benchmark, engine, n, vals, null_fraction):
    ctdb = _dense_ctdb(n, vals, null_fraction)
    benchmark.group = f"e07 dense join n={n} vals={vals} nulls={null_fraction}"
    result = benchmark(repro.connect(engine=engine).evaluate_ctable, DENSE_QUERY, ctdb)
    assert len(result) > n  # dense: strictly more join pairs than rows per side


def test_dense_join_engines_agree():
    """Both engines represent the same worlds on a small dense instance."""
    ctdb = CTableDatabase.from_database(
        Database.from_relations(
            [
                Relation.create(
                    "R", [("a0", 0), ("a1", 1), ("a2", Null("x")), ("a3", 0)], attributes=("a", "b")
                ),
                Relation.create(
                    "S", [(0, "c0"), (1, "c1"), (Null("y"), "c2"), (0, "c3")], attributes=("b", "c")
                ),
            ]
        )
    )
    planned = repro.connect().evaluate_ctable(DENSE_QUERY, ctdb)
    interpreted = ctable_evaluate(DENSE_QUERY, ctdb)
    domain = [0, 1, "w0", "w1"]
    assert planned.possible_worlds(domain) == interpreted.possible_worlds(domain)


def test_report_table(benchmark, report):
    def build_rows():
        rows = []
        for r_size, s_nulls in CASES:
            database = _db(r_size, s_nulls)
            domain = default_domain(database)
            ctable = ctable_evaluate(QUERY, CTableDatabase.from_database(database))
            worlds = len(domain) ** s_nulls
            rows.append([r_size, s_nulls, len(domain), len(ctable), worlds])
        return rows

    rows = benchmark.pedantic(build_rows, rounds=1, iterations=1)
    report(
        "E7: representing Q([[D]]_cwa) — c-table rows vs worlds to enumerate",
        ["|R|", "nulls in S", "domain size", "c-table rows", "worlds (domain^nulls)"],
        rows,
    )
    # the representation stays linear while the enumeration explodes
    assert rows[-1][3] == CASES[-1][0]
    assert rows[-1][4] > rows[-1][3] ** 2
