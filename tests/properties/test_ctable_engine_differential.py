"""Differential tests: the planned c-table path vs the interpreter oracle.

The planned path (``engine="plan"``, :mod:`repro.engine.ctable`) may
produce a syntactically different c-table than the tree-walking algebra
(``engine="interpreter"``) — different row order, kernel-shaped
conditions — but both must represent exactly the same set of possible
worlds over any finite domain, in the style of
``tests/properties/test_engine_differential.py``.
"""

import pytest

import repro
from repro.algebra import CTableDatabase, ctable_evaluate, parse_ra
from repro.algebra.predicates import Attr, Comparison
from repro.algebra.ast import Selection, relation
from repro.datamodel import ConditionalTable, Database, Eq, Null, Or, Relation
from repro.semantics import default_domain
from repro.workloads import (
    random_database,
    random_full_ra_query,
    random_positive_query,
    random_ra_cwa_query,
)

POSITIVE_SEEDS = list(range(40))
FULL_RA_SEEDS = list(range(30))
DIVISION_SEEDS = list(range(20))


def _both_ways(query, database, domain=None):
    """Evaluate with both engines; their world sets (or error classes) must agree."""
    ctdb = CTableDatabase.from_database(database)
    if domain is None:
        domain = default_domain(database)
    results = []
    for engine in ("plan", "interpreter"):
        try:
            table = repro.connect(engine=engine).evaluate_ctable(query, ctdb)
            results.append(table.possible_worlds(domain))
        except Exception as error:  # noqa: BLE001 - parity check on error class
            results.append(("error", type(error).__name__))
    planned, interpreted = results
    assert planned == interpreted, (
        f"c-table engine mismatch for {query}:\n plan: {planned}\n intp: {interpreted}"
    )


@pytest.mark.parametrize("seed", POSITIVE_SEEDS)
def test_positive_queries_agree(seed):
    database = random_database(
        num_relations=2, arity=2, rows_per_relation=4, num_constants=3, num_nulls=2, seed=seed
    )
    _both_ways(random_positive_query(database.schema, depth=2, seed=seed), database)


@pytest.mark.parametrize("seed", FULL_RA_SEEDS)
def test_full_ra_queries_agree(seed):
    database = random_database(
        num_relations=2, arity=2, rows_per_relation=4, num_constants=3, num_nulls=2, seed=seed
    )
    _both_ways(random_full_ra_query(database.schema, seed=seed), database)


@pytest.mark.parametrize("seed", DIVISION_SEEDS)
def test_division_queries_agree(seed):
    database = random_database(
        num_relations=2, arity=3, rows_per_relation=4, num_constants=3, num_nulls=2, seed=seed
    )
    _both_ways(random_ra_cwa_query(database.schema, "R0", "R1", seed=seed), database)


def test_handcrafted_cases_agree():
    database = Database.from_relations(
        [
            Relation.create("R", [(1, 2), (Null("x"), 2), (Null("x"), Null("y"))]),
            Relation.create("S", [(2, "a"), (Null("y"), "b")]),
            Relation.create("Empty", [], arity=2),
        ]
    )
    cases = [
        parse_ra("delta"),
        parse_ra("adom"),
        parse_ra("union(R, Empty)"),
        parse_ra("diff(Empty, R)"),
        parse_ra("intersect(project[#1](R), project[#0](S))"),
        parse_ra("select[#0 = #1](R)"),
        parse_ra("project[#1, #1, #0](R)"),
        parse_ra("project[#0](select[#1 = #2](product(R, project[#0](S))))"),
        parse_ra("join(rename[A(a, b)](R), rename[B(b, c)](S))"),
    ]
    for query in cases:
        _both_ways(query, database)


def test_order_comparison_error_parity():
    """Order comparisons on nulls raise the same error class on both paths."""
    database = Database.from_relations([Relation.create("R", [(Null("x"), 1)])])
    query = Selection(relation("R"), Comparison(Attr(0), "<", 5))
    _both_ways(query, database)


def test_disjunctive_global_condition_agrees():
    """Inputs with genuine global conditions, not just lifted naive tables."""
    bot = Null("b")
    table = ConditionalTable.create(
        "C",
        [((1,), Eq(bot, 1)), ((0,), Eq(bot, 0))],
        global_condition=Or((Eq(bot, 0), Eq(bot, 1))),
    )
    ctdb = CTableDatabase([table])
    query = parse_ra("select[#0 = 1](C)")
    domain = [0, 1, 2]
    planned = repro.connect().evaluate_ctable(query, ctdb).possible_worlds(domain)
    interpreted = ctable_evaluate(query, ctdb).possible_worlds(domain)
    assert planned == interpreted == {frozenset(), frozenset({(1,)})}


def test_pair_budget_is_at_least_90():
    assert len(POSITIVE_SEEDS) + len(FULL_RA_SEEDS) + len(DIVISION_SEEDS) >= 90
