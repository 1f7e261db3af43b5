"""Differential tests: the SQLite backend must agree with both engines.

``engine="sqlite"`` compiles the planner's logical plans to SQL over
sentinel-encoded values; the in-memory physical engine and the seed
interpreter are the oracles.  All three must produce identical relations
— same schema, same rows, nulls included — on every query/database pair,
or raise the same class of error.  Over 200 randomized pairs are checked
per run, spanning the positive fragment, full RA with difference, and
RA_cwa division queries, plus null-heavy instances where naive equality
of marked nulls is the whole game.
"""

import pytest

import repro
from repro.algebra.ast import (
    ActiveDomain,
    ConstantRelation,
    Delta,
    Division,
    difference,
    intersection,
    join,
    product,
    project,
    relation,
    rename,
    select,
    union,
)
from repro.algebra.predicates import Attr, Comparison, PAnd, PNot, POr, eq
from repro.datamodel import Database, Null, Relation
from repro.workloads import (
    enrolment,
    orders_payments,
    random_database,
    random_full_ra_query,
    random_positive_query,
    random_ra_cwa_query,
)

POSITIVE_SEEDS = list(range(60))
FULL_RA_SEEDS = list(range(40))
DIVISION_SEEDS = list(range(50))
NULL_HEAVY_SEEDS = list(range(30))


def _three_ways(query, database):
    """Evaluate with all engines, mapping exceptions to comparable markers."""
    results = []
    for engine in ("sqlite", "plan", "interpreter"):
        try:
            results.append(repro.connect(database, engine=engine).query(query).answer_object())
        except Exception as error:  # noqa: BLE001 - parity check on error class
            results.append(("error", type(error).__name__))
    sqlite_result, plan_result, interpreter_result = results
    assert sqlite_result == plan_result == interpreter_result, (
        f"engine mismatch for {query}:\n sqlite: {sqlite_result}\n"
        f" plan: {plan_result}\n intp: {interpreter_result}"
    )


@pytest.mark.parametrize("seed", POSITIVE_SEEDS)
def test_positive_queries_agree(seed):
    database = random_database(
        num_relations=3, arity=2, rows_per_relation=6, num_constants=4, num_nulls=2, seed=seed
    )
    _three_ways(random_positive_query(database.schema, depth=3, seed=seed), database)


@pytest.mark.parametrize("seed", FULL_RA_SEEDS)
def test_full_ra_queries_agree(seed):
    database = random_database(
        num_relations=3, arity=2, rows_per_relation=6, num_constants=4, num_nulls=2, seed=seed
    )
    _three_ways(random_full_ra_query(database.schema, seed=seed), database)


@pytest.mark.parametrize("seed", DIVISION_SEEDS)
def test_ra_cwa_division_queries_agree(seed):
    database = random_database(
        num_relations=2, arity=3, rows_per_relation=8, num_constants=3, num_nulls=2, seed=seed
    )
    _three_ways(random_ra_cwa_query(database.schema, "R0", "R1", seed=seed), database)


@pytest.mark.parametrize("seed", NULL_HEAVY_SEEDS)
def test_null_heavy_databases_agree(seed):
    # Many repeated nulls relative to the number of positions: the sentinel
    # encoding must make SQL treat each marked null as equal only to itself.
    database = random_database(
        num_relations=2, arity=2, rows_per_relation=8, num_constants=2, num_nulls=4, seed=seed
    )
    _three_ways(random_positive_query(database.schema, depth=3, seed=seed + 1), database)
    _three_ways(random_full_ra_query(database.schema, seed=seed + 1), database)


def test_scenario_queries_agree():
    orders = orders_payments(num_orders=25, num_payments=10, null_fraction=0.5, seed=3)
    unpaid = difference(
        project(relation("Orders"), ("o_id",)),
        rename(project(relation("Pay"), ("ord",)), "Paid", ("o_id",)),
    )
    _three_ways(unpaid, orders)

    school = enrolment(num_students=6, num_courses=3, null_fraction=0.3, seed=3)
    takes_all = Division(relation("Enroll"), relation("Courses"))
    _three_ways(takes_all, school)


def test_handcrafted_edge_cases_agree():
    database = Database.from_relations(
        [
            Relation.create("R", [(1, 2), (2, 3), (3, 3), (Null("x"), 2), (Null("x"), Null("y"))]),
            Relation.create("S", [(2, "a"), (3, "b"), (Null("y"), "c")]),
            Relation.create("T", [(2,), (5,)]),
            Relation.create("Empty", [], arity=2),
        ]
    )
    cases = [
        Delta(),
        ActiveDomain(),
        join(rename(relation("R"), "A", ("x", "y")), rename(relation("S"), "B", ("y", "z"))),
        join(
            join(rename(relation("R"), "A", ("x", "y")), rename(relation("S"), "B", ("y", "z"))),
            rename(relation("T"), "C", ("y",)),
        ),
        union(relation("R"), relation("Empty")),
        difference(relation("Empty"), relation("R")),
        intersection(project(relation("R"), (1,)), relation("T")),
        select(relation("R"), POr((eq(Attr(0), 1), PNot(eq(Attr(1), 2))))),
        select(
            product(relation("R"), product(relation("S"), relation("T"))),
            PAnd((Comparison(Attr(1), "=", Attr(2)), Comparison(Attr(3), "=", Attr(4)))),
        ),
        ConstantRelation(Relation.create("C", [(2,), (7,)])).product(relation("T")),
        ConstantRelation(Relation.create("C", [(Null("x"),), (7,)])).product(relation("T")),
        project(relation("R"), (1, 1, 0)),  # duplicated column
        Division(relation("R"), project(relation("T"), (0,))),
        select(product(relation("R"), relation("Empty")), Comparison(Attr(1), "=", Attr(2))),
        select(relation("R"), Comparison(Attr(0), "!=", Attr(1))),  # ≠ on nulls
    ]
    for query in cases:
        _three_ways(query, database)


def test_adversarial_constants_do_not_collide_with_sentinels():
    # Constants crafted to look like null sentinels must stay distinct
    # from the actual marked nulls through the SQL round trip.
    database = Database.from_relations(
        [
            Relation.create("R", [("nx", 1), (Null("x"), 1), ("i1", 2), (1, 2)]),
            Relation.create("S", [(Null("x"),), ("nx",), (1,), ("i1",)]),
        ]
    )
    cases = [
        join(rename(relation("R"), "A", ("a", "b")), rename(relation("S"), "B", ("a",))),
        difference(project(relation("R"), (0,)), relation("S")),
        intersection(project(relation("R"), (0,)), relation("S")),
    ]
    for query in cases:
        _three_ways(query, database)


def test_pair_budget_is_at_least_200():
    assert (
        len(POSITIVE_SEEDS)
        + len(FULL_RA_SEEDS)
        + len(DIVISION_SEEDS)
        + 2 * len(NULL_HEAVY_SEEDS)
        >= 200
    )
