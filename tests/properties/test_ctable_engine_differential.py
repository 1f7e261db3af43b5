"""Differential tests: the planned c-table path vs the interpreter oracle.

The planned path (``engine="plan"``, :mod:`repro.engine.ctable`) may
produce a syntactically different c-table than the tree-walking algebra
(``engine="interpreter"``) — different row order, kernel-shaped
conditions — but both must represent exactly the same set of possible
worlds over any finite domain, in the style of
``tests/properties/test_engine_differential.py``.
"""

import random

import pytest

import repro
from repro.algebra import CTableDatabase, ctable_evaluate, parse_ra
from repro.algebra.predicates import Attr, Comparison, Const, PAnd
from repro.algebra.ast import Selection, relation
from repro.datamodel import (
    TRUE,
    ConditionKernel,
    ConditionalTable,
    Database,
    Eq,
    Not,
    Null,
    Or,
    Relation,
)
from repro.engine.ctable import CFilter, CIndexedSelect, CScan, CTableContext, _indexed_equality
from repro.semantics import default_domain
from repro.workloads import (
    random_database,
    random_full_ra_query,
    random_positive_query,
    random_ra_cwa_query,
)

POSITIVE_SEEDS = list(range(40))
INDEXED_SEEDS = list(range(60))
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


def _random_ctable(rng):
    """A two-column c-table over colliding constants (1, 1.0, True), nulls and
    conditions that fold to true, to false, or stay symbolic."""
    nulls = [Null(f"n{i}") for i in range(3)]
    values = [1, 1.0, True, 2, "a", "b"] + nulls

    def condition():
        kind = rng.randrange(4)
        if kind == 0:
            return TRUE
        atom = Eq(rng.choice(values), rng.choice(values))
        return Not(atom) if kind == 3 else atom

    rows = [
        ((rng.choice(values), rng.choice(values)), condition())
        for _ in range(rng.randrange(10))
    ]
    return ConditionalTable.create("R", rows, attributes=("a", "b")), nulls, values


@pytest.mark.parametrize("seed", INDEXED_SEEDS)
def test_indexed_selection_is_the_scan_path(seed):
    """``σ[#i = c]`` over a base c-table through the position index yields the
    scan path's rows — same values, same interned conditions, same order —
    and the same ``pruned`` count, with and without supports."""
    rng = random.Random(seed)
    table, nulls, values = _random_ctable(rng)
    ctdb = CTableDatabase([table])
    column = rng.randrange(2)
    constant = rng.choice([1, 1.0, True, 2, "a", "zz"])
    equality = Comparison(Attr(column), "=", constant)
    predicates = [
        equality,
        Comparison(Const(constant), "=", Attr(column)),
        PAnd((equality, Comparison(Attr(1 - column), "!=", rng.choice(values)))),
    ]
    supports = {null: frozenset(rng.sample([1, 2, "a", "b"], 2)) for null in nulls}
    for predicate in predicates:
        assert _indexed_equality(predicate) == (column, constant)
        for model_supports in (None, supports):
            kernel = ConditionKernel()
            scan = CTableContext(ctdb, ctdb.schema, kernel, model_supports)
            scanned = CFilter(CScan("R"), predicate).rows(scan)
            index = CTableContext(ctdb, ctdb.schema, kernel, model_supports)
            indexed = CIndexedSelect("R", predicate, column, constant).rows(index)
            assert [(v, id(c)) for v, c in indexed] == [(v, id(c)) for v, c in scanned]
            assert index.pruned == scan.pruned


def test_null_and_order_selections_are_not_indexed():
    assert _indexed_equality(Comparison(Attr(0), "=", Null("x"))) is None
    assert _indexed_equality(Comparison(Attr(0), "<", 3)) is None
    assert _indexed_equality(Comparison(Attr(0), "=", Attr(1))) is None
    trailing = PAnd((Comparison(Attr(0), "<", 3), Comparison(Attr(1), "=", 2)))
    assert _indexed_equality(trailing) is None
