"""Every data model enumerates possible worlds through the same loop.

Graphs, trees, c-tables and constraints fold over their worlds with the
folds of :mod:`repro.semantics.certain`, so they share its behaviour:

* with no world at all (an empty valuation domain) the certain answers
  are empty, never the naive answer with its nulls, and a Boolean query
  is not certain;
* an armed budget caps the worlds and ``Session.cancel()`` stops the
  enumeration;
* only :mod:`repro.semantics.worlds` enumerates valuations itself.
"""

import ast
from pathlib import Path

import pytest

import repro
from repro import Budget, BudgetExceeded, QueryCancelled
from repro.algebra import parse_ra
from repro.constraints import InclusionDependency
from repro.datamodel import ConditionalTable, Database, Eq, Null, Relation, TRUE
from repro.graphs import (
    ConjunctiveRPQ,
    EdgeAtom,
    GraphPattern,
    IncompleteGraph,
    PathAtom,
    certain_answers_crpq,
    certain_answers_pattern,
    certain_answers_rpq,
    parse_rpq,
)
from repro.logic import FOQuery, atom, exists, var
from repro.resilience import budget_scope
from repro.semantics import answer_space, enumerate_certain_boolean
from repro.trees import DataTree, PatternNode, TreePattern, certain_answers_tree_pattern

X, Y = var("x"), var("y")

#: ``a -r-> ⊥``: the only naive answer mentions the null.
NULL_GRAPH = IncompleteGraph(edges=[("a", "r", Null("x"))])
NULL_TREE = DataTree("r", children=[DataTree("v", value=Null("x"))])
TREE_VALUES = TreePattern(PatternNode("r", children=[("child", PatternNode("v", value=Y))]), output=(Y,))

EMPTY_DOMAIN_CASES = {
    "rpq": (certain_answers_rpq, parse_rpq("r"), NULL_GRAPH),
    "crpq": (certain_answers_crpq, ConjunctiveRPQ([PathAtom(X, "r", Y)], output=(X, Y)), NULL_GRAPH),
    "pattern": (certain_answers_pattern, GraphPattern([EdgeAtom(X, "r", Y)], output=(X, Y)), NULL_GRAPH),
    "tree": (certain_answers_tree_pattern, TREE_VALUES, NULL_TREE),
}


@pytest.mark.parametrize("case", sorted(EMPTY_DOMAIN_CASES))
def test_empty_domain_has_no_certain_answer(case):
    certain_answers, query, source = EMPTY_DOMAIN_CASES[case]
    naive = query.evaluate(source)
    assert naive.rows, "the naive answer must be non-empty for the check to bite"
    answer = certain_answers(query, source, domain=[])
    assert answer == Relation(naive.schema, ())


def test_empty_domain_boolean_is_not_certain():
    """With no world, a Boolean query is false, as certain() has no row."""
    exists_r = FOQuery(exists(X, atom("R", X)))
    database = Database.from_dict({"R": [(Null("x"),)]})
    with repro.connect(database) as session:
        query = session.query(exists_r)
        assert query.boolean() is True, "with worlds the query must hold for the check to bite"
        assert query.certain(method="enumeration", domain=[]).rows == frozenset()
        assert query.boolean(domain=[]) is False
        assert query.boolean(mode="possible", domain=[]) is False
    assert enumerate_certain_boolean(lambda world: True, database, "cwa", domain=[]) is False


def _ctable():
    null = Null("b")
    return ConditionalTable.create("C", [((1,), TRUE), ((0,), Eq(null, 0))])


def _dangling_orders():
    # One reference can never resolve, so no world satisfies the IND and
    # every world is visited.
    return Database.from_dict(
        {"Orders": [("o1",), ("o2",)], "Pay": [(Null("o"),), ("o9",)]}
    )


#: Each call has a non-empty running answer in every world, so it visits
#: at least three worlds unless stopped.
ENUMERATIONS = {
    "rpq": lambda: certain_answers_rpq(
        parse_rpq("r"), IncompleteGraph(edges=[("a", "r", "b"), ("a", "r", Null("x"))])
    ),
    "tree": lambda: certain_answers_tree_pattern(
        TREE_VALUES,
        DataTree("r", children=[DataTree("v", value=1), DataTree("v", value=Null("x"))]),
    ),
    "answer_space": lambda: answer_space(
        parse_ra("R").evaluate, Database.from_dict({"R": [(1,), (Null("x"),)]})
    ),
    "ctable": lambda: _ctable().certain_rows(domain=[0, 1, 2]),
    "inclusion": lambda: InclusionDependency("Pay", ("#0",), "Orders", ("#0",)).satisfied_possibly(
        _dangling_orders()
    ),
}


@pytest.mark.parametrize("name", sorted(ENUMERATIONS))
def test_max_worlds_caps_every_enumeration(name):
    with budget_scope(Budget(max_worlds=2).start()):
        with pytest.raises(BudgetExceeded) as caught:
            ENUMERATIONS[name]()
    assert caught.value.resource == "worlds"


@pytest.mark.parametrize("name", sorted(ENUMERATIONS))
def test_cancel_stops_every_enumeration(name):
    state = Budget().start()
    state.cancel()
    with budget_scope(state):
        with pytest.raises(QueryCancelled):
            ENUMERATIONS[name]()


#: Where ``enumerate_valuations`` may be imported: its definition, the
#: package re-export, and the one module that turns valuations into worlds.
VALUATION_ENUMERATORS = {
    "datamodel/__init__.py",
    "datamodel/valuation.py",
    "semantics/worlds.py",
}


def test_only_semantics_enumerates_valuations():
    root = Path(repro.__file__).parent
    importers = set()
    for path in root.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = {alias.name.rsplit(".", 1)[-1] for alias in node.names}
            elif isinstance(node, ast.Attribute):
                names = {node.attr}
            else:
                continue
            if "enumerate_valuations" in names:
                importers.add(path.relative_to(root).as_posix())
    assert "semantics/worlds.py" in importers
    assert importers <= VALUATION_ENUMERATORS, sorted(importers - VALUATION_ENUMERATORS)
