"""Compound operands are emitted without a redundant ``DISTINCT``.

``UNION``/``EXCEPT``/``INTERSECT`` return distinct rows whatever their
operands hold, so a projection feeding one is compiled in its bag form:
SQLite then flattens it instead of running it as a deduplicating
co-routine.  A projection anywhere else keeps ``SELECT DISTINCT``.
"""

import re

import pytest

import repro
from repro.algebra import parse_ra
from repro.backends import compile_logical_plan
from repro.backends.encoding import SentinelCodec
from repro.datamodel import Database, Null
from repro.engine import optimize

#: A compound operand: the head of either arm, then ``FROM (`` and the
#: operand's own SQL.
_OPERAND = re.compile(r"(?:^|UNION |EXCEPT |INTERSECT )SELECT [\w., ]+ FROM \((SELECT(?: DISTINCT)?) ")


@pytest.fixture
def db():
    return Database.from_dict(
        {
            "R": [(1, 2), (2, 3), (3, 3), (Null("x"), 2), (Null("x"), Null("y"))],
            "S": [(2, "a"), (3, "b"), (Null("y"), "c"), (2, "d")],
        }
    )


def _sql(query, database):
    plan = optimize(parse_ra(query), database.schema)
    return compile_logical_plan(plan, database, SentinelCodec()).query


@pytest.mark.parametrize("op, keyword", [("diff", "EXCEPT"), ("union", "UNION"), ("intersect", "INTERSECT")])
def test_projection_operands_lose_their_distinct(db, op, keyword):
    sql = _sql(f"{op}(project[#1](R), project[#0](S))", db)
    heads = _OPERAND.findall(sql)
    assert f" {keyword} " in sql
    assert heads == ["SELECT", "SELECT"], sql
    assert "DISTINCT" not in sql


def test_a_root_projection_over_a_compound_keeps_its_distinct(db):
    sql = _sql("project[#0](diff(R, rename[R2(a, b)](project[#0, #0](S))))", db)
    assert sql.startswith("SELECT DISTINCT ")
    assert sql.count("DISTINCT") == 1
    assert _OPERAND.findall(sql) == ["SELECT", "SELECT"], sql


def test_a_projection_under_a_join_keeps_its_distinct(db):
    # A join keeps duplicates, so its inputs must be sets.
    sql = _sql("product(project[#0](R), project[#1](S))", db)
    assert sql.count("(SELECT DISTINCT ") == 2, sql


@pytest.mark.parametrize(
    "query",
    [
        "diff(project[#1](R), project[#0](S))",
        "union(project[#1](R), project[#0](S))",
        "intersect(project[#1](R), project[#0](S))",
        "project[#0](union(project[#0, #1](R), project[#1, #0](R)))",
        "diff(project[#0](R), intersect(project[#0](S), project[#1](R)))",
        "divide(R, project[#0](S))",
    ],
)
def test_answers_are_unchanged(db, query):
    expression = parse_ra(query)
    expected = repro.connect(db, engine="interpreter").query(expression).answer_object()
    session = repro.connect(db, engine="sqlite")
    assert session.query(expression).answer_object() == expected
    assert sorted(session.query(expression).cursor(), key=repr) == sorted(expected.rows, key=repr)
    session.close()
