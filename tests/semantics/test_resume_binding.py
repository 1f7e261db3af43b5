"""Resume tokens are bound where the enumeration mints them.

``core.answers.enumeration_strategy`` stamps the token a budget expiry
raises and refuses a token minted for other inputs.  These tests pin the
library path (``enumeration_strategy``) and the one checkpoint that must not
resume ``certain()``: the 0-ary answers of a Boolean query, whose inputs
fingerprint the same as the query's own.
"""

import pytest

import repro
from repro import Budget, BudgetExceeded, InvalidRequestError, PartialResult
from repro.algebra import parse_ra
from repro.core import enumeration_strategy
from repro.datamodel import Database, Null, Relation
from repro.resilience import ResumeToken, budget_scope
from repro.semantics import enumerate_certain_answers, enumerate_certain_boolean

#: Holds in every world, so neither fold stops before the world cap.
QUERY = parse_ra("project[#0](R)")


def _database(third=3):
    return Database.from_dict({"R": [(1, Null("x")), (Null("y"), 2)], "S": [(1,), (2,), (third,)]})


def _evaluate(query, database):
    return query.evaluate(database)


def _interrupted(call):
    """The error ``call()`` raises under a two-world budget."""
    with budget_scope(Budget(max_worlds=2).start()):
        with pytest.raises(BudgetExceeded) as caught:
            call()
    return caught.value


def test_boolean_expiry_carries_no_token_that_certain_accepts():
    with repro.connect(_database()) as session:
        query = session.query(QUERY)
        expected = query.certain(method="enumeration")
        assert expected.rows == {(1,)}
        with pytest.raises(BudgetExceeded) as caught:
            query.boolean(budget=Budget(max_worlds=2))
        assert caught.value.resume_token is None
        assert query.certain(resume=caught.value.resume_token) == expected


def test_library_boolean_expiry_carries_no_token():
    error = _interrupted(lambda: enumerate_certain_boolean(lambda world: True, _database()))
    assert error.resume_token is None


def test_library_token_resumes_to_the_uninterrupted_answer():
    database = _database()
    expected = enumeration_strategy(QUERY, database, _evaluate)
    error = _interrupted(lambda: enumeration_strategy(QUERY, database, _evaluate))
    token = error.resume_token
    assert isinstance(token, ResumeToken) and token.key is not None
    assert enumeration_strategy(QUERY, database, _evaluate, resume=token) == expected
    partial = PartialResult(Relation.empty(expected.schema), "interrupted", token=token)
    assert enumeration_strategy(QUERY, database, _evaluate, resume=partial) == expected


def test_library_path_refuses_foreign_tokens():
    database = _database()
    other = _interrupted(
        lambda: enumeration_strategy(QUERY, _database(third=4), _evaluate)
    ).resume_token
    unstamped = _interrupted(
        lambda: enumerate_certain_answers(lambda world: QUERY.evaluate(world), database)
    ).resume_token
    assert unstamped.key is None
    for token in (other, unstamped):
        with pytest.raises(InvalidRequestError, match="does not match"):
            enumeration_strategy(QUERY, database, _evaluate, resume=token)
