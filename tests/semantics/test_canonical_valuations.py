"""Canonical valuations: which certain-answer enumerations may use them.

``core.answers.valuation_space`` lets a session's ``certain()`` and
``boolean(mode="certain")`` enumerate one valuation per renaming of the
interchangeable domain values, and keeps every valuation where renaming
would change the answer.  These tests pin the cases that must keep the
full product (an order comparison, an operator the decision does not
know), the resume tokens that record which enumeration they count, and
the ``explain()`` line naming the valuation space.
"""

from dataclasses import dataclass
from typing import Tuple

import pytest

import repro
from repro import Budget, BudgetExceeded, InvalidRequestError
from repro.algebra import parse_ra
from repro.algebra.ast import RAExpression
from repro.core import enumeration_strategy
from repro.core.answers import _fingerprint, enumeration_domain, valuation_space
from repro.datamodel import Database, Null, Relation
from repro.resilience import budget_scope
from repro.semantics import enumerate_certain_answers

#: ``⊥x > 'w0z'`` holds only for ``x = 'w1'``, the second fresh value.
ORDERED = parse_ra("diff(S, project[#1](select[#0 > #1](product(R, S))))")


def _ordered_database():
    return Database.from_dict({"R": [(Null("x"),)], "S": [("w0z",)]})


def _evaluate(query, database):
    return query.evaluate(database)


@dataclass(frozen=True)
class LargestRow(RAExpression):
    """The largest row of ``child`` in string order: not generic."""

    child: RAExpression

    def children(self) -> Tuple[RAExpression, ...]:
        return (self.child,)

    def output_schema(self, schema):
        return self.child.output_schema(schema)

    def _interpret(self, database):
        relation = self.child._interpret(database)
        rows = sorted(relation.rows, key=str)[-1:]
        return Relation(relation.schema, rows)


class TestFullProductCases:
    def test_order_comparison_keeps_every_valuation(self):
        database = _ordered_database()
        domain = enumeration_domain(ORDERED, database)
        assert domain == ["w0z", "w0", "w1"]
        assert valuation_space(ORDERED, database, domain).reason == "order comparison"
        for engine in ("plan", "interpreter", "sqlite"):
            with repro.connect(database, engine=engine) as session:
                assert session.query(ORDERED).certain(method="enumeration").rows == set()
                assert session.query(ORDERED).boolean(mode="certain") is False
        # Renaming w0/w1 changes this answer: canonical valuations miss x = 'w1'.
        canonical = enumerate_certain_answers(
            ORDERED.evaluate, database, domain=domain, interchangeable=("w0", "w1")
        )
        assert canonical.rows == {("w0z",)}

    def test_unknown_operator_keeps_every_valuation(self):
        database = _ordered_database()
        query = LargestRow(parse_ra("union(R, S)"))
        domain = enumeration_domain(query, database)
        assert valuation_space(query, database, domain).reason == "unknown operator"
        answer = enumeration_strategy(query, database, _evaluate)
        assert answer.rows == set()
        canonical = enumerate_certain_answers(
            query.evaluate, database, domain=domain, interchangeable=("w0", "w1")
        )
        assert canonical.rows == {("w0z",)}

    def test_subclass_of_a_known_operator_is_unknown(self):
        class Shadow(type(parse_ra("project[#0](R)"))):
            pass

        query = Shadow(parse_ra("R"), (0,))
        database = Database.from_dict({"R": [(Null("x"),)]})
        space = valuation_space(query, database, enumeration_domain(query, database))
        assert space.reason == "unknown operator"

    @pytest.mark.parametrize(
        "mode, domain, reason",
        [
            ("possible", None, "possible answers"),
            ("certain", [1, "w0"], "fewer than 2 fresh values"),
            ("certain", None, ""),
        ],
    )
    def test_reasons(self, mode, domain, reason):
        query = parse_ra("diff(project[#0](R), S)")
        database = Database.from_dict({"R": [(Null("x"), 1)], "S": [(1,)]})
        resolved = enumeration_domain(query, database, domain)
        space = valuation_space(query, database, resolved, mode)
        assert space.reason == reason
        assert bool(space.interchangeable) is (reason == "")

    def test_library_calls_default_to_every_valuation(self):
        database = Database.from_dict({"R": [(Null("x"), 1), (Null("y"), 2)]})
        assert len(list(repro.semantics.cwa_worlds(database))) == 5 ** 2
        canonical = repro.semantics.cwa_worlds(
            database, interchangeable=default_fresh(database)
        )
        # x takes 1, 2 or the first fresh value; y takes any value after a
        # fresh x, else 1, 2 or the first fresh value: 2 * 3 + 4 = 10.
        assert len(list(canonical)) == 10


def default_fresh(database):
    domain = repro.semantics.default_domain(database)
    return tuple(value for value in domain if value not in database.constants())


# ----------------------------------------------------------------------
# resume tokens record the enumeration they count
# ----------------------------------------------------------------------
QUERY = parse_ra("project[#0](R)")


def _database():
    return Database.from_dict({"R": [(1, Null("x")), (Null("y"), 2)], "S": [(1,), (2,), (3,)]})


def _interrupted(call):
    with budget_scope(Budget(max_worlds=2).start()):
        with pytest.raises(BudgetExceeded) as caught:
            call()
    return caught.value.resume_token


class TestResumeTokens:
    def test_library_refuses_a_token_of_the_other_enumeration(self):
        database = _database()
        fresh = default_fresh(database)
        canonical = _interrupted(
            lambda: enumerate_certain_answers(QUERY.evaluate, database, interchangeable=fresh)
        )
        full = _interrupted(lambda: enumerate_certain_answers(QUERY.evaluate, database))
        assert canonical.interchangeable == fresh and full.interchangeable == ()
        with pytest.raises(InvalidRequestError, match="does not match"):
            enumerate_certain_answers(QUERY.evaluate, database, resume=canonical)
        with pytest.raises(InvalidRequestError, match="does not match"):
            enumerate_certain_answers(
                QUERY.evaluate, database, resume=full, interchangeable=fresh
            )
        resumed = enumerate_certain_answers(
            QUERY.evaluate, database, resume=canonical, interchangeable=fresh
        )
        assert resumed == enumerate_certain_answers(QUERY.evaluate, database)

    def test_strategy_refuses_a_token_of_the_other_enumeration(self):
        database = _database()
        token = _interrupted(
            lambda: enumeration_strategy(QUERY, database, _evaluate)
        )
        assert token.interchangeable
        token.interchangeable = ()
        with pytest.raises(InvalidRequestError, match="does not match"):
            enumeration_strategy(QUERY, database, _evaluate, resume=token)

    def test_fingerprint_covers_the_valuation_space(self):
        database = _database()
        domain = enumeration_domain(QUERY, database)
        fresh = valuation_space(QUERY, database, domain).interchangeable
        assert fresh
        inputs = (QUERY, database, "cwa", domain, None, 1)
        assert _fingerprint(*inputs, fresh) != _fingerprint(*inputs, ())

    @pytest.mark.parametrize("semantics", ["cwa", "owa"])
    def test_resumed_canonical_run_equals_an_uninterrupted_one(self, semantics):
        with repro.connect(_database(), semantics=semantics) as session:
            q = session.query(QUERY)
            expected = q.certain(method="enumeration")
            with pytest.raises(BudgetExceeded) as caught:
                q.certain(method="enumeration", budget=Budget(max_worlds=2), on_budget="raise")
            token = caught.value.resume_token
            assert token.interchangeable and token.worlds_done == 2
            assert q.certain(resume=token) == expected

    @pytest.mark.parametrize("semantics", ["cwa", "owa"])
    def test_many_nulls_reach_the_budget_not_the_stack(self, semantics):
        # 2,000 nulls: the canonical generator must yield its first
        # valuation without one stack frame per null.
        rows = [(Null(f"n{i}"),) for i in range(2000)] + [("a",)]
        database = Database.from_dict({"R": rows, "S": [("b",)]})
        with repro.connect(database, semantics=semantics) as session:
            q = session.query(parse_ra("diff(R, S)"))
            with pytest.raises(BudgetExceeded) as caught:
                q.certain(method="enumeration", budget=Budget(max_worlds=1), on_budget="raise")
            token = caught.value.resume_token
            assert token is not None and len(token.interchangeable) == 2001
            partial = q.certain(method="enumeration", budget=Budget(max_worlds=1), on_budget="partial")
            assert partial.token is not None and partial.token.worlds_done == 1


# ----------------------------------------------------------------------
# explain() names the valuation space
# ----------------------------------------------------------------------
class TestExplain:
    def test_explain_names_the_valuation_space(self):
        database = Database.from_dict({"R": [(Null("x"), 1)], "S": [(1,)]})
        with repro.connect(database) as session:
            q = session.query(parse_ra("diff(project[#0](R), S)"))
            # Before a run, "auto" picks lineage; forced enumeration over
            # the default domain (1 plus two fresh values) runs canonically.
            assert "certain(): lineage validity —" in q.explain()
            q.certain(method="enumeration", domain=[1, "a"])
            assert (
                "certain(): world enumeration (method='enumeration') over every valuation "
                "(fewer than 2 fresh values) —" in q.explain()
            )
            q.certain(method="enumeration")
            assert (
                "certain(): world enumeration (method='enumeration') over canonical "
                "valuations (2 interchangeable constants) —" in q.explain()
            )
        with repro.connect(_ordered_database()) as session:
            q = session.query(ORDERED)
            assert "over every valuation (order comparison) —" in q.explain()
            q.certain()
            assert "over every valuation (order comparison) —" in q.explain()
