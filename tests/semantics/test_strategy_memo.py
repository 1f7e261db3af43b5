"""The strategy pick kept on an expression object (``strategies.choose``).

``certain()`` with ``method="auto"`` and neither ``domain=`` nor
``resume=`` picks its strategy once per (semantics row, mode) and keeps
the pick on the expression, beside the plan pin.  These tests hold the
memo to what the unmemoized choice does: per semantics, bypassed by
every call option that changes the choice, named by ``explain()``, and
safe when server pool threads share the warmed expressions.
"""

import asyncio
import pickle

import pytest

import repro
from repro import Budget, Database, Null, PartialResult
from repro.algebra import parse_ra
from repro.semantics.registry import SEMANTICS
from repro.semantics.strategies import CERTAIN, ENUMERATION, LINEAGE, NAIVE, choose
from repro.serve import Server

UCQ_TEXT = "project[#0](R)"
DIFF_TEXT = "diff(project[#0](R), project[#0](S))"


@pytest.fixture
def db():
    return Database.from_dict(
        {
            "R": [(1, "a"), (2, "b"), (Null("x"), "c")],
            "S": [(1, "a"), (Null("y"), "b")],
        }
    )


def _oracle(db, text, semantics, **options):
    """``certain()`` on a freshly parsed expression: no memo to read."""
    with repro.connect(db, semantics=semantics) as session:
        return session.query(parse_ra(text)).certain(**options)


def test_one_expression_shared_by_a_cwa_and_an_owa_session(db):
    diff = parse_ra(DIFF_TEXT)
    with repro.connect(db, semantics="cwa") as cwa, repro.connect(db, semantics="owa") as owa:
        for _ in range(2):  # the second round reads the memo
            closed, opened = cwa.query(diff), owa.query(diff)
            assert closed.certain() == _oracle(db, DIFF_TEXT, "cwa")
            assert closed._ran == LINEAGE.label
            assert opened.certain() == _oracle(db, DIFF_TEXT, "owa")
            assert opened._ran.startswith(ENUMERATION.label)
    picks = diff._strategy_picks
    assert picks[(SEMANTICS["cwa"], CERTAIN)] is LINEAGE
    assert picks[(SEMANTICS["owa"], CERTAIN)] is ENUMERATION


def test_method_bypasses_the_memo(db):
    diff = parse_ra(DIFF_TEXT)
    with repro.connect(db, semantics="cwa") as session:
        session.query(diff).certain()
        q = session.query(diff)
        assert q.certain(method="naive") == _oracle(db, DIFF_TEXT, "cwa", method="naive")
        assert q._ran == "naive evaluation (method='naive')"
        assert q.certain(method="enumeration") == _oracle(db, DIFF_TEXT, "cwa")
        assert q._ran.startswith("world enumeration (method='enumeration')")
    assert diff._strategy_picks == {(SEMANTICS["cwa"], CERTAIN): LINEAGE}


def test_an_empty_domain_bypasses_the_memo():
    # Naive evaluation answers over the unrestricted domain: with
    # domain=[] there is no world, and its answer {(1,)} would be unsound.
    db = Database.from_dict({"R": [(Null("x"), Null("y")), (1, 2)]})
    ucq = parse_ra(UCQ_TEXT)
    with repro.connect(db, semantics="cwa") as session:
        session.query(ucq).certain()
        assert ucq._strategy_picks == {(SEMANTICS["cwa"], CERTAIN): NAIVE}
        q = session.query(ucq)
        answer = q.certain(domain=[])
        assert answer == _oracle(db, UCQ_TEXT, "cwa", domain=[], method="enumeration")
        assert NAIVE.label not in q._ran
    assert ucq._strategy_picks == {(SEMANTICS["cwa"], CERTAIN): NAIVE}


def test_resume_bypasses_the_memo(db):
    diff = parse_ra(DIFF_TEXT)
    with repro.connect(db, semantics="cwa") as session:
        q = session.query(diff)
        exact = q.certain()
        assert q._ran == LINEAGE.label
        partial = q.certain(
            method="enumeration", budget=Budget(max_worlds=1), on_budget="partial"
        )
        assert isinstance(partial, PartialResult)
        assert q.certain(resume=partial) == exact
        assert q._ran.startswith(ENUMERATION.label)
    assert choose(SEMANTICS["cwa"], CERTAIN, diff, resume=partial.token) is ENUMERATION


def test_explain_names_what_ran_after_the_memo_is_warm(db):
    diff = parse_ra(DIFF_TEXT)
    with repro.connect(db, semantics="cwa") as session:
        session.query(diff).certain()
        q = session.query(diff)
        assert "certain(): lineage validity" in q.explain()
        q.certain(method="naive")
        assert "certain(): naive evaluation (method='naive')" in q.explain()
        q.certain()
        assert "certain(): lineage validity" in q.explain()
        q.certain(method="enumeration")
        assert "certain(): world enumeration (method='enumeration')" in q.explain()


@pytest.mark.parametrize(
    "warm, pin", [("certain", "_strategy_picks"), ("answer_object", "_plan_entries")]
)
def test_a_warmed_expression_still_pickles(db, warm, pin):
    """Neither the strategy pick (``certain()``) nor the plan pin
    (``answer_object()``) travels with a pickled expression."""
    diff = parse_ra(DIFF_TEXT)
    with repro.connect(db, semantics="cwa") as session:
        expected = getattr(session.query(diff), warm)()
        assert hasattr(diff, pin)
        clone = pickle.loads(pickle.dumps(diff))
        assert clone == diff and not hasattr(clone, pin)
        assert getattr(session.query(clone), warm)() == expected


def test_server_pool_threads_share_the_warmed_expressions(db):
    ucq, diff = parse_ra(UCQ_TEXT), parse_ra(DIFF_TEXT)
    expected = {
        "ucq": _oracle(db, UCQ_TEXT, "cwa"),
        "diff": _oracle(db, DIFF_TEXT, "cwa"),
        "diff-enum": _oracle(db, DIFF_TEXT, "cwa", method="enumeration"),
    }
    calls = {
        "ucq": lambda server: server.certain(ucq),
        "diff": lambda server: server.certain(diff),
        "diff-enum": lambda server: server.certain(diff, method="enumeration"),
    }
    names = sorted(calls)
    clients, rounds = 8, 6
    with Server(db, pool_size=4, engine="plan", warm=(ucq, diff)) as server:

        async def client(offset):
            answers = []
            for index in range(rounds):
                name = names[(offset + index) % len(names)]
                answers.append((name, await calls[name](server)))
            return answers

        async def main():
            return await asyncio.gather(*(client(i) for i in range(clients)))

        for batch in asyncio.run(main()):
            for name, answer in batch:
                assert answer == expected[name], name
    assert diff._strategy_picks[(SEMANTICS["cwa"], CERTAIN)] is LINEAGE
    assert ucq._strategy_picks[(SEMANTICS["cwa"], CERTAIN)] is NAIVE
