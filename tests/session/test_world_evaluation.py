"""World evaluation through a session: engine-independent and counted.

* Every world-enumeration mode (``certain()``, ``possible()``,
  ``boolean()`` certain/possible) evaluates worlds in memory.  An
  ``engine="sqlite"`` session must not refill its backend once per
  world: ``SQLiteBackend.replace_database`` is never called, and the
  answers equal those of the plan and interpreter sessions.
* Every mode counts the worlds it actually visited in the session's
  ``worlds.evaluated`` counter, early exits included.
"""

import pytest

import repro
from repro.algebra import parse_ra
from repro.backends.sqlite import SQLiteBackend
from repro.datamodel import Database, Null
from repro.semantics import cwa_worlds
from repro.core.answers import enumeration_domain

#: Needs every world (a difference is not in the naive fragment).
DIFF = parse_ra("diff(project[#0](R), project[#0](S))")
#: Non-empty in every world / empty in every world.
ALWAYS = parse_ra("project[#0](R)")
NEVER = parse_ra("diff(R, R)")


def _database():
    # 1 null, 4 constants: the default domain has 4 + 2 values -> 6 worlds.
    return Database.from_dict(
        {"R": [(1, "a"), (Null("x"), "b")], "S": [(2, "a")]}
    )


def _answers(session):
    return (
        session.query(DIFF).certain(method="enumeration"),
        session.query(DIFF).possible(),
        session.query(DIFF).boolean(mode="certain"),
        session.query(DIFF).boolean(mode="possible"),
        session.query(NEVER).boolean(mode="possible"),
    )


class TestSqliteSessionsEnumerateInMemory:
    @pytest.mark.parametrize("semantics", ["cwa", "owa"])
    def test_no_backend_refill_per_world(self, monkeypatch, semantics):
        database = _database()
        expected = {}
        for engine in ("plan", "interpreter"):
            with repro.connect(database, engine=engine, semantics=semantics) as session:
                expected[engine] = _answers(session)
        assert expected["plan"] == expected["interpreter"]

        refills = []
        replace = SQLiteBackend.replace_database

        def counting_replace(self, db):
            refills.append(db)
            return replace(self, db)

        monkeypatch.setattr(SQLiteBackend, "replace_database", counting_replace)
        with repro.connect(database, engine="sqlite", semantics=semantics) as session:
            # Load the base database first, as a real session would.
            base = session.query(ALWAYS).answer_object()
            assert _answers(session) == expected["plan"]
            # The backend still holds the base database: no refill back.
            assert session.query(ALWAYS).answer_object() == base
            assert session.metrics()["counters"]["worlds.evaluated"] > 0
        assert refills == []


class TestWorldsEvaluatedCounter:
    @staticmethod
    def _visited(query, stop):
        """Worlds a mode visits: up to and including the first ``stop`` world."""
        database = _database()
        domain = enumeration_domain(query, database)
        count = 0
        for world in cwa_worlds(database, domain):
            count += 1
            if stop(query.evaluate(world).rows):
                break
        return count

    @pytest.mark.parametrize("engine", ["plan", "interpreter", "sqlite"])
    def test_every_mode_counts_the_worlds_it_visited(self, engine):
        modes = {
            "certain()": (lambda q: q.certain(method="enumeration"), DIFF, lambda rows: False),
            "possible()": (lambda q: q.possible(), DIFF, lambda rows: False),
            "boolean(certain)": (lambda q: q.boolean(mode="certain"), ALWAYS, lambda rows: not rows),
            "boolean(possible)": (lambda q: q.boolean(mode="possible"), NEVER, bool),
            "boolean(possible), early exit": (lambda q: q.boolean(mode="possible"), ALWAYS, bool),
        }
        for name, (run, query, stop) in modes.items():
            with repro.connect(_database(), engine=engine) as session:
                run(session.query(query))
                counted = session.metrics()["counters"].get("worlds.evaluated")
            assert counted == self._visited(query, stop), name
        assert self._visited(DIFF, lambda rows: False) == 6
        assert self._visited(ALWAYS, bool) == 1


def test_world_evaluation_refuses_a_closed_session():
    session = repro.connect(_database())
    session.close()
    with pytest.raises(repro.SessionClosedError):
        session.query(DIFF).certain()
    with pytest.raises(repro.SessionClosedError):
        session.query(DIFF).boolean(mode="possible")
