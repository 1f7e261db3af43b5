"""World evaluation through a session: engine-independent and counted.

* Every world-enumeration mode (``certain()``, ``possible()``,
  ``boolean()`` certain/possible) evaluates worlds in memory.  An
  ``engine="sqlite"`` session must not refill its backend once per
  world: ``SQLiteBackend.replace_database`` is never called, and the
  answers equal those of the plan and interpreter sessions.
* Every mode counts the worlds it actually visited in the session's
  ``worlds.evaluated`` counter, early exits included, and traces one
  ``world.evaluate`` span per world.
"""

import pytest

import repro
from repro.algebra import parse_ra
from repro.backends.sqlite import SQLiteBackend
from repro.datamodel import Database, Null
from repro.semantics import cwa_worlds
from repro.core.answers import enumeration_domain, valuation_space

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
    def _visited(query, stop, mode):
        """Worlds a mode visits: up to and including the first ``stop`` world.

        Certain answers of a generic query run canonical valuations
        only; possible answers run every valuation.
        """
        database = _database()
        domain = enumeration_domain(query, database)
        space = valuation_space(query, database, domain, mode)
        count = 0
        for world in cwa_worlds(database, domain, interchangeable=space.interchangeable):
            count += 1
            if stop(query.evaluate(world).rows):
                break
        return count

    @pytest.mark.parametrize("engine", ["plan", "interpreter", "sqlite"])
    def test_every_mode_counts_the_worlds_it_visited(self, engine):
        modes = {
            "certain()": (
                lambda q: q.certain(method="enumeration"), DIFF, lambda rows: False, "certain"
            ),
            "possible()": (lambda q: q.possible(), DIFF, lambda rows: False, "possible"),
            "boolean(certain)": (
                lambda q: q.boolean(mode="certain"), ALWAYS, lambda rows: not rows, "certain"
            ),
            "boolean(possible)": (lambda q: q.boolean(mode="possible"), NEVER, bool, "possible"),
            "boolean(possible), early exit": (
                lambda q: q.boolean(mode="possible"), ALWAYS, bool, "possible"
            ),
        }
        for name, (run, query, stop, mode) in modes.items():
            tracer = repro.Tracer()
            with repro.connect(_database(), engine=engine, tracer=tracer) as session:
                run(session.query(query))
                counted = session.metrics()["counters"].get("worlds.evaluated")
            assert counted == self._visited(query, stop, mode), name
            spans = [span for span in tracer.spans() if span.name == "world.evaluate"]
            assert len(spans) == counted, name
        assert self._visited(DIFF, lambda rows: False, "possible") == 6
        # x ranges over 1, 2, "a", "b" and the two fresh values, which are
        # interchangeable: only the first fresh value runs.
        assert self._visited(DIFF, lambda rows: False, "certain") == 5
        assert self._visited(ALWAYS, bool, "possible") == 1


def test_world_evaluation_refuses_a_closed_session():
    session = repro.connect(_database())
    session.close()
    with pytest.raises(repro.SessionClosedError):
        session.query(DIFF).certain()
    with pytest.raises(repro.SessionClosedError):
        session.query(DIFF).boolean(mode="possible")


class TestOrderComparisonsOverFreshValues:
    """Worlds also take the domain's fresh values (strings ``w0``, ``w1``,
    ...): nulls range over them and open-world extra facts are made of
    them.  An order comparison one of them cannot meet is refused with a
    typed error before any world is enumerated, on every engine, mode and
    semantics — never a bare ``TypeError``."""

    DATABASE = Database.from_dict({"R": [(Null("x"), 2), (1, 5)]})
    CALLS = {
        "certain": lambda q: q.certain(),
        "possible": lambda q: q.possible(),
        "boolean-certain": lambda q: q.boolean(mode="certain"),
        "boolean-possible": lambda q: q.boolean(mode="possible"),
    }

    @pytest.mark.parametrize("engine", ["plan", "interpreter", "sqlite"])
    @pytest.mark.parametrize("semantics", ["cwa", "owa", "wcwa"])
    @pytest.mark.parametrize("mode", sorted(CALLS))
    @pytest.mark.parametrize("text", ["select[#0 < 3](R)", "select[3 >= #0](R)"])
    def test_refused_with_a_typed_error(self, engine, semantics, mode, text):
        from repro.resilience import InvalidRequestError

        with repro.connect(self.DATABASE, engine=engine, semantics=semantics) as session:
            with pytest.raises(InvalidRequestError, match=r"order comparison .*'w0'.*3") as info:
                self.CALLS[mode](session.query(parse_ra(text)))
            assert session.metrics()["counters"].get("worlds.evaluated", 0) == 0
        assert isinstance(info.value.__cause__, TypeError)

    @pytest.mark.parametrize("semantics", ["owa", "wcwa"])
    @pytest.mark.parametrize("mode", sorted(CALLS))
    def test_open_world_extra_facts_reach_complete_columns(self, semantics, mode):
        from repro.resilience import InvalidRequestError

        # #1 holds no null, but an extra fact R(w0, w0) puts 'w0' there.
        with repro.connect(self.DATABASE, semantics=semantics) as session:
            with pytest.raises(InvalidRequestError, match=r"#1 < 3 .*'w0'"):
                self.CALLS[mode](session.query(parse_ra("select[#1 < 3](R)")))

    def test_closed_world_without_nulls_never_meets_a_fresh_value(self):
        complete = Database.from_dict({"R": [(1, 2)]})
        for semantics in ("cwa", "wcwa"):
            with repro.connect(complete, semantics=semantics) as session:
                assert session.query(parse_ra("select[#0 < 3](R)")).certain().rows == {(1, 2)}

    def test_attribute_pairs_name_the_other_constant(self):
        from repro.resilience import InvalidRequestError

        with repro.connect(self.DATABASE) as session:
            with pytest.raises(InvalidRequestError, match=r"#0 < #1 .*'w0'.*with 1\b"):
                session.query(parse_ra("select[#0 < #1](R)")).possible()
        # Two nulls side by side: only a world holding 'w0' next to an int fails.
        pair = Database.from_dict({"R": [(Null("x"), Null("y")), (1, 2)]})
        with repro.connect(pair) as session:
            with pytest.raises(InvalidRequestError, match=r"#0 < #1 .*'w0'"):
                session.query(parse_ra("select[#0 < #1](R)")).possible()
        strings = Database.from_dict({"R": [(Null("x"), Null("y")), ("a", "b")]})
        with repro.connect(strings) as session:
            assert session.query(parse_ra("select[#0 < #1](R)")).certain().rows == {("a", "b")}

    @pytest.mark.parametrize("engine", ["plan", "interpreter", "sqlite"])
    def test_comparisons_fresh_values_never_meet_still_answer(self, engine):
        # #1 never holds a null, so no world compares a fresh value.
        with repro.connect(self.DATABASE, engine=engine) as session:
            query = session.query(parse_ra("project[#1](select[#1 < 3](R))"))
            assert query.certain().rows == {(2,)}

    def test_comparable_domain_answers(self):
        with repro.connect(self.DATABASE) as session:
            query = session.query(parse_ra("project[#1](select[#0 < 3](R))"))
            assert query.certain(domain=[1, 2, 3, 5]).rows == {(5,)}
