"""Unit tests for possible-world enumeration."""

import pytest

from repro import InvalidRequestError
from repro.datamodel import Database, Null, Relation, Valuation
from repro.semantics import (
    count_cwa_worlds,
    cwa_worlds,
    default_domain,
    owa_worlds,
)
from repro.semantics.registry import SEMANTICS, semantics_named


@pytest.fixture
def single_null_db():
    return Database.from_dict({"R": [(1,), (Null("x"),)]})


class TestDefaultDomain:
    def test_contains_constants_and_fresh_values(self, single_null_db):
        domain = default_domain(single_null_db)
        assert 1 in domain
        assert len(domain) == 3  # one constant + (one null + 1) fresh values

    def test_extra_constants_parameter(self, single_null_db):
        domain = default_domain(single_null_db, extra_constants=3)
        assert len(domain) == 4

    def test_explicit_constants_added(self, single_null_db):
        domain = default_domain(single_null_db, constants=["q1", "q2"])
        assert "q1" in domain and "q2" in domain

    def test_no_nulls_still_one_fresh(self):
        db = Database.from_dict({"R": [(1,)]})
        domain = default_domain(db)
        assert len(domain) == 2

    def test_deterministic(self, single_null_db):
        assert default_domain(single_null_db) == default_domain(single_null_db)

    @pytest.mark.parametrize("extra_constants", [-1, 1.5, "2", True])
    def test_bad_extra_constants_are_refused(self, single_null_db, extra_constants):
        """Every caller (graphs, trees, c-tables too) gets the typed refusal."""
        with pytest.raises(InvalidRequestError, match="extra_constants must be an int >= 0"):
            default_domain(single_null_db, extra_constants=extra_constants)


class TestCwaWorlds:
    def test_all_worlds_complete(self, single_null_db):
        for world in cwa_worlds(single_null_db):
            assert world.is_complete()

    def test_number_of_worlds(self, single_null_db):
        domain = default_domain(single_null_db)
        enumerated = list(cwa_worlds(single_null_db, domain))
        assert len(enumerated) == len(domain)

    def test_duplicate_worlds_suppressed(self):
        # Both valuations of the null produce sets; instantiating to 1
        # collapses the two facts into one world identical to no other.
        db = Database.from_dict({"R": [(1,), (Null("x"),)]})
        enumerated = list(cwa_worlds(db, domain=[1]))
        assert len(enumerated) == 1
        assert enumerated[0]["R"].rows == frozenset({(1,)})

    def test_complete_database_yields_itself(self):
        db = Database.from_dict({"R": [(1, 2)]})
        enumerated = list(cwa_worlds(db))
        assert enumerated == [db]

    def test_count_upper_bound(self, single_null_db):
        domain = default_domain(single_null_db)
        assert count_cwa_worlds(single_null_db, domain) == len(domain)
        assert len(list(cwa_worlds(single_null_db, domain))) <= count_cwa_worlds(
            single_null_db, domain
        )

    def test_shared_null_instantiated_consistently(self):
        shared = Null("x")
        db = Database.from_dict({"R": [(shared, shared)]})
        for world in cwa_worlds(db):
            row = next(iter(world["R"].rows))
            assert row[0] == row[1]


class TestKeyedEnumeration:
    def test_builds_each_distinct_world_once(self, monkeypatch):
        """3 nulls over a 9-value domain: 729 valuations, 64 distinct worlds.

        Only new worlds are built, and none through ``Valuation.apply``.
        """
        r = [("a0", "b0"), ("a1", "b0"), ("a2", "b0"), ("a0", "b1"), ("a1", "b1")]
        r += [(Null(f"n{k}"), "b1") for k in range(3)]
        db = Database.from_relations(
            [
                Relation.create("R", r, attributes=("a", "b")),
                Relation.create("S", [("a1", "b0"), ("a2", "b1")], attributes=("a", "b")),
            ]
        )
        domain = default_domain(db)
        assert len(domain) == 9
        counts = {"databases": 0, "applies": 0}
        database_init = Database.__init__
        apply = Valuation.apply

        def counting_init(self, *args, **kwargs):
            counts["databases"] += 1
            database_init(self, *args, **kwargs)

        def counting_apply(self, database):
            counts["applies"] += 1
            return apply(self, database)

        monkeypatch.setattr(Database, "__init__", counting_init)
        monkeypatch.setattr(Valuation, "apply", counting_apply)
        enumerated = list(cwa_worlds(db, domain))
        assert len(enumerated) == 64
        assert counts == {"databases": 64, "applies": 0}


class TestOwaWorlds:
    def test_superset_of_cwa_worlds(self, single_null_db):
        domain = default_domain(single_null_db, extra_constants=2)
        cwa = {frozenset(w.facts()) for w in cwa_worlds(single_null_db, domain)}
        owa = {frozenset(w.facts()) for w in owa_worlds(single_null_db, domain, max_extra_facts=1)}
        assert cwa <= owa
        assert len(owa) > len(cwa)

    def test_zero_extra_facts_equals_cwa(self, single_null_db):
        domain = default_domain(single_null_db)
        cwa = {frozenset(w.facts()) for w in cwa_worlds(single_null_db, domain)}
        owa = {frozenset(w.facts()) for w in owa_worlds(single_null_db, domain, max_extra_facts=0)}
        assert cwa == owa

    def test_every_owa_world_contains_a_cwa_world(self, single_null_db):
        domain = default_domain(single_null_db)
        cwa = list(cwa_worlds(single_null_db, domain))
        for world in owa_worlds(single_null_db, domain, max_extra_facts=1):
            assert any(world.contains_database(base) for base in cwa)


class TestRegistryRows:
    def test_rows_enumerate_their_worlds(self, single_null_db):
        assert list(SEMANTICS["cwa"].worlds(single_null_db))
        assert list(SEMANTICS["owa"].worlds(single_null_db, max_extra_facts=0))

    def test_unknown_semantics(self, single_null_db):
        with pytest.raises(ValueError):
            semantics_named("nonsense")
