"""Unit tests for incomplete database instances."""

import pickle
import sys

import pytest

import repro
import repro.datamodel.relations as relations_module
from repro import Budget, PartialResult
from repro.algebra import parse_ra
from repro.datamodel import Database, DatabaseSchema, Null, Relation, RelationSchema
from repro.datamodel.database import facts_with_nulls
from repro.datamodel.values import intern_value
from repro.resilience import ManualClock


@pytest.fixture
def orders_db():
    return Database.from_dict(
        {
            "Order": [("oid1", "pr1"), ("oid2", "pr2")],
            "Pay": [("pid1", Null("o"), 100)],
        }
    )


class TestConstruction:
    def test_from_dict_infers_schema(self, orders_db):
        assert orders_db.schema.arity("Order") == 2
        assert orders_db.schema.arity("Pay") == 3

    def test_from_relations(self):
        db = Database.from_relations([Relation.create("R", [(1,)])])
        assert db.relation("R").rows == frozenset({(1,)})

    def test_missing_relations_default_to_empty(self):
        schema = DatabaseSchema.from_arities({"R": 1, "S": 2})
        db = Database(schema, {"R": [(1,)]})
        assert len(db.relation("S")) == 0

    def test_unknown_relation_in_data_rejected(self):
        schema = DatabaseSchema.from_arities({"R": 1})
        with pytest.raises(KeyError):
            Database(schema, {"Z": [(1,)]})

    def test_from_facts(self):
        schema = DatabaseSchema.from_arities({"R": 2})
        db = Database.from_facts(schema, [("R", (1, 2)), ("R", (3, 4))])
        assert db.size() == 2

    def test_from_facts_unknown_relation(self):
        schema = DatabaseSchema.from_arities({"R": 2})
        with pytest.raises(KeyError):
            Database.from_facts(schema, [("S", (1, 2))])

    def test_empty(self):
        schema = DatabaseSchema.from_arities({"R": 1})
        assert Database.empty(schema).size() == 0

    def test_arity_mismatch_rejected(self):
        schema = DatabaseSchema.from_arities({"R": 2})
        with pytest.raises(ValueError):
            Database(schema, {"R": Relation.create("R", [(1,)])})


class TestAccessors:
    def test_relation_lookup(self, orders_db):
        assert len(orders_db["Order"]) == 2
        with pytest.raises(KeyError):
            orders_db.relation("Nope")

    def test_contains(self, orders_db):
        assert "Pay" in orders_db
        assert "Nope" not in orders_db

    def test_facts(self, orders_db):
        facts = orders_db.facts()
        assert ("Order", ("oid1", "pr1")) in facts
        assert len(facts) == 3

    def test_size_and_len(self, orders_db):
        assert orders_db.size() == 3
        assert len(orders_db) == 3

    def test_relation_sizes_are_computed_once_in_schema_order(self, orders_db):
        sizes = orders_db.relation_sizes()
        assert sizes == (2, 1)
        assert orders_db.relation_sizes() is sizes
        grown = orders_db.add_facts([("Pay", ("pid2", "oid2", 50))])
        assert grown.relation_sizes() == (2, 2) and orders_db.relation_sizes() == (2, 1)

    def test_iteration_yields_relations(self, orders_db):
        names = [rel.name for rel in orders_db]
        assert names == ["Order", "Pay"]

    def test_to_table(self, orders_db):
        assert "Order:" in orders_db.to_table()


class TestNullsAndCompleteness:
    def test_nulls_and_constants(self, orders_db):
        assert {n.name for n in orders_db.nulls()} == {"o"}
        assert "oid1" in orders_db.constants()

    def test_is_complete(self, orders_db):
        assert not orders_db.is_complete()
        assert orders_db.complete_part().is_complete()

    def test_is_codd_single_occurrence(self, orders_db):
        assert orders_db.is_codd()

    def test_is_codd_shared_null(self):
        shared = Null("x")
        db = Database.from_dict({"R": [(shared,)], "S": [(shared, 1)]})
        assert not db.is_codd()

    def test_complete_part(self, orders_db):
        cmpl = orders_db.complete_part()
        assert cmpl.size() == 2
        assert len(cmpl["Pay"]) == 0

    def test_facts_with_nulls(self, orders_db):
        facts = facts_with_nulls(orders_db)
        assert len(facts) == 1
        assert facts[0][0] == "Pay"

    def test_active_domain(self, orders_db):
        adom = orders_db.active_domain()
        assert "oid1" in adom
        assert Null("o") in adom


class TestTransformations:
    def test_map_values(self, orders_db):
        replaced = orders_db.map_values(lambda v: "X" if isinstance(v, Null) else v)
        assert replaced.is_complete()

    def test_map_relations_must_preserve_names(self, orders_db):
        with pytest.raises(ValueError):
            orders_db.map_relations(lambda rel: rel.rename("Other"))

    def test_with_relation(self, orders_db):
        new_rel = Relation.create("Order", [("oid9", "pr9")])
        updated = orders_db.with_relation(new_rel)
        assert updated["Order"].rows == frozenset({("oid9", "pr9")})
        with pytest.raises(KeyError):
            orders_db.with_relation(Relation.create("Missing", [(1,)]))

    def test_add_facts(self, orders_db):
        bigger = orders_db.add_facts([("Order", ("oid3", "pr3"))])
        assert bigger.size() == 4
        with pytest.raises(KeyError):
            orders_db.add_facts([("Missing", (1,))])

    def test_union(self, orders_db):
        other = Database(orders_db.schema, {"Order": [("oid5", "pr5")]})
        merged = orders_db.union(other)
        assert merged.size() == 4

    def test_union_schema_mismatch(self, orders_db):
        other = Database.from_dict({"Z": [(1,)]})
        with pytest.raises(ValueError):
            orders_db.union(other)

    def test_contains_database(self, orders_db):
        smaller = Database(orders_db.schema, {"Order": [("oid1", "pr1")]})
        assert orders_db.contains_database(smaller)
        assert not smaller.contains_database(orders_db)

    def test_equality_and_hash(self, orders_db):
        clone = Database.from_dict(
            {
                "Order": [("oid1", "pr1"), ("oid2", "pr2")],
                "Pay": [("pid1", Null("o"), 100)],
            }
        )
        assert clone == orders_db
        assert hash(clone) == hash(orders_db)


class TestAddFactsValidatesOnlyTheNewRows:
    @staticmethod
    def _database():
        return Database.from_relations(
            [Relation.create("R", [(i, i + 1) for i in range(40)], attributes=("a", "b"))]
        )

    def test_bad_facts_rejected_with_todays_messages(self):
        database = self._database()
        with pytest.raises(TypeError, match="None cannot be stored in a relation"):
            database.add_facts([("R", (1, None))])
        with pytest.raises(TypeError, match="constants must be hashable"):
            database.add_facts([("R", (1, {2}))])
        with pytest.raises(ValueError, match="has arity 3, but relation R has arity 2"):
            database.add_facts([("R", (1, 2, 3))])

    def test_non_relation_data_is_still_validated(self):
        schema = DatabaseSchema.from_arities({"R": 2})
        with pytest.raises(TypeError, match="None cannot be stored in a relation"):
            Database(schema, {"R": [(1, None)]})
        with pytest.raises(ValueError, match="has arity 1, but relation R has arity 2"):
            Database(schema, {"R": [(1,)]})

    def test_added_values_are_interned(self):
        null = intern_value(Null("added"))
        bigger = self._database().add_facts([("R", ("".join(["x", "y"]), Null("added")))])
        (row,) = [row for row in bigger["R"] if row[0] == "xy"]
        assert row[0] is sys.intern("xy")
        assert row[1] is null

    def test_two_binary_facts_make_four_check_value_calls(self, monkeypatch):
        database = self._database()
        calls = []
        real = relations_module.check_value

        def counting(value):
            calls.append(value)
            return real(value)

        monkeypatch.setattr(relations_module, "check_value", counting)
        bigger = database.add_facts([("R", (100, 101)), ("R", (Null("n"), 7))])
        assert len(calls) == 4
        assert bigger.size() == 42
        assert database["R"].rows < bigger["R"].rows

    def test_reschema_keeps_the_rows(self):
        relation = Relation.create("R", [(1, Null("x"))])
        schema = DatabaseSchema([RelationSchema("R", ("a", "b"))])
        database = Database(schema, {"R": relation})
        assert database["R"].attributes == ("a", "b")
        assert database["R"].rows == relation.rows


class TestContentDigestCache:
    """The resume-token fingerprint hashes a database's rows once: the
    digest is cached on the (immutable) instance, and not pickled."""

    def _counting(self, monkeypatch):
        calls = []
        original = Database._compute_content_digest

        def counted(db):
            calls.append(db)
            return original(db)

        monkeypatch.setattr(Database, "_compute_content_digest", counted)
        return calls

    def test_digest_is_computed_once(self, monkeypatch):
        calls = self._counting(monkeypatch)
        database = Database.from_dict({"R": [(1,), (2,), (3,), (Null("x"),)]})
        first = database.content_digest()
        assert database.content_digest() == first
        assert len(calls) == 1

    def test_digest_survives_pickling_without_shipping_the_cache(self):
        database = Database.from_dict({"R": [(1,), (2,), (3,), (Null("x"),)]})
        digest = database.content_digest()
        clone = pickle.loads(pickle.dumps(database))
        assert clone._content_digest is None  # the cache is not serialized
        assert clone.content_digest() == digest

    def test_two_budget_stamps_hash_rows_at_most_once(self, monkeypatch):
        """Two consecutive ``certain(budget=)`` calls on an unchanged
        100k-row database stamp two resume tokens but hash the rows at
        most once."""
        rows = [(i,) for i in range(100_000)]
        rows.append((Null("x"),))
        database = Database.from_dict({"R": rows})
        calls = self._counting(monkeypatch)
        with repro.connect(database) as session:
            query = session.query(parse_ra("project[#0](R)"))
            # Each clock reading advances a second: the deadline passes at
            # the third check, after enumeration has started, so both calls
            # expire mid-way whatever the host's speed.
            partials = [
                query.certain(
                    method="enumeration",
                    budget=Budget(deadline=3.0, clock=ManualClock(step=1.0)),
                    on_budget="partial",
                )
                for _ in range(2)
            ]
        for partial in partials:
            assert isinstance(partial, PartialResult)
            assert partial.token is not None  # both calls really stamped
        assert len(calls) <= 1
