"""Unit tests for relations (naive tables / Codd tables)."""

import sys

import pytest

import repro
import repro.datamodel.relations as relations_module
from repro.algebra import parse_ra
from repro.datamodel import Database, Null, Relation, RelationSchema
from repro.datamodel.relations import drop_null_rows, rows_with_nulls
from repro.datamodel.values import intern_value


@pytest.fixture
def paper_naive_table():
    """The naive table R of Section 2: {(⊥,1,⊥'), (2,⊥',⊥)}."""
    bot, bot_prime = Null("b"), Null("bp")
    return Relation.create("R", [(bot, 1, bot_prime), (2, bot_prime, bot)])


@pytest.fixture
def paper_codd_table():
    """The Codd table S of Section 2: every null occurs once."""
    return Relation.create(
        "S", [(Null("1"), 1, Null("2")), (2, Null("3"), Null("4"))]
    )


class TestConstruction:
    def test_create_infers_arity(self):
        rel = Relation.create("R", [(1, 2)])
        assert rel.arity == 2

    def test_create_with_attributes(self):
        rel = Relation.create("R", [(1, 2)], attributes=("a", "b"))
        assert rel.attributes == ("a", "b")

    def test_empty_relation_needs_arity(self):
        with pytest.raises(ValueError):
            Relation.create("R", [])
        rel = Relation.create("R", [], arity=2)
        assert len(rel) == 0

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Relation.create("R", [(1, 2), (3,)])

    def test_none_rejected(self):
        with pytest.raises(TypeError):
            Relation.create("R", [(None, 1)])

    def test_set_semantics_deduplicates(self):
        rel = Relation.create("R", [(1, 2), (1, 2)])
        assert len(rel) == 1

    def test_schema_must_be_relation_schema(self):
        with pytest.raises(TypeError):
            Relation("R", [(1,)])  # type: ignore[arg-type]


class TestNullsAndConstants:
    def test_paper_example_constants_and_nulls(self, paper_naive_table, paper_codd_table):
        assert paper_naive_table.constants() == {1, 2}
        assert {n.name for n in paper_naive_table.nulls()} == {"b", "bp"}
        assert paper_codd_table.constants() == {1, 2}
        assert len(paper_codd_table.nulls()) == 4

    def test_naive_table_is_not_codd(self, paper_naive_table):
        assert not paper_naive_table.is_codd()

    def test_codd_table_is_codd(self, paper_codd_table):
        assert paper_codd_table.is_codd()

    def test_complete_relation(self):
        rel = Relation.create("R", [(1, 2), (3, 4)])
        assert rel.is_complete()
        assert rel.is_codd()

    def test_null_occurrences(self, paper_naive_table):
        counts = {n.name: c for n, c in paper_naive_table.null_occurrences().items()}
        assert counts == {"b": 2, "bp": 2}

    def test_complete_part_drops_null_rows(self):
        rel = Relation.create("R", [(1, 2), (1, Null("x"))])
        assert rel.complete_part().rows == frozenset({(1, 2)})

    def test_active_domain(self):
        null = Null("x")
        rel = Relation.create("R", [(1, null)])
        assert rel.active_domain() == {1, null}


class TestTransformations:
    def test_map_values(self):
        null = Null("x")
        rel = Relation.create("R", [(1, null)])
        mapped = rel.map_values(lambda v: 9 if v == null else v)
        assert mapped.rows == frozenset({(1, 9)})

    def test_union_difference_intersection(self):
        left = Relation.create("R", [(1,), (2,)])
        right = Relation.create("R", [(2,), (3,)])
        assert left.union(right).rows == frozenset({(1,), (2,), (3,)})
        assert left.difference(right).rows == frozenset({(1,)})
        assert left.intersection(right).rows == frozenset({(2,)})

    def test_incompatible_arities_rejected(self):
        left = Relation.create("R", [(1,)])
        right = Relation.create("S", [(1, 2)])
        with pytest.raises(ValueError):
            left.union(right)

    def test_add_rows_and_with_rows(self):
        rel = Relation.create("R", [(1,)])
        assert len(rel.add_rows([(2,), (3,)])) == 3
        assert rel.with_rows([(9,)]).rows == frozenset({(9,)})

    def test_rename(self):
        rel = Relation.create("R", [(1, 2)], attributes=("a", "b"))
        renamed = rel.rename("S", attributes=("x", "y"))
        assert renamed.name == "S"
        assert renamed.attributes == ("x", "y")
        with pytest.raises(ValueError):
            rel.rename("S", attributes=("only_one",))

    def test_equality_and_hash(self):
        first = Relation.create("R", [(1, 2)])
        second = Relation.create("R", [(1, 2)])
        assert first == second
        assert hash(first) == hash(second)

    def test_equality_distinguishes_nulls(self):
        first = Relation.create("R", [(Null("x"),)])
        second = Relation.create("R", [(Null("y"),)])
        assert first != second


class TestHelpers:
    def test_rows_with_nulls(self):
        rel = Relation.create("R", [(1, 2), (1, Null("x"))])
        assert list(rows_with_nulls(rel)) == [(1, Null("x"))]

    def test_drop_null_rows(self):
        rows = [(1, 2), (Null("x"), 2)]
        assert drop_null_rows(rows) == [(1, 2)]

    def test_to_table_renders_all_rows(self, paper_naive_table):
        rendered = paper_naive_table.to_table()
        assert "R:" in rendered
        assert rendered.count("|") > 0

    def test_sorted_rows_deterministic(self):
        rel = Relation.create("R", [(2,), (1,), (3,)])
        assert rel.sorted_rows() == sorted(rel.sorted_rows())

    def test_contains_and_iteration(self):
        rel = Relation.create("R", [(1, 2)])
        assert (1, 2) in rel
        assert list(rel) == [(1, 2)]
        assert bool(rel)
        assert not bool(Relation.create("R", [], arity=1))


# ---------------------------------------------------------------------------
# Values are validated and interned once, at the boundary
# ---------------------------------------------------------------------------
NONE_MESSAGE = "None cannot be stored in a relation"
UNHASHABLE_MESSAGE = "constants must be hashable"
ARITY_MESSAGE = "has arity 1, but relation R has arity 2"


def _schema():
    return RelationSchema("R", ("a", "b"))


BOUNDARY = {
    "constructor": lambda rows: Relation(_schema(), rows),
    "create": lambda rows: Relation.create("R", rows, attributes=("a", "b")),
    "with_rows": lambda rows: Relation.create("R", [(1, 2)]).with_rows(rows),
    "add_rows": lambda rows: Relation.create("R", [(1, 2)]).add_rows(rows),
}


class TestBoundaryValidation:
    @pytest.mark.parametrize("entry", sorted(BOUNDARY))
    def test_none_rejected(self, entry):
        with pytest.raises(TypeError, match=NONE_MESSAGE):
            BOUNDARY[entry]([(3, None)])

    @pytest.mark.parametrize("entry", sorted(BOUNDARY))
    def test_unhashable_rejected(self, entry):
        with pytest.raises(TypeError, match=UNHASHABLE_MESSAGE):
            BOUNDARY[entry]([(3, [4])])

    @pytest.mark.parametrize("entry", sorted(BOUNDARY))
    def test_wrong_arity_rejected(self, entry):
        with pytest.raises(ValueError, match=ARITY_MESSAGE):
            BOUNDARY[entry]([(3,)])

    def test_map_values_validates_the_images(self):
        rel = Relation.create("R", [(1, 2)])
        with pytest.raises(TypeError, match=NONE_MESSAGE):
            rel.map_values(lambda v: None)
        with pytest.raises(TypeError, match=UNHASHABLE_MESSAGE):
            rel.map_values(lambda v: [v])

    def test_add_rows_interns_the_added_values(self):
        null = intern_value(Null("fresh"))
        rel = Relation.create("R", [(1, 2)]).add_rows([("".join(["ab", "c"]), Null("fresh"))])
        (row,) = [row for row in rel if row != (1, 2)]
        assert row[0] is sys.intern("abc")
        assert row[1] is null

    def test_trusted_operations_keep_the_schema(self):
        rel = Relation.create("R", [(1, Null("x")), (2, 3)], attributes=("a", "b"))
        assert rel.complete_part() == Relation.create("R", [(2, 3)], attributes=("a", "b"))
        assert rel.add_rows([(2, 3)]) == rel


def _orders_session():
    orders = [(i, f"p{i % 7}") for i in range(24)] + [(Null(f"o{i}"), "p1") for i in range(16)]
    pay = [(i, i if i % 3 else Null(f"q{i}"), 10 * i) for i in range(8)]
    database = Database.from_relations(
        [
            Relation.create("Orders", orders, attributes=("o_id", "product")),
            Relation.create("Pay", pay, attributes=("p_id", "ord", "amount")),
        ]
    )
    return repro.connect(database)


class TestWarmPathValidatesNothing:
    DIFF = "diff(project[o_id](Orders), rename[Paid(o_id)](project[ord](Pay)))"
    UCQ = "project[o_id, amount](join(Orders, rename[P(p_id, o_id, amount)](Pay)))"

    def test_warm_plan_session_pair_makes_no_check_value_call(self, monkeypatch):
        diff, ucq = parse_ra(self.DIFF), parse_ra(self.UCQ)
        with _orders_session() as session:

            def pair():
                return session.query(diff).answer_object(), session.query(ucq).certain()

            expected = pair()
            assert expected[1] and any(isinstance(v, Null) for row in expected[0] for v in row)
            calls = []
            real = relations_module.check_value

            def counting(value):
                calls.append(value)
                return real(value)

            monkeypatch.setattr(relations_module, "check_value", counting)
            assert pair() == expected
        assert calls == []
