"""Unit tests for relational-algebra expressions and their evaluation."""

from dataclasses import FrozenInstanceError

import pytest

from repro.algebra import (
    ActiveDomain,
    Attr,
    Comparison,
    Delta,
    difference,
    divide,
    intersection,
    join,
    product,
    project,
    relation,
    rename,
    select,
    union,
)
from repro.algebra.ast import ConstantRelation, expand_division
from repro.datamodel import Database, Null, Relation


@pytest.fixture
def company_db():
    return Database.from_relations(
        [
            Relation.create(
                "Emp",
                [("alice", "hr"), ("bob", "it"), ("carol", "it")],
                attributes=("name", "dept"),
            ),
            Relation.create("Dept", [("hr",), ("it",)], attributes=("dept",)),
            Relation.create(
                "Managers", [("alice",), ("dave",)], attributes=("name",)
            ),
        ]
    )


class TestLeaves:
    def test_relation_ref(self, company_db):
        assert len(relation("Emp").evaluate(company_db)) == 3
        assert relation("Emp").output_schema(company_db.schema).attributes == ("name", "dept")

    def test_constant_relation(self, company_db):
        literal = ConstantRelation(Relation.create("L", [(1,)]))
        assert literal.evaluate(company_db).rows == frozenset({(1,)})

    def test_delta(self, company_db):
        rows = Delta().evaluate(company_db).rows
        assert ("alice", "alice") in rows
        assert all(a == b for a, b in rows)
        assert len(rows) == len(company_db.active_domain())

    def test_active_domain(self, company_db):
        rows = ActiveDomain().evaluate(company_db).rows
        assert ("hr",) in rows
        assert len(rows) == len(company_db.active_domain())

    def test_relation_names(self, company_db):
        expr = union(project(relation("Emp"), ["name"]), relation("Managers"))
        assert expr.relation_names() == {"Emp", "Managers"}


class TestUnaryOperators:
    def test_selection(self, company_db):
        expr = select(relation("Emp"), Comparison(Attr("dept"), "=", "it"))
        assert expr.evaluate(company_db).rows == frozenset({("bob", "it"), ("carol", "it")})

    def test_projection_by_name_and_position(self, company_db):
        by_name = project(relation("Emp"), ["name"]).evaluate(company_db)
        by_position = project(relation("Emp"), [0]).evaluate(company_db)
        assert by_name.rows == by_position.rows == frozenset(
            {("alice",), ("bob",), ("carol",)}
        )

    def test_projection_reorders_and_duplicates(self, company_db):
        expr = project(relation("Emp"), ["dept", "name", "dept"])
        result = expr.evaluate(company_db)
        assert ("it", "bob", "it") in result.rows
        assert result.arity == 3

    def test_rename(self, company_db):
        expr = rename(relation("Emp"), "Staff", ("who", "where"))
        result = expr.evaluate(company_db)
        assert result.name == "Staff"
        assert result.attributes == ("who", "where")

    def test_rename_arity_mismatch(self, company_db):
        expr = rename(relation("Emp"), "Staff", ("only",))
        with pytest.raises(ValueError):
            expr.evaluate(company_db)


class TestBinaryOperators:
    def test_product(self, company_db):
        expr = product(relation("Dept"), relation("Managers"))
        result = expr.evaluate(company_db)
        assert len(result) == 4
        assert result.arity == 2

    def test_product_attribute_names(self, company_db):
        clashing = product(relation("Emp"), relation("Managers"))
        # 'name' clashes, so the product falls back to positional names.
        assert clashing.output_schema(company_db.schema).attributes == ("#0", "#1", "#2")
        distinct = product(relation("Dept"), relation("Managers"))
        assert distinct.output_schema(company_db.schema).attributes == ("dept", "name")

    def test_natural_join(self, company_db):
        expr = join(relation("Emp"), relation("Dept"))
        result = expr.evaluate(company_db)
        assert len(result) == 3
        assert result.attributes == ("name", "dept")

    def test_natural_join_without_shared_attributes_is_product(self, company_db):
        expr = join(relation("Dept"), relation("Managers"))
        assert len(expr.evaluate(company_db)) == 4

    def test_union(self, company_db):
        expr = union(project(relation("Emp"), ["name"]), relation("Managers"))
        assert expr.evaluate(company_db).rows == frozenset(
            {("alice",), ("bob",), ("carol",), ("dave",)}
        )

    def test_difference(self, company_db):
        expr = difference(project(relation("Emp"), ["name"]), relation("Managers"))
        assert expr.evaluate(company_db).rows == frozenset({("bob",), ("carol",)})

    def test_intersection(self, company_db):
        expr = intersection(project(relation("Emp"), ["name"]), relation("Managers"))
        assert expr.evaluate(company_db).rows == frozenset({("alice",)})

    def test_arity_mismatch_rejected(self, company_db):
        expr = union(relation("Emp"), relation("Dept"))
        with pytest.raises(ValueError):
            expr.evaluate(company_db)


class TestDivision:
    def test_division_by_named_attributes(self, company_db):
        expr = divide(relation("Emp"), relation("Dept"))
        # No employee works in *every* department.
        assert expr.evaluate(company_db).rows == frozenset()

    def test_division_finds_universal_tuples(self):
        db = Database.from_relations(
            [
                Relation.create(
                    "Enroll",
                    [("alice", "db"), ("alice", "os"), ("bob", "db")],
                    attributes=("student", "course"),
                ),
                Relation.create("Courses", [("db",), ("os",)], attributes=("course",)),
            ]
        )
        expr = divide(relation("Enroll"), relation("Courses"))
        assert expr.evaluate(db).rows == frozenset({("alice",)})

    def test_division_positional(self):
        db = Database.from_dict({"R": [("a", 1), ("a", 2), ("b", 1)], "S": [(1,), (2,)]})
        expr = divide(relation("R"), relation("S"))
        assert expr.evaluate(db).rows == frozenset({("a",)})

    def test_division_by_empty_divisor_returns_all_keys(self):
        db = Database.from_relations(
            [
                Relation.create("R", [("a", 1), ("b", 2)]),
                Relation.create("S", [], arity=1),
            ]
        )
        expr = divide(relation("R"), relation("S"))
        assert expr.evaluate(db).rows == frozenset({("a",), ("b",)})

    def test_division_arity_constraints(self, company_db):
        expr = divide(relation("Dept"), relation("Dept"))
        with pytest.raises(ValueError):
            expr.evaluate(company_db)

    def test_expand_division_matches_direct_evaluation(self):
        db = Database.from_dict(
            {"R": [("a", 1), ("a", 2), ("b", 1), ("c", 2)], "S": [(1,), (2,)]}
        )
        expr = divide(relation("R"), relation("S"))
        expanded = expand_division(expr, db.schema)
        assert expanded.evaluate(db).rows == expr.evaluate(db).rows


class TestNaiveBehaviour:
    def test_nulls_behave_as_values(self):
        null = Null("x")
        db = Database.from_dict({"R": [(null, 1), (2, 1)], "S": [(null,), (3,)]})
        expr = join(
            rename(relation("R"), "R", ("a", "b")),
            rename(relation("S"), "S", ("a",)),
        )
        result = expr.evaluate(db)
        assert (null, 1) in result.rows
        assert (2, 1) not in result.rows

    def test_difference_is_syntactic_on_nulls(self):
        db = Database.from_dict({"R": [(Null("x"),), (1,)], "S": [(Null("y"),)]})
        expr = difference(relation("R"), relation("S"))
        assert expr.evaluate(db).rows == frozenset({(Null("x"),), (1,)})


class TestExpressionUtilities:
    def test_walk_visits_all_nodes(self, company_db):
        expr = union(project(relation("Emp"), ["name"]), relation("Managers"))
        kinds = [type(node).__name__ for node in expr.walk()]
        assert kinds.count("RelationRef") == 2
        assert "Projection" in kinds

    def test_fluent_builders(self, company_db):
        expr = relation("Emp").project(["name"]).union(relation("Managers"))
        assert len(expr.evaluate(company_db)) == 4

    def test_str_round_trips_concepts(self, company_db):
        expr = select(relation("Emp"), Comparison(Attr("dept"), "=", "it"))
        assert "select" in str(expr)
        assert "Emp" in str(expr)


class TestImmutability:
    @pytest.mark.parametrize("build", [union, difference, intersection])
    def test_set_operations_block_reassignment(self, build):
        expr = build(relation("R"), relation("S"))
        for field in ("left", "right"):
            with pytest.raises(FrozenInstanceError):
                setattr(expr, field, relation("T"))
            with pytest.raises(AttributeError):
                delattr(expr, field)
        with pytest.raises(FrozenInstanceError):
            expr.extra = 1
        assert expr == build(relation("R"), relation("S"))
        assert str(expr.left) == "R" and str(expr.right) == "S"

    def test_set_operations_keep_their_identity(self):
        left, right = relation("R"), relation("S")
        assert union(left, right) != difference(left, right)
        assert hash(union(left, right)) == hash(union(left, right))
        assert len({union(left, right), union(left, right), intersection(left, right)}) == 2
