"""Unit tests for conditions and conditional tables (c-tables)."""

import pytest

from repro.datamodel import (
    FALSE,
    TRUE,
    And,
    ConditionalRow,
    ConditionalTable,
    Eq,
    Neq,
    Not,
    Null,
    Or,
    Relation,
    Valuation,
    conjunction,
    disjunction,
    row_equality,
)


class TestConditions:
    def test_eq_on_constants_simplifies(self):
        assert Eq(1, 1).simplify() is TRUE
        assert Eq(1, 2).simplify() is FALSE

    def test_eq_on_same_null_simplifies_to_true(self):
        null = Null("x")
        assert Eq(null, null).simplify() is TRUE

    def test_eq_evaluation_under_valuation(self):
        null = Null("x")
        assert Eq(null, 1).evaluate(Valuation({null: 1}))
        assert not Eq(null, 1).evaluate(Valuation({null: 2}))

    def test_neq_is_negated_equality(self):
        null = Null("x")
        cond = Neq(null, 1)
        assert not cond.evaluate(Valuation({null: 1}))
        assert cond.evaluate(Valuation({null: 2}))

    def test_connective_simplification(self):
        null = Null("x")
        assert (Eq(null, 1) & TRUE) == Eq(null, 1)
        assert (Eq(null, 1) & FALSE) is FALSE
        assert (Eq(null, 1) | TRUE) is TRUE
        assert (Eq(null, 1) | FALSE) == Eq(null, 1)
        assert (~TRUE) is FALSE
        assert (~FALSE) is TRUE

    def test_double_negation(self):
        null = Null("x")
        assert Not(Not(Eq(null, 1))).simplify() == Eq(null, 1)

    def test_and_or_evaluation(self):
        x, y = Null("x"), Null("y")
        cond = And((Eq(x, 1), Or((Eq(y, 2), Eq(y, 3)))))
        assert cond.evaluate(Valuation({x: 1, y: 3}))
        assert not cond.evaluate(Valuation({x: 2, y: 3}))
        assert not cond.evaluate(Valuation({x: 1, y: 4}))

    def test_nulls_collection(self):
        x, y = Null("x"), Null("y")
        cond = And((Eq(x, 1), Neq(y, x)))
        assert cond.nulls() == {x, y}

    def test_substitute(self):
        x, y = Null("x"), Null("y")
        cond = And((Eq(x, 1), Eq(y, 2)))
        partially = cond.substitute(Valuation({x: 1}))
        assert partially == Eq(y, 2)
        assert cond.substitute(Valuation({x: 3})) is FALSE

    def test_conjunction_disjunction_helpers(self):
        assert conjunction([]) is TRUE
        assert disjunction([]) is FALSE
        x = Null("x")
        assert conjunction([Eq(x, 1)]) == Eq(x, 1)

    def test_row_equality(self):
        x = Null("x")
        cond = row_equality((x, 2), (1, 2))
        assert cond == Eq(x, 1)
        with pytest.raises(ValueError):
            row_equality((1,), (1, 2))

    def test_str_representations(self):
        x = Null("x")
        assert "=" in str(Eq(x, 1))
        assert "≠" in str(Neq(x, 1))
        assert str(TRUE) == "true"
        assert str(FALSE) == "false"


class TestConditionalTable:
    def test_paper_disjunction_example(self):
        """The Section 2 c-table representing 'either 0 or 1 is in the database'."""
        bot = Null("b")
        table = ConditionalTable.create(
            "C",
            [((1,), Eq(bot, 1)), ((0,), Eq(bot, 0))],
            global_condition=Or((Eq(bot, 0), Eq(bot, 1))),
        )
        worlds = table.possible_worlds(domain=[0, 1, 2, 3])
        assert worlds == {frozenset({(0,)}), frozenset({(1,)})}

    def test_from_relation_has_true_conditions(self):
        rel = Relation.create("R", [(1, 2), (3, Null("x"))])
        table = ConditionalTable.from_relation(rel)
        assert len(table) == 2
        assert all(row.condition is TRUE for row in table)

    def test_arity_checked(self):
        with pytest.raises(ValueError):
            ConditionalTable.create("C", [((1, 2), TRUE)], attributes=("a",))

    def test_empty_table_needs_attributes(self):
        with pytest.raises(ValueError):
            ConditionalTable.create("C", [])
        table = ConditionalTable.create("C", [], attributes=("a",))
        assert len(table) == 0

    def test_instantiate_respects_local_conditions(self):
        bot = Null("b")
        table = ConditionalTable.create("C", [((1,), Eq(bot, 1)), ((2,), TRUE)])
        world = table.instantiate(Valuation({bot: 5}))
        assert world is not None
        assert world.rows == frozenset({(2,)})

    def test_instantiate_respects_global_condition(self):
        bot = Null("b")
        table = ConditionalTable.create("C", [((1,), TRUE)], global_condition=Eq(bot, 0))
        assert table.instantiate(Valuation({bot: 1})) is None
        assert table.instantiate(Valuation({bot: 0})) is not None

    def test_certain_and_possible_rows(self):
        bot = Null("b")
        table = ConditionalTable.create(
            "C", [((1,), TRUE), ((2,), Eq(bot, 0))]
        )
        domain = [0, 1]
        assert table.certain_rows(domain) == {(1,)}
        assert table.possible_rows(domain) == {(1,), (2,)}

    def test_nulls_include_condition_only_nulls(self):
        bot = Null("b")
        table = ConditionalTable.create("C", [((1,), Eq(bot, 1))])
        assert bot in table.nulls()

    def test_simplified_drops_false_rows(self):
        table = ConditionalTable.create("C", [((1,), FALSE), ((2,), TRUE)])
        simplified = table.simplified()
        assert len(simplified) == 1
        assert simplified.rows[0].values == (2,)

    def test_simplified_false_global_empties_table(self):
        table = ConditionalTable.create("C", [((1,), TRUE)], global_condition=FALSE)
        assert len(table.simplified()) == 0

    def test_with_global_strengthens(self):
        bot = Null("b")
        table = ConditionalTable.create("C", [((1,), TRUE)])
        restricted = table.with_global(Eq(bot, 0))
        assert restricted.instantiate(Valuation({bot: 1})) is None

    def test_rename(self):
        table = ConditionalTable.create("C", [((1,), TRUE)]).rename("D")
        assert table.name == "D"

    def test_tuples_with_nulls_instantiated(self):
        bot = Null("b")
        table = ConditionalTable.create("C", [((bot, 1), TRUE)])
        worlds = table.possible_worlds([7])
        assert worlds == {frozenset({(7, 1)})}

    def test_str_and_repr(self):
        table = ConditionalTable.create("C", [((1,), TRUE)])
        assert "C" in str(table)
        assert "C" in repr(table)


def test_ctable_pickles_without_its_position_indexes():
    import pickle

    table = ConditionalTable.from_relation(
        Relation.create("R", [(i, i % 7) for i in range(500)] + [(Null("x"), 1)])
    )
    cold = len(pickle.dumps(table))
    table.position_index(1)
    assert len(pickle.dumps(table)) == cold
    clone = pickle.loads(pickle.dumps(table))
    assert clone._indexes is None
    assert (clone.schema, clone.rows, clone.global_condition) == (
        table.schema, table.rows, table.global_condition,
    )
    for constant in (0, 1, 6, 7):
        assert list(clone.position_index(1).candidates((constant,))) == list(
            table.position_index(1).candidates((constant,))
        )
