"""Unit tests for the RA text parser."""

import pytest

from repro.algebra import (
    Comparison,
    Delta,
    Difference,
    Division,
    Intersection,
    NaturalJoin,
    PAnd,
    PNot,
    POr,
    Product,
    Projection,
    PTrue,
    RAParseError,
    RelationRef,
    Rename,
    Selection,
    Union_,
    parse_predicate,
    parse_ra,
)
from repro.datamodel import Database


@pytest.fixture
def db():
    return Database.from_dict({"R": [(1, 2), (3, 4)], "S": [(2,), (5,)]})


class TestExpressions:
    def test_relation_reference(self):
        assert parse_ra("R") == RelationRef("R")

    def test_delta_and_adom(self):
        assert isinstance(parse_ra("delta"), Delta)
        assert type(parse_ra("adom")).__name__ == "ActiveDomain"

    def test_projection_with_positions_and_names(self, db):
        expr = parse_ra("project[#1](R)")
        assert isinstance(expr, Projection)
        assert expr.evaluate(db).rows == frozenset({(2,), (4,)})
        named = parse_ra("project[o_id, product](Orders)")
        assert named.attributes == ("o_id", "product")

    def test_selection(self, db):
        expr = parse_ra("select[#0 = 1](R)")
        assert isinstance(expr, Selection)
        assert expr.evaluate(db).rows == frozenset({(1, 2)})

    def test_selection_with_string_constant(self):
        expr = parse_ra("select[product = 'pr1'](Orders)")
        assert isinstance(expr.predicate, Comparison)
        assert expr.predicate.right.value == "pr1"

    def test_binary_operators(self):
        assert isinstance(parse_ra("union(R, S)"), Union_)
        assert isinstance(parse_ra("diff(R, S)"), Difference)
        assert isinstance(parse_ra("difference(R, S)"), Difference)
        assert isinstance(parse_ra("intersect(R, S)"), Intersection)
        assert isinstance(parse_ra("product(R, S)"), Product)
        assert isinstance(parse_ra("join(R, S)"), NaturalJoin)
        assert isinstance(parse_ra("divide(R, S)"), Division)

    def test_rename(self):
        expr = parse_ra("rename[X](R)")
        assert isinstance(expr, Rename)
        assert expr.name == "X"
        assert expr.attributes is None
        expr2 = parse_ra("rename[X(a, b)](R)")
        assert expr2.attributes == ("a", "b")

    def test_nesting(self, db):
        expr = parse_ra("diff(project[#0](R), project[#0](select[#0 = 5](S)))")
        assert expr.evaluate(db).rows == frozenset({(1,), (3,)})

    def test_evaluation_round_trip(self, db):
        expr = parse_ra("union(project[#1](R), S)")
        assert expr.evaluate(db).rows == frozenset({(2,), (4,), (5,)})

    def test_errors(self):
        with pytest.raises(RAParseError):
            parse_ra("project[](R)")
        with pytest.raises(RAParseError):
            parse_ra("union(R)")
        with pytest.raises(RAParseError):
            parse_ra("R extra")
        with pytest.raises(RAParseError):
            parse_ra("select[#0 =](R)")
        with pytest.raises(RAParseError):
            parse_ra("")
        with pytest.raises(RAParseError):
            parse_ra("select [#0 = 1] R")


class TestPredicates:
    def test_comparison_operators(self):
        for op_text, op in [("=", "="), ("!=", "!="), ("<>", "!="), ("<", "<"), (">=", ">=")]:
            predicate = parse_predicate(f"#0 {op_text} 3")
            assert isinstance(predicate, Comparison)
            assert predicate.op == op

    def test_number_and_string_terms(self):
        predicate = parse_predicate("price >= 10.5")
        assert predicate.right.value == 10.5
        predicate = parse_predicate("name = 'bob'")
        assert predicate.right.value == "bob"

    def test_boolean_structure(self):
        predicate = parse_predicate("#0 = 1 and #1 = 2 or not #2 = 3")
        assert isinstance(predicate, POr)
        assert isinstance(predicate.operands[0], PAnd)
        assert isinstance(predicate.operands[1], PNot)

    def test_parentheses(self):
        predicate = parse_predicate("#0 = 1 and (#1 = 2 or #1 = 3)")
        assert isinstance(predicate, PAnd)
        assert isinstance(predicate.operands[1], POr)

    def test_true_literal(self):
        assert isinstance(parse_predicate("true"), PTrue)

    def test_attribute_to_attribute(self):
        predicate = parse_predicate("a = b")
        assert predicate.left.ref == "a"
        assert predicate.right.ref == "b"

    def test_trailing_input_rejected(self):
        with pytest.raises(RAParseError):
            parse_predicate("#0 = 1 #1")


def _docstring_examples():
    """The example queries of the parser module's docstring."""
    from repro.algebra import parser

    head = parser.__doc__.split("Grammar", 1)[0]
    return [line.strip() for line in head.splitlines() if line.startswith("    ")]


POSITIONAL = [
    "select[#0 = 1](R)",
    "select[#1 = #0](R)",
    "select[1 = #0 or #1 != -3](R)",
    "select[#0 = 'a' and not (#1 < 2.5)](R)",
    "project[#1, #0](R)",
    "project[#0, b](R)",
    "join(select[#0 = 1](R), project[#1](S))",
    "join(R, rename[S(a, b)](project[#1, #0](S)))",
]


def test_the_docstring_examples_are_read():
    assert len(_docstring_examples()) == 6


@pytest.mark.parametrize("text", _docstring_examples() + POSITIONAL)
def test_str_round_trips_through_the_parser(text):
    expression = parse_ra(text)
    assert parse_ra(str(expression)) == expression


def test_a_positional_reference_is_not_printed_as_a_constant():
    positional = parse_ra("select[#0 = 1](R)")
    assert str(positional) == "select[#0 = 1](R)"
    assert parse_ra("select[0 = 1](R)") != positional
