"""Unit tests for the RA fragment classifiers (positive, RA(Δ,π,×,∪), RA_cwa)."""

import pickle

import pytest

import repro
import repro.algebra.ra_cwa as ra_cwa
from repro.algebra import (
    Delta,
    Fragment,
    classify,
    divide,
    is_delta_fragment,
    is_positive,
    is_ra_cwa,
    parse_ra,
    project,
    relation,
    uses_difference,
    uses_division,
)
from repro.algebra.ast import Product, Projection, Union_
from repro.datamodel import Database, Null


class TestPositiveFragment:
    def test_spju_queries_are_positive(self):
        assert is_positive(parse_ra("project[#0](select[#1 = 'a'](R))"))
        assert is_positive(parse_ra("union(R, S)"))
        assert is_positive(parse_ra("join(product(R, S), T)"))

    def test_difference_is_not_positive(self):
        assert not is_positive(parse_ra("diff(R, S)"))

    def test_negated_selection_is_not_positive(self):
        assert not is_positive(parse_ra("select[not #0 = 1](R)"))
        assert not is_positive(parse_ra("select[#0 != 1](R)"))

    def test_disjunctive_selection_is_positive(self):
        assert is_positive(parse_ra("select[#0 = 1 or #0 = 2](R)"))

    def test_division_is_not_positive(self):
        assert not is_positive(parse_ra("divide(R, S)"))

    def test_intersection_is_not_positive_syntactically(self):
        # Intersection is expressible positively, but the syntactic checker
        # is conservative and treats only σ, π, ×, ⋈, ∪ as positive nodes.
        assert not is_positive(parse_ra("intersect(R, S)"))


class TestDeltaFragment:
    def test_base_relations_and_delta(self):
        assert is_delta_fragment(parse_ra("R"))
        assert is_delta_fragment(Delta())
        assert is_delta_fragment(parse_ra("project[#0](product(R, delta))"))
        assert is_delta_fragment(parse_ra("union(R, S)"))

    def test_selection_not_in_delta_fragment(self):
        assert not is_delta_fragment(parse_ra("select[#0 = 1](R)"))

    def test_difference_not_in_delta_fragment(self):
        assert not is_delta_fragment(parse_ra("diff(R, S)"))


class TestRaCwa:
    def test_positive_queries_are_ra_cwa(self):
        assert is_ra_cwa(parse_ra("project[#0](select[#1 = 'a'](R))"))

    def test_division_by_base_relation(self):
        assert is_ra_cwa(parse_ra("divide(R, S)"))

    def test_division_by_delta_fragment_query(self):
        divisor = project(Product(relation("S"), Delta()), (0,))
        query = divide(relation("R"), divisor)
        assert is_ra_cwa(query)

    def test_division_by_selection_rejected(self):
        query = divide(relation("R"), parse_ra("select[#0 = 1](S)"))
        assert not is_ra_cwa(query)

    def test_division_inside_positive_context(self):
        query = parse_ra("project[#0](divide(R, S))")
        assert is_ra_cwa(query)

    def test_difference_not_ra_cwa(self):
        assert not is_ra_cwa(parse_ra("diff(R, S)"))
        assert not is_ra_cwa(parse_ra("project[#0](diff(R, S))"))

    def test_nested_division(self):
        query = divide(divide(relation("T"), relation("S")), relation("U"))
        assert is_ra_cwa(query)


class TestClassifier:
    def test_classify_levels(self):
        assert classify(parse_ra("project[#0](R)")) is Fragment.POSITIVE
        assert classify(parse_ra("divide(R, S)")) is Fragment.RA_CWA
        assert classify(parse_ra("diff(R, S)")) is Fragment.FULL

    def test_uses_difference_and_division(self):
        assert uses_difference(parse_ra("project[#0](diff(R, S))"))
        assert not uses_difference(parse_ra("union(R, S)"))
        assert uses_division(parse_ra("divide(R, S)"))
        assert not uses_division(parse_ra("union(R, S)"))


class TestFragmentPin:
    QUERIES = {
        "project[#0](R)": Fragment.POSITIVE,
        "divide(R, S)": Fragment.RA_CWA,
        "diff(project[#0](R), S)": Fragment.FULL,
    }

    @staticmethod
    def _database():
        return Database.from_dict({"R": [(1, 2), (Null("x"), 2), (3, 4)], "S": [(2,), (Null("y"),)]})

    def test_is_positive_runs_once_per_expression_object(self, monkeypatch):
        calls = []
        real = ra_cwa.is_positive

        def counting(expression):
            calls.append(expression)
            return real(expression)

        monkeypatch.setattr(ra_cwa, "is_positive", counting)
        with repro.connect(self._database()) as session:
            for text, fragment in self.QUERIES.items():
                expression = parse_ra(text)
                first = (session.query(expression).certain(), session.query(expression).explain())
                for _ in range(3):
                    assert session.query(expression).certain() == first[0]
                    assert session.query(expression).explain() == first[1]
                assert classify(expression) is fragment
                assert [id(e) for e in calls].count(id(expression)) == 1
        assert len(calls) == len(self.QUERIES)

    def test_pinned_verdicts_match_a_fresh_classification(self):
        for text, fragment in self.QUERIES.items():
            pinned = parse_ra(text)
            assert classify(pinned) is classify(pinned) is fragment
            fresh = parse_ra(text)
            assert is_positive(fresh) is (fragment is Fragment.POSITIVE)
            assert is_ra_cwa(fresh) is (fragment is not Fragment.FULL)

    def test_pin_does_not_change_equality_or_pickling(self):
        expression = parse_ra("union(project[#0](R), S)")
        twin = parse_ra("union(project[#0](R), S)")
        classify(expression)
        assert expression == twin and hash(expression) == hash(twin)
        assert pickle.loads(pickle.dumps(expression)) == twin
