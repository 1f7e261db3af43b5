"""Unit tests for the information orderings ⊑_owa, ⊑_cwa, ⊑_wcwa."""

import pytest

from repro.core import (
    CWA_ORDERING,
    OWA_ORDERING,
    WCWA_ORDERING,
    cwa_leq,
    owa_leq,
    relation_leq,
    semantic_leq,
    wcwa_leq,
)
from repro.datamodel import Database, Null, Relation
from repro.semantics import cwa_worlds, default_domain
from repro.semantics.registry import SEMANTICS, semantics_named


@pytest.fixture
def less_informative():
    return Database.from_dict({"R": [(1, Null("x"))]})


@pytest.fixture
def more_informative():
    return Database.from_dict({"R": [(1, 2)]})


class TestOwaOrdering:
    def test_replacing_a_null_increases_information(self, less_informative, more_informative):
        assert owa_leq(less_informative, more_informative)
        assert not owa_leq(more_informative, less_informative)

    def test_adding_facts_increases_information(self, more_informative):
        bigger = more_informative.add_facts([("R", (3, 4))])
        assert owa_leq(more_informative, bigger)
        assert not owa_leq(bigger, more_informative)

    def test_reflexive(self, less_informative):
        assert owa_leq(less_informative, less_informative)

    def test_renaming_nulls_gives_equivalence(self):
        left = Database.from_dict({"R": [(Null("x"), 1)]})
        right = Database.from_dict({"R": [(Null("y"), 1)]})
        assert OWA_ORDERING.equivalent(left, right)


class TestCwaOrdering:
    def test_replacing_a_null_increases_information(self, less_informative, more_informative):
        assert cwa_leq(less_informative, more_informative)

    def test_adding_facts_is_not_cwa_increase(self, more_informative):
        bigger = more_informative.add_facts([("R", (3, 4))])
        assert not cwa_leq(more_informative, bigger)
        assert owa_leq(more_informative, bigger)

    def test_collapsing_nulls_is_a_cwa_increase(self):
        two_rows = Database.from_dict({"R": [(Null("x"),), (Null("y"),)]})
        one_row = Database.from_dict({"R": [(5,)]})
        assert cwa_leq(two_rows, one_row)

    def test_cwa_implies_owa(self, less_informative):
        candidates = [
            Database.from_dict({"R": [(1, 7)]}),
            Database.from_dict({"R": [(1, 7), (2, 2)]}),
            Database.from_dict({"R": [(3, 3)]}),
        ]
        for candidate in candidates:
            if cwa_leq(less_informative, candidate):
                assert owa_leq(less_informative, candidate)


class TestWcwaOrdering:
    def test_between_owa_and_cwa(self, less_informative):
        same_adom_extra_fact = Database.from_dict({"R": [(1, 1), (1, 1)]}).add_facts(
            [("R", (1, 1))]
        )
        assert wcwa_leq(less_informative, same_adom_extra_fact)
        new_value_fact = Database.from_dict({"R": [(1, 1), (9, 9)]})
        assert not wcwa_leq(less_informative, new_value_fact)
        assert owa_leq(less_informative, new_value_fact)


class TestOrderingHelpers:
    def test_ordering_lookup(self):
        assert SEMANTICS["owa"].ordering is OWA_ORDERING
        assert SEMANTICS["cwa"].ordering is CWA_ORDERING
        assert SEMANTICS["wcwa"].ordering is WCWA_ORDERING
        assert SEMANTICS["prob"].ordering is CWA_ORDERING
        with pytest.raises(ValueError):
            semantics_named("other")

    def test_lower_and_upper_bounds(self, less_informative, more_informative):
        another = Database.from_dict({"R": [(1, 3)]})
        assert OWA_ORDERING.is_lower_bound(less_informative, [more_informative, another])
        assert not OWA_ORDERING.is_upper_bound(less_informative, [more_informative])

    def test_greatest_lower_bound_check(self, less_informative, more_informative):
        another = Database.from_dict({"R": [(1, 3)]})
        weaker = Database.from_dict({"R": [(Null("a"), Null("b"))]})
        assert OWA_ORDERING.is_greatest_lower_bound(
            less_informative, [more_informative, another], competitors=[weaker]
        )
        assert not OWA_ORDERING.is_greatest_lower_bound(
            weaker, [more_informative, another], competitors=[less_informative]
        )

    def test_relation_leq(self):
        smaller = Relation.create("A", [(1, Null("x"))])
        larger = Relation.create("A", [(1, 2), (3, 4)])
        assert relation_leq(smaller, larger, "owa")
        assert not relation_leq(smaller, larger, "cwa")
        with pytest.raises(ValueError):
            relation_leq(smaller, Relation.create("A", [(1,)]), "owa")

    def test_semantic_definition_agrees_with_hom_characterisation(self):
        """x ⊑ y ⇔ [[y]] ⊆ [[x]], cross-checked over finite CWA worlds."""
        left = Database.from_dict({"R": [(1, Null("x"))]})
        candidates = [
            Database.from_dict({"R": [(1, 2)]}),
            Database.from_dict({"R": [(1, Null("y"))]}),
            Database.from_dict({"R": [(2, 2)]}),
        ]
        shared_domain = default_domain(left, extra_constants=2, constants=[2])

        def worlds_of(db):
            return cwa_worlds(db, domain=shared_domain)

        for right in candidates:
            assert cwa_leq(left, right) == semantic_leq(left, right, worlds_of)
