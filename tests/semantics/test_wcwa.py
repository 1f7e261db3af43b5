"""Unit tests for the weak-CWA semantics, worlds, δ-formula and representation system."""

import pytest

from repro.core import wcwa_leq, wcwa_representation_system
from repro.datamodel import Database, Null, Valuation
from repro.logic import adom_closure, delta_wcwa, is_positive, is_ucq
from repro.semantics import default_domain, in_wcwa, owa_worlds, wcwa_worlds
from repro.semantics.registry import SEMANTICS


@pytest.fixture
def incomplete_db():
    return Database.from_dict({"R": [(1, Null("x"))]})


class TestWcwaWorlds:
    def test_no_new_domain_elements(self, incomplete_db):
        for world in wcwa_worlds(incomplete_db, max_extra_facts=1):
            assert world.is_complete()
            assert in_wcwa(incomplete_db, world)

    def test_between_cwa_and_owa(self, incomplete_db):
        domain = default_domain(incomplete_db)
        wcwa = {frozenset(w.facts()) for w in wcwa_worlds(incomplete_db, domain, max_extra_facts=1)}
        owa = {frozenset(w.facts()) for w in owa_worlds(incomplete_db, domain, max_extra_facts=1)}
        assert wcwa <= owa
        # OWA worlds may use fresh constants in the added facts; weak CWA cannot.
        assert wcwa < owa

    def test_extra_facts_over_old_values_allowed(self, incomplete_db):
        domain = default_domain(incomplete_db)
        enumerated = {frozenset(w.facts()) for w in wcwa_worlds(incomplete_db, domain, max_extra_facts=1)}
        base = Valuation({Null("x"): 1}).apply(incomplete_db)
        extended = base.add_facts([("R", (1, 1))])
        assert frozenset(extended.facts()) in enumerated

    def test_registry_row(self, incomplete_db):
        assert list(SEMANTICS["wcwa"].worlds(incomplete_db, max_extra_facts=0))


class TestDeltaWcwa:
    def test_formula_is_positive_but_not_ucq(self, incomplete_db):
        formula = delta_wcwa(incomplete_db)
        assert is_positive(formula)
        assert not is_ucq(formula)

    def test_models_are_exactly_wcwa(self, incomplete_db):
        formula = delta_wcwa(incomplete_db)
        domain = default_domain(incomplete_db, extra_constants=1)
        pool = list(owa_worlds(incomplete_db, domain, max_extra_facts=1))
        pool.append(Database.from_dict({"R": [(9, 9)]}))
        for world in pool:
            assert formula.holds(world) == in_wcwa(incomplete_db, world)

    def test_adom_closure_alone(self):
        db = Database.from_dict({"R": [(1, 2)]})
        closure = adom_closure(db)
        assert closure.holds(db)
        same_values = db.add_facts([("R", (2, 1))])
        new_value = db.add_facts([("R", (3, 3))])
        assert closure.holds(same_values)
        assert not closure.holds(new_value)


class TestWcwaRepresentationSystem:
    def test_delta_in_fragment(self, incomplete_db):
        system = wcwa_representation_system()
        assert system.in_fragment(system.delta(incomplete_db))

    def test_structural_conditions(self, incomplete_db):
        system = wcwa_representation_system()
        complete = Database.from_dict({"R": [(1, 4)]})
        assert system.domain.condition_reflexivity(complete)
        for world in system.domain.semantics(incomplete_db):
            assert system.domain.condition_dominance(incomplete_db, world)

    def test_delta_defines_semantics(self, incomplete_db):
        system = wcwa_representation_system()
        domain = default_domain(incomplete_db, extra_constants=1)
        pool = list(owa_worlds(incomplete_db, domain, max_extra_facts=1))
        assert system.delta_defines_semantics(incomplete_db, pool)

    def test_ordering_is_onto_homomorphism_based(self, incomplete_db):
        system = wcwa_representation_system()
        more = Valuation({Null("x"): 1}).apply(incomplete_db)
        assert system.domain.less_equal(incomplete_db, more) == wcwa_leq(incomplete_db, more)
