"""Unit tests for the abstract representation-system framework (Section 5.1–5.2)."""

import pytest

from repro.core import (
    cwa_representation_system,
    owa_representation_system,
    relational_domain,
)
from repro.datamodel import Database, Null, Valuation
from repro.logic import delta_cwa, delta_owa
from repro.semantics import cwa_worlds, default_domain, owa_worlds
from repro.semantics.registry import SEMANTICS


@pytest.fixture
def incomplete_db():
    return Database.from_dict({"R": [(1, Null("x")), (Null("x"), 2)]})


@pytest.fixture
def complete_db():
    return Database.from_dict({"R": [(1, 3), (3, 2)]})


class TestRelationalDomain:
    def test_is_complete(self, incomplete_db, complete_db):
        domain = relational_domain("cwa")
        assert not domain.is_complete(incomplete_db)
        assert domain.is_complete(complete_db)

    def test_semantics_enumeration(self, incomplete_db):
        domain = relational_domain("cwa")
        worlds = domain.semantics(incomplete_db)
        assert worlds
        assert all(world.is_complete() for world in worlds)

    def test_contains_is_exact_membership(self, incomplete_db, complete_db):
        cwa = relational_domain("cwa")
        owa = relational_domain("owa")
        assert cwa.contains(incomplete_db, complete_db)
        bigger = complete_db.add_facts([("R", (9, 9))])
        assert not cwa.contains(incomplete_db, bigger)
        assert owa.contains(incomplete_db, bigger)

    def test_ordering_exposed(self, incomplete_db, complete_db):
        domain = relational_domain("cwa")
        assert domain.less_equal(incomplete_db, complete_db)
        assert not domain.less_equal(complete_db, incomplete_db)


@pytest.mark.parametrize("name", sorted(SEMANTICS))
class TestEveryRegistryRow:
    """Each row of the registry is a representation system (Section 5):
    worlds, membership, ``⊑`` and ``δ`` agree with one another."""

    def test_condition_1_complete_object_denotes_itself(self, name, complete_db):
        assert relational_domain(name).condition_reflexivity(complete_db)

    def test_condition_2_represented_objects_are_above(self, name, incomplete_db):
        domain = relational_domain(name)
        for world in domain.semantics(incomplete_db):
            assert domain.condition_dominance(incomplete_db, world)

    def test_every_world_is_a_member_above_d_satisfying_delta(self, name, incomplete_db):
        row = SEMANTICS[name]
        formula = row.delta(incomplete_db)
        worlds = list(row.worlds(incomplete_db, max_extra_facts=1))
        assert worlds
        for world in worlds:
            assert row.member(incomplete_db, world)
            assert formula.holds(world)
            assert row.ordering(incomplete_db, world)

    def test_membership_is_delta_over_an_owa_pool(self, name, incomplete_db):
        row = SEMANTICS[name]
        formula = row.delta(incomplete_db)
        domain = default_domain(incomplete_db, extra_constants=1)
        pool = list(owa_worlds(incomplete_db, domain, max_extra_facts=1))
        pool.append(Database.from_dict({"R": [(5, 5)]}))
        verdicts = {row.member(incomplete_db, world) for world in pool}
        assert verdicts == {True, False}
        for world in pool:
            assert row.member(incomplete_db, world) == formula.holds(world)


class TestOwaRepresentationSystem:
    def test_delta_formula_is_in_fragment(self, incomplete_db):
        system = owa_representation_system()
        assert system.in_fragment(system.delta(incomplete_db))

    def test_delta_is_delta_owa(self, incomplete_db):
        system = owa_representation_system()
        assert str(system.delta(incomplete_db)) == str(delta_owa(incomplete_db))

    def test_delta_defines_semantics(self, incomplete_db):
        system = owa_representation_system()
        domain = default_domain(incomplete_db, extra_constants=1)
        pool = list(owa_worlds(incomplete_db, domain, max_extra_facts=1))
        pool.append(Database.from_dict({"R": [(5, 5)]}))
        assert system.delta_defines_semantics(incomplete_db, pool)

    def test_satisfaction_upward_closed(self, incomplete_db):
        system = owa_representation_system()
        more = Valuation({Null("x"): 9}).apply(incomplete_db)
        formulas = [system.delta(incomplete_db)]
        assert system.satisfaction_is_upward_closed(incomplete_db, more, formulas)

    def test_models_of_delta_are_upward_cone(self, incomplete_db):
        """Mod(δ_x) = ↑x over a pool of incomplete and complete candidates."""
        system = owa_representation_system()
        candidates = [
            incomplete_db,
            Valuation({Null("x"): 9}).apply(incomplete_db),
            Valuation({Null("x"): 9}).apply(incomplete_db).add_facts([("R", (7, 7))]),
            Database.from_dict({"R": [(1, 4)]}),
            Database.from_dict({"R": [(1, Null("z")), (Null("z"), 2), (0, 0)]}),
        ]
        assert system.models_of_delta_are_upward_cone(incomplete_db, candidates)


class TestCwaRepresentationSystem:
    def test_delta_formula_is_in_fragment(self, incomplete_db):
        system = cwa_representation_system()
        assert system.in_fragment(system.delta(incomplete_db))

    def test_delta_is_delta_cwa(self, incomplete_db):
        system = cwa_representation_system()
        assert str(system.delta(incomplete_db)) == str(delta_cwa(incomplete_db))

    def test_delta_defines_semantics(self, incomplete_db):
        system = cwa_representation_system()
        domain = default_domain(incomplete_db, extra_constants=1)
        pool = list(owa_worlds(incomplete_db, domain, max_extra_facts=1))
        pool.append(Database.from_dict({"R": [(5, 5)]}))
        assert system.delta_defines_semantics(incomplete_db, pool)

    def test_models_of_delta_are_upward_cone(self, incomplete_db):
        system = cwa_representation_system()
        candidates = [
            incomplete_db,
            Valuation({Null("x"): 9}).apply(incomplete_db),
            # adding facts leaves the CWA cone
            Valuation({Null("x"): 9}).apply(incomplete_db).add_facts([("R", (7, 7))]),
            Database.from_dict({"R": [(1, 4)]}),
        ]
        assert system.models_of_delta_are_upward_cone(incomplete_db, candidates)

    def test_ucq_delta_would_not_capture_cwa(self, incomplete_db):
        """Sanity: the OWA δ-formula over-approximates the CWA semantics."""
        owa_delta = delta_owa(incomplete_db)
        bigger = Valuation({Null("x"): 9}).apply(incomplete_db).add_facts([("R", (7, 7))])
        cwa_domain = relational_domain("cwa")
        assert owa_delta.holds(bigger)
        assert not cwa_domain.contains(incomplete_db, bigger)
