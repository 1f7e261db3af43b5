"""E10 — Section 4, the duality between incomplete databases and queries.

Paper claims:

* the incomplete relation R = {(1,⊥), (⊥,2)} "can be viewed as a tableau of
  a Boolean conjunctive query Q_R = ∃x R(1,x) ∧ R(x,2)", and
  ``Mod_C(Q_R) = [[R]]_owa`` (eq. (5));
* for a Boolean conjunctive query Q, ``certain_owa(Q, D)`` is true iff
  ``Q_D ⊆ Q`` iff ``D ⊨ Q`` (naive satisfaction) — finding certain answers
  is a special case of query containment.
"""

import pytest

from repro.datamodel import Database, Null
from repro.logic import (
    FOQuery,
    atom,
    certain_boolean_via_containment,
    conj,
    database_as_query,
    exists,
    is_contained_boolean,
    tableau_of_query,
    var,
)
from repro.homomorphisms import hom_equivalent
from repro.semantics import enumerate_certain_boolean, default_domain, in_owa, owa_worlds
from repro.workloads import random_database


@pytest.fixture
def paper_r():
    return Database.from_dict({"R": [(1, Null("b")), (Null("b"), 2)]})


class TestEquationFive:
    def test_q_r_has_the_paper_shape(self, paper_r):
        query = database_as_query(paper_r)
        text = str(query.formula)
        assert "R(1," in text and ", 2)" in text
        assert "∃" in text

    def test_models_coincide_with_owa_semantics(self, paper_r):
        """Mod_C(Q_R) = [[R]]_owa over a pool of candidate complete databases."""
        query = database_as_query(paper_r)
        domain = default_domain(paper_r, extra_constants=1)
        pool = list(owa_worlds(paper_r, domain, max_extra_facts=1))
        pool.extend(
            [
                Database.from_dict({"R": [(1, 3)]}),
                Database.from_dict({"R": [(3, 2), (1, 3)]}),
                Database.from_dict({"R": [(2, 1)]}),
            ]
        )
        for world in pool:
            assert query.formula.holds(world) == in_owa(paper_r, world)

    def test_tableau_of_q_r_recovers_r(self, paper_r):
        tableau, _ = tableau_of_query(database_as_query(paper_r), paper_r.schema)
        assert hom_equivalent(tableau, paper_r)


class TestCertainAnswersAsContainment:
    def _queries(self):
        x, y, z = var("x"), var("y"), var("z")
        return {
            "path2": FOQuery(exists((x, y, z), conj(atom("R", x, y), atom("R", y, z)))),
            "edge_from_1": FOQuery(exists(x, atom("R", 1, x))),
            "edge_to_3": FOQuery(exists(x, atom("R", x, 3))),
            "loop": FOQuery(exists(x, atom("R", x, x))),
        }

    def test_containment_naive_and_enumeration_agree(self, paper_r):
        for name, query in self._queries().items():
            via_containment = certain_boolean_via_containment(query, paper_r)
            via_naive = query.formula.holds(paper_r)
            via_enumeration = enumerate_certain_boolean(
                lambda world, q=query: q.formula.holds(world),
                paper_r,
                semantics="owa",
                max_extra_facts=0,
            )
            assert via_containment == via_naive == via_enumeration, name

    def test_expected_verdicts_on_the_paper_instance(self, paper_r):
        queries = self._queries()
        assert certain_boolean_via_containment(queries["path2"], paper_r)
        assert certain_boolean_via_containment(queries["edge_from_1"], paper_r)
        assert not certain_boolean_via_containment(queries["edge_to_3"], paper_r)
        assert not certain_boolean_via_containment(queries["loop"], paper_r)

    def test_containment_formulation_is_explicit(self, paper_r):
        """certain(Q, D) iff Q_D ⊆ Q, using the containment checker directly."""
        q_d = database_as_query(paper_r)
        query = self._queries()["path2"]
        assert is_contained_boolean(q_d, query, paper_r.schema)

    @pytest.mark.parametrize("seed", range(4))
    def test_duality_on_random_instances(self, seed):
        database = random_database(
            num_relations=1, arity=2, rows_per_relation=3, num_nulls=2, seed=seed
        )
        database = Database.from_dict({"R": [row for row in database.relation("R0")]})
        x, y, z = var("x"), var("y"), var("z")
        query = FOQuery(exists((x, y, z), conj(atom("R", x, y), atom("R", y, z))))
        assert certain_boolean_via_containment(query, database) == query.formula.holds(database)
