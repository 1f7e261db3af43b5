"""E13 — Sections 5.3 and 6, the certainty operators certainO / certainK.

Paper claims:

* ``certainO [[x]] = x`` and ``certainK [[x]] = δ_x`` — the certain object
  of everything an object represents is the object itself, and the certain
  knowledge is its defining formula; also ``Th([[x]]) = Th(x)``;
* eqs. (9)/(10): for monotone generic queries (with a representation system
  on the answer side), ``certainO(Q, x) = Q(x)`` and
  ``certainK(Q, x) = δ_{Q(x)}`` — naive evaluation produces both notions of
  certainty.
"""

import pytest

import repro
from repro.algebra import parse_ra
from repro.core import (
    CWA_ORDERING,
    OWA_ORDERING,
    certain_knowledge_formula,
    intersection_object,
    is_certain_object,
    knowledge_includes,
)
from repro.datamodel import Database, Null
from repro.logic import atom, exists, var
from repro.semantics import cwa_worlds
from repro.workloads import random_database, random_positive_query


def as_answer_db(relation):
    return Database.from_relations([relation.rename("__answer__")])


class TestCertaintyOfAnObjectsSemantics:
    def test_certain_object_of_semantics_is_the_object(self):
        """x is the glb of [[x]]_cwa: a lower bound more informative than others."""
        db = Database.from_dict({"R": [(1, Null("a")), (2, 3)]})
        worlds = list(cwa_worlds(db))
        weaker_candidates = [
            Database.from_dict({"R": [(1, Null("p")), (2, Null("q"))]}),
            Database.from_dict({"R": [(Null("p"), Null("q")), (Null("r"), Null("s"))]}),
        ]
        assert is_certain_object(db, worlds, CWA_ORDERING, competitors=weaker_candidates)
        assert is_certain_object(db, worlds, OWA_ORDERING, competitors=weaker_candidates)

    def test_certain_knowledge_of_semantics_is_delta(self):
        db = Database.from_dict({"R": [(1, Null("a"))]})
        formula = certain_knowledge_formula(db, "cwa")
        worlds = list(cwa_worlds(db))
        assert knowledge_includes(formula, worlds)

    def test_theory_of_semantics_equals_theory_of_object(self):
        """Th([[x]]) = Th(x) restricted to a pool of existential positive formulas."""
        db = Database.from_dict({"R": [(1, Null("a")), (Null("a"), 2)]})
        x, y = var("x"), var("y")
        pool = [
            exists((x, y), atom("R", x, y)),
            exists(x, atom("R", 1, x)),
            exists(x, atom("R", x, 2)),
            exists(x, atom("R", 3, x)),
            exists(x, atom("R", x, x)),
        ]
        worlds = list(cwa_worlds(db))
        for formula in pool:
            in_theory_of_worlds = knowledge_includes(formula, worlds)
            in_theory_of_object = formula.holds(db)
            assert in_theory_of_worlds == in_theory_of_object, str(formula)


class TestEquationNineAndTen:
    @pytest.mark.parametrize("seed", range(5))
    def test_naive_answer_is_certain_object_for_positive_queries(self, seed):
        database = random_database(num_nulls=2, rows_per_relation=3, seed=seed)
        query = random_positive_query(database.schema, seed=seed)
        naive_answer = as_answer_db(repro.connect(database).query(query).answer_object())
        world_answers = [as_answer_db(query.evaluate(w)) for w in cwa_worlds(database)]
        competitors = [as_answer_db(query.evaluate(w).complete_part()) for w in cwa_worlds(database)]
        intersection = intersection_object(world_answers)
        competitors.append(intersection)
        assert is_certain_object(naive_answer, world_answers, OWA_ORDERING, competitors=competitors)

    def test_naive_answer_is_certain_object_under_cwa_ordering(self):
        database = Database.from_dict({"R": [(1, 2), (2, Null("x"))]})
        query = parse_ra("R")
        naive_answer = as_answer_db(repro.connect(database).query(query).answer_object())
        world_answers = [as_answer_db(query.evaluate(w)) for w in cwa_worlds(database)]
        assert is_certain_object(naive_answer, world_answers, CWA_ORDERING, competitors=[])

    def test_certain_knowledge_is_delta_of_naive_answer(self):
        """certainK(Q, D) = δ_{Q(D)} holds in every world's answer (eq. (10))."""
        database = Database.from_dict({"R": [(1, 2), (2, Null("x"))]})
        query = parse_ra("project[#1](R)")
        formula = repro.connect(database, semantics="owa").query(query).knowledge()
        for world in cwa_worlds(database):
            answer_db = Database.from_relations([query.evaluate(world).rename("Answer")])
            assert formula.holds(answer_db)

    def test_knowledge_answer_fails_for_non_monotone_queries(self):
        """For difference, δ_{Q(D)} need not hold in every answer — eq. (10) needs monotonicity."""
        database = Database.from_dict({"R": [(1, Null("a"))], "S": [(1, Null("b"))]})
        query = parse_ra("project[#0](diff(R, S))")
        formula = repro.connect(database, semantics="owa").query(query).knowledge()
        violated = False
        for world in cwa_worlds(database):
            answer_db = Database.from_relations([query.evaluate(world).rename("Answer")])
            if not formula.holds(answer_db):
                violated = True
        assert violated
