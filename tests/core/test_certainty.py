"""Unit tests for certainO / certainK (Section 5.3) and the intersection critique."""

import pytest

import repro
from repro.algebra import parse_ra
from repro.core import (
    CWA_ORDERING,
    OWA_ORDERING,
    certain_knowledge_formula,
    certain_object_owa,
    intersection_object,
    is_certain_knowledge,
    is_certain_object,
    is_lower_bound,
    knowledge_includes,
    product_object,
    theory_of,
)
from repro.homomorphisms import exists_homomorphism, is_core
from repro.datamodel import Database, Null, Relation
from repro.logic import atom, delta_cwa, delta_owa, exists, var
from repro.semantics import cwa_worlds, default_domain


@pytest.fixture
def paper_r():
    """R = {(1,2), (2,⊥)} from Section 6."""
    return Database.from_dict({"R": [(1, 2), (2, Null("x"))]})


def answer_databases(query, database):
    """Q(D') for every CWA world D', wrapped back into one-relation databases."""
    return [
        Database.from_relations([query.evaluate(world).rename("__answer__")])
        for world in cwa_worlds(database)
    ]


class TestCertainObject:
    def test_naive_answer_is_owa_glb(self, paper_r):
        query = parse_ra("R")
        answers = answer_databases(query, paper_r)
        naive_object = Database.from_relations(
            [repro.connect(paper_r).query(query).answer_object().rename("__answer__")]
        )
        intersection = intersection_object(answers)
        assert is_certain_object(naive_object, answers, OWA_ORDERING, competitors=[intersection])

    def test_naive_answer_is_cwa_glb(self, paper_r):
        query = parse_ra("R")
        answers = answer_databases(query, paper_r)
        naive_object = Database.from_relations(
            [repro.connect(paper_r).query(query).answer_object().rename("__answer__")]
        )
        assert is_certain_object(naive_object, answers, CWA_ORDERING, competitors=[])

    def test_intersection_is_not_even_a_cwa_lower_bound(self, paper_r):
        """The paper's critique: {(1,2)} is not ⊑_cwa below any Q(R'), R' ∈ [[R]]_cwa."""
        query = parse_ra("R")
        answers = answer_databases(query, paper_r)
        intersection = intersection_object(answers)
        assert intersection is not None
        assert not is_lower_bound(intersection, answers, CWA_ORDERING)
        assert not any(CWA_ORDERING(intersection, answer) for answer in answers)

    def test_intersection_is_an_owa_lower_bound_but_not_greatest(self, paper_r):
        query = parse_ra("R")
        answers = answer_databases(query, paper_r)
        intersection = intersection_object(answers)
        naive_object = Database.from_relations(
            [repro.connect(paper_r).query(query).answer_object().rename("__answer__")]
        )
        assert is_lower_bound(intersection, answers, OWA_ORDERING)
        assert not is_certain_object(
            intersection, answers, OWA_ORDERING, competitors=[naive_object]
        )

    def test_intersection_object_requires_common_schema(self):
        left = Database.from_dict({"R": [(1,)]})
        right = Database.from_dict({"S": [(1,)]})
        with pytest.raises(ValueError):
            intersection_object([left, right])
        assert intersection_object([]) is None

    def test_certain_object_of_singleton_is_itself(self, paper_r):
        assert is_certain_object(paper_r, [paper_r], CWA_ORDERING, competitors=[])


class TestProductObject:
    """The categorical product and the core-minimized certainO glue."""

    def test_product_projections_are_homomorphisms(self):
        left = Database.from_dict({"R": [(1, 2), (1, Null("x"))]})
        right = Database.from_dict({"R": [(1, 2), (3, 2)]})
        product = product_object(left, right)
        assert is_lower_bound(product, [left, right], OWA_ORDERING)

    def test_product_keeps_only_agreeing_constants(self):
        left = Database.from_dict({"R": [(1, 2)]})
        right = Database.from_dict({"R": [(1, 3)]})
        product = product_object(left, right)
        (row,) = product["R"].rows
        assert row[0] == 1  # both sides agree on the constant
        assert row[1] != 2 and row[1] != 3  # disagreeing pair became a null

    def test_product_requires_common_schema(self):
        with pytest.raises(ValueError):
            product_object(
                Database.from_dict({"R": [(1,)]}), Database.from_dict({"S": [(1,)]})
            )

    def test_certain_object_owa_is_the_glb(self):
        # Two instances with a common certain part: the glb must be exactly
        # that part (up to homomorphic equivalence), beating the weaker
        # fact-wise intersection competitor.
        left = Database.from_dict({"R": [(1, 2), (5, 6)]})
        right = Database.from_dict({"R": [(1, 2), (7, 8)]})
        glb = certain_object_owa([left, right])
        intersection = intersection_object([left, right])
        assert is_certain_object(glb, [left, right], OWA_ORDERING, competitors=[intersection])
        assert is_core(glb)

    def test_certain_object_owa_collapses_redundant_pairs(self):
        # The raw product of these two 2-fact instances has 4 facts; the
        # core collapses the homomorphically redundant pair rows.
        left = Database.from_dict({"R": [(1, Null("x")), (1, 2)]})
        right = Database.from_dict({"R": [(1, 2), (1, 9)]})
        glb = certain_object_owa([left, right])
        raw = product_object(left, right)
        assert glb.size() <= raw.size()
        assert exists_homomorphism(glb, raw) and exists_homomorphism(raw, glb)
        assert is_certain_object(glb, [left, right], OWA_ORDERING)

    def test_certain_object_owa_of_singleton_is_its_core(self):
        redundant = Database.from_dict({"R": [(1, 2), (1, Null("x"))]})
        glb = certain_object_owa([redundant])
        assert glb["R"].rows == frozenset({(1, 2)})

    def test_certain_object_owa_rejects_empty_family(self):
        with pytest.raises(ValueError):
            certain_object_owa([])

    def test_greedy_algorithm_switch_agrees(self):
        left = Database.from_dict({"R": [(1, Null("x")), (3, 4)]})
        right = Database.from_dict({"R": [(1, 5), (3, 4)]})
        block = certain_object_owa([left, right])
        greedy = certain_object_owa([left, right], algorithm="greedy")
        assert block.size() == greedy.size()
        assert exists_homomorphism(block, greedy) and exists_homomorphism(greedy, block)


class TestCertainKnowledge:
    def test_certain_knowledge_of_semantics_is_delta(self, paper_r):
        for semantics, delta_fn in (("owa", delta_owa), ("cwa", delta_cwa)):
            formula = certain_knowledge_formula(paper_r, semantics)
            assert str(formula) == str(delta_fn(paper_r))

    def test_delta_holds_in_every_represented_world(self, paper_r):
        formula = certain_knowledge_formula(paper_r, "cwa")
        worlds = list(cwa_worlds(paper_r))
        assert knowledge_includes(formula, worlds)

    def test_is_certain_knowledge_against_weaker_competitors(self, paper_r):
        formula = certain_knowledge_formula(paper_r, "cwa")
        worlds = list(cwa_worlds(paper_r))
        # A weaker formula that is also true everywhere must be implied on the pool.
        weaker = exists(var("x"), atom("R", 1, var("x")))
        candidates = worlds + [Database.from_dict({"R": [(9, 9)]})]
        assert is_certain_knowledge(formula, worlds, candidates, competitors=[weaker])

    def test_is_certain_knowledge_rejects_unsound_formula(self, paper_r):
        unsound = exists(var("x"), atom("R", 3, var("x")))
        worlds = list(cwa_worlds(paper_r))
        assert not is_certain_knowledge(unsound, worlds, worlds)

    def test_theory_of(self, paper_r):
        worlds = list(cwa_worlds(paper_r))
        true_everywhere = exists(var("x"), atom("R", 1, var("x")))
        false_somewhere = exists(var("x"), atom("R", 3, var("x")))
        theory = theory_of(worlds, [true_everywhere, false_somewhere])
        assert theory == [true_everywhere]
