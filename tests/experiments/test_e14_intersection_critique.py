"""E14 — Section 6, the critique of intersection-based certain answers.

Paper claim: for R = {(1,2), (2,⊥)} and the identity query Q, the classical
certain answer is {(1,2)} under both OWA and CWA.  This answer

* "misses information that there is a tuple whose first component is 2";
* is ⊑_owa-below every Q(R') for R' ∈ [[R]]_owa (fine under OWA), but under
  CWA "exactly the opposite is true": {(1,2)} is *not* ⊑_cwa-below any
  Q(R') — so in what sense it is certain under CWA "is quite mysterious";
* the naive answer Q(R) = R itself is the proper greatest lower bound.
"""

import pytest

import repro
from repro.algebra import parse_ra
from repro.core import CWA_ORDERING, OWA_ORDERING, is_certain_object, is_lower_bound
from repro.datamodel import Database, Null
from repro.logic import atom, exists, var
from repro.semantics import cwa_worlds


QUERY = parse_ra("R")


def as_db(relation):
    return Database.from_relations([relation.rename("__answer__")])


class TestTheClassicalAnswer:
    def test_intersection_answer_is_just_one_two(self, paper_section6_r):
        for semantics in ("cwa", "owa"):
            certain = (
                repro.connect(paper_section6_r, semantics=semantics)
                .query(QUERY)
                .certain(method="enumeration", max_extra_facts=1)
            )
            assert certain.rows == frozenset({(1, 2)})

    def test_it_misses_the_second_tuple_information(self, paper_section6_r):
        """'There is a tuple whose first component is 2' is certain knowledge
        that the intersection answer cannot express."""
        x = var("x")
        second_tuple_exists = exists(x, atom("__answer__", 2, x))
        intersection_answer = as_db(
            repro.connect(paper_section6_r).query(QUERY).certain(method="enumeration")
        )
        # The knowledge holds in every world's answer ...
        for world in cwa_worlds(paper_section6_r):
            assert second_tuple_exists.holds(as_db(QUERY.evaluate(world)))
        # ... but not in the intersection answer.
        assert not second_tuple_exists.holds(intersection_answer)
        # The naive (object) answer does carry it.
        naive = repro.connect(paper_section6_r).query(QUERY).answer_object()
        assert second_tuple_exists.holds(as_db(naive))


class TestOrderingsExposeTheProblem:
    def test_intersection_is_an_owa_lower_bound(self, paper_section6_r):
        answers = [as_db(QUERY.evaluate(w)) for w in cwa_worlds(paper_section6_r)]
        intersection = as_db(
            repro.connect(paper_section6_r).query(QUERY).certain(method="enumeration")
        )
        assert is_lower_bound(intersection, answers, OWA_ORDERING)

    def test_intersection_is_not_cwa_below_any_answer(self, paper_section6_r):
        """The paper's 'exactly the opposite is true' under CWA."""
        answers = [as_db(QUERY.evaluate(w)) for w in cwa_worlds(paper_section6_r)]
        intersection = as_db(
            repro.connect(paper_section6_r).query(QUERY).certain(method="enumeration")
        )
        assert all(not CWA_ORDERING(intersection, answer) for answer in answers)
        assert not is_lower_bound(intersection, answers, CWA_ORDERING)

    def test_naive_answer_is_the_greatest_lower_bound(self, paper_section6_r):
        answers = [as_db(QUERY.evaluate(w)) for w in cwa_worlds(paper_section6_r)]
        naive_object = as_db(repro.connect(paper_section6_r).query(QUERY).answer_object())
        intersection = as_db(
            repro.connect(paper_section6_r).query(QUERY).certain(method="enumeration")
        )
        assert is_certain_object(naive_object, answers, CWA_ORDERING, competitors=[])
        assert is_certain_object(
            naive_object, answers, OWA_ORDERING, competitors=[intersection]
        )
        # and it is strictly more informative than the intersection answer
        assert OWA_ORDERING(intersection, naive_object)
        assert not OWA_ORDERING(naive_object, intersection)
