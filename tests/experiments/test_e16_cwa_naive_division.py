"""E16 — Section 6.2, CWA-naive evaluation works for RA_cwa (division queries).

Paper claims:

* Pos∀G formulas are preserved under strong onto homomorphisms;
* Pos∀G forms a representation system under CWA; combining the two,
  *CWA-naive evaluation works for Pos∀G queries*;
* ``RA_cwa`` — positive relational algebra closed under division by
  RA(Δ,π,×,∪) queries — is the algebraic rendering of this class, so
  "one can fully trust answers to positive relational algebra queries, even
  extended with a rather liberal use of the division operator under the
  closed-world semantics".
"""

import pytest

import repro
from repro.algebra import divide, is_ra_cwa, naive_certain_answers, parse_ra, project, relation
from repro.core import is_preserved_under_homomorphisms, naive_evaluation_applies
from repro.datamodel import Database, Null, Relation
from repro.homomorphisms import all_homomorphisms
from repro.logic import ra_to_calculus
from repro.workloads import enrolment, random_database, random_ra_cwa_query


class TestEnrolmentScenario:
    def _db(self, seed=0, **kwargs):
        return enrolment(num_students=4, num_courses=2, seed=seed, **kwargs)

    @pytest.mark.parametrize("seed", range(4))
    def test_who_takes_every_course_naive_equals_exact(self, seed):
        database = self._db(seed=seed, null_fraction=0.3)
        query = parse_ra("divide(Enroll, Courses)")
        naive = naive_certain_answers(query, database)
        exact = repro.connect(database).query(query).certain(method="enumeration")
        assert naive.rows == exact.rows

    def test_null_course_can_complete_a_student(self):
        """A marked null in Enroll can certainly cover a course under CWA?  No —
        but it also must not destroy certainty of fully-enrolled students."""
        database = Database.from_relations(
            [
                Relation.create(
                    "Enroll",
                    [("alice", "c0"), ("alice", "c1"), ("bob", "c0"), ("bob", Null("b"))],
                    attributes=("student", "course"),
                ),
                Relation.create("Courses", [("c0",), ("c1",)], attributes=("course",)),
            ]
        )
        query = parse_ra("divide(Enroll, Courses)")
        naive = naive_certain_answers(query, database)
        exact = repro.connect(database).query(query).certain(method="enumeration")
        # alice is certain; bob is not (his null may be c0 again, not c1).
        assert naive.rows == exact.rows == frozenset({("alice",)})

    def test_auto_dispatcher_uses_naive_for_ra_cwa_under_cwa(self):
        database = self._db()
        query = parse_ra("divide(Enroll, Courses)")
        assert naive_evaluation_applies(query, "cwa").applies
        auto = repro.connect(database).query(query).certain()
        assert auto.rows == repro.connect(database).query(query).certain(method="enumeration").rows


class TestRandomisedRaCwaQueries:
    @pytest.mark.parametrize("seed", range(6))
    def test_naive_equals_enumeration(self, seed):
        database = enrolment(num_students=3, num_courses=2, null_fraction=0.25, seed=seed)
        query = random_ra_cwa_query(database.schema, "Enroll", "Courses", seed=seed)
        assert is_ra_cwa(query)
        naive = naive_certain_answers(query, database)
        exact = repro.connect(database).query(query).certain(method="enumeration")
        assert naive.rows == exact.rows

    def test_division_with_projected_divisor(self):
        database = Database.from_dict(
            {
                "R": [("a", 1, "x"), ("a", 2, "x"), ("b", 1, "y"), ("b", Null("n"), "y")],
                "S": [(1, "p"), (2, "q")],
            }
        )
        query = divide(relation("R").project([0, 1]), relation("S").project([0]))
        assert is_ra_cwa(query)
        naive = naive_certain_answers(query, database)
        exact = repro.connect(database).query(query).certain(method="enumeration")
        assert naive.rows == exact.rows


class TestPreservationUnderStrongOntoHoms:
    def test_pos_forall_guarded_translation_preserved(self):
        """The Pos∀G translation of a division query is preserved under strong onto homs."""
        from repro.logic import Exists, FOQuery
        from repro.semantics import cwa_worlds

        schema = enrolment(seed=0).schema
        query = ra_to_calculus(parse_ra("divide(Enroll, Courses)"), schema)
        boolean = FOQuery(Exists(list(query.head), query.formula))
        pairs = []
        for seed in range(3):
            source = enrolment(num_students=3, num_courses=2, null_fraction=0.4, seed=seed)
            for world in list(cwa_worlds(source))[:4]:
                for hom in all_homomorphisms(source, world, strong_onto=True, limit=1):
                    pairs.append((source, world, hom))
        assert pairs
        assert is_preserved_under_homomorphisms(boolean, pairs, strong_onto=True)

    def test_negation_not_preserved_under_strong_onto_homs(self):
        """A query with negation loses truth along a strong onto homomorphism."""
        from repro.logic import FOQuery, Not, atom

        source = Database.from_relations(
            [
                Relation.create("Enroll", [("a", "c0")], attributes=("student", "course")),
                Relation.create("Courses", [(Null("m"),)], attributes=("course",)),
            ]
        )
        target = Database.from_relations(
            [
                Relation.create("Enroll", [("a", "c0")], attributes=("student", "course")),
                Relation.create("Courses", [("c0",)], attributes=("course",)),
            ]
        )
        query = FOQuery(Not(atom("Courses", "c0")))
        homs = all_homomorphisms(source, target, strong_onto=True)
        assert homs
        pairs = [(source, target, hom) for hom in homs]
        assert not is_preserved_under_homomorphisms(query, pairs, strong_onto=True)
