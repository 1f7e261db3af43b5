"""Unit tests for conjunctive-query containment and the certain-answer duality."""

import pytest

from repro.datamodel import Database, DatabaseSchema, Null
from repro.logic import (
    FOQuery,
    are_equivalent,
    atom,
    certain_boolean_via_containment,
    conj,
    exists,
    homomorphism_witnesses_containment,
    is_contained,
    is_contained_boolean,
    var,
    variables,
)
from repro.semantics import enumerate_certain_boolean


SCHEMA = DatabaseSchema.from_arities({"R": 2})
X, Y, Z = var("x"), var("y"), var("z")


def boolean_cq(formula):
    return FOQuery(formula)


class TestBooleanContainment:
    def test_more_constrained_query_is_contained(self):
        symmetric_edge = boolean_cq(exists((X, Y), conj(atom("R", X, Y), atom("R", Y, X))))
        some_edge = boolean_cq(exists((X, Y), atom("R", X, Y)))
        assert is_contained_boolean(symmetric_edge, some_edge, SCHEMA)
        assert not is_contained_boolean(some_edge, symmetric_edge, SCHEMA)

    def test_self_containment(self):
        query = boolean_cq(exists((X, Y), atom("R", X, Y)))
        assert is_contained_boolean(query, query, SCHEMA)

    def test_containment_with_constants(self):
        specific = boolean_cq(exists(X, atom("R", 1, X)))
        generic = boolean_cq(exists((X, Y), atom("R", X, Y)))
        assert is_contained_boolean(specific, generic, SCHEMA)
        assert not is_contained_boolean(generic, specific, SCHEMA)

    def test_path_queries(self):
        path2 = boolean_cq(exists((X, Y, Z), conj(atom("R", X, Y), atom("R", Y, Z))))
        edge = boolean_cq(exists((X, Y), atom("R", X, Y)))
        assert is_contained_boolean(path2, edge, SCHEMA)
        # An edge does not guarantee a 2-path in general...
        assert not is_contained_boolean(edge, path2, SCHEMA)

    def test_non_boolean_rejected(self):
        free = FOQuery(atom("R", X, Y), (X, Y))
        closed = boolean_cq(exists((X, Y), atom("R", X, Y)))
        with pytest.raises(ValueError):
            is_contained_boolean(free, closed, SCHEMA)

    def test_non_cq_rejected(self):
        from repro.logic import Not

        negated = FOQuery(Not(exists((X, Y), atom("R", X, Y))))
        other = boolean_cq(exists((X, Y), atom("R", X, Y)))
        with pytest.raises(ValueError):
            is_contained_boolean(negated, other, SCHEMA)

    def test_hom_witness_agrees_with_containment(self):
        symmetric_edge = boolean_cq(exists((X, Y), conj(atom("R", X, Y), atom("R", Y, X))))
        some_edge = boolean_cq(exists((X, Y), atom("R", X, Y)))
        assert homomorphism_witnesses_containment(symmetric_edge, some_edge, SCHEMA) is not None
        assert homomorphism_witnesses_containment(some_edge, symmetric_edge, SCHEMA) is None


class TestNonBooleanContainment:
    def test_free_variable_containment(self):
        # Q1(x) = ∃y R(x,y) ∧ R(y,x)   ⊆   Q2(x) = ∃y R(x,y)
        q1 = FOQuery(exists(Y, conj(atom("R", X, Y), atom("R", Y, X))), (X,))
        q2 = FOQuery(exists(Y, atom("R", X, Y)), (X,))
        assert is_contained(q1, q2, SCHEMA)
        assert not is_contained(q2, q1, SCHEMA)

    def test_arity_mismatch_rejected(self):
        q1 = FOQuery(exists(Y, atom("R", X, Y)), (X,))
        q2 = FOQuery(atom("R", X, Y), (X, Y))
        with pytest.raises(ValueError):
            is_contained(q1, q2, SCHEMA)

    def test_equivalence(self):
        q1 = FOQuery(exists(Y, atom("R", X, Y)), (X,))
        q2 = FOQuery(exists(Z, atom("R", X, Z)), (X,))
        assert are_equivalent(q1, q2, SCHEMA)


class TestCertainAnswerDuality:
    def test_certain_answer_via_containment_matches_enumeration(self):
        """certain_owa(Q, D) iff D ⊨ Q iff Q_D ⊆ Q (Section 4)."""
        null = Null("n")
        db = Database.from_dict({"R": [(1, null), (null, 2)]})
        query = boolean_cq(exists((X, Y, Z), conj(atom("R", X, Y), atom("R", Y, Z))))
        via_containment = certain_boolean_via_containment(query, db)
        via_naive = query.formula.holds(db)
        via_enumeration = enumerate_certain_boolean(
            lambda world: query.formula.holds(world), db, semantics="owa", max_extra_facts=0
        )
        assert via_containment is True
        assert via_containment == via_naive == via_enumeration

    def test_negative_case(self):
        null = Null("n")
        db = Database.from_dict({"R": [(1, null)]})
        query = boolean_cq(exists(X, atom("R", X, 2)))
        assert not certain_boolean_via_containment(query, db)
        assert not query.formula.holds(db)

    def test_boolean_required(self):
        q_free = FOQuery(exists(Y, atom("R", X, Y)), (X,))
        db = Database.from_dict({"R": [(1, 2)]})
        with pytest.raises(ValueError):
            certain_boolean_via_containment(q_free, db)
