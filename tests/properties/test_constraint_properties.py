"""Property-based tests for constraint satisfaction over incomplete databases."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constraints import FunctionalDependency, InclusionDependency
from repro.datamodel import Database, Null, Relation
from repro.semantics import enumerate_certain_boolean, enumerate_possible_boolean

FD = FunctionalDependency("R", ("#0",), ("#1",))
IND = InclusionDependency("R", ("#1",), "S", ("#0",))

CONSTANTS = ["a", "b"]
NULL_NAMES = ["n1", "n2"]


def values():
    return st.one_of(st.sampled_from(CONSTANTS), st.sampled_from(NULL_NAMES).map(Null))


def databases():
    r_rows = st.lists(st.tuples(values(), values()), min_size=0, max_size=3)
    s_rows = st.lists(st.tuples(values()), min_size=0, max_size=2)
    return st.builds(
        lambda r, s: Database.from_relations(
            [Relation.create("R", r, arity=2), Relation.create("S", s, arity=1)]
        ),
        r_rows,
        s_rows,
    )


@settings(max_examples=50, deadline=None)
@given(databases())
def test_fd_certain_implies_possible(db):
    if FD.satisfied_certainly(db):
        assert FD.satisfied_possibly(db)


@settings(max_examples=50, deadline=None)
@given(databases())
def test_fd_satisfaction_matches_world_enumeration(db):
    check = lambda world: FD.satisfied_naively(world)
    assert FD.satisfied_certainly(db) == enumerate_certain_boolean(check, db, semantics="cwa")
    assert FD.satisfied_possibly(db) == enumerate_possible_boolean(check, db, semantics="cwa")


@settings(max_examples=50, deadline=None)
@given(databases())
def test_ind_certain_implies_naive_and_possible(db):
    if IND.satisfied_certainly(db):
        assert IND.satisfied_naively(db)
        assert IND.satisfied_possibly(db)


@settings(max_examples=50, deadline=None)
@given(databases())
def test_ind_satisfaction_matches_world_enumeration(db):
    check = lambda world: IND.satisfied_naively(world)
    assert IND.satisfied_certainly(db) == enumerate_certain_boolean(check, db, semantics="cwa")
    assert IND.satisfied_possibly(db) == enumerate_possible_boolean(check, db, semantics="cwa")


@settings(max_examples=50, deadline=None)
@given(databases())
def test_complete_databases_collapse_the_three_notions(db):
    if db.is_complete():
        assert (
            FD.satisfied_naively(db)
            == FD.satisfied_certainly(db)
            == FD.satisfied_possibly(db)
        )
        assert (
            IND.satisfied_naively(db)
            == IND.satisfied_certainly(db)
            == IND.satisfied_possibly(db)
        )
