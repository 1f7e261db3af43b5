"""Property-based tests for sound evaluation: never a false positive."""

from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.algebra import (
    Attr,
    Comparison,
    Difference,
    Intersection,
    Projection,
    RelationRef,
    Selection,
    Union_,
)
from repro.core import possible_answer_bound, rows_unifiable, sound_certain_answers

from .strategies import databases


def full_ra_queries():
    r, s = RelationRef("R"), RelationRef("S")
    pool = [
        Difference(Projection(r, (0,)), s),
        Difference(s, Projection(r, (1,))),
        Difference(Projection(r, (0,)), Projection(r, (1,))),
        Projection(Difference(r, Union_(r, r)), (0,)),
        Intersection(Projection(Selection(r, Comparison(Attr(0), "=", "a")), (1,)), s),
        Difference(Union_(Projection(r, (0,)), s), s),
    ]
    return st.sampled_from(pool)


@settings(max_examples=50, deadline=None)
@given(databases(max_rows=3), full_ra_queries())
def test_sound_evaluation_never_returns_a_false_positive(database, query):
    sound = sound_certain_answers(query, database)
    exact = repro.connect(database).query(query).certain(method="enumeration")
    assert sound.rows <= exact.rows


@settings(max_examples=40, deadline=None)
@given(databases(max_rows=2), full_ra_queries())
def test_upper_bound_covers_every_possible_answer(database, query):
    upper = possible_answer_bound(query, database)
    possible = repro.connect(database).query(query).possible()
    for row in possible.rows:
        assert any(rows_unifiable(row, candidate) for candidate in upper.rows)


@settings(max_examples=40, deadline=None)
@given(databases(allow_nulls=False, max_rows=3), full_ra_queries())
def test_sound_evaluation_is_exact_on_complete_databases(database, query):
    sound = sound_certain_answers(query, database)
    exact = repro.connect(database).query(query).certain(method="enumeration")
    assert sound.rows == exact.rows == query.evaluate(database).rows
