"""Property-based tests for naive evaluation (eq. (4)) on random positive queries."""

from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.algebra import (
    Attr,
    Comparison,
    Difference,
    Division,
    Projection,
    RelationRef,
    Selection,
    Union_,
    is_positive,
    naive_certain_answers,
    parse_ra,
)
from repro.datamodel import Database, is_null

from .strategies import databases


def positive_queries():
    """A small strategy of structurally distinct positive queries over R/2, S/1."""
    r, s = RelationRef("R"), RelationRef("S")
    pool = [
        r,
        s,
        Projection(r, (0,)),
        Projection(r, (1,)),
        Selection(r, Comparison(Attr(0), "=", "a")),
        Selection(r, Comparison(Attr(0), "=", Attr(1))),
        Union_(Projection(r, (0,)), s),
        Union_(Projection(r, (1,)), s),
        Projection(Selection(r, Comparison(Attr(1), "=", "b")), (0,)),
    ]
    return st.sampled_from(pool)


@settings(max_examples=50, deadline=None)
@given(databases(max_rows=3), positive_queries())
def test_naive_evaluation_computes_certain_answers_cwa(database, query):
    """Q(D)_cmpl = certain_cwa(Q, D) for every generated positive query."""
    assert is_positive(query)
    naive = naive_certain_answers(query, database)
    exact = repro.connect(database).query(query).certain(method="enumeration")
    assert naive.rows == exact.rows


@settings(max_examples=25, deadline=None)
@given(databases(max_rows=2), positive_queries())
def test_naive_evaluation_computes_certain_answers_owa(database, query):
    """The OWA variant of eq. (4), with a bounded fact extension (monotone queries)."""
    naive = naive_certain_answers(query, database)
    exact = (
        repro.connect(database, semantics="owa")
        .query(query)
        .certain(method="enumeration", max_extra_facts=1)
    )
    assert naive.rows == exact.rows


def other_queries():
    """Queries outside the positive fragment: difference and division."""
    r, s = RelationRef("R"), RelationRef("S")
    return st.sampled_from(
        [Difference(Projection(r, (0,)), s), Division(r, s), Projection(Difference(r, r), (1,))]
    )


@given(st.one_of(positive_queries(), other_queries()))
def test_naive_under_owa_implies_naive_under_every_semantics(query):
    """Applies under OWA => applies under CWA (and under every registered
    semantics' own test): the degradation ladder's exact rung already covers
    every query whose naive answer is certain_owa, so it needs no OWA rung."""
    from repro.core import naive_evaluation_applies
    from repro.semantics.registry import SEMANTICS
    from repro.semantics.strategies import NAIVE

    if naive_evaluation_applies(query, semantics="owa").applies:
        assert naive_evaluation_applies(query, semantics="cwa").applies
        assert all(NAIVE.applies(semantics, query) for semantics in SEMANTICS.values())


@settings(max_examples=50, deadline=None)
@given(databases(max_rows=3), positive_queries())
def test_certain_answers_are_a_subset_of_the_naive_answer(database, query):
    """Even before filtering, every certain answer appears in the naive answer."""
    naive_all = query.evaluate(database)
    exact = repro.connect(database).query(query).certain(method="enumeration")
    assert not any(is_null(value) for row in exact.rows for value in row)
    assert exact.rows <= naive_all.rows


@settings(max_examples=50, deadline=None)
@given(databases(max_rows=3), positive_queries())
def test_positive_queries_monotone_under_valuations(database, query):
    """Q(D) ⊑_owa Q(v(D)): answers only gain information as nulls are resolved."""
    from repro.core import relation_leq
    from repro.datamodel import Valuation

    valuation = Valuation({null: "z" for null in database.nulls()})
    before = query.evaluate(database)
    after = query.evaluate(valuation.apply(database))
    assert relation_leq(before, after, semantics="owa")
