"""Naive evaluation of relational-algebra queries over incomplete databases.

*Naive evaluation* (paper, Sections 2 and 6) evaluates a query on a
database with nulls exactly as if the nulls were ordinary constants: a
marked null is equal to itself and different from everything else.  The
paper's central practical message is that, for the right query classes and
the right semantics of query answers, naive evaluation already produces
correct certain answers:

* ``Q(D)_cmpl = certain(Q, D)`` for UCQs / positive relational algebra,
  under both OWA and CWA (eq. (4));
* ``certainO(Q, D) = Q(D)`` for monotone generic queries with a suitable
  answer semantics (eq. (9)), in particular for ``RA_cwa`` under CWA.

This module exposes naive evaluation itself plus the two post-processing
conventions used throughout the experiments: keeping the full naive answer
(the *object* certain answer) and keeping only its null-free part (the
classical intersection-style certain answer, obtained by appending the
``IS NOT NULL`` filter the paper mentions).  All four run the seed
interpreter; sessions run the same recipes on their own engine.
"""

from __future__ import annotations

from ..datamodel import Database, Relation
from .ast import RAExpression


def naive_evaluate(expression: RAExpression, database: Database) -> Relation:
    """Evaluate ``expression`` on ``database`` treating nulls as plain values."""
    return expression.evaluate(database)


def naive_certain_answers(expression: RAExpression, database: Database) -> Relation:
    """``Q(D)_cmpl``: naive evaluation followed by dropping tuples with nulls.

    This is eq. (4) of the paper — the certain answers of positive
    relational-algebra queries can be computed with the existing evaluation
    engine plus a final ``IS NOT NULL`` selection.
    """
    return naive_evaluate(expression, database).complete_part()


def naive_object_answer(expression: RAExpression, database: Database) -> Relation:
    """``Q(D)`` itself, viewed as the object-level certain answer (eq. (9)).

    For monotone generic queries the naive answer — nulls included — is the
    greatest lower bound of ``Q([[D]])`` under the answer ordering, i.e. the
    paper's ``certainO(Q, D)``.
    """
    return naive_evaluate(expression, database)


def naive_boolean(expression: RAExpression, database: Database) -> bool:
    """Naive evaluation of a Boolean query (non-emptiness of the answer)."""
    return bool(naive_evaluate(expression, database))
