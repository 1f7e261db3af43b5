"""Certain answers in data exchange.

In data exchange the certain answers of a query ``Q`` over the target
schema, for a source instance ``S`` and mapping ``M``, are defined as the
intersection of ``Q(T)`` over all *solutions* ``T`` (target instances that
together with ``S`` satisfy ``M``).  The classical result (Fagin et al.,
cited as [29] in the paper) is that for unions of conjunctive queries this
equals naive evaluation of ``Q`` over the canonical solution followed by
dropping tuples with nulls — the same eq. (4) recipe the paper builds on.
For queries with negation, naive evaluation over the canonical solution is
*not* correct, which experiment E21 demonstrates.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence, Union

from ..algebra.ast import RAExpression
from ..core.naive_evaluation import naive_evaluation_applies
from ..datamodel import Database, Relation
from ..logic.formulas import FOQuery
from ..semantics.registry import semantics_named
from ..session import connect
from .chase import canonical_solution
from .mappings import SchemaMapping

Query = Union[RAExpression, FOQuery]


def certain_answers_exchange(
    mapping: SchemaMapping,
    source: Database,
    query: Query,
    method: str = "naive",
    semantics: str = "owa",
    max_extra_facts: int = 1,
) -> Relation:
    """Certain answers of a target query in a data-exchange setting.

    Parameters
    ----------
    method:
        ``'naive'`` — chase, evaluate naively, drop null tuples (correct for
        UCQs, the standard practice in exchange systems);
        ``'enumeration'`` — chase, then enumerate worlds of the canonical
        solution under ``semantics`` and intersect (ground truth for small
        instances — solutions are open-world objects, hence the default
        ``'owa'``); ``'auto'`` — the first exact strategy of
        ``certain(method="auto")``: naive when the query's fragment
        guarantees it under ``semantics``, else enumeration (or c-table
        lineage under closed worlds).  A session on the seed interpreter
        answers, over the world space of ``semantics``.
    """
    solution = canonical_solution(mapping, source)
    space = semantics_named(semantics).space
    with connect(solution, engine="interpreter", semantics=space) as session:
        return session.query(query).certain(method=method, max_extra_facts=max_extra_facts)


def naive_exchange_answer_is_guaranteed(query: Query) -> bool:
    """Is the naive recipe guaranteed correct for this query (i.e. is it a UCQ)?"""
    verdict = naive_evaluation_applies(query, semantics="owa")
    return verdict.applies
