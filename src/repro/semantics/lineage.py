"""Certain answers from c-table lineage, for closed worlds.

C-tables are a strong representation system for full relational algebra
(Imieliński–Lipski): evaluating ``Q`` once over the c-table of ``D``
gives rows ``(t̄_i, c_i)`` and a global condition ``g`` such that, for
every valuation ``v`` with ``v(g)``, ``Q(v(D)) = {v(t̄_i) | v(c_i)}``.  So
under CWA a null-free tuple ``t`` is in ``Q(v(D))`` exactly when ``v``
satisfies its *lineage* ``⋁_i c_i ∧ t̄_i = t``, and ``t`` is a certain
answer exactly when ``g → lineage`` is *valid*.

Over the domain world enumeration ranges over
(:func:`~repro.core.answers.enumeration_domain`) the answer is the
enumeration's, valuation for valuation:

* **candidates** come from one world — the first valuation of the
  enumeration, every null on the domain's first value, read off the
  c-table — because a certain tuple is in every world;
* each candidate's lineage is checked for validity by the Boolean
  instance of the confidence decomposer
  (:class:`~repro.prob.confidence.Validity`), whose Shannon steps branch
  on the values a condition mentions plus one representative of the
  rest: sound for the equality-only conditions of generic queries
  (:func:`~repro.core.answers.not_generic`), which is where the
  ``LINEAGE`` strategy of :mod:`repro.semantics.strategies` applies.

A tuple that is not certain comes with its *falsifying valuation*:
applied to ``D``, it gives a world whose answer misses the tuple.
Open-world semantics keep enumeration: a lineage does not see the facts
a world may add.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..algebra.ctable_algebra import CTableDatabase, ctable_evaluate
from ..core.answers import enumeration_domain
from ..datamodel import Database, Relation, Valuation
from ..datamodel.condition_kernel import ConditionKernel
from ..datamodel.conditional import TRUE, Condition, FalseCondition, TrueCondition
from ..datamodel.matching import MayEqualIndex
from ..datamodel.relations import Row
from ..datamodel.schema import RelationSchema
from ..datamodel.values import is_null
from ..obs.trace import span
from ..prob.confidence import Validity
from ..resilience import active_budget
from .worlds import _valuation_values

#: One candidate answer tuple, and the valuation refuting it (``None``: certain).
Verdict = Tuple[Row, Optional[Valuation]]


def _lineages(
    rows: Sequence[Tuple[Row, Condition]], candidates: Dict[Row, List[Condition]], kernel: ConditionKernel
) -> None:
    """Append to ``candidates[t]`` the condition under which each row yields ``t``.

    Null-free rows go first: a candidate one of them yields under
    ``TRUE`` is in every world, and the rows with nulls skip it.  A row
    with nulls meets only the candidates that agree with its constants,
    through a :class:`~repro.datamodel.matching.MayEqualIndex` of the
    open candidates.
    """
    partial = []
    for values, condition in rows:
        if isinstance(condition, FalseCondition):
            continue
        if any(map(is_null, values)):
            partial.append((values, condition))
        else:
            bucket = candidates.get(values)
            if bucket is not None:
                bucket.append(condition)
    if not partial:
        return
    open_candidates = [
        (candidate, bucket)
        for candidate, bucket in candidates.items()
        if not any(condition is TRUE for condition in bucket)
    ]
    index = MayEqualIndex([candidate for candidate, _ in open_candidates])
    for values, condition in partial:
        for position in index.candidates(values):
            candidate, bucket = open_candidates[position]
            pins = [
                kernel.eq(value, wanted) for value, wanted in zip(values, candidate) if is_null(value)
            ]
            bucket.append(kernel.conjunction([condition, *pins]))


def lineage_verdicts(
    query: Any,
    database: Database,
    domain: Sequence[Any],
    evaluate_ctable: Optional[Callable[[Any, CTableDatabase], Any]] = None,
    kernel: Optional[ConditionKernel] = None,
) -> Tuple[RelationSchema, List[Verdict]]:
    """The answer schema, and each candidate tuple with its verdict over ``domain``.

    ``evaluate_ctable(query, ctable_database)`` is the caller's c-table
    engine (a session's :meth:`~repro.session.Session.evaluate_ctable`;
    by default the seed algebra), run without supports: every CWA world
    counts, not only those of positive probability.  ``kernel`` interns
    the lineages (a fresh one by default).  With nulls and an empty
    domain there is no world, and no candidate.
    """
    if evaluate_ctable is None:
        evaluate_ctable = ctable_evaluate
    kernel = kernel if kernel is not None else ConditionKernel()
    values = _valuation_values(domain)
    state = active_budget()
    if state is not None:
        state.check()
    with span("semantics.lineage", domain=len(values)) as sp:
        table = evaluate_ctable(query, CTableDatabase.from_database(database))
        nulls = database.nulls()
        if nulls and not values:
            sp.set(candidates=0, branches=0)
            return table.schema, []
        first = Valuation({null: values[0] for null in nulls})
        rows = [(row.values, kernel.intern(row.condition)) for row in table.rows]
        candidates: Dict[Row, List[Condition]] = {}
        for row_values, condition in rows:
            if condition.evaluate(first):
                candidates.setdefault(first.apply_row(row_values), [])
        _lineages(rows, candidates, kernel)
        global_condition = kernel.intern(table.global_condition)
        guard = None if isinstance(global_condition, TrueCondition) else kernel.not_(global_condition)
        validity = Validity(values, kernel)
        verdicts: List[Verdict] = []
        for candidate, bucket in candidates.items():
            lineage = kernel.disjunction(bucket)
            if guard is not None:
                lineage = kernel.disjunction([guard, lineage])
            fails = validity.falsifier(lineage)
            if fails is not None:
                fails = Valuation({null: fails.get(null, values[0]) for null in nulls})
            verdicts.append((candidate, fails))
        sp.set(candidates=len(candidates), branches=validity.branches)
    return table.schema, verdicts


def lineage_strategy(
    query: Any,
    database: Database,
    domain: Optional[Sequence[Any]] = None,
    extra_constants: Optional[int] = None,
    evaluate_ctable: Optional[Callable[[Any, CTableDatabase], Any]] = None,
    kernel: Optional[ConditionKernel] = None,
) -> Relation:
    """Certain answers of a generic RA ``query`` under CWA, from its lineage.

    The domain is :func:`~repro.core.answers.enumeration_domain` of
    ``domain``/``extra_constants``, so the answer equals world
    enumeration's.  A budget expiry mints no resume token.
    """
    resolved = enumeration_domain(query, database, domain, extra_constants)
    schema, verdicts = lineage_verdicts(query, database, resolved, evaluate_ctable, kernel)
    return Relation(schema, [row for row, fails in verdicts if fails is None])
