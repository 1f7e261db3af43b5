"""Answer lineage over a pc-table: the input of ``Query.confidence()``.

:func:`prob_lineage` runs a query once on the c-table engine and turns
its conditional rows into ground answer tuples, each with the condition
under which it is an answer.  The engine is handed the model's supports,
so a null is only ever paired with constants it can take: a derivation
that needs a null outside its support holds in no world of positive
probability and is never built (Koch–Olteanu's world-set descriptors
likewise range over a variable's non-zero alternatives only).  Lineages
therefore cover the *support-admitted* derivations; their probabilities
under the model are those of the unpruned lineage.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from ..algebra.ctable_algebra import CTableDatabase
from ..datamodel import Database
from ..datamodel.condition_kernel import ConditionKernel
from ..datamodel.conditional import Condition, FalseCondition, TrueCondition
from ..datamodel.valuation import Valuation
from ..datamodel.values import is_null
from ..engine.ctable import Supports
from ..obs.metrics import current_metrics
from ..resilience import active_budget
from .model import ProbabilityModel

#: One answer tuple with its lineage condition.
Candidate = Tuple[Tuple[Any, ...], Condition]


def model_supports(database: Database, model: ProbabilityModel) -> Supports:
    """``{null: frozenset(model.support(null))}`` over ``database``'s nulls.

    Checks that ``model`` covers every null (:meth:`ProbabilityModel.require`).
    The database and the model are both immutable, so the map is computed
    once per pair and kept on the database's
    :meth:`~repro.datamodel.Database.analysis_cache`, keyed by the model's
    identity: one session's requests hand the c-table engine the same map
    object, which lets it keep its support-indexed join build sides.
    """
    cache = database.analysis_cache()
    entry = cache.get("prob.supports")
    if entry is None or entry[0] is not model:
        nulls = database.nulls()
        model.require(nulls)
        entry = cache["prob.supports"] = (
            model,
            {null: frozenset(model.support(null)) for null in nulls},
        )
    return entry[1]


def prob_lineage(
    expression: Any,
    database: Database,
    model: ProbabilityModel,
    kernel: ConditionKernel,
    evaluate: Callable[..., Any],
    constraint: Optional[Condition] = None,
) -> Tuple[List[Candidate], Optional[Condition]]:
    """Ground answer tuples with their lineage conditions, plus the
    effective conditioning constraint (``None`` when trivial).

    The c-table engine supplies one conditional row per admitted
    derivation; rows carrying nulls *in the tuple itself* are grounded by
    enumerating the joint outcomes of those nulls' groups (each outcome
    pins the nulls with equality atoms conjoined onto the row's
    condition).  Derivations of the same ground tuple are OR-ed.
    Deterministic: candidates come back in first-derivation order.  The
    effective constraint conjoins the c-table's global condition with
    ``constraint`` (a :meth:`Query.condition_on` conjunction).

    ``evaluate`` is the caller's c-table engine, a session's
    :meth:`~repro.session.Session.evaluate_ctable`, called as
    ``evaluate(expression, ctable_database, _supports=supports)``; an
    ``engine="interpreter"`` session ignores the supports.
    """
    supports = model_supports(database, model)
    ctable = evaluate(expression, CTableDatabase.from_database(database), _supports=supports)
    state = active_budget()
    lineages: Dict[Tuple[Any, ...], List[Condition]] = {}

    def add(values: Tuple[Any, ...], lineage: Condition) -> None:
        bucket = lineages.get(values)
        if bucket is None:
            lineages[values] = [lineage]
        else:
            bucket.append(lineage)

    for row in ctable.rows:
        condition = kernel.intern(row.condition)
        value_nulls = sorted({v for v in row.values if is_null(v)}, key=lambda n: n.name)
        if not value_nulls:
            if not isinstance(condition, FalseCondition):
                add(row.values, condition)
            continue
        # Ground the tuple: one candidate per distinct restriction of
        # the involved groups' joint outcomes to the tuple's nulls.
        seen: set = set()
        for assignment, _probability in model.joint_outcomes(value_nulls):
            if state is not None:
                state.tick_world()
            restricted = tuple(assignment[n] for n in value_nulls)
            if restricted in seen:
                continue
            seen.add(restricted)
            values = Valuation(dict(zip(value_nulls, restricted))).apply_row(row.values)
            pins = [kernel.eq(n, v) for n, v in zip(value_nulls, restricted)]
            lineage = kernel.conjunction([condition, *pins])
            if not isinstance(lineage, FalseCondition):
                add(values, lineage)

    candidates: List[Candidate] = [
        (values, bucket[0] if len(bucket) == 1 else kernel.disjunction(bucket))
        for values, bucket in lineages.items()
    ]
    registry = current_metrics()
    if registry is not None:
        registry.count("prob.confidence.candidates", len(candidates))

    parts = []
    global_condition = kernel.intern(ctable.global_condition)
    if not isinstance(global_condition, TrueCondition):
        parts.append(global_condition)
    if constraint is not None:
        constraint = kernel.intern(constraint)
        if not isinstance(constraint, TrueCondition):
            parts.append(constraint)
    if not parts:
        return candidates, None
    return candidates, parts[0] if len(parts) == 1 else kernel.conjunction(parts)
