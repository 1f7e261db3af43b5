"""The physical evaluation engine for the incomplete-information algebra.

A :class:`PlanCache` compiles expressions into optimized physical plans
(selection pushdown, hash joins ordered by cardinality estimate,
hash-based set operations, grouped hash division, common-subexpression
memoization) instead of walking them node by node.  There is no
process-wide cache: every :class:`repro.session.Session` owns one, and
code outside a session builds its own with ``PlanCache()``.  The seed
interpreter (:meth:`repro.algebra.ast.RAExpression.evaluate`) remains the
differential-testing oracle.

:func:`execute_ctable` shares the same logical plans and plan cache,
lowering them to operators over conditional rows whose conditions are
composed through a hash-consed kernel
(:mod:`repro.datamodel.condition_kernel`).

See ``docs/engine.md`` for the plan lifecycle, the operator inventory and
how to add an operator, and ``docs/conditions.md`` for the kernel.
"""

from __future__ import annotations

from .ctable import execute_ctable
from .logical import LogicalNode, explain, optimize
from .planner import PlanCache

__all__ = [
    "LogicalNode",
    "PlanCache",
    "execute_ctable",
    "explain",
    "optimize",
]
