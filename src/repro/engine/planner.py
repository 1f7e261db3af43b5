"""The planner: plan cache, cardinality estimates, lowering, execution.

Plan lifecycle
--------------
1. :meth:`PlanCache.execute` looks up the expression in the plan
   cache (keyed by the expression and the database schema — both
   immutable and hashable).  On a miss it computes the output schema
   (surfacing exactly the schema errors the interpreter would raise) and
   runs the logical optimizer (:mod:`repro.engine.logical`).
2. The logical plan is *lowered* to a tree of physical operators
   (:mod:`repro.engine.physical`).  Lowering is where cost-based choices
   happen: multijoins are ordered greedily by cardinality estimate
   (smallest estimated factor first, preferring factors connected by an
   equality so a hash join applies), and the declared column layout is
   restored with a final permutation.  The lowered plan is cached next to
   the logical plan together with the base-relation sizes it was costed
   for, so repeated evaluation of the same query on the same (or
   same-sized) data skips planning entirely.
3. The physical plan runs against an :class:`ExecutionContext`; an
   operator the lowering shared between parents memoizes its result
   there, giving common-subexpression elimination for structurally
   repeated subplans.
4. The resulting row set becomes a :class:`Relation` through the trusted
   constructor — values are already validated and interned.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Set, Tuple

from ..algebra.ast import RAExpression
from ..datamodel import Database, Relation
from ..datamodel.condition_kernel import ConditionKernel
from ..datamodel.schema import DatabaseSchema, RelationSchema
from ..obs.analyze import OpStats, instrument
from ..obs.metrics import DISABLED_METRICS, MetricsRegistry
from ..obs.trace import Tracer, current_tracer, span
from .logical import (
    LAdom,
    LConst,
    LDelta,
    LDifference,
    LDivision,
    LEquiJoin,
    LFilter,
    LIntersection,
    LMultiJoin,
    LOpaque,
    LProject,
    LScan,
    LUnion,
    LogicalNode,
    optimize,
)
from .physical import (
    AdomScan,
    ConstScan,
    DeltaScan,
    ExecutionContext,
    Filter,
    HashDifference,
    HashDivision,
    HashIntersection,
    HashJoin,
    HashUnion,
    Interpret,
    NestedProduct,
    PhysicalOperator,
    Project,
    Scan,
    SemiJoin,
    compile_predicate,
)

_PLAN_CACHE_LIMIT = 256


class _CacheEntry:
    __slots__ = ("logical", "out_schema", "sizes", "physical", "ctable_sizes", "ctable_physical")

    def __init__(self, logical: LogicalNode, out_schema: RelationSchema) -> None:
        self.logical = logical
        self.out_schema = out_schema
        self.sizes: Optional[Tuple[int, ...]] = None
        self.physical: Optional[PhysicalOperator] = None
        # The c-table path (repro.engine.ctable) shares the logical plan and
        # caches its own lowering beside the complete-relation one.
        self.ctable_sizes: Optional[Tuple[int, ...]] = None
        self.ctable_physical: Optional[Any] = None


class PlanCache:
    """A bounded ``(expression, schema)`` → plan cache for one evaluation context.

    Every :class:`repro.session.Session` owns a private instance, so two
    sessions never share plans — or the condition kernel their
    :meth:`clear` evicts.  Without ``kernel`` the cache builds its own.
    """

    def __init__(
        self,
        limit: int = _PLAN_CACHE_LIMIT,
        kernel: Optional[ConditionKernel] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self._cache: "OrderedDict[Tuple[RAExpression, DatabaseSchema], _CacheEntry]" = (
            OrderedDict()
        )
        self._epoch = 0
        self._limit = limit
        self._kernel = kernel if kernel is not None else ConditionKernel()
        self._frozen = False
        # The owning session's registry; DISABLED for a standalone cache,
        # so counting is one branch when nobody is watching.
        self._metrics = metrics if metrics is not None else DISABLED_METRICS

    @property
    def kernel(self) -> ConditionKernel:
        """The condition kernel this cache's :meth:`clear` evicts."""
        return self._kernel

    @property
    def frozen(self) -> bool:
        """Whether :meth:`freeze` has made the cache read-only."""
        return self._frozen

    def freeze(self) -> None:
        """Make the cache read-only so it can be shared across threads.

        A frozen cache serves hits without LRU reordering, computes
        misses without inserting them, and refuses :meth:`clear` — its
        internal mappings are never mutated again, which under the GIL
        makes concurrent :meth:`execute` calls safe without locks.  Warm
        the working set *before* freezing (misses stay correct but pay
        recompilation on every call).  Freezing is one-way.
        """
        self._frozen = True

    def clear(self) -> None:
        """Drop every cached plan (mainly for tests and benchmarks).

        Also invalidates the per-expression fast-path entries by bumping
        the cache epoch, and ends a usage epoch of the associated
        condition kernel: interned conditions *touched* since the previous
        ``clear`` survive (hot conditions stay canonical across clears),
        everything else is evicted, so long-running services get one reset
        point whose kernel tables stay bounded by the working set instead
        of growing without bound.  A full kernel wipe remains available
        through :meth:`ConditionKernel.clear`.
        """
        if self._frozen:
            from ..resilience import InvalidRequestError

            raise InvalidRequestError("cannot clear a frozen plan cache")
        self._cache.clear()
        self._epoch += 1
        self._kernel.evict()

    def __len__(self) -> int:
        return len(self._cache)

    def compile(self, expression: RAExpression, schema: DatabaseSchema) -> LogicalNode:
        """The optimized logical plan for ``expression`` over ``schema``."""
        return self.entry(expression, schema).logical

    def entry(self, expression: RAExpression, schema: DatabaseSchema) -> _CacheEntry:
        key = (expression, schema)
        entry = self._cache.get(key)
        if self._frozen:
            # Read-only: serve hits without reordering the LRU list and
            # compute misses without publishing them — the mapping never
            # changes after freeze(), so concurrent readers need no lock.
            if entry is None:
                self._metrics.count("plan_cache.misses")
                with span("plan.compile", frozen=True):
                    entry = _CacheEntry(
                        optimize(expression, schema), expression.output_schema(schema)
                    )
            else:
                self._metrics.count("plan_cache.hits")
            return entry
        if entry is None:
            self._metrics.count("plan_cache.misses")
            with span("plan.compile"):
                out_schema = expression.output_schema(schema)
                entry = _CacheEntry(optimize(expression, schema), out_schema)
            self._cache[key] = entry
            if len(self._cache) > self._limit:
                self._cache.popitem(last=False)
                self._metrics.count("plan_cache.evictions")
        else:
            self._metrics.count("plan_cache.hits")
            self._cache.move_to_end(key)
        return entry

    def execute(self, expression: RAExpression, database: Database) -> Relation:
        """Evaluate ``expression`` on ``database`` through the physical engine."""
        schema = database.schema
        # Fast path: the last few (schema, plan) entries are pinned onto the
        # expression object itself, so steady-state evaluation skips hashing
        # the whole expression tree and schema on every call.  The pin
        # records which PlanCache wrote it (weakly — a long-lived expression
        # must not keep a dead session's caches and kernel alive); a
        # different session's cache misses and repins (correct either way —
        # entries always originate from self._cache).
        cached = getattr(expression, "_plan_entries", None)
        entries = None
        if cached is not None and cached[0]() is self and cached[1] == self._epoch:
            entries = cached[2]
        entry = None
        if entries is not None:
            for cached_schema, cached_entry in entries:
                if cached_schema is schema or cached_schema == schema:
                    entry = cached_entry
                    self._metrics.count("plan_cache.hits")
                    break
        if entry is None:
            entry = self.entry(expression, schema)
            if self._frozen:
                entries = None  # never pin from a frozen cache: the pin list
                # is shared mutable state and expressions may be shared too
            elif entries is None:
                entries = []
                try:
                    object.__setattr__(
                        expression,
                        "_plan_entries",
                        (weakref.ref(self), self._epoch, entries),
                    )
                except (AttributeError, TypeError):  # __slots__-restricted subclass
                    entries = None
            if entries is not None:
                entries.append((schema, entry))
                if len(entries) > 4:
                    del entries[0]
        sizes = database.relation_sizes()
        physical = entry.physical
        if physical is None or entry.sizes != sizes:
            self._metrics.count("plan_cache.lowerings")
            with span("plan.lower"):
                physical = lower(entry.logical, database)
            if not self._frozen:
                entry.physical = physical
                entry.sizes = sizes
            # frozen: keep the lowering local — a concurrent reader may be
            # walking entry.physical for a different database size
        ctx = ExecutionContext(database)
        tracer = current_tracer()
        if tracer is None:
            rows = physical.rows(ctx)
        else:
            # Tracing is on: run the plan through analyze probes so each
            # physical operator becomes a span with rows/time/memo facts.
            # The probes wrap fresh clones; cached plans stay pristine.
            with tracer.span("plan.execute") as sp:
                probed, stats_root = instrument(physical)
                rows = probed.rows(ctx)
                sp.set(rows=len(rows))
                _emit_operator_spans(tracer, stats_root, sp.span_id)
        return Relation._from_trusted(entry.out_schema, frozenset(rows))

    def analyze(self, expression: RAExpression, database: Database) -> Tuple[Relation, OpStats]:
        """Evaluate like :meth:`execute` but return per-operator statistics.

        Backs ``Query.explain(analyze=True)``: the physical plan runs
        wrapped in analyze probes, and the resulting :class:`OpStats`
        tree mirrors the plan with rows / wall time / memo hits per node.
        """
        schema = database.schema
        entry = self.entry(expression, schema)
        sizes = database.relation_sizes()
        physical = entry.physical
        if physical is None or entry.sizes != sizes:
            physical = lower(entry.logical, database)
            if not self._frozen:
                entry.physical = physical
                entry.sizes = sizes
        probed, stats_root = instrument(physical)
        ctx = ExecutionContext(database)
        rows = probed.rows(ctx)
        return Relation._from_trusted(entry.out_schema, frozenset(rows)), stats_root

    def stats(self) -> Dict[str, Any]:
        """Cache shape and hit/miss counters (``Session.plan_cache_stats()``)."""
        return {
            "entries": len(self._cache),
            "limit": self._limit,
            "epoch": self._epoch,
            "frozen": self._frozen,
            "hits": self._metrics.counter_value("plan_cache.hits"),
            "misses": self._metrics.counter_value("plan_cache.misses"),
            "evictions": self._metrics.counter_value("plan_cache.evictions"),
            "lowerings": self._metrics.counter_value("plan_cache.lowerings"),
        }


def _emit_operator_spans(tracer: Tracer, root: OpStats, parent_id: int) -> None:
    """Turn an analyze stats tree into per-operator spans (shared nodes once)."""
    visited: Set[int] = set()

    def emit(node: OpStats, parent: int) -> None:
        if id(node) in visited:
            return
        visited.add(id(node))
        span_obj = tracer.record(
            "op." + node.name,
            node.seconds,
            parent_id=parent,
            rows=node.rows,
            calls=node.calls,
            memo_hits=node.memo_hits,
            details=node.details,
        )
        for child in node.children:
            emit(child, span_obj.span_id)

    emit(root, parent_id)


# ----------------------------------------------------------------------
# Cardinality estimation
# ----------------------------------------------------------------------
def estimate(node: LogicalNode, database: Database) -> float:
    """A coarse cardinality estimate used only to order joins."""
    if isinstance(node, LScan):
        return float(len(database.relation(node.name)))
    if isinstance(node, LConst):
        return float(len(node.relation))
    if isinstance(node, (LDelta, LAdom)):
        return float(max(1, database.size()))
    if isinstance(node, LFilter):
        return max(1.0, 0.25 * estimate(node.child, database))
    if isinstance(node, LProject):
        return estimate(node.child, database)
    if isinstance(node, LEquiJoin):
        left = estimate(node.left, database)
        right = estimate(node.right, database)
        return max(1.0, 0.1 * left * right) if node.pairs else left * right
    if isinstance(node, LMultiJoin):
        result = 1.0
        for factor in node.factors:
            result *= estimate(factor, database)
        return max(1.0, result * (0.1 ** len(node.pairs)))
    if isinstance(node, LUnion):
        return estimate(node.left, database) + estimate(node.right, database)
    if isinstance(node, LDifference):
        return estimate(node.left, database)
    if isinstance(node, LIntersection):
        return min(estimate(node.left, database), estimate(node.right, database))
    if isinstance(node, LDivision):
        return max(1.0, estimate(node.left, database) / max(1.0, estimate(node.right, database)))
    if isinstance(node, LOpaque):
        return float(max(1, database.size()))
    raise TypeError(f"unsupported logical node {node!r}")


# ----------------------------------------------------------------------
# Lowering
# ----------------------------------------------------------------------
def lower(node: LogicalNode, database: Database) -> PhysicalOperator:
    """Lower a logical plan to physical operators, choosing join orders.

    Structurally equal logical subplans lower to the *same* physical
    operator instance, so common subexpressions are detected here, once per
    plan, and the runtime memo works with cheap integer keys: an operator
    reached through two parents gets one, computes its rows on the first
    visit and serves the cached set on the second.  Every other operator
    has no key and skips the memo.
    """
    return _Lowering(database).lower(node)


class _Lowering:
    """Lowering of logical plans to physical operators.

    The traversal, the multijoin ordering and the CSE sharing live here;
    the construction of each concrete operator is delegated to overridable
    factory hooks so other executors over the *same* logical plans (the
    c-table path in :mod:`repro.engine.ctable`) inherit the cost-based
    join ordering while emitting their own operators.
    """

    def __init__(self, database: Database) -> None:
        self.database = database
        self.shared: Dict[LogicalNode, Any] = {}
        self.next_key = 0

    def key(self) -> int:
        self.next_key += 1
        return self.next_key

    # -- operator factory hooks ----------------------------------------
    def make_scan(self, node: LScan) -> Any:
        return Scan(node.name)

    def make_const(self, node: LConst) -> Any:
        return ConstScan(node.relation)

    def make_delta(self, node: LDelta) -> Any:
        return DeltaScan()

    def make_adom(self, node: LAdom) -> Any:
        return AdomScan()

    def make_filter(self, child: Any, predicate: Any) -> Any:
        return Filter(child, compile_predicate(predicate))

    def make_eq_filter(self, child: Any, left: int, right: int) -> Any:
        """A filter asserting equality of two positions of the same row."""
        return Filter(child, lambda row, a=left, b=right: row[a] == row[b])

    def make_project(self, child: Any, positions: Tuple[int, ...]) -> Any:
        return Project(child, positions)

    def make_join(
        self,
        left: Any,
        right: Any,
        left_keys: Tuple[int, ...],
        right_keys: Tuple[int, ...],
        right_keep: Tuple[int, ...],
    ) -> Any:
        # Decided here, not per run: under analyze probes wrap the right input.
        relation = right.name if isinstance(right, Scan) else None
        return HashJoin(left, right, left_keys, right_keys, right_keep, relation)

    def make_semijoin(self, join: LEquiJoin, positions: Tuple[int, ...]) -> Any:
        """``π_positions(join)`` as a :class:`SemiJoin`, or ``None`` for join + project.

        Applies when the projection reads no column of one side but its
        join keys.  That side becomes the key side; the other side's rows
        are kept by membership and projected directly.  Among the usable
        sides the cheapest by estimate wins, and the rewrite is taken only
        when it costs no more than the hash join: scanning the kept side,
        plus hashing the key side unless it is a base relation whose
        cached key map is reused, against probing with the left side, plus
        hashing the right side unless it is a base relation.  Overridden
        to return ``None`` by lowerings that must see the join itself.
        """
        left, right = join.left, join.right
        left_keys = tuple(i for i, _ in join.pairs)
        right_keys = tuple(j for _, j in join.pairs)
        left_arity = left.arity
        # Each output column as (side, position in that side's row).
        sources = [
            (0, p) if p < left_arity else (1, join.right_keep[p - left_arity])
            for p in positions
        ]

        def build_cost(node: LogicalNode) -> float:
            return 0.0 if isinstance(node, LScan) else self.estimate(node)

        usable = [
            (build_cost(key_node) + self.estimate(kept_node), side, key_node, kept_node, keys, kept)
            for side, key_node, kept_node, keys, kept in (
                (0, left, right, left_keys, right_keys),
                (1, right, left, right_keys, left_keys),
            )
            if all(pos in keys for s, pos in sources if s == side)
        ]
        if not usable:
            return None
        cost, side, key_node, kept_node, key_keys, kept_keys = min(usable, key=lambda u: u[0])
        if cost > build_cost(right) + self.estimate(left):
            return None
        width = len(key_keys)
        # Key-side columns read the key side's own key tuple; the kept row follows it.
        layout = tuple(key_keys.index(pos) if s == side else width + pos for s, pos in sources)
        return SemiJoin(
            self.lower(kept_node),
            self.lower(key_node),
            kept_keys,
            key_keys,
            layout,
            key_node.name if isinstance(key_node, LScan) else None,
        )

    def make_product(self, left: Any, right: Any) -> Any:
        return NestedProduct(left, right)

    def make_union(self, left: Any, right: Any) -> Any:
        return HashUnion(left, right)

    def make_difference(self, left: Any, right: Any) -> Any:
        return HashDifference(left, right)

    def make_intersection(self, left: Any, right: Any) -> Any:
        return HashIntersection(left, right)

    def make_division(
        self, left: Any, right: Any, keep: Tuple[int, ...], divisor: Tuple[int, ...]
    ) -> Any:
        return HashDivision(left, right, keep, divisor)

    def make_opaque(self, node: LOpaque) -> Any:
        return Interpret(node.expression)

    def estimate(self, node: LogicalNode) -> float:
        return estimate(node, self.database)

    # -- traversal -----------------------------------------------------
    def lower(self, node: LogicalNode) -> Any:
        op = self.shared.get(node)
        if op is None:
            op = self._lower(node)
            self.shared[node] = op
        elif op.key is None:
            # Reached a second time: the operator is shared, so its rows
            # are memoized per run; every other operator skips the memo.
            op.key = self.key()
        return op

    def _lower(self, node: LogicalNode) -> Any:
        if isinstance(node, LScan):
            return self.make_scan(node)
        if isinstance(node, LConst):
            return self.make_const(node)
        if isinstance(node, LDelta):
            return self.make_delta(node)
        if isinstance(node, LAdom):
            return self.make_adom(node)
        if isinstance(node, LFilter):
            return self.make_filter(self.lower(node.child), node.predicate)
        if isinstance(node, LProject):
            if isinstance(node.child, LEquiJoin):
                semijoin = self.make_semijoin(node.child, node.positions)
                if semijoin is not None:
                    return semijoin
            return self.make_project(self.lower(node.child), node.positions)
        if isinstance(node, LEquiJoin):
            left_keys = tuple(i for i, _ in node.pairs)
            right_keys = tuple(j for _, j in node.pairs)
            return self.make_join(
                self.lower(node.left),
                self.lower(node.right),
                left_keys,
                right_keys,
                node.right_keep,
            )
        if isinstance(node, LMultiJoin):
            return self._lower_multijoin(node)
        if isinstance(node, LUnion):
            return self.make_union(self.lower(node.left), self.lower(node.right))
        if isinstance(node, LDifference):
            return self.make_difference(self.lower(node.left), self.lower(node.right))
        if isinstance(node, LIntersection):
            return self.make_intersection(self.lower(node.left), self.lower(node.right))
        if isinstance(node, LDivision):
            return self.make_division(
                self.lower(node.left),
                self.lower(node.right),
                node.keep,
                node.divisor,
            )
        if isinstance(node, LOpaque):
            return self.make_opaque(node)
        raise TypeError(f"unsupported logical node {node!r}")

    def _lower_multijoin(self, node: LMultiJoin) -> Any:
        """Order the factors of a multijoin greedily and emit hash joins.

        Start from the smallest estimated factor, then repeatedly attach
        the smallest factor connected to the placed set by an equality pair
        (hash join); when no factor is connected, fall back to the smallest
        overall (Cartesian product).  A final permutation restores the
        declared layout and the residual predicates run on top of it.
        """
        factors = node.factors
        count = len(factors)
        ops = [self.lower(factor) for factor in factors]
        if count == 1:
            result: Any = ops[0]
            for pred in node.residual:
                result = self.make_filter(result, pred)
            return result

        arities = [factor.arity for factor in factors]
        offsets: List[int] = []
        total = 0
        for arity in arities:
            offsets.append(total)
            total += arity

        def locate(global_pos: int) -> Tuple[int, int]:
            for index in range(count - 1, -1, -1):
                if global_pos >= offsets[index]:
                    return index, global_pos - offsets[index]
            raise IndexError(global_pos)

        estimates = [self.estimate(factor) for factor in factors]
        pending: List[Tuple[int, int]] = list(node.pairs)

        start = min(range(count), key=lambda k: estimates[k])
        placed = {start}
        # global position -> position in the current intermediate layout
        pos_map: Dict[int, int] = {offsets[start] + p: p for p in range(arities[start])}
        width = arities[start]
        current = ops[start]
        remaining = [k for k in range(count) if k != start]

        while remaining:
            connected: Set[int] = set()
            for i, j in pending:
                fi, _ = locate(i)
                fj, _ = locate(j)
                if (fi in placed) != (fj in placed):
                    connected.add(fj if fi in placed else fi)
            candidates = [k for k in remaining if k in connected] or remaining
            pick = min(candidates, key=lambda k: estimates[k])

            applicable: List[Tuple[int, int]] = []
            rest: List[Tuple[int, int]] = []
            for i, j in pending:
                fi, _ = locate(i)
                fj, _ = locate(j)
                if {fi, fj} <= placed | {pick} and pick in (fi, fj) and fi != fj:
                    applicable.append((i, j))
                else:
                    rest.append((i, j))
            pending = rest

            if applicable:
                left_keys = []
                right_keys = []
                for i, j in applicable:
                    fi, pi = locate(i)
                    if fi == pick:  # orient the pair: placed side left, new factor right
                        i, j = j, i
                        fi, pi = locate(i)
                    _, pj = locate(j)
                    left_keys.append(pos_map[i])
                    right_keys.append(pj)
                current = self.make_join(
                    current,
                    ops[pick],
                    tuple(left_keys),
                    tuple(right_keys),
                    tuple(range(arities[pick])),
                )
            else:
                current = self.make_product(current, ops[pick])

            for p in range(arities[pick]):
                pos_map[offsets[pick] + p] = width + p
            width += arities[pick]
            placed.add(pick)
            remaining.remove(pick)

            # Equalities whose endpoints are now both placed but were not
            # usable as a join key (e.g. transitive pairs) become filters.
            still_pending: List[Tuple[int, int]] = []
            for i, j in pending:
                fi, _ = locate(i)
                fj, _ = locate(j)
                if fi in placed and fj in placed:
                    current = self.make_eq_filter(current, pos_map[i], pos_map[j])
                else:
                    still_pending.append((i, j))
            pending = still_pending

        permutation = tuple(pos_map[g] for g in range(total))
        if permutation != tuple(range(total)):
            current = self.make_project(current, permutation)
        for pred in node.residual:
            current = self.make_filter(current, pred)
        return current
