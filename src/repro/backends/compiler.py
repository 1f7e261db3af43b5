"""Compilation of logical plans into SQL text.

The compiler is a :class:`repro.engine.planner._Lowering` subclass: it
inherits the planner's traversal, its greedy cost-based multijoin
ordering and its common-subexpression detection, and overrides the
operator-factory hooks to emit :class:`SQLFragment` objects instead of
in-memory physical operators.  The SQL join tree therefore follows
exactly the join order the planner would pick for the in-memory engine —
including the reordered ``NaturalJoin`` chains the logical optimizer now
flattens into :class:`~repro.engine.logical.LMultiJoin` nodes.

Every fragment is a complete ``SELECT`` producing positional columns
``c0 .. c{arity-1}``; composition nests fragments as table subqueries.
Set semantics relies on the base tables being duplicate-free (the
sentinel codec's DDL declares a primary key over all columns) plus
``DISTINCT`` on projections and SQL's set-based compound operators
(``UNION`` / ``EXCEPT`` / ``INTERSECT``).  A compound operator returns
distinct rows whatever its operands hold, so a projection that is a
compound operand is emitted without its ``DISTINCT``
(:attr:`SQLFragment.bag`): SQLite then flattens it into the compound
instead of deduplicating it on its own.  Division is compiled through
the paper's ``RA_cwa`` rewriting
``R ÷ S = π_A(R) − π_A(reorder(π_A(R) × S) − R)``, with the dividend and
the candidate set spilled to temp tables so their SQL (and their rows)
are computed once.

Subplans referenced more than once — the compiler counts logical-node
references up front — are likewise *spilled* into temp tables, which is
both the CSE story and the "intermediates live in the database, not in
Python" story.  Whenever the probe side of an equi-join is a base-table
scan, the compiler records an index request mirroring what
``Relation.index_on`` would build in memory; the backend creates those
indexes before running the plan.

The supported fragment is the whole algebra the logical optimizer emits,
*except* order comparisons (``<``, ``<=``, ``>``, ``>=``) — their naive
semantics raises ``TypeError`` on nulls, which SQL cannot replicate on
sentinel-encoded text — and :class:`~repro.engine.logical.LOpaque`
fallback nodes.  Both raise :class:`UnsupportedPlanError`, and the engine
dispatch falls back to the in-memory physical engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..algebra.predicates import Attr, Comparison, PAnd, PNot, POr, Predicate, PTrue
from ..datamodel import Database
from ..datamodel.schema import DatabaseSchema
from ..engine.logical import (
    LAdom,
    LConst,
    LDelta,
    LEquiJoin,
    LOpaque,
    LScan,
    LogicalNode,
)
from ..engine.planner import _Lowering
from .base import UnsupportedPlanError, quote_identifier, table_name

#: Name of the backend-side active-domain table (``v`` column).
ADOM_TABLE = quote_identifier("_repro_adom")

_COMPARISON_OPS = {"=": "=", "!=": "<>"}


@dataclass(frozen=True)
class SQLFragment:
    """A complete SELECT producing columns ``c0 .. c{arity-1}``."""

    sql: str
    params: Tuple[Any, ...]
    arity: int
    #: Quoted table name when the fragment is a plain full scan of a table.
    table: Optional[str] = None
    #: Raw relation name when the scanned table is a user base relation.
    base: Optional[str] = None
    #: When the top of ``sql`` is a ``SELECT DISTINCT`` projection, the
    #: same statement without the ``DISTINCT``: a compound operand's
    #: form, since the compound dedupes its result anyway.
    bag: Optional[str] = None

    @property
    def operand(self) -> str:
        """The SQL to use as an operand of ``UNION``/``EXCEPT``/``INTERSECT``."""
        return self.sql if self.bag is None else self.bag


@dataclass(frozen=True)
class CompiledPlan:
    """An executable SQL plan: setup temp tables, main query, teardown."""

    setup: Tuple[Tuple[str, Tuple[Any, ...]], ...]
    query: str
    params: Tuple[Any, ...]
    teardown: Tuple[str, ...]
    arity: int
    uses_adom: bool
    #: ``(relation name, key positions)`` indexes to ensure before running.
    index_requests: Tuple[Tuple[str, Tuple[int, ...]], ...]


def _columns(arity: int, prefix: str = "") -> str:
    if arity == 0:
        raise UnsupportedPlanError("zero-arity relations cannot be compiled to SQL")
    return ", ".join(f"{prefix}c{i}" for i in range(arity))


def _distinct(columns_from: str, params: Tuple[Any, ...], arity: int) -> SQLFragment:
    """``SELECT DISTINCT {columns_from}``, with its bag form recorded."""
    return SQLFragment(
        f"SELECT DISTINCT {columns_from}", params, arity, bag=f"SELECT {columns_from}"
    )


def _count_references(root: LogicalNode) -> Dict[LogicalNode, int]:
    """How many parents each (structurally distinct) node has in the plan."""
    counts: Dict[LogicalNode, int] = {root: 1}
    stack = [root]
    while stack:
        node = stack.pop()
        for child in node.children():
            seen = counts.get(child, 0)
            counts[child] = seen + 1
            if seen == 0:
                stack.append(child)
    return counts


class SQLCompiler(_Lowering):
    """Lower a logical plan to SQL fragments through the planner's hooks."""

    def __init__(self, database: Database, codec: Any) -> None:
        super().__init__(database)
        self.codec = codec
        self.setup: List[Tuple[str, Tuple[Any, ...]]] = []
        self.teardown: List[str] = []
        self.index_requests: List[Tuple[str, Tuple[int, ...]]] = []
        self.uses_adom = False
        self._refcounts: Dict[LogicalNode, int] = {}
        self._aliases = 0
        self._temps = 0

    # -- compilation entry point ---------------------------------------
    def compile(self, plan: LogicalNode) -> CompiledPlan:
        self._refcounts = _count_references(plan)
        root = self.lower(plan)
        return CompiledPlan(
            setup=tuple(self.setup),
            query=root.sql,
            params=root.params,
            teardown=tuple(self.teardown),
            arity=root.arity,
            uses_adom=self.uses_adom,
            index_requests=tuple(dict.fromkeys(self.index_requests)),
        )

    # -- shared-subplan spilling ---------------------------------------
    def lower(self, node: LogicalNode) -> SQLFragment:
        frag = self.shared.get(node)
        if frag is None:
            frag = self._lower(node)
            if self._refcounts.get(node, 0) > 1 and frag.table is None:
                frag = self.spill(frag)
            self.shared[node] = frag
        return frag

    def spill(self, frag: SQLFragment) -> SQLFragment:
        """Materialize a fragment into a temp table and scan it instead."""
        if frag.table is not None:
            return frag
        name = quote_identifier(f"_repro_tmp{self._temps}")
        self._temps += 1
        self.setup.append((f"CREATE TEMP TABLE {name} AS {frag.sql}", frag.params))
        self.teardown.append(f"DROP TABLE IF EXISTS {name}")
        return SQLFragment(
            f"SELECT {_columns(frag.arity)} FROM {name}", (), frag.arity, table=name
        )

    def _alias(self) -> str:
        self._aliases += 1
        return f"s{self._aliases}"

    # -- predicate compilation -----------------------------------------
    def predicate_sql(self, predicate: Predicate, prefix: str) -> Tuple[str, Tuple[Any, ...]]:
        if isinstance(predicate, PTrue):
            return "1", ()
        if isinstance(predicate, Comparison):
            sql_op = _COMPARISON_OPS.get(predicate.op)
            if sql_op is None:
                raise UnsupportedPlanError(
                    f"order comparison {predicate.op!r} has no SQL equivalent under "
                    "naive semantics (it raises on nulls); falling back"
                )
            parts: List[str] = []
            params: List[Any] = []
            for term in (predicate.left, predicate.right):
                if isinstance(term, Attr):
                    parts.append(f"{prefix}c{term.ref}")
                else:
                    parts.append("?")
                    params.append(self.codec.encode(term.value))
            return f"{parts[0]} {sql_op} {parts[1]}", tuple(params)
        if isinstance(predicate, (PAnd, POr)):
            if not predicate.operands:
                return ("1", ()) if isinstance(predicate, PAnd) else ("0", ())
            joiner = " AND " if isinstance(predicate, PAnd) else " OR "
            texts: List[str] = []
            params = []
            for operand in predicate.operands:
                text, sub = self.predicate_sql(operand, prefix)
                texts.append(f"({text})")
                params.extend(sub)
            return joiner.join(texts), tuple(params)
        if isinstance(predicate, PNot):
            text, params = self.predicate_sql(predicate.operand, prefix)
            return f"NOT ({text})", params
        raise UnsupportedPlanError(f"unsupported predicate {predicate!r}")

    # -- operator factory hooks ----------------------------------------
    def make_scan(self, node: LScan) -> SQLFragment:
        quoted = table_name(node.name)
        return SQLFragment(
            f"SELECT {_columns(node.arity)} FROM {quoted}",
            (),
            node.arity,
            table=quoted,
            base=node.name,
        )

    def make_const(self, node: LConst) -> SQLFragment:
        relation = node.relation
        if relation.arity == 0:
            raise UnsupportedPlanError("zero-arity constant relations are unsupported")
        select = ", ".join(f"column{i + 1} AS c{i}" for i in range(relation.arity))
        if not relation.rows:
            empty = ", ".join(f"NULL AS c{i}" for i in range(relation.arity))
            return SQLFragment(f"SELECT {empty} WHERE 0", (), relation.arity)
        placeholders = "(" + ", ".join("?" for _ in range(relation.arity)) + ")"
        values = ", ".join(placeholders for _ in range(len(relation.rows)))
        params = tuple(
            self.codec.encode(value) for row in relation.rows for value in row
        )
        return SQLFragment(
            f"SELECT {select} FROM (VALUES {values})", params, relation.arity
        )

    def make_delta(self, node: LDelta) -> SQLFragment:
        self.uses_adom = True
        return SQLFragment(f"SELECT v AS c0, v AS c1 FROM {ADOM_TABLE}", (), 2)

    def make_adom(self, node: LAdom) -> SQLFragment:
        self.uses_adom = True
        return SQLFragment(f"SELECT v AS c0 FROM {ADOM_TABLE}", (), 1)

    def make_filter(self, child: SQLFragment, predicate: Predicate) -> SQLFragment:
        alias = self._alias()
        where, where_params = self.predicate_sql(predicate, f"{alias}.")
        return SQLFragment(
            f"SELECT {_columns(child.arity, alias + '.')} "
            f"FROM ({child.sql}) AS {alias} WHERE {where}",
            child.params + where_params,
            child.arity,
        )

    def make_eq_filter(self, child: SQLFragment, left: int, right: int) -> SQLFragment:
        alias = self._alias()
        return SQLFragment(
            f"SELECT {_columns(child.arity, alias + '.')} "
            f"FROM ({child.sql}) AS {alias} WHERE {alias}.c{left} = {alias}.c{right}",
            child.params,
            child.arity,
        )

    def make_project(self, child: SQLFragment, positions: Tuple[int, ...]) -> SQLFragment:
        alias = self._alias()
        select = ", ".join(f"{alias}.c{p} AS c{i}" for i, p in enumerate(positions))
        return _distinct(f"{select} FROM ({child.sql}) AS {alias}", child.params, len(positions))

    def make_join(
        self,
        left: SQLFragment,
        right: SQLFragment,
        left_keys: Tuple[int, ...],
        right_keys: Tuple[int, ...],
        right_keep: Tuple[int, ...],
    ) -> SQLFragment:
        if right.base is not None and right_keys:
            self.index_requests.append((right.base, right_keys))
        la, ra = self._alias(), self._alias()
        select = [f"{la}.c{i} AS c{i}" for i in range(left.arity)]
        select.extend(
            f"{ra}.c{p} AS c{left.arity + k}" for k, p in enumerate(right_keep)
        )
        if left_keys:
            condition = " AND ".join(
                f"{la}.c{i} = {ra}.c{j}" for i, j in zip(left_keys, right_keys)
            )
            from_clause = f"({left.sql}) AS {la} JOIN ({right.sql}) AS {ra} ON {condition}"
        else:
            from_clause = f"({left.sql}) AS {la}, ({right.sql}) AS {ra}"
        return SQLFragment(
            f"SELECT {', '.join(select)} FROM {from_clause}",
            left.params + right.params,
            left.arity + len(right_keep),
        )

    def make_semijoin(self, join: LEquiJoin, positions: Tuple[int, ...]) -> None:
        # SQLite plans its own joins: keep join + project.
        return None

    def make_product(self, left: SQLFragment, right: SQLFragment) -> SQLFragment:
        return self.make_join(left, right, (), (), tuple(range(right.arity)))

    def _compound(self, op: str, left: SQLFragment, right: SQLFragment) -> SQLFragment:
        # Compound operands must not be parenthesized compounds themselves in
        # SQLite, so each side is wrapped as a plain table subquery.  The
        # compound returns distinct rows, so each side may be a bag.
        la, ra = self._alias(), self._alias()
        return SQLFragment(
            f"SELECT {_columns(left.arity, la + '.')} FROM ({left.operand}) AS {la} "
            f"{op} "
            f"SELECT {_columns(right.arity, ra + '.')} FROM ({right.operand}) AS {ra}",
            left.params + right.params,
            left.arity,
        )

    def make_union(self, left: SQLFragment, right: SQLFragment) -> SQLFragment:
        return self._compound("UNION", left, right)

    def make_difference(self, left: SQLFragment, right: SQLFragment) -> SQLFragment:
        return self._compound("EXCEPT", left, right)

    def make_intersection(self, left: SQLFragment, right: SQLFragment) -> SQLFragment:
        return self._compound("INTERSECT", left, right)

    def make_division(
        self,
        left: SQLFragment,
        right: SQLFragment,
        keep: Tuple[int, ...],
        divisor: Tuple[int, ...],
    ) -> SQLFragment:
        """``R ÷ S`` via the RA_cwa rewriting, with R and π_A(R) spilled.

        ``A = π_keep(R)``; the candidates ``reorder(A × S)`` are compared
        against ``R`` with ``EXCEPT``; groups with a missing combination
        are subtracted from ``A``.  An empty divisor yields ``A`` — the
        textbook convention the in-memory engine follows.
        """
        dividend = self.spill(left)
        alias = self._alias()
        keep_select = ", ".join(
            f"{alias}.c{p} AS c{i}" for i, p in enumerate(keep)
        )
        groups = self.spill(
            _distinct(f"{keep_select} FROM ({dividend.sql}) AS {alias}", dividend.params, len(keep))
        )
        ga, ra = self._alias(), self._alias()
        candidate_cols = []
        for position in range(left.arity):
            if position in keep:
                candidate_cols.append(f"{ga}.c{keep.index(position)} AS c{position}")
            else:
                candidate_cols.append(f"{ra}.c{divisor.index(position)} AS c{position}")
        candidates = SQLFragment(
            f"SELECT {', '.join(candidate_cols)} "
            f"FROM ({groups.sql}) AS {ga}, ({right.sql}) AS {ra}",
            groups.params + right.params,
            left.arity,
        )
        missing = self._compound("EXCEPT", candidates, dividend)
        ma = self._alias()
        bad_select = ", ".join(f"{ma}.c{p} AS c{i}" for i, p in enumerate(keep))
        bad = _distinct(f"{bad_select} FROM ({missing.sql}) AS {ma}", missing.params, len(keep))
        return self._compound("EXCEPT", groups, bad)

    def make_opaque(self, node: LOpaque) -> SQLFragment:
        raise UnsupportedPlanError(
            f"no SQL translation for opaque subtree {node.expression!r}; falling back"
        )


def compile_logical_plan(
    plan: LogicalNode, database: Database, codec: Any
) -> CompiledPlan:
    """Compile an optimized logical plan into an executable SQL plan."""
    return SQLCompiler(database, codec).compile(plan)
