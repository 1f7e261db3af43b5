"""The planned c-table evaluation path.

:func:`execute_ctable` evaluates a query over a c-table database: it is
compiled by the *same* logical optimizer and plan cache as
complete-relation evaluation (:mod:`repro.engine.logical`,
:mod:`repro.engine.planner` — selection pushdown, cardinality-ordered
multijoins, CSE sharing), and the plan is lowered to operators over
*conditional rows* ``(values, condition)`` instead of plain rows.

The operators mirror the Imieliński–Lipski algebra of
:mod:`repro.algebra.ctable_algebra` — the tree-walking ``_evaluate``
there remains the oracle (``ctable_evaluate``) — but compose every
condition through the hash-consed kernel
(:mod:`repro.datamodel.condition_kernel`): equalities are constant-folded
and interned, conjunctions/disjunctions are flattened, deduplicated and
memoized by node identity, and a union-find check kills unsatisfiable
equality conjunctions at construction.  Join keys are partitioned into
constants-vs-null exactly like the interpreter's ``_natural_join``: a
pair of rows whose all-constant keys differ can only produce a ``false``
condition, so it is never enumerated.  Given a probability model's
supports (``execute_ctable(..., supports=)``), the same holds for a null
and a constant outside its support, or two nulls with disjoint supports:
those pairings are skipped too (see :class:`CTableContext`).

The planned path may produce a *syntactically* different c-table than the
interpreter (different row order, differently-shaped conditions); the two
always represent the same set of possible worlds, which is what the
differential property tests assert.
"""

from __future__ import annotations

import itertools
from heapq import merge as _heapq_merge
from typing import Any, Callable, Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple

from ..algebra.ast import RAExpression
from ..algebra.predicates import _OPERATORS, Attr, Comparison, PAnd, PNot, POr, Predicate, PTrue
from ..datamodel import ConditionalRow, ConditionalTable
from ..datamodel.condition_kernel import ConditionKernel
from ..datamodel.conditional import FALSE, TRUE, Condition
from ..datamodel.matching import MayEqualIndex
from ..datamodel.relations import Relation, Row
from ..datamodel.schema import DatabaseSchema
from ..datamodel.values import Null, is_null
from ..obs.metrics import current_metrics
from ..obs.trace import span
from ..resilience import active_budget
from .logical import (
    LAdom,
    LConst,
    LDelta,
    LEquiJoin,
    LOpaque,
    LScan,
)
from . import planner as _planner

#: A conditional row in flight: ``(values, condition)`` with the condition
#: already canonical (interned, simplified, never ``FALSE``).
CRow = Tuple[Row, Condition]


#: ``{null: the constants it can take}`` — a probability model's supports.
Supports = Mapping[Null, FrozenSet[Any]]


class CTableContext:
    """Per-query execution state: the c-table database, schema, CSE memo.

    Also carries the :class:`ConditionKernel` every operator composes its
    conditions through (the plan cache's, typically a session's).

    ``supports`` (``None`` outside ``semantics="prob"``) restricts each
    listed null to the constants its model allows.  An equality that needs
    a null outside its support — ``n = c`` with ``c`` not in ``n``'s
    support, or ``n = m`` with disjoint supports — holds in no world of
    positive probability, so the operators fold it to ``false`` and never
    pair the rows it would join; ``pruned`` counts those skipped pairings.
    Nulls missing from the map are unrestricted.  ``reused`` counts the
    join build sides and selection indexes served from an operator's
    cache (see :class:`CIndexedSelect` and :class:`CHashJoin`).
    """

    __slots__ = (
        "database", "schema", "memo", "kernel", "budget", "_adom", "supports", "pruned", "reused",
    )

    def __init__(
        self,
        database: Any,
        schema: DatabaseSchema,
        kernel: ConditionKernel,
        supports: Optional[Supports] = None,
    ) -> None:
        self.database = database
        self.schema = schema
        self.memo: Dict[Any, List[CRow]] = {}
        self.kernel = kernel
        # Snapshot the ambient budget once per query; the quadratic
        # operators check it per outer row (cooperative cancellation).
        self.budget = active_budget()
        self._adom: Optional[List[Any]] = None
        self.supports = supports
        self.pruned = 0
        self.reused = 0

    def active_domain(self) -> List[Any]:
        if self._adom is None:
            self._adom = sorted(self.database.active_domain(), key=str)
        return self._adom

    def eq(self, left: Any, right: Any) -> Condition:
        """``kernel.eq``, folded to ``FALSE`` when the supports rule it out."""
        if (isinstance(left, Null) or isinstance(right, Null)) and not admits(
            self.supports, left, right
        ):
            self.pruned += 1
            return FALSE
        return self.kernel.eq(left, right)


def admits(supports: Supports, left: Any, right: Any) -> bool:
    """Whether ``left = right`` can hold in a world ``supports`` allow.

    Constant pairs are left to the kernel's folding; only a support can
    rule an equality out here.
    """
    if isinstance(left, Null):
        allowed = supports.get(left)
        if allowed is None:
            return True
        if isinstance(right, Null):
            other = supports.get(right)
            return other is None or left == right or not allowed.isdisjoint(other)
        return right in allowed
    if isinstance(right, Null):
        allowed = supports.get(right)
        return allowed is None or left in allowed
    return True


def admits_row(supports: Supports, left: Row, right: Row) -> bool:
    """:func:`admits` for every position of two equal-length rows."""
    return all(admits(supports, a, b) for a, b in zip(left, right))


class COperator:
    """Base class of conditional-row operators (memoized like physical ones)."""

    __slots__ = ("key",)

    def __init__(self, key: Any = None) -> None:
        self.key = key

    def rows(self, ctx: CTableContext) -> List[CRow]:
        if self.key is not None:
            cached = ctx.memo.get(self.key)
            if cached is not None:
                return cached
        result = self._compute(ctx)
        if self.key is not None:
            ctx.memo[self.key] = result
        return result

    def _compute(self, ctx: CTableContext) -> List[CRow]:
        raise NotImplementedError


class CScan(COperator):
    """The rows of a base c-table, conditions interned.

    The output depends only on the (immutable) table, the kernel and the
    kernel's :attr:`~ConditionKernel.generation`, so it is kept as a
    snapshot for as long as all three stay the same: a warm request
    returns the same list object, and a :class:`CHashJoin` over it keeps
    its build side.  :meth:`ConditionKernel.clear` and every eviction
    bump the generation, so the next request rebuilds.  The snapshot is
    published with one attribute assignment once complete (plan-cache
    operators are shared by the threads of a frozen session) and lives
    as long as the plan-cache entry.  No operator mutates a child's rows.
    """

    __slots__ = ("name", "_snapshot")

    def __init__(self, name: str, key: Any = None) -> None:
        super().__init__(key)
        self.name = name
        self._snapshot: Optional[Tuple[ConditionalTable, ConditionKernel, int, List[CRow]]] = None

    def _compute(self, ctx: CTableContext) -> List[CRow]:
        table = ctx.database.table(self.name)
        kernel = ctx.kernel
        generation = kernel.generation
        snapshot = self._snapshot
        if (
            snapshot is not None
            and snapshot[0] is table
            and snapshot[1] is kernel
            and snapshot[2] == generation
        ):
            return snapshot[3]
        rows: List[CRow] = []
        intern = kernel.intern
        for row in table:
            condition = intern(row.condition)
            if condition is FALSE:
                continue
            rows.append((row.values, condition))
        # The generation read *before* interning: an eviction during the
        # build leaves a stale stamp, so the next request rebuilds.
        self._snapshot = (table, kernel, generation, rows)
        return rows


class CIndexedSelect(COperator):
    """``σ[#column = constant]`` (possibly ``∧ …``) directly over a base c-table.

    Reads the rows holding the constant or a null in ``column`` from the
    table's :meth:`~ConditionalTable.position_index` instead of scanning:
    every other row holds a different constant there, so the equality
    folds to ``false`` on it (without touching the supports — two
    constants are never pruned, and a leading conjunct that folds to
    ``false`` stops the conjunction).  The candidates come in row order
    and get exactly :class:`CFilter`'s treatment, so the output — rows,
    order and ``pruned`` count — is the scan path's.
    """

    __slots__ = ("name", "predicate", "column", "constant", "_index")

    def __init__(
        self, name: str, predicate: Predicate, column: int, constant: Any, key: Any = None
    ) -> None:
        super().__init__(key)
        self.name = name
        self.predicate = predicate
        self.column = column
        self.constant = constant
        self._index: Optional[Tuple[ConditionalTable, MayEqualIndex]] = None

    def _compute(self, ctx: CTableContext) -> List[CRow]:
        table = ctx.database.table(self.name)
        held = self._index
        if held is not None and held[0] is table:
            index = held[1]
            ctx.reused += 1
        else:
            index = table.position_index(self.column)
            self._index = (table, index)
        predicate = self.predicate
        kernel = ctx.kernel
        intern = kernel.intern
        eq = kernel.eq if ctx.supports is None else ctx.eq
        table_rows = table.rows
        rows: List[CRow] = []
        for position in index.candidates((self.constant,)):
            row = table_rows[position]
            condition = intern(row.condition)
            if condition is FALSE:
                continue
            values = row.values
            combined = kernel.and_(
                condition, predicate_condition_positional(predicate, values, kernel, eq)
            )
            if combined is FALSE:
                continue
            rows.append((values, combined))
        return rows


def _indexed_equality(predicate: Predicate) -> Optional[Tuple[int, Any]]:
    """``(column, constant)`` when ``predicate`` is, or leads with, ``#column = constant``.

    Only a non-null hashable constant qualifies: against a null constant
    an equality does not fold to ``false``.
    """
    if isinstance(predicate, PAnd) and predicate.operands:
        predicate = predicate.operands[0]
    if not isinstance(predicate, Comparison) or predicate.op != "=":
        return None
    left, right = predicate.left, predicate.right
    if isinstance(right, Attr):
        left, right = right, left
    if not isinstance(left, Attr) or isinstance(right, Attr) or not isinstance(left.ref, int):
        return None
    constant = right.value
    if constant is None or is_null(constant):
        return None
    try:
        hash(constant)
    except TypeError:
        return None
    return left.ref, constant


class CConstScan(COperator):
    __slots__ = ("relation",)

    def __init__(self, relation: Relation, key: Any = None) -> None:
        super().__init__(key)
        self.relation = relation

    def _compute(self, ctx: CTableContext) -> List[CRow]:
        return [(row, TRUE) for row in self.relation.rows]


class CDeltaScan(COperator):
    __slots__ = ()

    def _compute(self, ctx: CTableContext) -> List[CRow]:
        return [((value, value), TRUE) for value in ctx.active_domain()]


class CAdomScan(COperator):
    __slots__ = ()

    def _compute(self, ctx: CTableContext) -> List[CRow]:
        return [((value,), TRUE) for value in ctx.active_domain()]


class CFilter(COperator):
    """σ over conditional rows: the predicate becomes part of the condition."""

    __slots__ = ("child", "predicate")

    def __init__(self, child: COperator, predicate: Predicate, key: Any = None) -> None:
        super().__init__(key)
        self.child = child
        self.predicate = predicate

    def _compute(self, ctx: CTableContext) -> List[CRow]:
        predicate = self.predicate
        kernel = ctx.kernel
        eq = kernel.eq if ctx.supports is None else ctx.eq
        rows: List[CRow] = []
        for values, condition in self.child.rows(ctx):
            extra = predicate_condition_positional(predicate, values, kernel, eq)
            combined = kernel.and_(condition, extra)
            if combined is FALSE:
                continue
            rows.append((values, combined))
        return rows


class CEqFilter(COperator):
    """Equality of two positions of the same row, as a condition."""

    __slots__ = ("child", "left", "right")

    def __init__(self, child: COperator, left: int, right: int, key: Any = None) -> None:
        super().__init__(key)
        self.child = child
        self.left = left
        self.right = right

    def _compute(self, ctx: CTableContext) -> List[CRow]:
        left, right = self.left, self.right
        kernel = ctx.kernel
        eq = kernel.eq if ctx.supports is None else ctx.eq
        rows: List[CRow] = []
        for values, condition in self.child.rows(ctx):
            combined = kernel.and_(condition, eq(values[left], values[right]))
            if combined is FALSE:
                continue
            rows.append((values, combined))
        return rows


class CProject(COperator):
    __slots__ = ("child", "positions")

    def __init__(self, child: COperator, positions: Tuple[int, ...], key: Any = None) -> None:
        super().__init__(key)
        self.child = child
        self.positions = positions

    def _compute(self, ctx: CTableContext) -> List[CRow]:
        positions = self.positions
        return [
            (tuple(values[p] for p in positions), condition)
            for values, condition in self.child.rows(ctx)
        ]


class CHashJoin(COperator):
    """Equi-join over conditional rows with constants-vs-null key partitioning.

    Right rows whose key columns are all constants are hashed by key; rows
    with a null in some key column may equal anything under some valuation
    and are paired with every probe.  An all-constant probe key therefore
    meets only its exact hash bucket plus the null-keyed rows — every other
    pairing would conjoin an equality that folds to ``false``.

    With supports (``semantics="prob"``) a null ranges over its support
    only, and :class:`_SupportIndex` narrows both probe kinds to the right
    rows the supports admit.

    The build side (:class:`_JoinBuild`) is kept for as long as the right
    input and the supports are the same objects and the kernel and its
    generation are unchanged: a warm :class:`CScan` on the right hands
    back the same list, so only the probes run.
    """

    __slots__ = ("left", "right", "left_keys", "right_keys", "right_keep", "_build")

    def __init__(
        self,
        left: COperator,
        right: COperator,
        left_keys: Tuple[int, ...],
        right_keys: Tuple[int, ...],
        right_keep: Tuple[int, ...],
        key: Any = None,
    ) -> None:
        super().__init__(key)
        self.left = left
        self.right = right
        self.left_keys = left_keys
        self.right_keys = right_keys
        self.right_keep = right_keep
        self._build: Optional[_JoinBuild] = None

    def _build_side(self, ctx: CTableContext, right_rows: List[CRow]) -> _JoinBuild:
        kernel = ctx.kernel
        build = self._build
        if (
            build is not None
            and build.rows is right_rows
            and build.supports is ctx.supports
            and build.kernel is kernel
            and build.generation == kernel.generation
        ):
            ctx.reused += 1
            return build
        build = _JoinBuild(right_rows, self.right_keys, ctx.supports, kernel)
        self._build = build
        return build

    def _compute(self, ctx: CTableContext) -> List[CRow]:
        left_keys = self.left_keys
        right_keys = self.right_keys
        right_keep = self.right_keep
        kernel = ctx.kernel
        right_rows = self.right.rows(ctx)
        if not right_rows:
            return []
        build = self._build_side(ctx, right_rows)
        keyed = build.keyed
        null_key_positions = build.null_positions
        pins = build.pins

        keep_all = right_keep == tuple(range(len(right_rows[0][0])))
        single_key = left_keys[0] if len(left_keys) == 1 else None
        single_right = right_keys[0] if len(right_keys) == 1 else None
        # Dense joins probe the same few key tuples over and over; the
        # composed "right condition ∧ key equalities" only depends on
        # (probe key, right row), so it is cached per pair with the build.
        probe_cache = build.probe_conditions

        def right_part(l_key: Row, position: int) -> Condition:
            pair = (l_key, position)
            cached = probe_cache.get(pair)
            if cached is None:
                r_values, r_condition = right_rows[position]
                if single_right is not None:
                    equalities = kernel.eq(l_key[0], r_values[single_right])
                else:
                    equalities = kernel.conjunction(
                        kernel.eq(l_key[k], r_values[j]) for k, j in enumerate(right_keys)
                    )
                cached = kernel.and_(r_condition, equalities)
                probe_cache[pair] = cached
            return cached

        rows: List[CRow] = []
        append = rows.append
        budget = ctx.budget
        pruned = 0
        for l_values, l_condition in self.left.rows(ctx):
            if budget is not None:
                budget.check()
            if single_key is not None:
                probe = l_values[single_key]
                l_key: Row = (probe,)
                constant_probe = not is_null(probe)
            else:
                l_key = tuple(l_values[i] for i in left_keys)
                constant_probe = bool(left_keys) and not any(is_null(v) for v in l_key)
            if constant_probe:
                # Exact hash bucket: the key equalities fold to TRUE by
                # construction, so only the row conditions are conjoined.
                bucket = keyed.get(l_key)
                if bucket:
                    for position in bucket:
                        r_values, r_condition = right_rows[position]
                        condition = kernel.and_(l_condition, r_condition)
                        if condition is FALSE:
                            continue
                        if keep_all:
                            values = l_values + r_values
                        else:
                            values = l_values + tuple(r_values[p] for p in right_keep)
                        append((values, condition))
                if pins is None:
                    candidates: Iterable[int] = null_key_positions
                else:
                    candidates, skipped = pins.for_constant(l_key)
                    pruned += skipped
            elif pins is None:
                candidates = range(len(right_rows))
            else:
                candidates, skipped = pins.for_nulls(l_key)
                pruned += skipped
            for position in candidates:
                part = right_part(l_key, position)
                if part is FALSE:
                    continue
                condition = kernel.and_(l_condition, part)
                if condition is FALSE:
                    continue
                r_values = right_rows[position][0]
                if keep_all:
                    values = l_values + r_values
                else:
                    values = l_values + tuple(r_values[p] for p in right_keep)
                append((values, condition))
        ctx.pruned += pruned
        return rows


class _JoinBuild:
    """The build side of a :class:`CHashJoin` over one right input.

    The hash partition (``keyed``/``null_positions``), the support index
    and the per-(probe key, right row) condition memo.  Everything here
    depends only on the right rows, the supports and the kernel generation
    it records, which is what :meth:`CHashJoin._build_side` checks before
    reusing it.  Concurrent requests of a frozen session may share one:
    the memos only gain complete entries, one dict store each.
    """

    __slots__ = ("rows", "supports", "kernel", "generation", "keyed", "null_positions", "pins",
                 "probe_conditions")

    def __init__(
        self,
        right_rows: List[CRow],
        right_keys: Tuple[int, ...],
        supports: Optional[Supports],
        kernel: ConditionKernel,
    ) -> None:
        self.rows = right_rows
        self.supports = supports
        self.kernel = kernel
        self.generation = kernel.generation
        keyed: Dict[Row, List[int]] = {}
        null_positions: List[int] = []
        for position, (values, _) in enumerate(right_rows):
            key = tuple(values[j] for j in right_keys)
            if any(is_null(v) for v in key):
                null_positions.append(position)
            else:
                keyed.setdefault(key, []).append(position)
        self.keyed = keyed
        self.null_positions = null_positions
        self.pins = (
            None
            if supports is None
            else _SupportIndex(supports, right_rows, right_keys, keyed, null_positions)
        )
        self.probe_conditions: Dict[Tuple[Row, int], Condition] = {}


def _first_supported(values: Row, supports: Supports) -> Optional[Tuple[int, FrozenSet[Any]]]:
    """``(index, support)`` of the first null in ``values`` that has a support."""
    for index, value in enumerate(values):
        if is_null(value):
            allowed = supports.get(value)
            if allowed is not None:
                return index, allowed
    return None


class _SupportIndex:
    """The right side of a :class:`CHashJoin`, indexed by null supports.

    Each null-keyed right row is *pinned* under every support value of its
    first supported key null, so an all-constant probe meets only the rows
    that can take its value.  A probe carrying a supported null visits the
    constant-keyed rows whose key holds one of that null's support values,
    plus the null-keyed rows.  Every candidate list is then filtered by
    :func:`admits_row` over the whole key (other columns, null-null
    disjointness) and comes back in ascending position order —
    the unpruned join's relative output order.  Each probe also returns
    the number of pairings skipped relative to the unpruned join, which
    the join adds to its request's ``pruned`` count: the index holds no
    per-request state, so it outlives the request that built it.
    """

    __slots__ = ("supports", "keys", "keyed", "null_positions", "pinned", "unpinned", "columns",
                 "probes")

    def __init__(
        self,
        supports: Supports,
        right_rows: List[CRow],
        right_keys: Tuple[int, ...],
        keyed: Dict[Row, List[int]],
        null_positions: List[int],
    ) -> None:
        self.supports = supports
        self.keys = [tuple(values[j] for j in right_keys) for values, _ in right_rows]
        self.keyed = keyed
        self.null_positions = null_positions
        # key column -> support value -> ascending positions
        self.pinned: Dict[int, Dict[Any, List[int]]] = {}
        self.unpinned: List[int] = []
        for position in null_positions:
            first = _first_supported(self.keys[position], supports)
            if first is None:
                self.unpinned.append(position)
                continue
            by_value = self.pinned.setdefault(first[0], {})
            for value in first[1]:
                by_value.setdefault(value, []).append(position)
        # key column -> value -> positions of constant-keyed rows (lazy)
        self.columns: Dict[int, Dict[Any, List[int]]] = {}
        # probe key -> (admitted positions, pairings skipped)
        self.probes: Dict[Row, Tuple[List[int], int]] = {}

    def for_constant(self, l_key: Row) -> Tuple[List[int], int]:
        """The null-keyed right rows the all-constant ``l_key`` can meet."""
        probe = self.probes.get(l_key)
        if probe is None:
            hits = [by_value.get(l_key[column], ()) for column, by_value in self.pinned.items()]
            candidates = self._admitted(l_key, _heapq_merge(self.unpinned, *hits))
            probe = self.probes[l_key] = (candidates, len(self.null_positions) - len(candidates))
        return probe

    def for_nulls(self, l_key: Row) -> Tuple[List[int], int]:
        """The right rows the null-carrying ``l_key`` can meet."""
        probe = self.probes.get(l_key)
        if probe is None:
            first = _first_supported(l_key, self.supports)
            if first is None:
                pool: Iterable[int] = range(len(self.keys))
            else:
                column = self._column(first[0])
                pool = sorted(
                    itertools.chain(
                        self.null_positions, *(column.get(value, ()) for value in first[1])
                    )
                )
            candidates = self._admitted(l_key, pool)
            probe = self.probes[l_key] = (candidates, len(self.keys) - len(candidates))
        return probe

    def _admitted(self, l_key: Row, pool: Iterable[int]) -> List[int]:
        supports = self.supports
        keys = self.keys
        return [position for position in pool if admits_row(supports, l_key, keys[position])]

    def _column(self, index: int) -> Dict[Any, List[int]]:
        column = self.columns.get(index)
        if column is None:
            column = {}
            for key, positions in self.keyed.items():
                column.setdefault(key[index], []).extend(positions)
            self.columns[index] = column
        return column


class CProduct(COperator):
    __slots__ = ("left", "right")

    def __init__(self, left: COperator, right: COperator, key: Any = None) -> None:
        super().__init__(key)
        self.left = left
        self.right = right

    def _compute(self, ctx: CTableContext) -> List[CRow]:
        right_rows = self.right.rows(ctx)
        kernel = ctx.kernel
        budget = ctx.budget
        rows: List[CRow] = []
        for l_values, l_condition in self.left.rows(ctx):
            if budget is not None:
                budget.check()
            for r_values, r_condition in right_rows:
                condition = kernel.and_(l_condition, r_condition)
                if condition is FALSE:
                    continue
                rows.append((l_values + r_values, condition))
        return rows


class CUnion(COperator):
    __slots__ = ("left", "right")

    def __init__(self, left: COperator, right: COperator, key: Any = None) -> None:
        super().__init__(key)
        self.left = left
        self.right = right

    def _compute(self, ctx: CTableContext) -> List[CRow]:
        return list(self.left.rows(ctx)) + list(self.right.rows(ctx))


class CMembershipIndex:
    """Membership conditions over conditional rows, from a :class:`MayEqualIndex`.

    The kernel-side counterpart of the interpreter's ``_MembershipIndex``:
    a probe meets only the rows that agree with it wherever both hold a
    constant (every other pairing folds to ``false``).  Given a context
    with supports, a disjunct whose row equality needs a null outside its
    support is dropped (and counted in ``ctx.pruned``).
    """

    __slots__ = ("rows", "index", "kernel", "ctx")

    def __init__(
        self, rows: List[CRow], kernel: ConditionKernel, ctx: Optional[CTableContext] = None
    ) -> None:
        self.rows = rows
        self.kernel = kernel
        self.ctx = ctx if ctx is not None and ctx.supports is not None else None
        self.index = MayEqualIndex([values for values, _ in rows])

    def condition(self, values: Row) -> Condition:
        """The condition "``values`` is a tuple of the indexed rows"."""
        kernel = self.kernel
        ctx = self.ctx
        disjuncts: List[Condition] = []
        for position in self.index.candidates(values):
            r_values, r_condition = self.rows[position]
            if ctx is not None and not admits_row(ctx.supports, values, r_values):
                ctx.pruned += 1
                continue
            disjunct = kernel.and_(r_condition, kernel.row_equality(values, r_values))
            if disjunct is TRUE:
                return TRUE
            if disjunct is FALSE:
                continue
            disjuncts.append(disjunct)
        return kernel.disjunction(disjuncts)


class CIntersection(COperator):
    __slots__ = ("left", "right")

    def __init__(self, left: COperator, right: COperator, key: Any = None) -> None:
        super().__init__(key)
        self.left = left
        self.right = right

    def _compute(self, ctx: CTableContext) -> List[CRow]:
        kernel = ctx.kernel
        membership = CMembershipIndex(self.right.rows(ctx), kernel, ctx)
        budget = ctx.budget
        rows: List[CRow] = []
        for values, condition in self.left.rows(ctx):
            if budget is not None:
                budget.check()
            combined = kernel.and_(condition, membership.condition(values))
            if combined is FALSE:
                continue
            rows.append((values, combined))
        return rows


class CDifference(COperator):
    __slots__ = ("left", "right")

    def __init__(self, left: COperator, right: COperator, key: Any = None) -> None:
        super().__init__(key)
        self.left = left
        self.right = right

    def _compute(self, ctx: CTableContext) -> List[CRow]:
        kernel = ctx.kernel
        membership = CMembershipIndex(self.right.rows(ctx), kernel, ctx)
        budget = ctx.budget
        rows: List[CRow] = []
        for values, condition in self.left.rows(ctx):
            if budget is not None:
                budget.check()
            combined = kernel.and_(condition, kernel.not_(membership.condition(values)))
            if combined is FALSE:
                continue
            rows.append((values, combined))
        return rows


class CDivision(COperator):
    """``R ÷ S`` over conditional rows.

    Inlines the standard rewriting ``π_A(R) − π_A(reorder(π_A(R) × S) − R)``
    (the same one ``expand_division`` hands the interpreter) with both
    differences realized as kernel membership conditions, so no
    intermediate expression tree or c-table is materialized.
    """

    __slots__ = ("left", "right", "keep", "divisor")

    def __init__(
        self,
        left: COperator,
        right: COperator,
        keep: Tuple[int, ...],
        divisor: Tuple[int, ...],
        key: Any = None,
    ) -> None:
        super().__init__(key)
        self.left = left
        self.right = right
        self.keep = keep
        self.divisor = divisor

    def _compute(self, ctx: CTableContext) -> List[CRow]:
        keep = self.keep
        divisor = self.divisor
        kernel = ctx.kernel
        left_rows = self.left.rows(ctx)
        right_rows = self.right.rows(ctx)
        arity = len(keep) + len(divisor)

        candidates: List[CRow] = [
            (tuple(values[p] for p in keep), condition) for values, condition in left_rows
        ]
        left_membership = CMembershipIndex(left_rows, kernel, ctx)

        # reorder(candidate × divisor-row) back into R's column layout,
        # then keep the pairs that may be *missing* from R.
        budget = ctx.budget
        missing: List[CRow] = []
        for c_values, c_condition in candidates:
            if budget is not None:
                budget.check()
            for s_values, s_condition in right_rows:
                full = [None] * arity
                for k_index, p in enumerate(keep):
                    full[p] = c_values[k_index]
                for d_index, p in enumerate(divisor):
                    full[p] = s_values[d_index]
                pair_condition = kernel.and_(c_condition, s_condition)
                if pair_condition is FALSE:
                    continue
                absent = kernel.not_(left_membership.condition(tuple(full)))
                miss_condition = kernel.and_(pair_condition, absent)
                if miss_condition is FALSE:
                    continue
                missing.append((c_values, miss_condition))

        bad_membership = CMembershipIndex(missing, kernel, ctx)
        rows: List[CRow] = []
        for c_values, c_condition in candidates:
            combined = kernel.and_(c_condition, kernel.not_(bad_membership.condition(c_values)))
            if combined is FALSE:
                continue
            rows.append((c_values, combined))
        return rows


class CInterpret(COperator):
    """Fallback: run an unsupported subtree on the c-table interpreter."""

    __slots__ = ("expression",)

    def __init__(self, expression: RAExpression, key: Any = None) -> None:
        super().__init__(key)
        self.expression = expression

    def _compute(self, ctx: CTableContext) -> List[CRow]:
        from ..algebra.ctable_algebra import _evaluate

        table = _evaluate(self.expression, ctx.database, ctx.schema)
        intern = ctx.kernel.intern
        rows: List[CRow] = []
        for row in table:
            condition = intern(row.condition)
            if condition is FALSE:
                continue
            rows.append((row.values, condition))
        return rows


# ----------------------------------------------------------------------
# Predicate → condition translation over position-resolved predicates
# ----------------------------------------------------------------------
def predicate_condition_positional(
    predicate: Predicate,
    values: Row,
    kernel: ConditionKernel,
    eq: Callable[[Any, Any], Condition],
) -> Condition:
    """The kernel condition expressing ``predicate`` on a (possibly null) row.

    The positional counterpart of
    :func:`repro.algebra.ctable_algebra.predicate_condition`: attribute
    references have already been resolved to positions by the logical
    optimizer, and the resulting condition is canonical in ``kernel``.
    ``eq`` builds the equality atoms: ``kernel.eq``, or
    :meth:`CTableContext.eq` when supports prune them.
    """
    if isinstance(predicate, PTrue):
        return TRUE
    if isinstance(predicate, Comparison):
        left = predicate.left
        right = predicate.right
        left_value = values[left.ref] if isinstance(left, Attr) else left.value
        right_value = values[right.ref] if isinstance(right, Attr) else right.value
        if predicate.op == "=":
            return eq(left_value, right_value)
        if predicate.op == "!=":
            return kernel.not_(eq(left_value, right_value))
        if is_null(left_value) or is_null(right_value):
            raise ValueError(
                f"order comparison {predicate.op!r} on nulls is not expressible as a "
                "c-table condition (conditions are equality-based)"
            )
        return TRUE if _OPERATORS[predicate.op](left_value, right_value) else FALSE
    if isinstance(predicate, PAnd):
        return kernel.conjunction(
            predicate_condition_positional(op, values, kernel, eq) for op in predicate.operands
        )
    if isinstance(predicate, POr):
        return kernel.disjunction(
            predicate_condition_positional(op, values, kernel, eq) for op in predicate.operands
        )
    if isinstance(predicate, PNot):
        return kernel.not_(predicate_condition_positional(predicate.operand, values, kernel, eq))
    raise TypeError(f"unsupported predicate {predicate!r}")


# ----------------------------------------------------------------------
# Lowering: reuse the planner's traversal and join ordering
# ----------------------------------------------------------------------
class _CTableSizes:
    """Duck-typed stand-in for a :class:`Database` in cardinality estimates."""

    __slots__ = ("_tables",)

    def __init__(self, database: Any) -> None:
        self._tables = {table.name: table for table in database}

    def relation(self, name: str) -> Any:
        return self._tables[name]

    def size(self) -> int:
        return sum(len(table) for table in self._tables.values())


class _CTableLowering(_planner._Lowering):
    """Lower logical plans to conditional-row operators.

    Inherits the traversal, CSE sharing and greedy multijoin ordering of
    the complete-relation lowering; only the operator factories differ.
    """

    def make_scan(self, node: LScan) -> COperator:
        return CScan(node.name)

    def make_const(self, node: LConst) -> COperator:
        return CConstScan(node.relation)

    def make_delta(self, node: LDelta) -> COperator:
        return CDeltaScan()

    def make_adom(self, node: LAdom) -> COperator:
        return CAdomScan()

    def make_filter(self, child: COperator, predicate: Predicate) -> COperator:
        if isinstance(child, CScan):
            indexed = _indexed_equality(predicate)
            if indexed is not None:
                return CIndexedSelect(child.name, predicate, *indexed)
        return CFilter(child, predicate)

    def make_eq_filter(self, child: COperator, left: int, right: int) -> COperator:
        return CEqFilter(child, left, right)

    def make_project(self, child: COperator, positions: Tuple[int, ...]) -> COperator:
        return CProject(child, positions)

    def make_join(
        self,
        left: COperator,
        right: COperator,
        left_keys: Tuple[int, ...],
        right_keys: Tuple[int, ...],
        right_keep: Tuple[int, ...],
    ) -> COperator:
        return CHashJoin(left, right, left_keys, right_keys, right_keep)

    def make_semijoin(self, join: LEquiJoin, positions: Tuple[int, ...]) -> None:
        # Lineage needs every derivation of an output row: keep join + project.
        return None

    def make_product(self, left: COperator, right: COperator) -> COperator:
        return CProduct(left, right)

    def make_union(self, left: COperator, right: COperator) -> COperator:
        return CUnion(left, right)

    def make_difference(self, left: COperator, right: COperator) -> COperator:
        return CDifference(left, right)

    def make_intersection(self, left: COperator, right: COperator) -> COperator:
        return CIntersection(left, right)

    def make_division(
        self, left: COperator, right: COperator, keep: Tuple[int, ...], divisor: Tuple[int, ...]
    ) -> COperator:
        return CDivision(left, right, keep, divisor)

    def make_opaque(self, node: LOpaque) -> COperator:
        return CInterpret(node.expression)


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def execute_ctable(
    expression: RAExpression,
    database: Any,
    plan_cache: "_planner.PlanCache",
    kernel: ConditionKernel,
    supports: Optional[Supports] = None,
) -> ConditionalTable:
    """Evaluate an RA expression over a :class:`CTableDatabase` via the planner.

    Shares the logical plans of :meth:`PlanCache.execute` (keyed by
    ``(expression, schema)``); the c-table lowering is cached
    beside the complete-relation one, keyed by the base table sizes it was
    cost-ordered for.  The result carries the conjunction of all base
    tables' global conditions, exactly like the interpreter path.

    ``plan_cache`` and ``kernel`` are the caller's evaluation state
    (typically a session's), so concurrent sessions share neither plans
    nor interned conditions.

    ``supports`` maps nulls to the constants a probability model lets
    them take (``{null: frozenset(model.support(null))}``).  Given it,
    the operators skip every derivation that needs a null outside its
    support (see :class:`CTableContext`): the result then represents the
    same worlds *of positive probability*, not the same CWA worlds.  The
    map lives on the per-call context, so the cached lowering and the
    kernel stay free of any model.  Skipped pairings are counted as
    ``ctable.support_pruned`` on the ambient metrics registry.
    """
    state = active_budget()
    if state is not None:
        state.check()
    schema = database.schema
    entry = plan_cache.entry(expression, schema)
    global_condition = kernel.conjunction(
        kernel.intern(table.global_condition) for table in database
    )
    if global_condition is FALSE:
        # No valuation satisfies the database; skip query evaluation entirely.
        return ConditionalTable(entry.out_schema, (), FALSE)

    sizes = tuple(len(table) for table in database)
    physical = entry.ctable_physical
    if physical is None or entry.ctable_sizes != sizes:
        physical = _CTableLowering(_CTableSizes(database)).lower(entry.logical)
        if not plan_cache.frozen:
            entry.ctable_physical = physical
            entry.ctable_sizes = sizes
        # frozen: keep the lowering local — a concurrent reader may be
        # walking entry.ctable_physical for different table sizes

    ctx = CTableContext(database, schema, kernel, supports)
    with span("ctable.execute") as sp:
        crows = physical.rows(ctx)
        sp.set(rows=len(crows), pruned=ctx.pruned, reused=ctx.reused)
    if ctx.pruned or ctx.reused:
        registry = current_metrics()
        if registry is not None:
            if ctx.pruned:
                registry.count("ctable.support_pruned", ctx.pruned)
            if ctx.reused:
                registry.count("ctable.build_reused", ctx.reused)
    make_row = ConditionalRow._from_trusted
    rows = tuple(make_row(values, condition) for values, condition in crows)
    return ConditionalTable._from_trusted(entry.out_schema, rows, global_condition)
