"""Physical operators and the execution context.

Operators work on plain row sets (tuples of interned values) — no
intermediate :class:`~repro.datamodel.relations.Relation` objects, no
per-row schema lookups, no re-validation of values.  Each operator
materializes its result, mirroring the interpreter's semantics (set
semantics everywhere) while replacing its nested loops and per-row name
resolution with hash-based algorithms and precompiled predicate closures.

The shared :class:`ExecutionContext` carries the database, a per-query
memo table for common-subexpression elimination (keyed by the integer
the lowering gives an operator it shares) and the lazily computed active
domain.

Operator inventory
------------------
``Scan``            base-relation scan (returns the stored frozenset)
``ConstScan``       literal relation embedded in the query
``DeltaScan``       the diagonal Δ over the active domain
``AdomScan``        the unary active-domain relation
``Filter``          σ with a precompiled row predicate
``Project``         π by positions (set-based dedup)
``HashJoin``        equi-join; builds (or reuses a relation's cached)
                    hash index on the right input
``SemiJoin``        π over an equi-join whose one side supplies only join
                    keys: the other side's rows are kept by membership in
                    that side's (or its relation's cached) key map
``NestedProduct``   Cartesian product (only when no equality is usable)
``HashUnion``       set union
``HashDifference``  set difference
``HashIntersection``set intersection
``HashDivision``    grouped hash division; a group keeps only the values
                    in the divisor, then compares counts
``Interpret``       fallback to the tree-walking interpreter
"""

from __future__ import annotations

from typing import AbstractSet, Any, Callable, Dict, FrozenSet, List, Optional, Tuple

from ..algebra.predicates import (
    _OPERATORS,
    Attr,
    Comparison,
    PAnd,
    PNot,
    POr,
    Predicate,
    PTrue,
)
from ..datamodel import Database, Relation, is_null
from ..datamodel.relations import Row, build_key_map, key_getter

Rows = AbstractSet[Row]
RowPredicate = Callable[[Row], bool]


class ExecutionContext:
    """Per-query execution state: database, CSE memo, cached active domain."""

    __slots__ = ("database", "memo", "_adom")

    def __init__(self, database: Database) -> None:
        self.database = database
        self.memo: Dict[Any, Rows] = {}
        self._adom: Optional[FrozenSet[Any]] = None

    def active_domain(self) -> FrozenSet[Any]:
        if self._adom is None:
            self._adom = frozenset(self.database.active_domain())
        return self._adom


class PhysicalOperator:
    """Base class of physical operators.

    ``key`` is set by the lowering on an operator it shares between
    parents; results are then memoized in the execution context so
    structurally equal subplans run once per query (common-subexpression
    elimination).  An unshared operator has no key and skips the memo.
    """

    __slots__ = ("key",)

    def __init__(self, key: Any = None) -> None:
        self.key = key

    def rows(self, ctx: ExecutionContext) -> Rows:
        if self.key is not None:
            cached = ctx.memo.get(self.key)
            if cached is not None:
                return cached
        result = self._compute(ctx)
        if self.key is not None:
            ctx.memo[self.key] = result
        return result

    def _compute(self, ctx: ExecutionContext) -> Rows:
        raise NotImplementedError


class Scan(PhysicalOperator):
    __slots__ = ("name",)

    def __init__(self, name: str, key: Any = None) -> None:
        super().__init__(key)
        self.name = name

    def _compute(self, ctx: ExecutionContext) -> Rows:
        return ctx.database.relation(self.name).rows


class ConstScan(PhysicalOperator):
    __slots__ = ("relation",)

    def __init__(self, relation: Relation, key: Any = None) -> None:
        super().__init__(key)
        self.relation = relation

    def _compute(self, ctx: ExecutionContext) -> Rows:
        return self.relation.rows


class DeltaScan(PhysicalOperator):
    __slots__ = ()

    def _compute(self, ctx: ExecutionContext) -> Rows:
        return {(value, value) for value in ctx.active_domain()}


class AdomScan(PhysicalOperator):
    __slots__ = ()

    def _compute(self, ctx: ExecutionContext) -> Rows:
        return {(value,) for value in ctx.active_domain()}


class Filter(PhysicalOperator):
    __slots__ = ("child", "predicate")

    def __init__(self, child: PhysicalOperator, predicate: RowPredicate, key: Any = None) -> None:
        super().__init__(key)
        self.child = child
        self.predicate = predicate

    def _compute(self, ctx: ExecutionContext) -> Rows:
        predicate = self.predicate
        return {row for row in self.child.rows(ctx) if predicate(row)}


class Project(PhysicalOperator):
    __slots__ = ("child", "positions")

    def __init__(self, child: PhysicalOperator, positions: Tuple[int, ...], key: Any = None) -> None:
        super().__init__(key)
        self.child = child
        self.positions = positions

    def _compute(self, ctx: ExecutionContext) -> Rows:
        positions = self.positions
        rows = self.child.rows(ctx)
        # Specialized row builders: a generator expression per row costs
        # more than the projection itself at arities 1 and 2.
        if len(positions) == 1:
            p = positions[0]
            return {(row[p],) for row in rows}
        if len(positions) == 2:
            p, q = positions
            return {(row[p], row[q]) for row in rows}
        return {tuple(row[p] for p in positions) for row in rows}


class HashJoin(PhysicalOperator):
    """Equi-join: hash the right input on its key positions, probe with the left.

    Output rows are ``left_row + (right_row[p] for p in right_keep)``; pass
    the full range of right positions as ``right_keep`` to emulate a
    filtered Cartesian product.  When the lowering saw a base-relation scan
    on the right, ``relation`` names it and the relation's cached
    positional index is reused across queries.
    """

    __slots__ = ("left", "right", "left_keys", "right_keys", "right_keep", "relation")

    def __init__(
        self,
        left: PhysicalOperator,
        right: PhysicalOperator,
        left_keys: Tuple[int, ...],
        right_keys: Tuple[int, ...],
        right_keep: Tuple[int, ...],
        relation: Optional[str] = None,
        key: Any = None,
    ) -> None:
        super().__init__(key)
        self.left = left
        self.right = right
        self.left_keys = left_keys
        self.right_keys = right_keys
        self.right_keep = right_keep
        self.relation = relation

    def _right_index(self, ctx: ExecutionContext) -> Dict[Row, List[Row]]:
        rows = self.right.rows(ctx)  # a scan's stored set: free, and analyze counts it
        if self.relation is not None:
            return ctx.database.relation(self.relation).index_on(self.right_keys)
        right_keys = self.right_keys
        index: Dict[Row, List[Row]] = {}
        if len(right_keys) == 1:
            k = right_keys[0]
            for row in rows:
                index.setdefault((row[k],), []).append(row)
            return index
        for row in rows:
            index.setdefault(tuple(row[p] for p in right_keys), []).append(row)
        return index

    def _compute(self, ctx: ExecutionContext) -> Rows:
        index = self._right_index(ctx)
        left_keys = self.left_keys
        right_keep = self.right_keep
        single_key = left_keys[0] if len(left_keys) == 1 else None
        keep_all: Optional[bool] = None
        result = set()
        add = result.add
        for l_row in self.left.rows(ctx):
            if single_key is not None:
                matches = index.get((l_row[single_key],))
            else:
                matches = index.get(tuple(l_row[p] for p in left_keys))
            if matches:
                if keep_all is None:
                    keep_all = right_keep == tuple(range(len(matches[0])))
                if keep_all:
                    for r_row in matches:
                        add(l_row + r_row)
                else:
                    for r_row in matches:
                        add(l_row + tuple(r_row[p] for p in right_keep))
        return result


def _tuple_getter(positions: Tuple[int, ...]) -> Callable[[Row], Row]:
    """A row's values at ``positions``, always as a tuple."""
    if len(positions) == 1:
        p = positions[0]
        return lambda row: (row[p],)
    return key_getter(positions)


class SemiJoin(PhysicalOperator):
    """π over an equi-join whose ``keys`` side supplies only join keys.

    A row of ``kept`` survives when its key (the values at ``kept_keys``)
    is in the key map of the ``keys`` side (keyed on ``key_keys``), and is
    projected straight to the output: no joined row is built, and the
    ``keys`` side is read only through its key map.  ``positions`` index
    the layout ``own + row``, where ``own`` is the key side's own key tuple
    (``len(key_keys)`` wide), so a projected key column of that side
    carries its value, as the join would.  When the lowering saw a
    base-relation scan on the ``keys`` side, ``relation`` names it and the
    relation's cached :meth:`~repro.datamodel.relations.Relation.key_map`
    is read instead of hashing the ``keys`` rows.
    """

    __slots__ = (
        "kept", "keys", "kept_keys", "key_keys", "positions", "relation",
        "_kept_key", "_out", "_reads_own",
    )

    def __init__(
        self,
        kept: PhysicalOperator,
        keys: PhysicalOperator,
        kept_keys: Tuple[int, ...],
        key_keys: Tuple[int, ...],
        positions: Tuple[int, ...],
        relation: Optional[str] = None,
        key: Any = None,
    ) -> None:
        super().__init__(key)
        self.kept = kept
        self.keys = keys
        self.kept_keys = kept_keys
        self.key_keys = key_keys
        self.positions = positions
        self.relation = relation
        width = len(key_keys)
        self._kept_key = key_getter(kept_keys)
        self._reads_own = any(p < width for p in positions)
        # Without a projected key-side column the output reads the kept row alone.
        self._out = _tuple_getter(
            positions if self._reads_own else tuple(p - width for p in positions)
        )

    def _key_map(self, ctx: ExecutionContext) -> Dict[Any, Any]:
        rows = self.keys.rows(ctx)  # a scan's stored set: free, and analyze counts it
        if self.relation is not None:
            return ctx.database.relation(self.relation).key_map(self.key_keys)
        return build_key_map(rows, self.key_keys)

    def _compute(self, ctx: ExecutionContext) -> Rows:
        keys = self._key_map(ctx)
        rows = self.kept.rows(ctx)
        kept_key = self._kept_key
        out = self._out
        if not self._reads_own:
            return {out(row) for row in rows if kept_key(row) in keys}
        result = set()
        add = result.add
        # A one-position key map holds bare values; wider ones hold tuples.
        single = len(self.key_keys) == 1
        for row in rows:
            own = keys.get(kept_key(row))
            if own is not None:
                add(out(((own,) if single else own) + row))
        return result


class NestedProduct(PhysicalOperator):
    __slots__ = ("left", "right")

    def __init__(self, left: PhysicalOperator, right: PhysicalOperator, key: Any = None) -> None:
        super().__init__(key)
        self.left = left
        self.right = right

    def _compute(self, ctx: ExecutionContext) -> Rows:
        right_rows = self.right.rows(ctx)
        return {l_row + r_row for l_row in self.left.rows(ctx) for r_row in right_rows}


class HashUnion(PhysicalOperator):
    __slots__ = ("left", "right")

    def __init__(self, left: PhysicalOperator, right: PhysicalOperator, key: Any = None) -> None:
        super().__init__(key)
        self.left = left
        self.right = right

    def _compute(self, ctx: ExecutionContext) -> Rows:
        left = self.left.rows(ctx)
        right = self.right.rows(ctx)
        return (left if isinstance(left, (set, frozenset)) else set(left)) | (
            right if isinstance(right, (set, frozenset)) else set(right)
        )


class HashDifference(PhysicalOperator):
    __slots__ = ("left", "right")

    def __init__(self, left: PhysicalOperator, right: PhysicalOperator, key: Any = None) -> None:
        super().__init__(key)
        self.left = left
        self.right = right

    def _compute(self, ctx: ExecutionContext) -> Rows:
        left = self.left.rows(ctx)
        right = self.right.rows(ctx)
        return (left if isinstance(left, (set, frozenset)) else set(left)) - (
            right if isinstance(right, (set, frozenset)) else set(right)
        )


class HashIntersection(PhysicalOperator):
    __slots__ = ("left", "right")

    def __init__(self, left: PhysicalOperator, right: PhysicalOperator, key: Any = None) -> None:
        super().__init__(key)
        self.left = left
        self.right = right

    def _compute(self, ctx: ExecutionContext) -> Rows:
        left = self.left.rows(ctx)
        right = self.right.rows(ctx)
        return (left if isinstance(left, (set, frozenset)) else set(left)) & (
            right if isinstance(right, (set, frozenset)) else set(right)
        )


class HashDivision(PhysicalOperator):
    """Grouped hash division ``R ÷ S`` on precomputed positions."""

    __slots__ = ("left", "right", "keep", "divisor")

    def __init__(
        self,
        left: PhysicalOperator,
        right: PhysicalOperator,
        keep: Tuple[int, ...],
        divisor: Tuple[int, ...],
        key: Any = None,
    ) -> None:
        super().__init__(key)
        self.left = left
        self.right = right
        self.keep = keep
        self.divisor = divisor

    def _compute(self, ctx: ExecutionContext) -> Rows:
        group_of = _tuple_getter(self.keep)
        value_of = _tuple_getter(self.divisor)
        divisor_rows = self.right.rows(ctx)
        rows = self.left.rows(ctx)
        if not divisor_rows:
            return {group_of(row) for row in rows}
        # Semi-join the values against the divisor first: a group divides
        # exactly when it holds as many distinct divisor values as there are.
        groups: Dict[Row, set] = {}
        for row in rows:
            value = value_of(row)
            if value in divisor_rows:
                groups.setdefault(group_of(row), set()).add(value)
        needed = len(divisor_rows)
        return {group for group, values in groups.items() if len(values) == needed}


class Interpret(PhysicalOperator):
    """Evaluate an unsupported subtree with the tree-walking interpreter."""

    __slots__ = ("expression",)

    def __init__(self, expression: Any, key: Any = None) -> None:
        super().__init__(key)
        self.expression = expression

    def _compute(self, ctx: ExecutionContext) -> Rows:
        return self.expression._interpret(ctx.database).rows


# ----------------------------------------------------------------------
# Predicate compilation
# ----------------------------------------------------------------------
def compile_predicate(predicate: Predicate) -> RowPredicate:
    """Compile a position-resolved predicate into a plain row closure.

    The closures reproduce :meth:`Predicate.holds` exactly — including the
    ``TypeError`` on order comparisons involving nulls — minus the per-row
    attribute-name resolution.
    """
    if isinstance(predicate, PTrue):
        return lambda row: True
    if isinstance(predicate, Comparison):
        return _compile_comparison(predicate)
    if isinstance(predicate, PAnd):
        operands = tuple(compile_predicate(op) for op in predicate.operands)
        return lambda row: all(op(row) for op in operands)
    if isinstance(predicate, POr):
        operands = tuple(compile_predicate(op) for op in predicate.operands)
        return lambda row: any(op(row) for op in operands)
    if isinstance(predicate, PNot):
        operand = compile_predicate(predicate.operand)
        return lambda row: not operand(row)
    raise TypeError(f"unsupported predicate {predicate!r}")


def _compile_comparison(predicate: Comparison) -> RowPredicate:
    op = predicate.op
    operator = _OPERATORS[op]
    left, right = predicate.left, predicate.right
    left_pos = left.ref if isinstance(left, Attr) else None
    right_pos = right.ref if isinstance(right, Attr) else None
    left_const = None if left_pos is not None else left.value
    right_const = None if right_pos is not None else right.value

    if op == "=":
        if left_pos is not None and right_pos is not None:
            return lambda row: row[left_pos] == row[right_pos]
        if left_pos is not None:
            return lambda row: row[left_pos] == right_const
        if right_pos is not None:
            return lambda row: left_const == row[right_pos]
        result = left_const == right_const
        return lambda row: result
    if op == "!=":
        if left_pos is not None and right_pos is not None:
            return lambda row: row[left_pos] != row[right_pos]
        if left_pos is not None:
            return lambda row: row[left_pos] != right_const
        if right_pos is not None:
            return lambda row: left_const != row[right_pos]
        result = left_const != right_const
        return lambda row: result

    def ordered(row: Row) -> bool:
        lhs = row[left_pos] if left_pos is not None else left_const
        rhs = row[right_pos] if right_pos is not None else right_const
        if is_null(lhs) or is_null(rhs):
            raise TypeError(
                f"order comparison {op!r} is undefined on nulls under naive "
                "evaluation; use SQL three-valued evaluation instead"
            )
        return operator(lhs, rhs)

    return ordered
