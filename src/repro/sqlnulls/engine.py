"""Execution of the SQL subset with the standard's three-valued null semantics.

The engine implements exactly the behaviour the paper criticises:

* any comparison with a ``NULL`` operand evaluates to *unknown*;
* ``AND`` / ``OR`` / ``NOT`` follow Kleene's (SQL's) three-valued logic;
* the ``WHERE`` clause keeps a row only when its condition is *true*
  (unknown rows are silently dropped);
* ``x IN (subquery)`` is the disjunction of ``x = e`` over the subquery's
  rows, ``x NOT IN (subquery)`` its negation — so a single null in the
  subquery turns a non-matching ``NOT IN`` into *unknown* and removes the
  row, which is the unpaid-orders bug of Section 1;
* ``EXISTS`` is two-valued (non-emptiness of the subquery result).

Bag semantics is used for intermediate results, matching SQL; ``DISTINCT``
deduplicates.  Marked nulls in the input database are treated as plain
(unmarked) SQL nulls.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..datamodel import Database, Relation
from ..datamodel.values import is_null
from .ast import (
    ColumnRef,
    ExistsSubquery,
    InSubquery,
    IsNull,
    Literal,
    ScalarExpression,
    SelectQuery,
    SQLAnd,
    SQLComparison,
    SQLCondition,
    SQLNot,
    SQLOr,
    TableRef,
)

ThreeValued = Optional[bool]
"""SQL truth value: ``True``, ``False`` or ``None`` (unknown)."""

Row = Tuple[Any, ...]


class SQLError(ValueError):
    """Raised for unresolvable column references or malformed queries."""


class _Scope:
    """Column bindings of one query level, chained to the enclosing scope."""

    def __init__(
        self,
        bindings: Dict[str, Tuple[Tuple[str, ...], Row]],
        parent: Optional["_Scope"] = None,
    ) -> None:
        self._bindings = bindings
        self._parent = parent

    def resolve(self, column: ColumnRef) -> Any:
        if column.table is not None:
            scope: Optional[_Scope] = self
            while scope is not None:
                if column.table in scope._bindings:
                    attributes, row = scope._bindings[column.table]
                    if column.name not in attributes:
                        raise SQLError(f"table {column.table!r} has no column {column.name!r}")
                    return row[attributes.index(column.name)]
                scope = scope._parent
            raise SQLError(f"unknown table alias {column.table!r}")

        scope = self
        while scope is not None:
            matches = [
                (attributes, row)
                for attributes, row in scope._bindings.values()
                if column.name in attributes
            ]
            if len(matches) > 1:
                raise SQLError(f"ambiguous column reference {column.name!r}")
            if matches:
                attributes, row = matches[0]
                return row[attributes.index(column.name)]
            scope = scope._parent
        raise SQLError(f"unknown column {column.name!r}")


class SQLEngine:
    """Evaluates :class:`SelectQuery` objects against a :class:`Database`."""

    def __init__(self, database: Database) -> None:
        self._database = database

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def execute(self, query: SelectQuery) -> List[Row]:
        """Run the query and return its rows (bag semantics, list order arbitrary)."""
        return self._execute(query, parent_scope=None)

    def execute_relation(self, query: SelectQuery, name: str = "Result") -> Relation:
        """Run the query and return a set-semantics :class:`Relation` of its rows."""
        rows = self.execute(query)
        attributes = self._output_attributes(query)
        if rows:
            arity = len(rows[0])
        else:
            arity = len(attributes)
        if len(attributes) != arity:
            attributes = tuple(f"#{i}" for i in range(arity))
        return Relation.create(name, rows, attributes=attributes or None, arity=arity or None)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _output_attributes(self, query: SelectQuery) -> Tuple[str, ...]:
        if query.columns == "*":
            attributes: List[str] = []
            for table in query.tables:
                attributes.extend(self._database.schema[table.name].attributes)
            return tuple(attributes)
        names: List[str] = []
        for column in query.columns:  # type: ignore[union-attr]
            if isinstance(column, ColumnRef):
                names.append(column.name)
            else:
                names.append(f"expr{len(names)}")
        return tuple(names)

    def _execute(self, query: SelectQuery, parent_scope: Optional[_Scope]) -> List[Row]:
        if not query.tables:
            raise SQLError("FROM clause must mention at least one table")
        bindings_order: List[Tuple[str, Tuple[str, ...], List[Row]]] = []
        for table in query.tables:
            schema = self._database.schema[table.name]
            rows = list(self._database.relation(table.name).rows)
            bindings_order.append((table.binding, schema.attributes, rows))

        results: List[Row] = []
        self._cartesian(query, bindings_order, 0, {}, parent_scope, results)
        if query.distinct:
            seen: set = set()
            deduplicated: List[Row] = []
            for row in results:
                if row not in seen:
                    seen.add(row)
                    deduplicated.append(row)
            return deduplicated
        return results

    def _cartesian(
        self,
        query: SelectQuery,
        bindings_order: List[Tuple[str, Tuple[str, ...], List[Row]]],
        index: int,
        current: Dict[str, Tuple[Tuple[str, ...], Row]],
        parent_scope: Optional[_Scope],
        results: List[Row],
    ) -> None:
        if index == len(bindings_order):
            scope = _Scope(dict(current), parent_scope)
            if query.where is None or self._condition(query.where, scope) is True:
                results.append(self._project(query, scope, current, bindings_order))
            return
        binding, attributes, rows = bindings_order[index]
        for row in rows:
            current[binding] = (attributes, row)
            self._cartesian(query, bindings_order, index + 1, current, parent_scope, results)
        current.pop(binding, None)

    def _project(
        self,
        query: SelectQuery,
        scope: _Scope,
        current: Dict[str, Tuple[Tuple[str, ...], Row]],
        bindings_order: List[Tuple[str, Tuple[str, ...], List[Row]]],
    ) -> Row:
        if query.columns == "*":
            values: List[Any] = []
            for binding, _attributes, _rows in bindings_order:
                values.extend(current[binding][1])
            return tuple(values)
        return tuple(self._scalar(column, scope) for column in query.columns)  # type: ignore[union-attr]

    # -- scalar and condition evaluation ---------------------------------
    def _scalar(self, expression: ScalarExpression, scope: _Scope) -> Any:
        if isinstance(expression, Literal):
            return expression.value
        if isinstance(expression, ColumnRef):
            return scope.resolve(expression)
        raise SQLError(f"unsupported scalar expression {expression!r}")

    def _compare(self, left: Any, op: str, right: Any) -> ThreeValued:
        if is_null(left) or is_null(right):
            return None
        if op == "=":
            return left == right
        if op in ("<>", "!="):
            return left != right
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        if op == ">=":
            return left >= right
        raise SQLError(f"unknown comparison operator {op!r}")

    def _condition(self, condition: SQLCondition, scope: _Scope) -> ThreeValued:
        if isinstance(condition, SQLComparison):
            return self._compare(
                self._scalar(condition.left, scope), condition.op, self._scalar(condition.right, scope)
            )
        if isinstance(condition, SQLAnd):
            result: ThreeValued = True
            for operand in condition.operands:
                value = self._condition(operand, scope)
                if value is False:
                    return False
                if value is None:
                    result = None
            return result
        if isinstance(condition, SQLOr):
            result = False
            for operand in condition.operands:
                value = self._condition(operand, scope)
                if value is True:
                    return True
                if value is None:
                    result = None
            return result
        if isinstance(condition, SQLNot):
            value = self._condition(condition.operand, scope)
            if value is None:
                return None
            return not value
        if isinstance(condition, IsNull):
            value = self._scalar(condition.operand, scope)
            verdict = is_null(value)
            return (not verdict) if condition.negated else verdict
        if isinstance(condition, InSubquery):
            return self._in_subquery(condition, scope)
        if isinstance(condition, ExistsSubquery):
            rows = self._execute(condition.subquery, parent_scope=scope)
            verdict = bool(rows)
            return (not verdict) if condition.negated else verdict
        raise SQLError(f"unsupported condition {condition!r}")

    def _in_subquery(self, condition: InSubquery, scope: _Scope) -> ThreeValued:
        """SQL semantics of ``x [NOT] IN (subquery)``.

        ``x IN S`` is the Kleene disjunction of ``x = e`` over the elements
        ``e`` of ``S``; ``NOT IN`` is its negation.  With a null among the
        elements (or a null ``x``), a non-matching membership test is
        *unknown* rather than false — which is precisely how the paper's
        unpaid-orders query loses its answers.
        """
        value = self._scalar(condition.operand, scope)
        rows = self._execute(condition.subquery, parent_scope=scope)
        membership: ThreeValued = False
        for row in rows:
            if len(row) != 1:
                raise SQLError("IN subqueries must return a single column")
            verdict = self._compare(value, "=", row[0])
            if verdict is True:
                membership = True
                break
            if verdict is None:
                membership = None
        if condition.negated:
            if membership is None:
                return None
            return not membership
        return membership


def execute_sql(database: Database, query: SelectQuery) -> List[Row]:
    """Execute ``query`` against ``database`` with the by-the-book 3VL engine.

    ``repro.connect(db, engine="sqlite").sql(query)`` runs the same query
    transliterated to SQL on a session-owned SQLite handle.
    """
    return SQLEngine(database).execute(query)
