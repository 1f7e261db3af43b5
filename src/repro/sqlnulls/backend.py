"""Run the sqlnulls comparison scenarios on a real SQL engine.

The Python evaluator in :mod:`repro.sqlnulls.engine` exists to reproduce
the SQL standard's three-valued null semantics *by the book*; this module
compiles the same :class:`SelectQuery` objects to SQLite SQL, and
``repro.connect(db, engine="sqlite").sql(query)`` runs them on a
session-owned SQLite backend, so the Section 1 "what SQL gets wrong vs.
what certain answers give" demos run on an actual SQL engine instead of a
simulation.

The session loads the database through :class:`~repro.backends.encoding.SQLNullCodec`:
every marked null becomes a plain SQL ``NULL`` (deliberately losing the
marks — that *is* the semantics under scrutiny), constants are stored
raw, tables keep bag semantics, and SQLite's native three-valued
``WHERE`` / ``IN`` / ``EXISTS`` logic takes over.  The compiled SQL is a
direct transliteration of the AST; column references are resolved at
compile time against the same scope chain the Python engine uses, so the
two evaluators answer the same queries — the differential tests compare
them row for row (modulo null marks, which SQL cannot return).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..backends.base import quote_identifier, table_name
from ..backends.encoding import SQLNullCodec
from ..datamodel import Database
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
)
from .engine import SQLError

_SQL_OPS = {"=": "=", "<>": "<>", "!=": "<>", "<": "<", "<=": "<=", ">": ">", ">=": ">="}


class _Scope:
    """Compile-time column bindings of one query level, chained upward."""

    def __init__(self, bindings: Dict[str, Tuple[str, ...]], parent: Optional["_Scope"]) -> None:
        self._bindings = bindings
        self._parent = parent

    def resolve(self, column: ColumnRef) -> Tuple[str, int]:
        """``(binding, position)`` of the referenced column."""
        if column.table is not None:
            scope: Optional[_Scope] = self
            while scope is not None:
                if column.table in scope._bindings:
                    attributes = scope._bindings[column.table]
                    if column.name not in attributes:
                        raise SQLError(
                            f"table {column.table!r} has no column {column.name!r}"
                        )
                    return column.table, attributes.index(column.name)
                scope = scope._parent
            raise SQLError(f"unknown table alias {column.table!r}")
        scope = self
        while scope is not None:
            matches = [
                (binding, attributes)
                for binding, attributes in scope._bindings.items()
                if column.name in attributes
            ]
            if len(matches) > 1:
                raise SQLError(f"ambiguous column reference {column.name!r}")
            if matches:
                binding, attributes = matches[0]
                return binding, attributes.index(column.name)
            scope = scope._parent
        raise SQLError(f"unknown column {column.name!r}")


class _Compiler:
    """Transliterate a :class:`SelectQuery` into SQLite SQL + parameters."""

    def __init__(self, database: Database, codec: SQLNullCodec) -> None:
        self._schema = database.schema
        self._codec = codec
        self.params: List[Any] = []

    def compile(self, query: SelectQuery, parent: Optional[_Scope] = None) -> str:
        if not query.tables:
            raise SQLError("FROM clause must mention at least one table")
        bindings: Dict[str, Tuple[str, ...]] = {}
        from_items: List[str] = []
        for table in query.tables:
            if table.name not in self._schema:
                raise SQLError(f"unknown table {table.name!r}")
            bindings[table.binding] = self._schema[table.name].attributes
            from_items.append(f"{table_name(table.name)} AS {quote_identifier(table.binding)}")
        scope = _Scope(bindings, parent)

        if query.columns == "*":
            select_items = []
            for table in query.tables:
                arity = len(bindings[table.binding])
                select_items.extend(
                    f"{quote_identifier(table.binding)}.c{i}" for i in range(arity)
                )
        else:
            select_items = [self._scalar(column, scope) for column in query.columns]
        head = "SELECT DISTINCT" if query.distinct else "SELECT"
        sql = f"{head} {', '.join(select_items)} FROM {', '.join(from_items)}"
        if query.where is not None:
            sql += f" WHERE {self._condition(query.where, scope)}"
        return sql

    def _scalar(self, expression: ScalarExpression, scope: _Scope) -> str:
        if isinstance(expression, Literal):
            self.params.append(self._codec.encode(expression.value))
            return "?"
        if isinstance(expression, ColumnRef):
            binding, position = scope.resolve(expression)
            return f"{quote_identifier(binding)}.c{position}"
        raise SQLError(f"unsupported scalar expression {expression!r}")

    def _condition(self, condition: SQLCondition, scope: _Scope) -> str:
        if isinstance(condition, SQLComparison):
            op = _SQL_OPS.get(condition.op)
            if op is None:
                raise SQLError(f"unknown comparison operator {condition.op!r}")
            left = self._scalar(condition.left, scope)
            right = self._scalar(condition.right, scope)
            return f"{left} {op} {right}"
        if isinstance(condition, (SQLAnd, SQLOr)):
            joiner = " AND " if isinstance(condition, SQLAnd) else " OR "
            if not condition.operands:
                return "1" if isinstance(condition, SQLAnd) else "0"
            return joiner.join(
                f"({self._condition(operand, scope)})" for operand in condition.operands
            )
        if isinstance(condition, SQLNot):
            return f"NOT ({self._condition(condition.operand, scope)})"
        if isinstance(condition, IsNull):
            keyword = "IS NOT NULL" if condition.negated else "IS NULL"
            return f"{self._scalar(condition.operand, scope)} {keyword}"
        if isinstance(condition, InSubquery):
            operand = self._scalar(condition.operand, scope)
            keyword = "NOT IN" if condition.negated else "IN"
            return f"{operand} {keyword} ({self.compile(condition.subquery, scope)})"
        if isinstance(condition, ExistsSubquery):
            keyword = "NOT EXISTS" if condition.negated else "EXISTS"
            return f"{keyword} ({self.compile(condition.subquery, scope)})"
        raise SQLError(f"unsupported condition {condition!r}")


def compile_select(
    database: Database, query: SelectQuery
) -> Tuple[str, Tuple[Any, ...]]:
    """The SQLite SQL text and parameters of ``query`` over ``database``."""
    compiler = _Compiler(database, SQLNullCodec())
    sql = compiler.compile(query)
    return sql, tuple(compiler.params)
