"""SQL's three-valued treatment of nulls — the "what went wrong" side.

This package contains a small SQL engine (AST, parser, evaluator) that
follows the SQL standard's null semantics: comparisons with ``NULL`` are
unknown, ``WHERE`` keeps only *true* rows, and ``NOT IN`` / ``IN`` over
subqueries propagate unknowns.  It exists to reproduce, mechanically, the
paper's introductory examples of SQL returning wrong answers on incomplete
databases, and to serve as the "practice" baseline in the benchmarks.
"""

from .rewriting import RewritingError, certain_answer_rewriting, is_positive_sql
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
from .backend import compile_select
from .engine import SQLEngine, SQLError, execute_sql
from .parser import SQLParseError, parse_sql

__all__ = [
    "ColumnRef",
    "ExistsSubquery",
    "InSubquery",
    "IsNull",
    "Literal",
    "SQLAnd",
    "SQLComparison",
    "SQLCondition",
    "SQLEngine",
    "SQLError",
    "SQLNot",
    "SQLOr",
    "SQLParseError",
    "RewritingError",
    "ScalarExpression",
    "SelectQuery",
    "TableRef",
    "certain_answer_rewriting",
    "compile_select",
    "execute_sql",
    "is_positive_sql",
    "parse_sql",
]
