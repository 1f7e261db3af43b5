"""Data model substrate: values, relations, schemas, databases, valuations, c-tables.

This package implements the paper's Section 2 data model:

* constants and marked (naive) nulls (:mod:`repro.datamodel.values`);
* relation and database schemas (:mod:`repro.datamodel.schema`);
* naive tables / Codd tables and complete relations
  (:mod:`repro.datamodel.relations`);
* incomplete database instances (:mod:`repro.datamodel.database`);
* valuations of nulls and their enumeration
  (:mod:`repro.datamodel.valuation`);
* conditional tables with local and global conditions
  (:mod:`repro.datamodel.conditional`).
"""

from .conditional import (
    FALSE,
    TRUE,
    And,
    Condition,
    ConditionalRow,
    ConditionalTable,
    Eq,
    FalseCondition,
    Neq,
    Not,
    Or,
    TrueCondition,
    conjunction,
    disjunction,
    row_equality,
)
from .condition_kernel import ConditionKernel, kernel_nulls
from .database import Database, Fact, facts_with_nulls
from .relations import Relation, Row, drop_null_rows, rows_with_nulls
from .schema import DatabaseSchema, RelationSchema
from .valuation import (
    Valuation,
    count_valuations,
    enumerate_valuations,
    fresh_valuation,
)
from .values import (
    ConstantPool,
    Null,
    constants_in,
    intern_null,
    intern_value,
    is_constant,
    is_null,
    nulls_in,
)

__all__ = [
    "And",
    "Condition",
    "ConditionKernel",
    "ConditionalRow",
    "ConditionalTable",
    "ConstantPool",
    "Database",
    "DatabaseSchema",
    "Eq",
    "FALSE",
    "Fact",
    "FalseCondition",
    "Neq",
    "Not",
    "Null",
    "Or",
    "Relation",
    "RelationSchema",
    "Row",
    "TRUE",
    "TrueCondition",
    "Valuation",
    "conjunction",
    "constants_in",
    "count_valuations",
    "disjunction",
    "drop_null_rows",
    "enumerate_valuations",
    "facts_with_nulls",
    "fresh_valuation",
    "intern_null",
    "intern_value",
    "is_constant",
    "is_null",
    "kernel_nulls",
    "nulls_in",
    "row_equality",
    "rows_with_nulls",
]
