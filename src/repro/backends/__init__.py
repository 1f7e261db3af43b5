"""SQL-backend compilation: push naive evaluation down to a real database.

The paper's naive-evaluation theorem means certain answers for the
well-behaved fragments are computed by *standard* relational evaluation
over a database whose marked nulls are encoded as distinguishable
constants — which is precisely a job for an off-the-shelf SQL engine.
This package provides:

* :mod:`repro.backends.base` — the :class:`Backend` protocol (DDL, bulk
  load/extract, plan execution) and the error taxonomy;
* :mod:`repro.backends.encoding` — the injective marked-null ⇄
  sentinel-constant codec (and the lossy SQL-``NULL`` codec used by the
  :mod:`repro.sqlnulls` comparison demos);
* :mod:`repro.backends.compiler` — logical plans → SQL text, reusing the
  planner's cost-based lowering hooks;
* :mod:`repro.backends.sqlite` — the SQLite implementation behind
  sessions opened with ``engine="sqlite"``.

See ``docs/backends.md`` for the architecture and how to add a backend.
"""

from .base import (
    Backend,
    BackendError,
    EncodingError,
    UnsupportedPlanError,
    table_name,
)
from .compiler import CompiledPlan, SQLCompiler, compile_logical_plan
from .encoding import SentinelCodec, SQLNullCodec
from .sqlite import SQLiteBackend

__all__ = [
    "Backend",
    "BackendError",
    "CompiledPlan",
    "EncodingError",
    "SQLCompiler",
    "SQLNullCodec",
    "SQLiteBackend",
    "SentinelCodec",
    "UnsupportedPlanError",
    "compile_logical_plan",
    "table_name",
]
