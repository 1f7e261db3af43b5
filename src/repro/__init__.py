"""repro: certain answers over incomplete databases.

A from-scratch reproduction of Leonid Libkin's PODS 2014 keynote
*"Incomplete Data: What Went Wrong, and How to Fix It"*.

The library provides:

* a complete data model for incomplete relational databases — marked
  (naive) nulls, Codd nulls, naive tables, Codd tables and conditional
  tables (:mod:`repro.datamodel`);
* open-world / closed-world / weak-closed-world semantics, possible-world
  enumeration and brute-force certain answers (:mod:`repro.semantics`);
* a relational-algebra engine with standard, naive and SQL
  three-valued-logic evaluation, plus the ``RA_cwa`` fragment with division
  and the Imieliński–Lipski algebra on conditional tables
  (:mod:`repro.algebra`);
* first-order logic: formulas, fragments (CQ, UCQ, Pos, Pos∀G),
  positive diagrams and the δ-formulas of the paper, and conjunctive-query
  containment (:mod:`repro.logic`);
* homomorphism machinery and the information orderings ⊑_owa / ⊑_cwa
  (:mod:`repro.homomorphisms`, :mod:`repro.core.orderings`);
* the paper's framework of representation systems, certainty as knowledge
  (``certainK``) and as object (``certainO``), and the naïve-evaluation
  theorems (:mod:`repro.core`);
* an SQL-null (three-valued logic) mini engine that reproduces the "what
  went wrong" examples (:mod:`repro.sqlnulls`);
* a SQL-backend compilation subsystem pushing naive evaluation down to
  SQLite — ``engine="sqlite"``, streaming loads, out-of-core instances
  (:mod:`repro.backends`);
* schema mappings and a naive chase for data-exchange scenarios
  (:mod:`repro.exchange`);
* integrity constraints (functional and inclusion dependencies) with
  naive / certain / possible satisfaction (:mod:`repro.constraints`);
* the paper's Section 7 application and data-model directions carried out
  in code: consistent query answering over repairs (:mod:`repro.cqa`),
  answering queries using views (:mod:`repro.views`), incomplete graph
  databases with regular path queries and graph patterns
  (:mod:`repro.graphs`), and incomplete data trees with tree patterns
  (:mod:`repro.trees`); and
* a concurrent query-service tier: ``repro.serve.Server`` dispatches
  async clients over a pool of warmed sessions, with frozen read-only
  sessions (:meth:`Session.freeze`) shared across threads without locks
  (:mod:`repro.serve`);
* a unified observability layer — per-session metrics registries
  (:meth:`Session.metrics`), query tracing with pluggable sinks
  (:class:`repro.obs.Tracer`, ``REPRO_TRACE=path``), and
  ``query.explain(analyze=True)`` with per-operator row counts and
  timings (:mod:`repro.obs`, ``docs/observability.md``); and
* synthetic workload generators used by the experiment and benchmark
  suites (:mod:`repro.workloads`).

Quickstart
----------
Open a session — it owns all evaluation state (engine, plan cache,
condition kernel, backend connections) — and ask for answers in the mode
you mean:

>>> import repro
>>> from repro import Database, Null
>>> from repro.algebra import parse_ra
>>> db = Database.from_dict({
...     "Order": [("oid1", "pr1"), ("oid2", "pr2")],
...     "Pay": [("pid1", Null("o"), 100)],
... })
>>> session = repro.connect(db)                  # engine="plan", semantics="cwa"
>>> q = session.query(parse_ra("project[#0](Order)"))
>>> sorted(q.certain().rows)
[('oid1',), ('oid2',)]
>>> q.answer_object().name                       # certainO: nulls included
'Order'

Sessions are isolated: two sessions with different engines (or the
``"sqlite"`` backend, or different semantics) coexist in one process
without sharing any cache state.  ``session.query(...).cursor()`` streams
answers in batches straight off the SQLite backend, and
``session.sql("SELECT ...")`` runs three-valued SQL.  See ``docs/api.md``
for the Session/Query/Cursor lifecycle and for what replaced the
module-level entry points removed in 2.0 (``certain_answers`` and friends).

To serve many concurrent readers, freeze a warmed session
(``session.freeze()``) and share it across threads without locks, or let
:class:`repro.serve.Server` do both behind an asyncio front end
(``docs/serving.md``).
"""

from .datamodel import (
    ConditionalTable,
    ConstantPool,
    Database,
    DatabaseSchema,
    Null,
    Relation,
    RelationSchema,
    Valuation,
)
from .resilience import (
    BackendRecoveryWarning,
    BackendUnavailable,
    Budget,
    BudgetExceeded,
    ConfidenceInterval,
    InvalidRequestError,
    ManualClock,
    PartialResult,
    PoolExhausted,
    QueryCancelled,
    ReproError,
    ResumeToken,
    RetryPolicy,
    SessionClosedError,
)
from .obs import AnalyzeReport, MetricsRegistry, Tracer
from .prob import ExclusiveBlock, ProbabilityModel
from .session import Cursor, Query, Session, connect
from . import obs
from . import prob
from . import serve

__version__ = "2.0.0"

__all__ = [
    "AnalyzeReport",
    "BackendRecoveryWarning",
    "BackendUnavailable",
    "Budget",
    "BudgetExceeded",
    "ConditionalTable",
    "ConfidenceInterval",
    "ConstantPool",
    "Cursor",
    "Database",
    "DatabaseSchema",
    "ExclusiveBlock",
    "InvalidRequestError",
    "ManualClock",
    "MetricsRegistry",
    "Null",
    "PartialResult",
    "PoolExhausted",
    "ProbabilityModel",
    "Query",
    "QueryCancelled",
    "Relation",
    "RelationSchema",
    "ReproError",
    "ResumeToken",
    "RetryPolicy",
    "Session",
    "SessionClosedError",
    "Tracer",
    "Valuation",
    "__version__",
    "connect",
    "obs",
    "prob",
    "serve",
]
