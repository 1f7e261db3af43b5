"""The backend protocol: what a SQL (or other external) engine must provide.

The paper's central observation is that *naive evaluation* — treat marked
nulls as ordinary values and run standard relational evaluation — computes
certain answers for the well-behaved fragments.  "Standard relational
evaluation" is exactly what off-the-shelf SQL engines are good at, so a
backend that (a) encodes marked nulls as distinguishable constants and
(b) translates the logical plans of :mod:`repro.engine` into SQL can push
the whole evaluation down to a database that is not limited by Python
process memory.

A backend owns four responsibilities, mirrored by the abstract methods of
:class:`Backend`:

* **DDL** — derive table definitions from a
  :class:`~repro.datamodel.schema.DatabaseSchema` (:meth:`create_schema`);
* **bulk load / extract** — move relations in and out
  (:meth:`load_database`, :meth:`load_rows`, :meth:`extract_relation`),
  streaming so instances larger than Python memory can be loaded;
* **plan execution** — evaluate an
  :class:`~repro.algebra.ast.RAExpression` against the loaded instance
  (:meth:`evaluate`), reusing the planner's logical optimization, or
  stream its answer in decoded batches (:meth:`execute_batches`, with
  :meth:`execute_cursor` as the row view over it);
* **lifecycle** — connection/transaction management (:meth:`close`, the
  context-manager protocol).

Backends raise :class:`UnsupportedPlanError` for query shapes outside
their supported fragment; the session catches it and falls back to the
in-memory physical engine.
"""

from __future__ import annotations

import abc
from typing import Any, Iterable, Iterator, List, Sequence, Tuple

from ..algebra.ast import RAExpression
from ..datamodel import Database, Relation
from ..datamodel.schema import DatabaseSchema
from ..resilience import ReproError


class BackendError(ReproError):
    """Base class of backend failures (encoding, DDL, execution)."""


class UnsupportedPlanError(BackendError):
    """The plan (or schema) lies outside the backend's supported fragment.

    Raised during compilation or loading; an ``engine="sqlite"`` session
    treats it as a signal to fall back to the in-memory physical engine,
    so unsupported queries stay correct instead of failing.
    """


class EncodingError(BackendError):
    """A value cannot be encoded for (or decoded from) backend storage."""


def quote_identifier(name: str) -> str:
    """Quote an arbitrary string as a SQL identifier (doubling ``\"``)."""
    return '"' + name.replace('"', '""') + '"'


def table_name(relation_name: str) -> str:
    """The quoted backend table name of a relation.

    User relation names are prefixed so they can never collide with the
    backend's internal tables (the active-domain table, temp spills).
    """
    return quote_identifier("t_" + relation_name)


class Backend(abc.ABC):
    """Abstract base class of plan-executing storage backends."""

    @abc.abstractmethod
    def create_schema(self, schema: DatabaseSchema) -> None:
        """Create one table per relation schema (idempotent per backend)."""

    @abc.abstractmethod
    def load_database(self, database: Database) -> None:
        """Create the schema and bulk-load every relation of ``database``."""

    @abc.abstractmethod
    def load_rows(self, name: str, rows: Iterable[Sequence]) -> int:
        """Stream ``rows`` into relation ``name``; returns the rows written.

        ``rows`` may be a generator: backends insert in batches so the
        full relation never needs to exist in Python memory at once.
        """

    @abc.abstractmethod
    def extract_relation(self, name: str) -> Relation:
        """Read relation ``name`` back out as an in-memory :class:`Relation`."""

    @abc.abstractmethod
    def evaluate(self, expression: RAExpression, plan_cache: Any) -> Relation:
        """Evaluate ``expression`` on the loaded instance (naive semantics).

        ``plan_cache`` is the caller's :class:`~repro.engine.PlanCache`,
        which supplies the optimized logical plan.
        """

    def execute_batches(
        self, expression: RAExpression, plan_cache: Any, batch_size: int = 1024
    ) -> Iterator[List[Tuple[Any, ...]]]:
        """Stream the answer of ``expression`` as non-empty lists of decoded
        rows, at most ``batch_size`` each, without materializing it.

        Not abstract: a backend that cannot stream still implements the
        rest of the protocol.  One that can overrides this, and closing
        the generator early must release whatever the statement holds.
        """
        raise NotImplementedError(f"{type(self).__name__} does not stream answers")

    def execute_cursor(
        self, expression: RAExpression, plan_cache: Any, batch_size: int = 1024
    ) -> Iterator[Tuple[Any, ...]]:
        """The rows of :meth:`execute_batches`, one at a time.

        Closing this generator closes the batch stream, so an abandoned
        row view still runs the backend's teardown.
        """
        batches = self.execute_batches(expression, plan_cache, batch_size)
        try:
            for batch in batches:
                yield from batch
        finally:
            batches.close()

    @abc.abstractmethod
    def close(self) -> None:
        """Release the connection; further calls are undefined."""

    def interrupt(self) -> None:
        """Abort any statement currently executing on this backend.

        The hard-cancel path of ``Session.cancel()``: must be safe to
        call from another thread and a no-op when nothing is running.
        Backends without an interruptible driver inherit this no-op —
        their evaluations are then only cancellable at call boundaries.
        """

    def __enter__(self) -> "Backend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
