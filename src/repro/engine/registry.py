"""The engine registry: every engine name, and the one interface behind it.

A :class:`~repro.session.Session` holds one engine object and hands it
every evaluation; :data:`ENGINES` is the only place engine names are
looked up.  The interface is :class:`PlanEngine`'s methods: ``evaluate``
(naive answer), ``evaluate_ctable``, ``stream`` (row batches),
``analyze``, ``sql`` (three-valued SQL), ``explain_sql``; the engine's
own store (``resident_schema``, and ``store`` for loading into it; a
``None`` database reads it); and ``freeze``, ``interrupt``, ``close``.
The interpreter differs from the plan engine only in ``evaluate``,
``evaluate_ctable`` and its analyze note; the SQLite engine lives with
its backend (:mod:`repro.backends.sqlite_engine`).
"""

from __future__ import annotations

import itertools
import time
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from ..obs.analyze import AnalyzeReport
from ..resilience import InvalidRequestError
from .ctable import execute_ctable

NO_DATABASE = "no database: pass one to connect() or session.query(..., database=)"


def chunks(rows: Iterable[Tuple[Any, ...]], size: int) -> Iterator[List[Tuple[Any, ...]]]:
    """``rows`` as consecutive lists of at most ``size`` rows."""
    rows = iter(rows)
    while True:
        batch = list(itertools.islice(rows, size))
        if not batch:
            return
        yield batch


class PlanEngine:
    """The optimizing in-memory engine: plans run on the session's plan cache."""

    name = "plan"
    #: Whether per-world evaluation runs on the interpreter (else on plans).
    interprets = False
    #: Notes every analyze report of this engine carries.
    analyze_notes: Tuple[str, ...] = ()

    def __init__(self, plan_cache: Any, kernel: Any, **backend_options: Any) -> None:
        # backend_options configure engines with a store of their own.
        self.plan_cache = plan_cache
        self.kernel = kernel

    def evaluate(self, query: Any, database: Any) -> Any:
        if database is None:
            raise InvalidRequestError(NO_DATABASE)
        return self.plan_cache.execute(query, database)

    def evaluate_ctable(self, expression: Any, database: Any, supports: Any = None) -> Any:
        return execute_ctable(
            expression, database, plan_cache=self.plan_cache, kernel=self.kernel, supports=supports
        )

    def stream(self, expression: Any, database: Any, batch_size: int) -> Iterator[List[Tuple[Any, ...]]]:
        # In-memory engines materialize by nature: slice the answer.
        return chunks(self.evaluate(expression, database).rows, batch_size)

    def analyze(self, expression: Any, database: Any) -> AnalyzeReport:
        started = time.perf_counter()
        relation, root = self.plan_cache.analyze(expression, database)
        return AnalyzeReport(
            "plan", len(relation), time.perf_counter() - started, root=root,
            notes=list(self.analyze_notes),
        )

    def sql(self, query: Any, database: Any) -> List[Tuple[Any, ...]]:
        from ..sqlnulls.engine import SQLEngine

        return SQLEngine(database).execute(query)

    def explain_sql(self, logical: Any, database: Any) -> Optional[List[str]]:
        return None

    def resident_schema(self) -> Any:
        return None

    def store(self, action: str) -> Any:
        """The backend that holds data loaded into the engine (``action`` names the load)."""
        raise InvalidRequestError(
            f'backend-resident loading requires engine="sqlite", not {self.name!r}'
        )

    def freeze(self, database: Any) -> None:
        pass

    def interrupt(self) -> None:
        pass

    def close(self) -> None:
        pass


class InterpreterEngine(PlanEngine):
    """The seed tree-walking interpreter: the semantics oracle."""

    name = "interpreter"
    interprets = True
    analyze_notes = (
        "interpreter engine has no operator tree; analyzed on the plan "
        "engine (same logical plan, different executor)",
    )

    def evaluate(self, query: Any, database: Any) -> Any:
        if database is None:
            raise InvalidRequestError(NO_DATABASE)
        return query._interpret(database)

    def evaluate_ctable(self, expression: Any, database: Any, supports: Any = None) -> Any:
        from ..algebra.ctable_algebra import ctable_evaluate

        return ctable_evaluate(expression, database)


def _sqlite_engine(plan_cache: Any, kernel: Any, **backend_options: Any) -> Any:
    # Imported on first use: the backends package builds on this one.
    from ..backends.sqlite_engine import SQLiteEngine

    return SQLiteEngine(plan_cache, kernel, **backend_options)


#: Engine name -> factory ``(plan_cache, kernel, **backend_options)``.
ENGINES: Dict[str, Callable[..., PlanEngine]] = {
    "plan": PlanEngine,
    "interpreter": InterpreterEngine,
    "sqlite": _sqlite_engine,
}


def engine_factory(name: Any) -> Callable[..., PlanEngine]:
    """The factory registered as ``name``; unknown names are rejected."""
    factory = ENGINES.get(name) if isinstance(name, str) else None
    if factory is None:
        raise InvalidRequestError(f"unknown engine {name!r}; expected one of {tuple(ENGINES)}")
    return factory
