"""The session-centric query API: ``repro.connect()``, ``Session``, ``Query``.

Libkin's framework treats *certainty as a mode of answering* a fixed
query over a fixed incomplete database; this module maps that onto a
connection/cursor-style API in the spirit of the world-set engines of
Koch & Olteanu::

    import repro
    from repro.algebra import parse_ra

    session = repro.connect(db, engine="sqlite", semantics="cwa")
    q = session.query(parse_ra("project[o_id](Orders)"))
    q.certain()          # certain answers (naive when guaranteed, else worlds)
    q.possible()         # possible answers
    q.answer_object()    # certainO: the naive answer, nulls included
    q.boolean()          # certainty of "the answer is non-empty"
    q.explain()          # applicability verdict + logical/physical/SQL plans
    for row in q.cursor():   # stream rows without materializing a Relation
        ...

A :class:`Session` owns **all** of its evaluation state: its own plan
cache (:class:`repro.engine.PlanCache`), its own condition kernel
(:class:`repro.datamodel.ConditionKernel`, bounded via
``connect(kernel_watermark=...)``), and one engine object from the
registry in :mod:`repro.engine.registry`.  The session decides *what* to
answer — the mode and the budget — and hands every evaluation to that
engine.  ``certain()``, ``possible()`` and ``boolean()`` (the 0-ary
"answer is non-empty") take the one walk of
:mod:`repro.semantics.strategies`, which picks and runs the strategy and
degrades a budget overrun; what depends on the semantics itself (worlds,
the ``connect(model=)`` check, the probabilistic ``confidence()`` path)
goes to one row of :mod:`repro.semantics.registry`: this module branches
on neither the engine nor the semantics.  The ``"sqlite"`` engine
(:mod:`repro.backends.sqlite_engine`) keeps its SQLite handles open
across queries and owns every retry, fallback and recovery decision of
that path.  Two live sessions therefore share *no* mutable state and can
use different engines, semantics and cache settings in the same process.
There is no process-wide evaluation state to fall back on: code outside
a session builds its own :class:`~repro.engine.PlanCache`
(``docs/api.md`` maps the calls removed in 2.0 to their replacements).
"""

from __future__ import annotations

import itertools
import threading
from typing import Any, Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

from .algebra.ast import RAExpression
from .core.answers import Query as QueryLike, knowledge_strategy, object_strategy
from .resilience import (
    DEFAULT_RETRY_POLICY,
    Budget,
    BudgetExceeded,
    BudgetState,
    InvalidRequestError,
    RetryPolicy,
    SessionClosedError,
    budget_scope,
    check_count,
)
from .datamodel import Database, Relation
from .datamodel.condition_kernel import ConditionKernel
from .datamodel.schema import DatabaseSchema
from .datamodel.values import is_null
from .engine.registry import NO_DATABASE, chunks, engine_factory
from .logic.formulas import FOQuery
from .obs.analyze import AnalyzeReport
from .obs.metrics import MetricsRegistry
from .obs.trace import Tracer, entry_scopes, env_tracer
from .semantics.registry import semantics_named
from .semantics.strategies import (
    BOOLEAN, CERTAIN, NAIVE, POSSIBLE, Mode, budget_policy, choose, forced_method, walk,
)
from .semantics.strategies import explain as explain_strategy
from .semantics.worlds import check_world_options


class Cursor:
    """A forward-only row stream over a query answer.

    The cursor reads from a source of row batches.  Iterating yields
    decoded rows one at a time; :meth:`batches` and a :meth:`fetchmany`
    without a size hand each source batch through as it is, never
    re-chunked; ``fetchmany(n)`` gathers up to ``n`` rows across batches.
    All of them may be mixed on one cursor and read the stream in order.
    On the SQLite engine each batch is one backend ``fetchmany`` of up to
    ``batch_size`` decoded rows — the answer :class:`Relation` is never
    materialized, which is what lets a session stream results larger
    than memory.  On the in-memory engines the cursor slices the
    evaluated relation (documented fallback: those engines materialize
    by nature).  The ``cursor.batches``/``cursor.rows`` counters count
    batches as they enter the cursor, so every consumption style counts
    the same totals.
    """

    def __init__(
        self,
        batches: Iterator[List[Tuple[Any, ...]]],
        batch_size: int,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self._source = batches
        # The unread rows of the batch that row reads are working through.
        self._rows: Iterator[Tuple[Any, ...]] = iter(())
        self.batch_size = batch_size
        self._closed = False
        self._metrics = metrics

    def _next_batch(self) -> List[Tuple[Any, ...]]:
        """The unread rest of the current batch, else the next non-empty
        source batch as it is (counted here); ``[]`` at the end."""
        rest = list(self._rows)
        if rest:
            return rest
        for batch in self._source:
            if batch:
                if self._metrics is not None:
                    self._metrics.count("cursor.batches")
                    self._metrics.count("cursor.rows", len(batch))
                return batch
        return []

    def __iter__(self) -> "Cursor":
        return self

    def __next__(self) -> Tuple[Any, ...]:
        for row in self._rows:
            return row
        self._rows = iter(self._next_batch())
        return next(self._rows)

    def fetchmany(self, size: Optional[int] = None) -> List[Tuple[Any, ...]]:
        """Up to ``size`` more rows (an ``int >= 0``); ``[]`` at the end.

        Without ``size`` this is the next batch (or the unread rest of
        the current one) exactly as the source produced it.
        """
        if size is None:
            return self._next_batch()
        check_count("size", size)
        out = list(itertools.islice(self._rows, size))
        while len(out) < size:
            batch = self._next_batch()
            if not batch:
                break
            self._rows = iter(batch)
            out.extend(itertools.islice(self._rows, size - len(out)))
        return out

    def fetchall(self) -> List[Tuple[Any, ...]]:
        """Every remaining row (materializes; defeats streaming on purpose)."""
        out: List[Tuple[Any, ...]] = []
        for batch in self.batches():
            out.extend(batch)
        return out

    def batches(self) -> Iterator[List[Tuple[Any, ...]]]:
        """Iterate the remaining rows batch by batch (see :meth:`fetchmany`)."""
        while True:
            batch = self._next_batch()
            if not batch:
                return
            yield batch

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` ran (reads on a closed cursor yield ``[]``)."""
        return self._closed

    def close(self) -> None:
        """Release the underlying stream (runs backend teardown if pending).

        Idempotent, and safe at *any* moment — including from a ``finally``
        while a retried backend call is mid-flight: the stream reference is
        detached before teardown runs, so a second close (or a fetch racing
        the close) sees an exhausted cursor instead of a double teardown.
        """
        if self._closed:
            return
        self._closed = True
        source, self._source = self._source, iter(())
        self._rows = iter(())
        close = getattr(source, "close", None)
        if close is not None:
            close()

    def __enter__(self) -> "Cursor":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class Query:
    """A lazy handle on ``(session, query, database)``.

    Nothing is evaluated at construction; each method picks a *mode of
    answering* — certain, possible, object, boolean — and runs it with
    the session's engine, semantics and caches.
    """

    __slots__ = (
        "session",
        "expression",
        "_database",
        "_resilience_verdict",
        "_ran",
        "_prob_constraint",
    )

    def __init__(
        self,
        session: "Session",
        expression: QueryLike,
        database: Optional[Database] = None,
    ) -> None:
        self.session = session
        self.expression = expression
        self._database = database
        #: How the last certain() call degraded, if it did (shown by explain()).
        self._resilience_verdict: Optional[str] = None
        #: The strategy the last certain() call ran (shown by explain()).
        self._ran: Optional[str] = None
        #: Conditioning constraint for confidence() (set by condition_on()).
        self._prob_constraint: Optional[Any] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Query({self.expression!r})"

    # -- plumbing ------------------------------------------------------
    @property
    def database(self) -> Optional[Database]:
        return self._database if self._database is not None else self.session.database

    def _is_sql(self) -> bool:
        return not isinstance(self.expression, (RAExpression, FOQuery))

    def _no_sql(self, what: str) -> None:
        if self._is_sql():
            raise InvalidRequestError(
                f"{what} is not defined for three-valued SQL queries; "
                "use certain() (rewriting) or answer_object() (raw 3VL rows)"
            )

    def _require_database(self) -> Database:
        database = self.database
        if database is None:
            raise InvalidRequestError(NO_DATABASE)
        return database

    def _run(self, budget: Optional[Budget], on_expiry: Optional[Callable[..., Any]],
             run: Callable[..., Any], *args: Any) -> Any:
        """``run(*args)`` as one session run, under ``budget`` (a
        :class:`~repro.resilience.Budget`; else the session's).

        The run is counted in flight (so :meth:`Session.cancel` can reach
        it and one cancel cannot poison the next query) and its armed
        budget is registered for cancellation.  When the budget expires,
        ``on_expiry(error, *args)`` answers instead, outside the expired
        budget so a degradation rung is not cut short by the deadline
        that sent the run there; without it the error propagates.
        """
        session = self.session
        if budget is None:
            budget = session.budget
        elif not isinstance(budget, Budget):
            raise TypeError(f"budget must be a Budget, got {type(budget).__name__}")
        state = None if budget is None else budget.start()
        session._begin_run(state)
        try:
            if state is None:
                return run(*args)
            try:
                with budget_scope(state):
                    return run(*args)
            except BudgetExceeded as error:
                if on_expiry is None:
                    raise
                session._metrics.count("budget.expired." + (error.resource or "budget"))
                return on_expiry(error, *args)
        finally:
            session._end_run(state)

    # -- modes of answering --------------------------------------------
    def certain(
        self,
        method: str = "auto",
        domain: Optional[Sequence[Any]] = None,
        extra_constants: Optional[int] = None,
        max_extra_facts: int = 1,
        budget: Optional[Budget] = None,
        on_budget: Optional[str] = None,
        resume: Any = None,
    ) -> Relation:
        """Certain answers under the session's semantics.

        ``method='auto'`` runs the first exact strategy of the semantics'
        list that applies (:mod:`repro.semantics.strategies`): naive
        evaluation when the query's fragment guarantees it, else, under
        CWA and prob for generic relational algebra, validity of each
        candidate's c-table lineage, else world enumeration;
        ``'naive'`` and ``'enumeration'`` force a strategy, anything else
        raises :class:`InvalidRequestError`.  For a
        three-valued SQL query this applies the certain-answer rewriting
        and returns rows.

        ``budget`` caps the evaluation (falling back to the session's
        default budget); when it expires, ``on_budget`` decides the
        outcome — ``"degrade"`` (default) re-answers with the cheapest
        *sound* approximation and records a verdict readable via
        :meth:`explain`, ``"partial"`` wraps that sound subset in a
        :class:`~repro.resilience.PartialResult`, and ``"raise"``
        propagates :class:`~repro.resilience.BudgetExceeded`.  Soundness
        is non-negotiable: a fallback only runs when its answers are
        guaranteed to be certain answers (see ``docs/robustness.md``).

        ``resume`` continues a budget-interrupted world enumeration from
        its checkpoint instead of restarting: pass the
        :class:`~repro.resilience.PartialResult` of an earlier
        ``on_budget="partial"`` call (or the
        :class:`~repro.resilience.ResumeToken` off a raised
        :class:`BudgetExceeded`).  The token is validated against a
        fingerprint of the enumeration inputs — query, database facts,
        semantics, resolved domain, valuation space — and the session's
        condition-kernel epoch; a stale or mismatched token raises
        :class:`InvalidRequestError` rather than silently intersecting
        unrelated answers.  A resumed run that completes returns exactly
        the uninterrupted answer.
        """
        return self._answer(
            CERTAIN, domain, extra_constants, max_extra_facts, budget, method, on_budget, resume
        )

    def _answer(self, mode: Mode, domain: Optional[Sequence[Any]], extra_constants: Optional[int],
                max_extra_facts: int, budget: Optional[Budget], method: str = "auto",
                on_budget: Optional[str] = None, resume: Any = None) -> Any:
        """One answering ``mode`` (:mod:`repro.semantics.strategies`): check
        the world options, open the entry scope, refuse or rewrite SQL,
        then take the walk."""
        check_world_options(extra_constants, max_extra_facts)
        with self.session._obs(mode.entry):
            if not self._is_sql():
                return walk(
                    self, mode, method, domain, extra_constants, max_extra_facts, budget,
                    on_budget, resume,
                )
            if mode is not CERTAIN:
                self._no_sql(f"{mode.name}()")
            self._policy(on_budget)
            forced_method(method)  # validated as the walk validates them
            if resume is not None:
                raise InvalidRequestError("resume= is not defined for three-valued SQL queries")
            return self.session.sql(self.expression, database=self._database, certain=True)

    def _policy(self, on_budget: Optional[str]) -> str:
        """The validated ``on_budget`` policy of one call (else the session's)."""
        return budget_policy(on_budget if on_budget is not None else self.session.on_budget)

    def possible(
        self,
        domain: Optional[Sequence[Any]] = None,
        extra_constants: Optional[int] = None,
        max_extra_facts: int = 1,
        budget: Optional[Budget] = None,
    ) -> Relation:
        """Possible answers (union over the enumerated worlds).

        ``budget`` caps the enumeration; on expiry
        :class:`~repro.resilience.BudgetExceeded` is raised — there is no
        degradation ladder here, because a *subset* of the worlds yields a
        subset of the possible answers, which no sound rung can complete.
        """
        return self._answer(POSSIBLE, domain, extra_constants, max_extra_facts, budget)

    def answer_object(self) -> Relation:
        """``certainO``: the naive answer itself, nulls included (eq. (9)).

        For a three-valued SQL query: the raw 3VL row list (bag semantics).
        """
        with self.session._obs("query.answer_object"):
            if self._is_sql():
                return self.session.sql(self.expression, database=self._database)
            # Without a database the engine answers from its own store
            # (data loaded through Session.load_rows), if it has one.
            return object_strategy(self.expression, self.database, self.session._evaluate)

    def knowledge(self):
        """``certainK``: the δ-formula of the naive answer (eq. (10))."""
        self._no_sql("knowledge()")
        with self.session._obs("query.knowledge"):
            return knowledge_strategy(
                self.expression,
                self._require_database(),
                self.session._evaluate,
                semantics=self.session._semantics,
            )

    def boolean(
        self,
        mode: str = "certain",
        domain: Optional[Sequence[Any]] = None,
        extra_constants: Optional[int] = None,
        max_extra_facts: int = 1,
        budget: Optional[Budget] = None,
    ) -> bool:
        """Certainty (or possibility) of "the answer is non-empty".

        For a Boolean first-order query this is its truth value per world;
        for relational algebra it is non-emptiness of the answer.  Either
        way it is ``certain()`` (``possible()``) of the 0-ary query
        "the answer is non-empty", so it is false when no world exists.
        ``budget`` caps the enumeration; on expiry
        :class:`~repro.resilience.BudgetExceeded` is raised (a Boolean
        has no sound middle ground to degrade to).
        """
        if mode not in ("certain", "possible"):
            raise InvalidRequestError(f"unknown mode {mode!r}; expected 'certain' or 'possible'")
        return self._answer(BOOLEAN[mode], domain, extra_constants, max_extra_facts, budget)

    # -- probabilistic answering (semantics="prob") --------------------
    def condition_on(self, constraint: Any) -> "Query":
        """A new query conditioned on ``constraint`` (Koch–Olteanu).

        ``constraint`` is a :class:`~repro.datamodel.conditional.Condition`
        over the model's nulls; worlds violating it are retracted and the
        remaining measure renormalized, so :meth:`confidence` returns
        ``P(answer | constraint)``.  Chaining ``condition_on`` conjoins
        constraints.  Conditioning on a probability-zero constraint
        raises :class:`~repro.resilience.InvalidRequestError` at
        :meth:`confidence` time.
        """
        self._no_sql("condition_on()")
        return self.session._semantics.condition_on(self, constraint)

    def confidence(
        self,
        limit: Optional[int] = None,
        min_p: float = 0.0,
        budget: Optional[Budget] = None,
        on_budget: Optional[str] = None,
        samples: int = 10_000,
        seed: Optional[int] = None,
    ) -> List[Tuple[Tuple[Any, ...], Any]]:
        """Answer tuples ranked by probability: ``[(row, P(row)), ...]``.

        The c-table engine evaluates the query once, producing each
        answer's lineage condition; :func:`repro.prob.confidence` then
        computes the exact probability of every lineage under the
        session's :class:`~repro.prob.ProbabilityModel` (conditioned on
        the c-table's global condition and any :meth:`condition_on`
        constraint).  Results are sorted by descending probability
        (ties broken deterministically), filtered to ``min_p`` and capped
        at ``limit``.

        ``budget`` caps the evaluation (falling back to the session
        default).  When it expires *during* confidence computation the
        remaining answers degrade to Monte Carlo estimates over
        ``samples`` sampled worlds (``samples`` must be >= 1) — their
        probabilities come back as
        :class:`~repro.resilience.ConfidenceInterval` (flagged
        ``partial``) instead of floats, and :meth:`explain` records the
        verdict; ``on_budget="raise"`` propagates
        :class:`~repro.resilience.BudgetExceeded` instead.  A budget that
        dies before the lineage exists (c-table evaluation itself) always
        raises — with no lineage there is nothing to estimate.
        """
        with self.session._obs("query.confidence"):
            self._no_sql("confidence()")
            self._resilience_verdict = None
            return self.session._semantics.confidence(
                self, limit, min_p, budget, on_budget, samples, seed
            )

    # -- introspection -------------------------------------------------
    def explain(self, analyze: bool = False) -> str:
        """A unified, human-readable account of how this query would run.

        Sections: the certain-answer strategy the last ``certain()`` ran
        (before any run: the one ``method="auto"`` would pick), the
        optimized logical plan, the lowered physical operator tree, and —
        when the session's engine is ``"sqlite"`` and the plan is inside
        the SQL fragment — the compiled SQL text.  For a three-valued SQL
        query: the transliterated SQLite statement.

        ``analyze=True`` additionally *executes* the plan (once) and
        appends per-operator row counts and wall time — see
        :meth:`analyze` for the structured form and its caveats.
        """
        if self._is_sql():
            from .sqlnulls.backend import compile_select

            database = self._require_database()
            sql, params = compile_select(database, self.expression)
            return (
                f"query: {self.expression!r}\n"
                "engine: sqlnulls (three-valued logic)\n"
                f"sql:\n  {sql}\n  params: {params!r}"
            )
        from .engine.logical import explain as explain_logical
        from .engine.planner import lower

        session, expression, database = self.session, self.expression, self.database
        lines = [
            f"query: {expression!r}",
            f"engine: {session.engine}; semantics: {session.semantics}",
        ]
        lines.append(explain_strategy(session._semantics, expression, self._ran, database))
        lines.extend(session._semantics.explain(session.model))
        schema = database.schema if database is not None else session._engine.resident_schema()
        if not isinstance(expression, RAExpression):
            lines.append("plan: n/a (first-order query, evaluated by satisfaction)")
        elif schema is None:
            lines.append("plan: n/a (no database attached)")
        else:
            logical = session.plan_cache.compile(expression, schema)
            lines.append("logical plan:")
            lines.extend("  " + line for line in explain_logical(logical).splitlines())
            if database is not None:
                lines.append("physical plan:")
                physical = _render_physical(lower(logical, database))
                lines.extend("  " + line for line in physical.splitlines())
            sql = session._engine.explain_sql(logical, database)
            if sql is not None:
                lines.append("sql:")
                lines.extend("  " + line for line in sql)
        if analyze:
            lines.append(self.analyze().render())
        if self._resilience_verdict is not None:
            lines.append(f"resilience: {self._resilience_verdict}")
        return "\n".join(lines)

    def analyze(self) -> "AnalyzeReport":
        """Execute the plan once and return per-operator statistics.

        On the in-memory engines the physical operator tree runs wrapped
        in probes, so every operator reports its output cardinality
        (``rows``), wall time, call count and memoization hits; shared
        subplans (CSE) appear once, with their reuse showing up as
        ``memo_hits``.  On ``engine="sqlite"`` there is no Python operator
        tree — the report carries per-statement timing and the row count
        of every temp-table spill instead; plans outside the SQL fragment
        (and spilling plans on a frozen backend) fall back to the
        in-memory analyze with a note saying so.

        The rows executed are the *naive* answer (what
        :meth:`answer_object` returns) — certainty modes layer world
        enumeration on top of per-world plans, which is what the
        ``world.evaluate`` spans of the tracer are for.  Caveats are in
        ``docs/observability.md#analyze``.
        """
        self._no_sql("analyze()")
        if not isinstance(self.expression, RAExpression):
            raise InvalidRequestError(
                "analyze() requires a relational-algebra query; first-order "
                "queries are evaluated by satisfaction, without a plan"
            )
        database = self._require_database()
        with self.session._obs("query.analyze"):
            return self.session._engine.analyze(self.expression, database)

    # -- streaming -----------------------------------------------------
    def cursor(self, batch_size: int = 1024, certain: bool = False) -> Cursor:
        """Stream the answer rows instead of materializing a :class:`Relation`.

        On ``engine="sqlite"`` rows are pulled from the backend in batches
        of ``batch_size`` and decoded on the fly, so answers larger than
        memory can be consumed incrementally.  ``certain=True`` streams
        the certain answers when naive evaluation guarantees them (rows
        containing nulls are dropped in flight); when the fragment offers
        no guarantee it falls back to materializing ``certain()``.
        """
        check_count("batch_size", batch_size, 1)
        # The entry scope covers cursor *construction* (planning, backend
        # statement start); consumption is counted per batch by the Cursor.
        metrics = self.session._metrics
        with self.session._obs("query.cursor"):
            if self._is_sql():
                rows = self.session.sql(
                    self.expression, database=self._database, certain=certain
                )
                return Cursor(chunks(rows, batch_size), batch_size, metrics=metrics)
            expression = self.expression
            if certain:
                strategy = choose(self.session._semantics, CERTAIN, expression)
                if strategy is not NAIVE:
                    answer = walk(self, CERTAIN, "auto", None, None, 1, None, None, None, strategy)
                    return Cursor(chunks(answer.rows, batch_size), batch_size, metrics=metrics)
            batches: Iterator[List[Tuple[Any, ...]]]
            if isinstance(expression, RAExpression):
                batches = self.session._stream(expression, self.database, batch_size)
            else:
                batches = chunks(self.answer_object().rows, batch_size)
            if certain:
                batches = (
                    [row for row in batch if not any(map(is_null, row))]
                    for batch in batches
                )
            return Cursor(batches, batch_size, metrics=metrics)


class Session:
    """One caller's private evaluation context over incomplete databases.

    Create through :func:`repro.connect`.  All evaluation state — plan
    cache, condition kernel, backend connections — is owned by the
    session; see the module docstring for the full story.

    Parameters
    ----------
    database:
        The default incomplete database queries run against (individual
        queries may override it; ``None`` for sessions that stream data
        straight into the backend via :meth:`Session.load_rows`).
    engine:
        ``"plan"`` (optimizing in-memory engine, default),
        ``"interpreter"`` (the seed tree-walking oracle) or ``"sqlite"``
        (plans compiled to SQL on a session-owned SQLite handle).
    semantics:
        ``"cwa"`` (default), ``"owa"`` or ``"wcwa"`` — the possible-world
        semantics certain/possible answers quantify over — or ``"prob"``,
        the probabilistic tier: worlds are CWA valuations weighted by
        ``model``, and :meth:`Query.confidence` ranks answers by exact
        probability (see ``docs/probability.md``).
    model:
        The :class:`~repro.prob.ProbabilityModel` over the database's
        nulls; required by (and only meaningful with)
        ``semantics="prob"``.
    backend_path:
        SQLite storage for ``engine="sqlite"``: the default
        ``":memory:"``, or a file path for out-of-core instances.
    kernel_watermark:
        Bound on the session's condition-kernel intern table; crossing it
        triggers an automatic epoch eviction (hot conditions survive).
    kernel_memo_limit:
        Bound on each of the kernel's ∧/∨ memo tables (defaults to
        ``8 * kernel_watermark`` when a watermark is set); overflowing
        drops the oldest half, so long-lived sessions stay bounded.
    budget:
        Default :class:`~repro.resilience.Budget` applied to every
        ``certain()``/``possible()``/``boolean()`` call of this session
        (individual calls may override it).
    on_budget:
        Default budget-expiry policy for ``certain()``: ``"degrade"``
        (sound fallback, the default), ``"raise"`` or ``"partial"`` —
        see ``docs/robustness.md``.
    retry_policy:
        A :class:`~repro.resilience.RetryPolicy` shaping every transient
        backend retry of this session (query execution, streaming,
        database refills, the 3VL bridge).  Defaults to the historical
        3-retry / 5–40 ms exponential-backoff shape.
    tracer:
        A :class:`repro.obs.Tracer` receiving a span for every query
        entry point, plan compilation, operator execution, backend
        statement, retry and degradation decision of this session.
        Defaults to the process tracer selected by ``REPRO_TRACE=path``
        (a JSONL file sink), else ``None`` — tracing off, at the cost of
        one branch per instrumentation point.
    metrics:
        ``False`` disables the session's :class:`~repro.obs.MetricsRegistry`
        entirely (every recording call becomes one check and a return);
        the default keeps counters/histograms on — their overhead is held
        within the ``gate:obs`` benchmark bound.
    """

    def __init__(
        self,
        database: Optional[Database] = None,
        *,
        engine: str = "plan",
        semantics: str = "cwa",
        model: Optional[Any] = None,
        backend_path: str = ":memory:",
        kernel_watermark: Optional[int] = None,
        kernel_memo_limit: Optional[int] = None,
        budget: Optional[Budget] = None,
        on_budget: str = "degrade",
        retry_policy: Optional[RetryPolicy] = None,
        tracer: Optional[Tracer] = None,
        metrics: bool = True,
    ) -> None:
        from .engine.planner import PlanCache

        open_engine = engine_factory(engine)
        #: The semantics row: its worlds, model check and confidence() path.
        self._semantics = semantics_named(semantics)
        budget_policy(on_budget)
        if database is not None and not isinstance(database, Database):
            raise TypeError(
                f"connect() expects a Database (or None), got {type(database).__name__}"
            )
        for name, value, kind in (
            ("retry_policy", retry_policy, RetryPolicy), ("budget", budget, Budget),
            ("tracer", tracer, Tracer),
        ):
            if value is not None and not isinstance(value, kind):
                raise TypeError(f"{name} must be a {kind.__name__}, got {type(value).__name__}")
        for name, value, minimum in (
            ("kernel_watermark", kernel_watermark, 1), ("kernel_memo_limit", kernel_memo_limit, 2),
        ):
            if value is not None:
                check_count(name, value, minimum)
        self._semantics.check_model(model)
        self.database = database
        self.model = model
        #: The engine queries run on (``"plan"``, ``"interpreter"``, ``"sqlite"``).
        self.engine = engine
        self.semantics = semantics
        self.backend_path = backend_path
        self.budget = budget
        self.on_budget = on_budget
        self.retry_policy = (
            retry_policy if retry_policy is not None else DEFAULT_RETRY_POLICY
        )
        # Observability: the registry is created before the plan cache so
        # the cache can record its hits/misses into it; the tracer defaults
        # to the REPRO_TRACE process tracer (None — tracing off — without
        # the environment variable).
        self._metrics = MetricsRegistry(enabled=metrics)
        self._tracer = tracer if tracer is not None else env_tracer()
        # The entry scope every public Query mode opens: the tracer and
        # the registry's ``enabled`` are fixed from here on, so the scope
        # kind is picked once (a shared no-op with both off).
        self._obs = entry_scopes(self._tracer, self._metrics)
        self.kernel = ConditionKernel(watermark=kernel_watermark, memo_limit=kernel_memo_limit)
        self.plan_cache = PlanCache(kernel=self.kernel, metrics=self._metrics)
        self._lock = threading.RLock()
        # The one engine every evaluation is handed to (repro.engine.registry).
        self._engine = open_engine(
            self.plan_cache,
            self.kernel,
            metrics=self._metrics,
            backend_path=backend_path,
            retry_policy=self.retry_policy,
            lock=self._lock,
        )
        # One entry per in-flight run: its armed budget state (None when
        # unbudgeted), for Session.cancel().  Guarded by a dedicated lock
        # (never the RLock: cancel() must not block behind a query thread
        # holding the backend lock).
        self._runs: List[Optional[BudgetState]] = []
        self._runs_lock = threading.Lock()
        self._frozen = False
        self._closed = False

    # ------------------------------------------------------------------
    # configuration
    # ------------------------------------------------------------------
    @property
    def world_semantics(self) -> str:
        """The possible-world semantics evaluation strategies quantify over.

        ``semantics="prob"`` is a *probability layer on top of* the
        closed-world possible-world space, so this is ``"cwa"`` there.
        """
        return self._semantics.space

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        db = "None" if self.database is None else f"<{len(self.database)} facts>"
        return (
            f"Session(database={db}, engine={self.engine!r}, "
            f"semantics={self.semantics!r}, backend_path={self.backend_path!r})"
        )

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    @property
    def tracer(self) -> Optional[Tracer]:
        """The session's tracer, or ``None`` when tracing is off."""
        return self._tracer

    def metrics(self) -> dict:
        """A snapshot of this session's metrics.

        Returns ``{"counters", "gauges", "histograms", "kernel",
        "plan_cache"}`` — the registry's aggregated counters/gauges/
        histograms (see ``docs/observability.md`` for the name table)
        plus the kernel and plan-cache stat blocks of
        :meth:`kernel_stats` / :meth:`plan_cache_stats`.  Safe to call
        from any thread, including on a frozen session mid-traffic: the
        registry records into per-thread shards and this aggregates them
        without stopping writers.
        """
        snapshot = self._metrics.snapshot()
        snapshot["kernel"] = self.kernel_stats()
        snapshot["plan_cache"] = self.plan_cache_stats()
        return snapshot

    def kernel_stats(self) -> dict:
        """The condition kernel's table sizes and lifecycle counters."""
        stats = self.kernel.stats()
        stats["auto_evictions"] = self.kernel.auto_evictions
        stats["memo_trims"] = self.kernel.memo_trims
        stats["epoch"] = self.kernel.epoch
        return stats

    def plan_cache_stats(self) -> dict:
        """The plan cache's shape and hit/miss counters."""
        return self.plan_cache.stats()

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def query(self, query: Any, database: Optional[Database] = None) -> Query:
        """A lazy :class:`Query` handle for an RA, first-order or SQL query.

        ``query`` is an :class:`RAExpression`, an :class:`FOQuery`, a
        :class:`~repro.sqlnulls.SelectQuery`, or SQL text (parsed with
        :func:`repro.sqlnulls.parse_sql`).  SQL queries run under
        three-valued logic — ``certain()`` applies the certain-answer
        rewriting, ``possible()``/``boolean()`` are not defined for them.
        ``database`` overrides the session database for this query only.
        """
        if isinstance(query, str):
            from .sqlnulls import parse_sql

            query = parse_sql(query)
        if not isinstance(query, (RAExpression, FOQuery)):
            from .sqlnulls import SelectQuery

            if not isinstance(query, SelectQuery):
                raise TypeError(
                    "query() expects an RAExpression, FOQuery, SelectQuery or "
                    f"SQL text, got {type(query).__name__}"
                )
        return Query(self, query, database)

    def sql(
        self,
        query: Any,
        database: Optional[Database] = None,
        certain: bool = False,
    ) -> List[Tuple[Any, ...]]:
        """Run a three-valued-logic SQL query (``repro.sqlnulls``).

        ``query`` is a :class:`~repro.sqlnulls.SelectQuery` or SQL text.
        On ``engine="sqlite"`` the query is transliterated onto a real
        SQLite database owned by this session (marked nulls become SQL
        ``NULL``); otherwise the by-the-book Python 3VL engine runs it.
        ``certain=True`` first applies the certain-answer rewriting
        (``IS NOT NULL`` guards) of :mod:`repro.sqlnulls.rewriting`.
        """
        from .sqlnulls import parse_sql
        from .sqlnulls.rewriting import certain_answer_rewriting

        if isinstance(query, str):
            query = parse_sql(query)
        if database is None:
            database = self.database
        if database is None:
            raise InvalidRequestError(
                "no database: pass one to connect() or session.sql(..., database=)"
            )
        if certain:
            query = certain_answer_rewriting(query, database)
        return self._engine.sql(query, database)

    def evaluate_ctable(
        self, expression: RAExpression, database: Any, *, _supports: Any = None
    ):
        """Evaluate an RA expression over a c-table database.

        Runs the planned conditional-row path with *this session's* plan
        cache and condition kernel (``engine="interpreter"`` sessions run
        the seed tree-walking algebra,
        :func:`repro.algebra.ctable_evaluate`, instead).  ``_supports`` is
        internal to ``Query.confidence()``: the model's supports, which
        prune the planned path (:func:`repro.prob.lineage.prob_lineage`).
        """
        if self._closed:
            raise SessionClosedError("session is closed")
        return self._engine.evaluate_ctable(expression, database, _supports)

    # ------------------------------------------------------------------
    # runs and cancellation
    # ------------------------------------------------------------------
    def _begin_run(self, state: Optional[BudgetState]) -> None:
        if state is None:
            # Nothing to cancel: only the in-flight count grows, by one
            # list append (atomic under the GIL), as under the lock.
            self._runs.append(None)
            return
        with self._runs_lock:
            self._runs.append(state)

    def _end_run(self, state: Optional[BudgetState]) -> None:
        if state is None:
            # One unbudgeted entry leaves; removing a None is one list
            # operation (atomic under the GIL), as under the lock.
            self._runs.remove(None)
            return
        with self._runs_lock:
            self._runs.remove(state)

    def cancel(self) -> None:
        """Cancel every in-flight evaluation of this session, from any thread.

        Two levers, pulled together:

        * every *armed budget* of an in-flight ``certain()`` /
          ``possible()`` / ``boolean()`` call is flagged, so the next
          cooperative check point (a world tick, a c-table operator row,
          a backend progress-handler callback) raises
          :class:`~repro.resilience.QueryCancelled` in the query's thread;
        * each live backend connection gets a thread-safe
          ``interrupt()``, aborting even a single long-running SQL
          statement mid-flight.

        ``QueryCancelled`` is deliberately not a ``BudgetExceeded``: a
        cancelled query never enters the degradation ladder — it stops.
        Queries running without a budget are interrupted on the backend
        but, by the documented "no budget means no overhead" contract,
        have no cooperative check points in the in-memory engines.
        Idempotent; a session with nothing running is a no-op.
        """
        with self._runs_lock:
            states = [state for state in self._runs if state is not None]
        for state in states:
            state.cancel()
        self._engine.interrupt()

    # ------------------------------------------------------------------
    # evaluation plumbing
    # ------------------------------------------------------------------
    def _evaluate(self, query: QueryLike, database: Optional[Database]) -> Relation:
        """Evaluate ``query`` on ``database`` with this session's state."""
        if self._closed:
            raise SessionClosedError("session is closed")
        if isinstance(query, FOQuery):
            if database is None:
                raise InvalidRequestError(NO_DATABASE)
            return query.evaluate(database)
        return self._engine.evaluate(query, database)

    def _stream(
        self, expression: RAExpression, database: Optional[Database], batch_size: int
    ) -> Iterator[List[Tuple[Any, ...]]]:
        """The answer of ``expression`` as a stream of row batches."""
        if self._closed:
            raise SessionClosedError("session is closed")
        return self._engine.stream(expression, database, batch_size)

    # ------------------------------------------------------------------
    # out-of-core loading (backend-resident databases)
    # ------------------------------------------------------------------
    def create_schema(self, schema: DatabaseSchema) -> None:
        """Declare the schema of a backend-resident database.

        For instances too large to exist as a :class:`Database` object:
        declare the schema, stream rows in with :meth:`load_rows`, then
        query with ``session.query(q)`` / ``.cursor()`` — the backend's
        ``COUNT(*)`` statistics replace the in-memory cardinalities.
        Requires ``engine="sqlite"``.
        """
        self._engine.store("create a schema on").create_schema(schema)

    def load_rows(self, name: str, rows: Iterable[Sequence[Any]]) -> int:
        """Stream rows into relation ``name`` of the backend-resident database."""
        return self._engine.store("load rows into").load_rows(name, rows)

    # ------------------------------------------------------------------
    # freezing (read-only, thread-shareable sessions)
    # ------------------------------------------------------------------
    @property
    def frozen(self) -> bool:
        """Whether :meth:`freeze` has made this session read-only."""
        return self._frozen

    def freeze(self, warm: Iterable[Any] = ()) -> "Session":
        """Make this session read-only and shareable across threads.

        Runs each query in ``warm`` once (through ``certain()``) to
        populate the plan cache, condition kernel and compiled-SQL plans,
        then freezes all three plus the backend handle: after this call
        nothing reachable from the session is mutated by query execution,
        so any number of threads can evaluate concurrently without the
        session's lock — the property the :mod:`repro.serve` pool relies
        on to let its size exceed the number of backend handles.  (On
        ``engine="sqlite"`` the threads take turns on the handle one
        statement at a time: :meth:`SQLiteBackend.read`.)

        A frozen session still answers ``certain()`` / ``possible()`` /
        ``boolean()`` / ``answer_object()`` / ``cursor()`` on its one
        database, and :meth:`cancel` still works (budget flags and backend
        ``interrupt()`` are both thread-safe by construction).  What it refuses: switching a backend handle to
        another database (on ``engine="sqlite"`` a per-query ``database=``
        runs on the in-memory plan engine; ``sql()`` on another database
        raises), loading rows, ``clear_caches()``.  Queries the warm set
        did not cover stay correct — they recompile per call without
        populating any cache.  Freezing is one-way; returns ``self`` for
        chaining.
        """
        with self._lock:
            if self._closed:
                raise SessionClosedError("session is closed")
            if self._frozen:
                return self
            for query in warm:
                # Warm the caches the serving tier will read (on a prob
                # session: the lineage plans and the confidence memo).
                self._semantics.warm(self.query(query))
            self.kernel.freeze()
            self.plan_cache.freeze()
            self._engine.freeze(self.database)
            self._frozen = True
        return self

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def clear_caches(self) -> None:
        """Drop cached plans and evict this session's cold conditions."""
        if self._frozen:
            raise InvalidRequestError("cannot clear the caches of a frozen session")
        self.plan_cache.clear()

    def close(self) -> None:
        """Close the session's backend connections (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._engine.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def _render_physical(op: Any, indent: int = 0) -> str:
    """Best-effort rendering of a physical operator tree by introspection."""
    pad = "  " * indent
    name = type(op).__name__
    details = []
    children = []
    for klass in type(op).__mro__:
        for attr in getattr(klass, "__slots__", ()):
            if attr == "key" or attr.startswith("_"):
                continue
            value = getattr(op, attr, None)
            if hasattr(value, "rows") and hasattr(value, "_compute"):
                children.append(value)
            elif isinstance(value, (tuple, int, str)) and not callable(value):
                details.append(f"{attr}={value!r}")
    header = pad + name + (f" [{', '.join(details)}]" if details else "")
    lines = [header]
    for child in children:
        lines.append(_render_physical(child, indent + 1))
    return "\n".join(lines)


# ----------------------------------------------------------------------
# connect()
# ----------------------------------------------------------------------
def connect(database: Optional[Database] = None, **options: Any) -> Session:
    """Open a :class:`Session` owning all of its evaluation state.

    ``connect(database, **options)`` is ``Session(database, **options)``;
    the keyword options are documented on :class:`Session`.
    """
    return Session(database, **options)
