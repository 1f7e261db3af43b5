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
``connect(kernel_watermark=...)``), and its own
:class:`~repro.backends.SQLiteBackend` handles (one sentinel-mode, one
three-valued for :meth:`Session.sql`), kept open across queries — the
first step of the ROADMAP "persistent backend" item: switching to another
database with the same schema refills the existing tables instead of
opening a fresh backend.  Two live sessions therefore share *no* mutable
state and can use different engines, semantics and cache settings in the
same process.  There is no process-wide evaluation state to fall back
on: code outside a session builds its own
:class:`~repro.engine.PlanCache` (``docs/api.md`` maps the calls removed
in 2.0 to their replacements).
"""

from __future__ import annotations

import functools
import hashlib
import multiprocessing
import threading
import warnings
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Iterable, Iterator, List, Optional, Sequence, Tuple

from .algebra.ast import RAExpression
from .core.answers import (
    Query as QueryLike,
    applicability_semantics,
    certain_strategy,
    enumeration_domain,
    enumeration_strategy,
    knowledge_strategy,
    naive_strategy,
    object_strategy,
)
from .resilience import (
    DEFAULT_RETRY_POLICY,
    BackendRecoveryWarning,
    BackendUnavailable,
    Budget,
    BudgetExceeded,
    BudgetState,
    InvalidRequestError,
    PartialResult,
    ResumeToken,
    RetryPolicy,
    SessionClosedError,
    budget_scope,
    with_retries,
)
from .core.naive_evaluation import naive_evaluation_applies
from .datamodel import Database, Relation
from .datamodel.condition_kernel import ConditionKernel
from .datamodel.schema import DatabaseSchema
from .datamodel.values import is_null
from .logic.formulas import FOQuery
from .obs.analyze import AnalyzeReport, OpStats
from .obs.metrics import MetricsRegistry
from .obs.trace import Tracer, entry_scope, env_tracer, span
from .semantics.certain import (
    _pool_initializer,
    enumerate_certain_boolean,
    enumerate_possible_boolean,
)
from .semantics import certain as _certain_module

_SEMANTICS = ("owa", "cwa", "wcwa", "prob")


def _engine_names() -> Tuple[str, ...]:
    """The canonical engine tuple (single source: :mod:`repro.engine`)."""
    from .engine import _ENGINES

    return _ENGINES


# ----------------------------------------------------------------------
# Per-world evaluator (every enumeration path; picklable for workers=)
# ----------------------------------------------------------------------
class _WorldEvaluator:
    """Evaluates one query per enumerated world, in the parent or a ``workers=`` child.

    Every world-enumeration path (``certain()``, ``possible()``,
    ``boolean()``; sequential or fanned out) evaluates through this.
    Worlds always run in memory — ``"sqlite"`` sessions take the plan
    engine, which the differential suites hold equal to SQLite, instead
    of refilling the backend once per world.  In the parent it runs on
    the session's plan cache and refuses to run once the session is
    closed.  The session stays behind when the evaluator is pickled: a
    child runs worlds on the per-process cache its pool initializer built
    (:func:`~repro.semantics.certain._pool_initializer`).
    """

    __slots__ = ("query", "interpret", "boolean", "plan_cache", "session")

    def __init__(self, query: QueryLike, session: "Session", boolean: bool = False) -> None:
        self.query = query
        self.interpret = session.engine == "interpreter"
        self.boolean = boolean
        self.plan_cache = session.plan_cache
        self.session: Optional["Session"] = session

    def __getstate__(self) -> Tuple[QueryLike, bool, bool]:
        return (self.query, self.interpret, self.boolean)

    def __setstate__(self, state: Tuple[QueryLike, bool, bool]) -> None:
        self.query, self.interpret, self.boolean = state
        self.plan_cache = _certain_module._child_plan_cache
        self.session = None

    def __call__(self, world: Database) -> Any:
        session = self.session
        if session is not None and session._closed:
            raise SessionClosedError("session is closed")
        query = self.query
        if isinstance(query, FOQuery):
            return query.boolean(world) if self.boolean else query.evaluate(world)
        if self.interpret:
            answer = query._interpret(world)
        else:
            answer = self.plan_cache.execute(query, world)
        return bool(answer) if self.boolean else answer


class Cursor:
    """A forward-only row stream over a query answer.

    Iterating yields decoded rows one at a time; :meth:`fetchmany` /
    :meth:`batches` expose the same stream in chunks.  On the SQLite
    engine the rows come straight off the backend cursor in batches of
    ``batch_size`` — the answer :class:`Relation` is never materialized,
    which is what lets a session stream results larger than memory.  On
    the in-memory engines the cursor iterates the evaluated relation
    (documented fallback: those engines materialize by nature).
    """

    def __init__(
        self,
        rows: Iterator[Tuple[Any, ...]],
        batch_size: int,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self._rows = rows
        self.batch_size = batch_size
        self._closed = False
        self._metrics = metrics

    def __iter__(self) -> Iterator[Tuple[Any, ...]]:
        return self._rows

    def __next__(self) -> Tuple[Any, ...]:
        return next(self._rows)

    def fetchmany(self, size: Optional[int] = None) -> List[Tuple[Any, ...]]:
        """Up to ``size`` (default ``batch_size``) more rows; ``[]`` at the end."""
        count = size if size is not None else self.batch_size
        out: List[Tuple[Any, ...]] = []
        for row in self._rows:
            out.append(row)
            if len(out) >= count:
                break
        if out and self._metrics is not None:
            self._metrics.count("cursor.batches")
            self._metrics.count("cursor.rows", len(out))
        return out

    def fetchall(self) -> List[Tuple[Any, ...]]:
        """Every remaining row (materializes; defeats streaming on purpose)."""
        return list(self._rows)

    def batches(self) -> Iterator[List[Tuple[Any, ...]]]:
        """Iterate the remaining rows in lists of ``batch_size``."""
        while True:
            batch = self.fetchmany()
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
        rows, self._rows = self._rows, iter(())
        close = getattr(rows, "close", None)
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
            raise InvalidRequestError(
                "no database: pass one to connect() or session.query(..., database=)"
            )
        return database

    def _world_evaluator(self, boolean: bool = False) -> _WorldEvaluator:
        """The per-world evaluator of this query (picklable for ``workers=``)."""
        return _WorldEvaluator(self.expression, self.session, boolean)

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

        ``method='auto'`` uses naive evaluation when the query's fragment
        guarantees it and falls back to world enumeration; ``'naive'`` and
        ``'enumeration'`` force a strategy.  For a three-valued SQL query
        this applies the certain-answer rewriting and returns rows.

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
        semantics, resolved domain — and the session's condition-kernel
        epoch; a stale or mismatched token raises
        :class:`InvalidRequestError` rather than silently intersecting
        unrelated answers.  A resumed run that completes returns exactly
        the uninterrupted answer.
        """
        with self.session._obs("query.certain"):
            return self._certain(
                method, domain, extra_constants, max_extra_facts, budget, on_budget, resume
            )

    def _certain(
        self,
        method: str,
        domain: Optional[Sequence[Any]],
        extra_constants: Optional[int],
        max_extra_facts: int,
        budget: Optional[Budget],
        on_budget: Optional[str],
        resume: Any,
    ) -> Relation:
        if self._is_sql():
            if resume is not None:
                raise InvalidRequestError(
                    "resume= is not defined for three-valued SQL queries"
                )
            return self.session.sql(self.expression, database=self._database, certain=True)
        self._resilience_verdict = None
        budget = budget if budget is not None else self.session.budget
        policy = on_budget if on_budget is not None else self.session.on_budget
        if policy not in ("degrade", "raise", "partial"):
            raise InvalidRequestError(
                f"unknown on_budget policy {policy!r}; "
                "expected 'degrade', 'raise' or 'partial'"
            )
        token = self._validated_resume(resume, method, domain, extra_constants, max_extra_facts)
        run = functools.partial(
            certain_strategy,
            self.expression,
            self._require_database(),
            self.session._evaluate,
            semantics=self.session.world_semantics,
            method=method,
            domain=domain,
            extra_constants=extra_constants,
            max_extra_facts=max_extra_facts,
            workers=self.session.workers,
            world_evaluator=self._world_evaluator(),
            resume=token,
            executor=self.session._worker_executor(),
        )
        self.session._begin_run()
        try:
            if budget is None:
                return run()
            state = budget.start()
            self.session._register_state(state)
            try:
                with budget_scope(state):
                    return run()
            except BudgetExceeded as error:
                self.session._metrics.count(
                    "budget.expired." + (error.resource or "budget")
                )
                self._stamp_resume(error, domain, extra_constants, max_extra_facts)
                return self._degrade_certain(error, policy)
            finally:
                self.session._unregister_state(state)
        finally:
            self.session._end_run()

    def _validated_resume(
        self,
        resume: Any,
        method: str,
        domain: Optional[Sequence[Any]],
        extra_constants: Optional[int],
        max_extra_facts: int,
    ) -> Optional[ResumeToken]:
        """Unwrap and validate a ``resume=`` argument into a :class:`ResumeToken`."""
        if resume is None:
            return None
        token = resume.token if isinstance(resume, PartialResult) else resume
        if token is None:
            raise InvalidRequestError(
                "this PartialResult carries no resume token — the interrupted "
                "evaluation never reached an enumeration checkpoint"
            )
        if not isinstance(token, ResumeToken):
            raise InvalidRequestError(
                "resume= expects a PartialResult or ResumeToken, "
                f"got {type(resume).__name__}"
            )
        if method == "naive":
            raise InvalidRequestError(
                "resume= checkpoints world enumeration; it is not defined for "
                "method='naive'"
            )
        if token.key != self._resume_key(domain, extra_constants, max_extra_facts):
            raise InvalidRequestError(
                "resume token does not match this enumeration: the query, "
                "database, semantics, domain or extra-facts cap changed since "
                "it was minted"
            )
        if token.kernel_epoch is not None and token.kernel_epoch != self.session.kernel.epoch:
            raise InvalidRequestError(
                "resume token predates a condition-kernel eviction/clear on "
                "this session; re-run certain() from the start"
            )
        return token

    def _resume_key(
        self,
        domain: Optional[Sequence[Any]],
        extra_constants: Optional[int],
        max_extra_facts: int,
    ) -> str:
        """Fingerprint of everything the world-enumeration order depends on."""
        database = self._require_database()
        resolved = enumeration_domain(self.expression, database, domain, extra_constants)
        digest = hashlib.sha256()

        def feed(part: Any) -> None:
            digest.update(repr(part).encode("utf-8"))
            digest.update(b"\x1f")

        feed(self.expression)
        feed(self.session.semantics)
        feed((extra_constants, max_extra_facts))
        feed([repr(value) for value in resolved])
        # Databases are immutable, so the O(rows) content walk is cached on
        # the instance — consecutive stamps of the same database reuse it.
        feed(database.content_digest())
        return digest.hexdigest()

    def _stamp_resume(
        self,
        error: BudgetExceeded,
        domain: Optional[Sequence[Any]],
        extra_constants: Optional[int],
        max_extra_facts: int,
    ) -> None:
        """Bind the strategy-level checkpoint to this query's inputs.

        The enumeration layer mints fingerprint-agnostic tokens (it never
        sees the session); the session layer stamps the input fingerprint
        and kernel epoch here so ``certain(resume=)`` can refuse a token
        replayed against different inputs.
        """
        token = error.resume_token
        if token is None:
            return
        try:
            token.key = self._resume_key(domain, extra_constants, max_extra_facts)
            token.kernel_epoch = self.session.kernel.epoch
        except Exception:
            # A fingerprint that cannot be computed (e.g. the database was
            # swapped mid-flight) makes the token unusable, not the error.
            error.resume_token = None

    def _degrade_certain(self, error: BudgetExceeded, policy: str) -> Any:
        """The degradation ladder: answer soundly, or fail loudly.

        Runs *outside* the expired budget — each rung is polynomial, so
        the overrun is bounded (one naive evaluation, not another
        enumeration).  The rungs, cheapest sound approximation first:

        1. naive evaluation is *exact* for this (query, semantics) —
           possible when the budget died in a forced enumeration;
        2. naive evaluation applies under OWA — its answer is
           ``certain_owa``, a sound lower bound for CWA/WCWA too (those
           worlds are a subset of the OWA worlds and the fragment is
           monotone);
        3. CWA + relational algebra — the polynomial sound approximation
           of :func:`repro.core.sound_evaluation.sound_certain_answers`;
        4. nothing sound exists: ``degrade`` re-raises, ``partial``
           returns an *empty* sound subset (never the unsound prefix of
           the aborted world intersection — that is an over-approximation).
        """
        metrics = self.session._metrics
        resource = error.resource or "budget"
        if policy == "raise":
            metrics.count("degrade.raised")
            self._resilience_verdict = (
                f"budget exceeded ({resource}); on_budget='raise' — no fallback ran"
            )
            raise error
        expression = self.expression
        database = self._require_database()
        semantics = self.session.world_semantics
        relation: Optional[Relation] = None
        quality: Optional[str] = None
        rung: Optional[str] = None
        with span("degrade.decide", resource=resource, policy=policy) as decision:
            exact = naive_evaluation_applies(
                expression, semantics=applicability_semantics(semantics)
            )
            if exact.applies:
                relation = naive_strategy(expression, database, self.session._evaluate)
                quality = f"exact (naive evaluation applies: {exact.fragment})"
                rung = "exact"
            elif naive_evaluation_applies(expression, semantics="owa").applies:
                relation = naive_strategy(expression, database, self.session._evaluate)
                quality = (
                    "sound lower bound (naive/OWA answer; "
                    f"certain_owa ⊆ certain_{semantics} for monotone queries)"
                )
                rung = "naive_owa"
            elif semantics == "cwa" and isinstance(expression, RAExpression):
                from .core.sound_evaluation import sound_certain_answers

                relation = sound_certain_answers(expression, database)
                quality = "sound lower bound (polynomial CWA approximation)"
                rung = "sound_cwa"
            if relation is None:
                if policy == "degrade":
                    decision.set(rung="raised")
                    metrics.count("degrade.raised")
                    self._resilience_verdict = (
                        f"budget exceeded ({resource}); no sound fallback exists for "
                        f"this query under {semantics} — raised"
                    )
                    raise error
                # policy == "partial": the only sound subset we can certify
                # without finishing the enumeration is the empty one.
                if isinstance(expression, RAExpression):
                    schema = expression.output_schema(database.schema)
                else:
                    schema = expression.output_schema()
                relation = Relation.empty(schema)
                quality = "empty sound subset (no sound approximation exists)"
                rung = "empty_partial"
            decision.set(rung=rung)
        metrics.count("degrade." + rung)
        verdict = f"budget exceeded ({resource}); degraded to {quality}"
        self._resilience_verdict = verdict
        if policy == "partial":
            return PartialResult(
                relation, verdict, resource=error.resource, token=error.resume_token
            )
        return relation

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
        with self.session._obs("query.possible"):
            return self._possible(domain, extra_constants, max_extra_facts, budget)

    def _possible(
        self,
        domain: Optional[Sequence[Any]],
        extra_constants: Optional[int],
        max_extra_facts: int,
        budget: Optional[Budget],
    ) -> Relation:
        self._no_sql("possible()")
        budget = budget if budget is not None else self.session.budget
        run = functools.partial(
            enumeration_strategy,
            self.expression,
            self._require_database(),
            self.session._evaluate,
            semantics=self.session.world_semantics,
            domain=domain,
            extra_constants=extra_constants,
            max_extra_facts=max_extra_facts,
            world_evaluator=self._world_evaluator(),
            mode="possible",
        )
        self.session._begin_run()
        try:
            if budget is None:
                return run()
            state = budget.start()
            self.session._register_state(state)
            try:
                with budget_scope(state):
                    return run()
            finally:
                self.session._unregister_state(state)
        finally:
            self.session._end_run()

    def answer_object(self) -> Relation:
        """``certainO``: the naive answer itself, nulls included (eq. (9)).

        For a three-valued SQL query: the raw 3VL row list (bag semantics).
        """
        with self.session._obs("query.answer_object"):
            if self._is_sql():
                return self.session.sql(self.expression, database=self._database)
            database = self.database
            if database is None:
                # Backend-resident data (out-of-core sessions loaded through
                # Session.load_rows): evaluate directly on the backend.
                return self.session._execute_sqlite(self.expression, None)
            return object_strategy(self.expression, database, self.session._evaluate)

    def knowledge(self):
        """``certainK``: the δ-formula of the naive answer (eq. (10))."""
        self._no_sql("knowledge()")
        # delta() natively supports all three semantics (δ_owa/δ_cwa/δ_wcwa),
        # so the session semantics passes through unchanged.
        with self.session._obs("query.knowledge"):
            return knowledge_strategy(
                self.expression,
                self._require_database(),
                self.session._evaluate,
                semantics=self.session.world_semantics,
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
        for relational algebra it is non-emptiness of the answer.
        ``budget`` caps the enumeration; on expiry
        :class:`~repro.resilience.BudgetExceeded` is raised (a Boolean
        has no sound middle ground to degrade to).
        """
        with self.session._obs("query.boolean"):
            return self._boolean_entry(
                mode, domain, extra_constants, max_extra_facts, budget
            )

    def _boolean_entry(
        self,
        mode: str,
        domain: Optional[Sequence[Any]],
        extra_constants: Optional[int],
        max_extra_facts: int,
        budget: Optional[Budget],
    ) -> bool:
        self._no_sql("boolean()")
        budget = budget if budget is not None else self.session.budget
        self.session._begin_run()
        try:
            if budget is None:
                return self._boolean(mode, domain, extra_constants, max_extra_facts)
            state = budget.start()
            self.session._register_state(state)
            try:
                with budget_scope(state):
                    return self._boolean(mode, domain, extra_constants, max_extra_facts)
            finally:
                self.session._unregister_state(state)
        finally:
            self.session._end_run()

    def _boolean(
        self,
        mode: str,
        domain: Optional[Sequence[Any]],
        extra_constants: Optional[int],
        max_extra_facts: int,
    ) -> bool:
        database = self._require_database()
        evaluate = self._world_evaluator(boolean=True)
        domain = enumeration_domain(self.expression, database, domain, extra_constants)
        if mode == "certain":
            return enumerate_certain_boolean(
                evaluate,
                database,
                semantics=self.session.world_semantics,
                domain=domain,
                extra_constants=extra_constants,
                max_extra_facts=max_extra_facts,
                workers=self.session.workers,
                executor=self.session._worker_executor(),
            )
        if mode == "possible":
            return enumerate_possible_boolean(
                evaluate,
                database,
                semantics=self.session.world_semantics,
                domain=domain,
                extra_constants=extra_constants,
                max_extra_facts=max_extra_facts,
            )
        raise InvalidRequestError(f"unknown mode {mode!r}; expected 'certain' or 'possible'")

    # -- probabilistic answering (semantics="prob") --------------------
    def _require_prob(self, what: str) -> Any:
        self._no_sql(what)
        if self.session.semantics != "prob" or self.session.model is None:
            raise InvalidRequestError(
                f'{what} needs a probabilistic session: '
                "connect(semantics='prob', model=ProbabilityModel(...))"
            )
        if not isinstance(self.expression, RAExpression):
            raise InvalidRequestError(
                f"{what} requires a relational-algebra query; the c-table "
                "engine supplies the lineage conditions"
            )
        return self.session.model

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
        from .datamodel.conditional import And, Condition

        self._require_prob("condition_on()")
        if not isinstance(constraint, Condition):
            raise InvalidRequestError(
                "condition_on() expects a Condition over the model's nulls, "
                f"got {type(constraint).__name__}"
            )
        clone = Query(self.session, self.expression, self._database)
        if self._prob_constraint is None:
            clone._prob_constraint = constraint
        else:
            clone._prob_constraint = And((self._prob_constraint, constraint)).simplify()
        return clone

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
        ``samples`` sampled worlds — their probabilities come back as
        :class:`~repro.resilience.ConfidenceInterval` (flagged
        ``partial``) instead of floats, and :meth:`explain` records the
        verdict; ``on_budget="raise"`` propagates
        :class:`~repro.resilience.BudgetExceeded` instead.  A budget that
        dies before the lineage exists (c-table evaluation itself) always
        raises — with no lineage there is nothing to estimate.
        """
        with self.session._obs("query.confidence"):
            return self._confidence(limit, min_p, budget, on_budget, samples, seed)

    def _confidence(
        self,
        limit: Optional[int],
        min_p: float,
        budget: Optional[Budget],
        on_budget: Optional[str],
        samples: int,
        seed: Optional[int],
    ) -> List[Tuple[Tuple[Any, ...], Any]]:
        from .prob.conditioning import Conditioner
        from .prob.confidence import confidence as exact_confidence
        from .prob.montecarlo import monte_carlo_confidence

        model = self._require_prob("confidence()")
        if limit is not None and limit < 1:
            raise InvalidRequestError(f"limit must be >= 1, got {limit!r}")
        policy = on_budget if on_budget is not None else self.session.on_budget
        if policy not in ("degrade", "raise", "partial"):
            raise InvalidRequestError(
                f"unknown on_budget policy {policy!r}; "
                "expected 'degrade', 'raise' or 'partial'"
            )
        self._resilience_verdict = None
        budget = budget if budget is not None else self.session.budget
        kernel = self.session.kernel
        # Mutable carrier: on a budget overrun the except-branch reads the
        # lineage and the exact prefix computed before the expiry.
        progress: dict = {}

        def run() -> List[Tuple[Tuple[Any, ...], Any]]:
            candidates, constraint = self._prob_lineage(model, kernel)
            progress["candidates"] = candidates
            progress["constraint"] = constraint
            conditioner = (
                Conditioner(constraint, model, kernel)
                if constraint is not None
                else None
            )
            scored: List[Tuple[Tuple[Any, ...], Any]] = []
            progress["scored"] = scored
            for values, lineage in candidates:
                if conditioner is not None:
                    p = conditioner.probability(lineage)
                else:
                    p = exact_confidence(lineage, model, kernel)
                scored.append((values, p))
            return scored

        self.session._begin_run()
        try:
            if budget is None:
                return self._rank_confidence(run(), limit, min_p)
            state = budget.start()
            self.session._register_state(state)
            try:
                with budget_scope(state):
                    return self._rank_confidence(run(), limit, min_p)
            except BudgetExceeded as error:
                resource = error.resource or "budget"
                self.session._metrics.count("budget.expired." + resource)
                if policy == "raise":
                    self._resilience_verdict = (
                        f"budget exceeded ({resource}); on_budget='raise' — "
                        "no estimator ran"
                    )
                    raise
                candidates = progress.get("candidates")
                if candidates is None:
                    # Lineage construction itself blew the budget: no
                    # conditions exist to sample, so degrading is impossible.
                    self._resilience_verdict = (
                        f"budget exceeded ({resource}) during c-table lineage "
                        "construction — nothing to estimate; raised"
                    )
                    raise
                scored = list(progress.get("scored", ()))
                constraint = progress.get("constraint")
                verdict = (
                    f"budget exceeded ({resource}); "
                    f"{len(candidates) - len(scored)} of {len(candidates)} "
                    f"answers degraded to Monte Carlo ({samples} samples)"
                )
                self.session._metrics.count("degrade.monte_carlo")
                # Estimation runs outside the expired budget: a fixed
                # sample count is polynomial, the overrun bounded.
                for index in range(len(scored), len(candidates)):
                    values, lineage = candidates[index]
                    estimate = monte_carlo_confidence(
                        lineage,
                        model,
                        samples=samples,
                        seed=None if seed is None else seed + index,
                        given=constraint,
                        verdict=verdict,
                        resource=error.resource,
                    )
                    scored.append((values, estimate))
                self._resilience_verdict = verdict
                return self._rank_confidence(scored, limit, min_p)
            finally:
                self.session._unregister_state(state)
        finally:
            self.session._end_run()

    def _prob_lineage(
        self, model: Any, kernel: ConditionKernel
    ) -> Tuple[List[Tuple[Tuple[Any, ...], Any]], Optional[Any]]:
        """Ground answer tuples with their lineage conditions, plus the
        effective conditioning constraint (``None`` when trivial).

        The c-table engine supplies one conditional row per derivation;
        rows carrying nulls *in the tuple itself* are grounded by
        enumerating the joint outcomes of those nulls' groups (each
        outcome pins the nulls with equality atoms conjoined onto the
        row's condition).  Derivations of the same ground tuple are
        OR-ed.  Deterministic: candidates come back in first-derivation
        order.
        """
        from .algebra.ctable_algebra import CTableDatabase
        from .datamodel.conditional import FalseCondition, TrueCondition
        from .datamodel.valuation import Valuation
        from .resilience import active_budget

        database = self._require_database()
        model.require(database.nulls())
        ctable = self.session.evaluate_ctable(
            self.expression, CTableDatabase.from_database(database)
        )
        state = active_budget()
        lineages: dict = {}
        order: List[Tuple[Any, ...]] = []

        def add(values: Tuple[Any, ...], lineage: Any) -> None:
            bucket = lineages.get(values)
            if bucket is None:
                lineages[values] = [lineage]
                order.append(values)
            else:
                bucket.append(lineage)

        for row in ctable.rows:
            condition = kernel.intern(row.condition)
            value_nulls = sorted(
                {v for v in row.values if is_null(v)}, key=lambda n: n.name
            )
            if not value_nulls:
                if not isinstance(condition, FalseCondition):
                    add(row.values, condition)
                continue
            # Ground the tuple: one candidate per distinct restriction of
            # the involved groups' joint outcomes to the tuple's nulls.
            seen: set = set()
            for assignment, _probability in model.joint_outcomes(value_nulls):
                if state is not None:
                    state.tick_world()
                restricted = tuple(assignment[n] for n in value_nulls)
                if restricted in seen:
                    continue
                seen.add(restricted)
                valuation = Valuation(dict(zip(value_nulls, restricted)))
                values = valuation.apply_row(row.values)
                pins = [kernel.eq(n, v) for n, v in zip(value_nulls, restricted)]
                lineage = kernel.conjunction([condition, *pins])
                if not isinstance(lineage, FalseCondition):
                    add(values, lineage)

        candidates: List[Tuple[Tuple[Any, ...], Any]] = []
        for values in order:
            bucket = lineages[values]
            lineage = bucket[0] if len(bucket) == 1 else kernel.disjunction(bucket)
            candidates.append((values, lineage))
        self.session._metrics.count("prob.confidence.candidates", len(candidates))

        parts = []
        global_condition = kernel.intern(ctable.global_condition)
        if not isinstance(global_condition, TrueCondition):
            parts.append(global_condition)
        if self._prob_constraint is not None:
            constraint = kernel.intern(self._prob_constraint)
            if not isinstance(constraint, TrueCondition):
                parts.append(constraint)
        if not parts:
            return candidates, None
        effective = parts[0] if len(parts) == 1 else kernel.conjunction(parts)
        return candidates, effective

    @staticmethod
    def _rank_confidence(
        scored: List[Tuple[Tuple[Any, ...], Any]],
        limit: Optional[int],
        min_p: float,
    ) -> List[Tuple[Tuple[Any, ...], Any]]:
        # Zero-probability derivations (a lineage the model rules out) are
        # not answers in any retained world; they never surface.
        kept = [
            (values, p)
            for values, p in scored
            if float(p) > 0.0 and float(p) >= min_p
        ]
        kept.sort(key=lambda item: (-float(item[1]), tuple(str(v) for v in item[0])))
        return kept if limit is None else kept[:limit]

    # -- introspection -------------------------------------------------
    def explain(self, analyze: bool = False) -> str:
        """A unified, human-readable account of how this query would run.

        Sections: the certain-answer method ``certain()`` would pick, the
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
        text = self.session._explain(self.expression, self.database)
        if analyze:
            text += "\n" + self.analyze().render()
        if self._resilience_verdict is not None:
            text += f"\nresilience: {self._resilience_verdict}"
        return text

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
        import time as _time

        self._no_sql("analyze()")
        if not isinstance(self.expression, RAExpression):
            raise InvalidRequestError(
                "analyze() requires a relational-algebra query; first-order "
                "queries are evaluated by satisfaction, without a plan"
            )
        database = self._require_database()
        engine = self.session.engine
        with self.session._obs("query.analyze"):
            if engine == "sqlite":
                report = self.session._analyze_sqlite(self.expression, database)
                if report is not None:
                    return report
            notes: List[str] = []
            if engine == "sqlite":
                notes.append(
                    "plan outside the SQL fragment (or not runnable on this "
                    "backend); analyzed on the in-memory plan engine instead"
                )
            elif engine == "interpreter":
                notes.append(
                    "interpreter engine has no operator tree; analyzed on the "
                    "plan engine (same logical plan, different executor)"
                )
            t0 = _time.perf_counter()
            relation, root = self.session.plan_cache.analyze(self.expression, database)
            seconds = _time.perf_counter() - t0
            return AnalyzeReport(
                "plan", len(relation), seconds, root=root, notes=notes
            )

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
        if batch_size < 1:
            raise InvalidRequestError(f"batch_size must be >= 1, got {batch_size!r}")
        # The entry scope covers cursor *construction* (planning, backend
        # statement start); consumption is counted per batch by the Cursor.
        metrics = self.session._metrics
        with self.session._obs("query.cursor"):
            if self._is_sql():
                rows = self.session.sql(
                    self.expression, database=self._database, certain=certain
                )
                return Cursor(iter(rows), batch_size, metrics=metrics)
            expression = self.expression
            if certain and not naive_evaluation_applies(
                expression,
                semantics=applicability_semantics(self.session.world_semantics),
            ):
                rows: Iterable[Tuple[Any, ...]] = iter(self._certain(
                    "auto", None, None, 1, None, None, None
                ).rows)
                return Cursor(iter(rows), batch_size, metrics=metrics)
            stream: Iterator[Tuple[Any, ...]]
            if self.session.engine == "sqlite" and isinstance(expression, RAExpression):
                stream = self.session._stream_sqlite(
                    expression, self.database, batch_size
                )
            else:
                stream = iter(self.answer_object().rows)
            if certain:
                stream = (row for row in stream if not any(is_null(v) for v in row))
            return Cursor(stream, batch_size, metrics=metrics)


class Session:
    """One caller's private evaluation context over incomplete databases.

    Create through :func:`repro.connect`.  All evaluation state — plan
    cache, condition kernel, backend connections — is owned by the
    session; see the module docstring for the full story.
    """

    def __init__(
        self,
        database: Optional[Database] = None,
        *,
        engine: str = "plan",
        semantics: str = "cwa",
        model: Optional[Any] = None,
        workers: Optional[int] = None,
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

        if engine not in _engine_names():
            raise InvalidRequestError(
                f"unknown engine {engine!r}; expected one of {_engine_names()}"
            )
        if semantics not in _SEMANTICS:
            raise InvalidRequestError(
                f"unknown semantics {semantics!r}; expected one of {_SEMANTICS}"
            )
        if on_budget not in ("degrade", "raise", "partial"):
            raise InvalidRequestError(
                f"unknown on_budget policy {on_budget!r}; "
                "expected 'degrade', 'raise' or 'partial'"
            )
        if database is not None and not isinstance(database, Database):
            raise TypeError(
                f"connect() expects a Database (or None), got {type(database).__name__}"
            )
        if retry_policy is not None and not isinstance(retry_policy, RetryPolicy):
            raise TypeError(
                f"retry_policy must be a RetryPolicy, got {type(retry_policy).__name__}"
            )
        if semantics == "prob":
            from .prob import ProbabilityModel

            if model is None:
                raise InvalidRequestError(
                    'semantics="prob" needs a probability model: '
                    "connect(semantics='prob', model=ProbabilityModel(...))"
                )
            if not isinstance(model, ProbabilityModel):
                raise TypeError(
                    f"model must be a ProbabilityModel, got {type(model).__name__}"
                )
        elif model is not None:
            raise InvalidRequestError(
                f'model= is only meaningful with semantics="prob", '
                f"not {semantics!r}"
            )
        self.database = database
        self.model = model
        #: The engine queries run on (``"plan"``, ``"interpreter"``, ``"sqlite"``).
        self.engine = engine
        self.semantics = semantics
        self.workers = workers
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
        self.kernel = ConditionKernel(watermark=kernel_watermark, memo_limit=kernel_memo_limit)
        self.plan_cache = PlanCache(kernel=self.kernel, metrics=self._metrics)
        self._backend: Optional[Any] = None          # sentinel-mode SQLiteBackend
        self._backend_database: Optional[Database] = None
        self._sql3vl_backend: Optional[Any] = None   # three-valued SQLiteBackend
        self._sql3vl_database: Optional[Database] = None
        self._backend_recovery_warned = False
        self._lock = threading.RLock()
        # Armed budget states of in-flight queries, for Session.cancel().
        # Guarded by a dedicated lock (never the RLock: cancel() must not
        # block behind a query thread holding the backend lock).
        self._active_states: List[BudgetState] = []
        self._states_lock = threading.Lock()
        # The session-held process pool for workers= fan-outs, built
        # lazily on first use and reused across certain()/boolean() calls
        # (rebuilding a pool per call costs a fork per worker per query).
        # The shared multiprocessing.Event is planted in every child via
        # the pool initializer; Session.cancel() sets it, and the chunk
        # loops check it per world, so cancel latency is bounded by the
        # check cadence instead of the chunk runtime.
        self._executor: Optional[ProcessPoolExecutor] = None
        self._executor_lock = threading.Lock()
        self._cancel_event: Optional[Any] = None
        # In-flight run counter: the cancel event is cleared when a run
        # begins on an idle session, so one cancel() cannot poison the
        # next, unrelated query.
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        self._frozen = False
        self._closed = False

    # ------------------------------------------------------------------
    # configuration
    # ------------------------------------------------------------------
    @property
    def world_semantics(self) -> str:
        """The possible-world semantics evaluation strategies quantify over.

        ``semantics="prob"`` is a *probability layer on top of* the
        closed-world possible-world space: a pc-table's worlds are the
        valuations of its nulls (no open-world fact invention), so
        certain/possible/boolean modes on a prob session evaluate under
        CWA while ``confidence()`` adds the measure.
        """
        return "cwa" if self.semantics == "prob" else self.semantics

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

    def _obs(self, name: str) -> Any:
        """The entry scope arming this session's tracer + registry as ambient.

        Every public ``Query`` mode opens one of these; when the tracer is
        ``None`` and metrics are disabled it is a shared no-op object, so
        the disabled path costs two attribute reads and a branch.
        """
        return entry_scope(self._tracer, self._metrics, name)

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
        from .sqlnulls.engine import SQLEngine
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
        if self.engine == "sqlite":
            return self._sql3vl_execute(query, database)
        return SQLEngine(database).execute(query)

    def evaluate_ctable(self, expression: RAExpression, database: Any):
        """Evaluate an RA expression over a c-table database.

        Runs the planned conditional-row path with *this session's* plan
        cache and condition kernel (``engine="interpreter"`` sessions run
        the seed tree-walking algebra,
        :func:`repro.algebra.ctable_evaluate`, instead).
        """
        from .algebra.ctable_algebra import ctable_evaluate
        from .engine.ctable import execute_ctable

        if self.engine == "interpreter":
            return ctable_evaluate(expression, database)
        return execute_ctable(
            expression, database, plan_cache=self.plan_cache, kernel=self.kernel
        )

    # ------------------------------------------------------------------
    # the session-held worker pool
    # ------------------------------------------------------------------
    def _ensure_cancel_event(self) -> Any:
        """The shared cancel flag, created once (before any pool inherits it)."""
        event = self._cancel_event
        if event is None:
            event = multiprocessing.Event()
            self._cancel_event = event
        return event

    def _worker_executor(self) -> Optional[ProcessPoolExecutor]:
        """The session's warm process pool, or ``None`` when workers <= 1.

        Built lazily, reused across every ``certain()``/``boolean()``
        fan-out of this session, shut down in :meth:`close`.  A pool whose
        children died (``BrokenProcessPool``) is replaced on the next
        call; the evaluation that hit the breakage has already degraded to
        sequential on its own.
        """
        if self.workers is None or self.workers <= 1:
            return None
        with self._executor_lock:
            executor = self._executor
            if executor is not None and getattr(executor, "_broken", False):
                executor.shutdown(wait=False, cancel_futures=True)
                executor = None
                self._metrics.count("workers.pool_rebuilds")
            if executor is None:
                executor = ProcessPoolExecutor(
                    max_workers=self.workers,
                    initializer=_pool_initializer,
                    initargs=(self._ensure_cancel_event(),),
                )
                self._executor = executor
            return executor

    def _begin_run(self) -> None:
        with self._inflight_lock:
            if self._inflight == 0:
                event = self._cancel_event
                if event is not None:
                    event.clear()
            self._inflight += 1

    def _end_run(self) -> None:
        with self._inflight_lock:
            self._inflight -= 1

    # ------------------------------------------------------------------
    # cancellation
    # ------------------------------------------------------------------
    def _register_state(self, state: BudgetState) -> None:
        with self._states_lock:
            self._active_states.append(state)

    def _unregister_state(self, state: BudgetState) -> None:
        with self._states_lock:
            try:
                self._active_states.remove(state)
            except ValueError:  # pragma: no cover - double unregister
                pass

    def cancel(self) -> None:
        """Cancel every in-flight evaluation of this session, from any thread.

        Three levers, pulled together:

        * every *armed budget* of an in-flight ``certain()`` /
          ``possible()`` / ``boolean()`` call is flagged, so the next
          cooperative check point (a world tick, a c-table operator row,
          a backend progress-handler callback) raises
          :class:`~repro.resilience.QueryCancelled` in the query's thread;
        * each live backend connection gets a thread-safe
          ``interrupt()``, aborting even a single long-running SQL
          statement mid-flight;
        * the shared cancel event of the session's ``workers=`` pool is
          set, so in-flight *children* raise ``QueryCancelled`` at their
          next per-world check instead of finishing their chunk — cancel
          latency is bounded by the check cadence, not the chunk runtime.

        ``QueryCancelled`` is deliberately not a ``BudgetExceeded``: a
        cancelled query never enters the degradation ladder — it stops.
        Queries running without a budget are interrupted on the backend
        but, by the documented "no budget means no overhead" contract,
        have no cooperative check points in the in-memory engines.
        Idempotent; a session with nothing running is a no-op.
        """
        with self._states_lock:
            states = list(self._active_states)
        for state in states:
            state.cancel()
        event = self._cancel_event
        if event is not None:
            event.set()
        for backend in (self._backend, self._sql3vl_backend):
            if backend is not None:
                try:
                    backend.interrupt()
                except Exception:  # noqa: BLE001 - cancel must never throw
                    pass

    # ------------------------------------------------------------------
    # evaluation plumbing
    # ------------------------------------------------------------------
    def _evaluate(self, query: QueryLike, database: Database) -> Relation:
        """Evaluate ``query`` on ``database`` with this session's state."""
        if self._closed:
            raise SessionClosedError("session is closed")
        if isinstance(query, FOQuery):
            return query.evaluate(database)
        engine = self.engine
        if engine == "plan":
            return self.plan_cache.execute(query, database)
        if engine == "interpreter":
            return query._interpret(database)
        return self._execute_sqlite(query, database)

    def _recover_backend_failure(
        self, error: BaseException, database: Optional[Database]
    ) -> Database:
        """Decide the fate of an *environmental* backend failure.

        With a :class:`Database` resident in memory the evaluation
        recovers on the in-memory engine (the semantics oracle), warning
        once per session; backend-resident (out-of-core) sessions have
        nothing to recover onto and get :class:`BackendUnavailable`.
        """
        if database is None:
            raise BackendUnavailable(
                f"sqlite backend failed and no in-memory database is resident "
                f"to recover onto: {error}"
            ) from error
        if not self._backend_recovery_warned:
            self._backend_recovery_warned = True
            warnings.warn(
                f"sqlite backend failed ({error}); this session recovered via "
                "the in-memory engine and will keep recovering silently",
                BackendRecoveryWarning,
                stacklevel=4,
            )
        return database

    def _execute_sqlite(
        self, expression: RAExpression, database: Optional[Database]
    ) -> Relation:
        import sqlite3

        from .backends.base import BackendError
        from .backends import sqlite as _sqlite_module

        try:
            # A database the backend cannot store (e.g. NaN) raises a
            # BackendError here and takes the same fallback.
            backend = self._ensure_backend(database)
            # Retries live here (not inside the backend) so wrapper-level
            # injected faults exercise the same path real SQLITE_BUSY does.
            return with_retries(
                functools.partial(
                    backend.evaluate, expression, plan_cache=self.plan_cache
                ),
                policy=self.retry_policy,
            )
        except BackendError:
            if database is None:
                raise
            # Outside the SQL fragment (or a compile-time failure): the
            # quiet, by-design fallback — no warning, the backend is fine.
            self._metrics.count("backend.fallbacks.fragment")
            return self.plan_cache.execute(expression, database)
        except sqlite3.Error as error:
            if isinstance(error, sqlite3.OperationalError) and _sqlite_module._is_engine_limit(error):
                if database is None:
                    raise
                self._metrics.count("backend.fallbacks.engine_limit")
                return self.plan_cache.execute(expression, database)
            if _sqlite_module.is_runtime_failure(error):
                self._metrics.count("backend.recoveries")
                return self.plan_cache.execute(
                    expression, self._recover_backend_failure(error, database)
                )
            raise

    def _stream_sqlite(
        self,
        expression: RAExpression,
        database: Optional[Database],
        batch_size: int,
    ) -> Iterator[Tuple[Any, ...]]:
        from .backends.base import BackendError

        import sqlite3

        from .backends import sqlite as _sqlite_module

        if (
            self._frozen
            and database is not None
            and database is not self._backend_database
        ):
            return iter(self.plan_cache.execute(expression, database).rows)
        backend = self._ensure_backend(database)

        def _start() -> Tuple[Iterator[Tuple[Any, ...]], Any]:
            # A retry re-creates the generator: the faulted one already ran
            # its teardown when the first next() raised.
            stream = backend.execute_cursor(
                expression, self.plan_cache, batch_size=batch_size
            )
            return stream, next(stream, _SENTINEL)

        try:
            plan_iter, first = with_retries(_start, policy=self.retry_policy)
        except BackendError:
            if database is None:
                raise
            # Outside the SQL fragment: fall back to the in-memory engine
            # (materializes — the fragment has no streaming path).
            self._metrics.count("backend.fallbacks.fragment")
            return iter(self.plan_cache.execute(expression, database).rows)
        except sqlite3.Error as error:
            if isinstance(error, sqlite3.OperationalError) and _sqlite_module._is_engine_limit(error):
                if database is None:
                    raise
                self._metrics.count("backend.fallbacks.engine_limit")
                return iter(self.plan_cache.execute(expression, database).rows)
            if _sqlite_module.is_runtime_failure(error):
                self._metrics.count("backend.recoveries")
                return iter(
                    self.plan_cache.execute(
                        expression, self._recover_backend_failure(error, database)
                    ).rows
                )
            raise
        if first is _SENTINEL:
            return iter(())
        return _stream_rest(first, plan_iter)

    def _analyze_sqlite(
        self, expression: RAExpression, database: Optional[Database]
    ) -> Optional[AnalyzeReport]:
        """The SQLite side of :meth:`Query.analyze`, or ``None`` to fall back.

        Runs the compiled plan statement by statement, timing each one and
        counting the rows of every temp-table spill (the out-of-core
        intermediates).  ``None`` means the plan cannot run here — outside
        the SQL fragment, or a spilling plan on a frozen backend — and the
        caller should analyze on the in-memory engine instead.
        """
        import re
        import sqlite3
        import time as _time

        from .backends.base import BackendError

        if (
            self._frozen
            and database is not None
            and database is not self._backend_database
        ):
            return None
        try:
            backend = self._ensure_backend(database)
            plan, out_schema = backend._plan_for(expression, self.plan_cache)
        except (BackendError, sqlite3.Error):
            return None
        statements: List[dict] = []
        spills: dict = {}
        cursor = backend._connection.cursor()
        t0 = _time.perf_counter()
        try:
            try:
                for statement, params in plan.setup:
                    s0 = _time.perf_counter()
                    cursor.execute(statement, params)
                    elapsed = _time.perf_counter() - s0
                    statements.append(
                        {
                            "kind": "setup",
                            "sql": " ".join(statement.split()),
                            "seconds": elapsed,
                        }
                    )
                    match = re.match(
                        r"CREATE TEMP(?:ORARY)? TABLE (\"[^\"]+\"|\S+)", statement
                    )
                    if match is not None:
                        name = match.group(1)
                        count = cursor.execute(
                            f"SELECT COUNT(*) FROM {name}"
                        ).fetchone()[0]
                        spills[name.strip('"')] = count
                s0 = _time.perf_counter()
                rows = cursor.execute(plan.query, plan.params).fetchall()
                statements.append(
                    {
                        "kind": "query",
                        "sql": " ".join(plan.query.split()),
                        "seconds": _time.perf_counter() - s0,
                    }
                )
            except sqlite3.Error:
                return None
        finally:
            backend._teardown(cursor, plan)
        seconds = _time.perf_counter() - t0
        decode_row = backend.codec.decode_row
        distinct = frozenset(decode_row(row) for row in rows)
        return AnalyzeReport(
            "sqlite", len(distinct), seconds, statements=statements, spills=spills
        )

    def _ensure_backend(self, database: Optional[Database]) -> Any:
        """The session's sentinel-mode backend, loaded with ``database``.

        Keeps one live handle: a new database with the same schema refills
        the existing tables (persistent backend — indexes and the
        connection survive); a different schema rebuilds the DDL on the
        same connection.
        """
        from .backends.sqlite import SQLiteBackend

        if self._closed:
            raise SessionClosedError("session is closed")
        if self._frozen:
            # Lock-free fast path: a frozen session's backend never changes
            # again, so concurrent readers take no lock at all.
            backend = self._backend
            if backend is None:
                raise InvalidRequestError(
                    "frozen session has no backend; freeze() a session after "
                    "its backend is loaded (engine='sqlite' with a database)"
                )
            if database is not None and database is not self._backend_database:
                raise InvalidRequestError(
                    "frozen session cannot switch databases; open a mutable "
                    "session for per-query database overrides"
                )
            return backend
        with self._lock:
            if self._backend is None:
                self._backend = SQLiteBackend(self.backend_path)
                if database is not None:
                    self._backend.load_database(database)
                    self._backend_database = database
            elif database is not None and database is not self._backend_database:
                # Crash-consistent switch (single transaction inside the
                # backend): a failed refill leaves the *old* database
                # loaded, and `_backend_database` deliberately only moves
                # forward after it succeeds.
                with_retries(
                    functools.partial(self._backend.replace_database, database),
                    policy=self.retry_policy,
                )
                self._backend_database = database
            return self._backend

    def _sql3vl_execute(self, query: Any, database: Database) -> List[Tuple[Any, ...]]:
        from .backends.encoding import SQLNullCodec
        from .backends.sqlite import SQLiteBackend
        from .sqlnulls.backend import compile_select
        from .sqlnulls.engine import SQLError

        if self._frozen:
            backend = self._sql3vl_backend
            if backend is None or database is not self._sql3vl_database:
                raise InvalidRequestError(
                    "frozen session has no three-valued backend for this "
                    "database; run the sql() query once before freeze(), or "
                    "use a mutable session"
                )
            sql, params = compile_select(database, query)
            codec = backend.codec
            try:
                cursor = backend.connection.execute(sql, params)
                return [codec.decode_row(row) for row in cursor]
            except Exception as error:
                if isinstance(error, SQLError):
                    raise
                raise SQLError(f"sqlite execution failed: {error}") from error
        with self._lock:
            if self._closed:
                raise SessionClosedError("session is closed")
            if self._sql3vl_backend is None:
                path = self.backend_path
                if path != ":memory:":
                    # A second store on disk: never share the sentinel file.
                    path = path + ".3vl"
                self._sql3vl_backend = SQLiteBackend(path, codec=SQLNullCodec())
                self._sql3vl_backend.load_database(database)
                self._sql3vl_database = database
            elif database is not self._sql3vl_database:
                with_retries(
                    functools.partial(self._sql3vl_backend.replace_database, database),
                    policy=self.retry_policy,
                )
                self._sql3vl_database = database
            backend = self._sql3vl_backend
        sql, params = compile_select(database, query)
        codec = backend.codec
        try:
            cursor = backend.connection.execute(sql, params)
            return [codec.decode_row(row) for row in cursor]
        except Exception as error:
            if isinstance(error, SQLError):
                raise
            raise SQLError(f"sqlite execution failed: {error}") from error

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
        if self.engine != "sqlite":
            raise InvalidRequestError(
                f'backend-resident loading requires engine="sqlite", '
                f"not {self.engine!r}"
            )
        if self._frozen:
            raise InvalidRequestError("cannot create a schema on a frozen session")
        self._ensure_backend(None).create_schema(schema)

    def load_rows(self, name: str, rows: Iterable[Sequence[Any]]) -> int:
        """Stream rows into relation ``name`` of the backend-resident database."""
        if self._frozen:
            raise InvalidRequestError("cannot load rows into a frozen session")
        return self._ensure_backend(None).load_rows(name, rows)

    # ------------------------------------------------------------------
    # explain
    # ------------------------------------------------------------------
    def _explain(self, expression: QueryLike, database: Optional[Database]) -> str:
        from .core.answers import explain_method
        from .engine.logical import explain as explain_logical

        lines: List[str] = [f"query: {expression!r}"]
        engine = self.engine
        lines.append(f"engine: {engine}; semantics: {self.semantics}")
        verdict = explain_method(expression, semantics=self.world_semantics)
        certainty = "naive evaluation" if verdict.applies else "world enumeration"
        lines.append(
            f"certain(): {certainty} — {verdict.reason} (fragment: {verdict.fragment})"
        )
        if self.semantics == "prob" and self.model is not None:
            shape = self.model.stats()
            lines.append(
                "confidence(): exact decomposition over the c-table lineage "
                f"({shape['nulls']} modeled nulls, {shape['groups']} independent "
                f"groups, {shape['blocks']} exclusive blocks); budget overruns "
                "degrade to a Monte Carlo ConfidenceInterval"
            )
        if not isinstance(expression, RAExpression):
            lines.append("plan: n/a (first-order query, evaluated by satisfaction)")
            return "\n".join(lines)
        schema = database.schema if database is not None else self._backend_schema()
        if schema is None:
            lines.append("plan: n/a (no database attached)")
            return "\n".join(lines)
        logical = self.plan_cache.compile(expression, schema)
        lines.append("logical plan:")
        lines.extend("  " + line for line in explain_logical(logical).splitlines())
        if database is not None:
            from .engine.planner import lower

            lines.append("physical plan:")
            lines.extend(
                "  " + line
                for line in _render_physical(lower(logical, database)).splitlines()
            )
        if engine == "sqlite":
            lines.append("sql:")
            lines.extend("  " + line for line in self._explain_sql(logical, database))
        return "\n".join(lines)

    def _backend_schema(self) -> Optional[DatabaseSchema]:
        backend = self._backend
        return backend._schema if backend is not None else None

    def _explain_sql(
        self, logical: Any, database: Optional[Database]
    ) -> List[str]:
        from .backends.base import UnsupportedPlanError
        from .backends.compiler import SQLCompiler
        from .backends.encoding import SentinelCodec
        from .backends.sqlite import _BackendStats

        if database is not None:
            stats: Any = database
        elif self._backend is not None:
            stats = _BackendStats(self._backend)
        else:
            return ["n/a (no database attached)"]
        try:
            plan = SQLCompiler(stats, SentinelCodec()).compile(logical)
        except UnsupportedPlanError as error:
            return [f"n/a (outside the SQL fragment: {error})"]
        lines = [statement for statement, _ in plan.setup]
        lines.append(plan.query)
        return [line for chunk in lines for line in chunk.splitlines()]

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
        so any number of threads can evaluate concurrently *without
        locks* — the property the :mod:`repro.serve` pool relies on to
        let its size exceed the number of backend handles.

        A frozen session still answers ``certain()`` / ``possible()`` /
        ``boolean()`` / ``answer_object()`` / ``cursor()`` on its one
        database, and :meth:`cancel` still works (budget flags, backend
        ``interrupt()`` and the workers cancel event are all thread-safe
        by construction).  What it refuses: switching databases, loading
        rows, ``clear_caches()``.  Queries the warm set did not cover stay
        correct — they recompile per call without populating any cache.
        Freezing is one-way; returns ``self`` for chaining.
        """
        with self._lock:
            if self._closed:
                raise SessionClosedError("session is closed")
            if self._frozen:
                return self
            for query in warm:
                # Warming must populate the caches the serving tier will
                # read: on a prob session that is the lineage plans and
                # the kernel's confidence memo, reached via confidence().
                if self.semantics == "prob":
                    self.query(query).confidence()
                else:
                    self.query(query).certain()
            if self.engine == "sqlite" and self.database is not None:
                self._ensure_backend(self.database)
            self.kernel.freeze()
            self.plan_cache.freeze()
            for backend in (self._backend, self._sql3vl_backend):
                if backend is not None:
                    backend.freeze()
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
        """Close the session's backend connections and worker pool (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            executor = self._executor
            self._executor = None
            if executor is not None:
                executor.shutdown(wait=False, cancel_futures=True)
            for backend in (self._backend, self._sql3vl_backend):
                if backend is not None:
                    backend.close()
            self._backend = None
            self._sql3vl_backend = None
            self._backend_database = None
            self._sql3vl_database = None

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


_SENTINEL = object()


def _stream_rest(
    first: Tuple[Any, ...], rest: Iterator[Tuple[Any, ...]]
) -> Iterator[Tuple[Any, ...]]:
    """Yield ``first`` then drain ``rest``, typing mid-stream backend deaths.

    Once rows have been handed to the consumer the in-memory recovery of
    :meth:`Session._execute_sqlite` is no longer sound (splicing a
    restarted answer could repeat or reorder what was already yielded),
    so an environmental failure here becomes a typed
    :class:`BackendUnavailable` — never a silent wrong answer, never a
    raw driver exception.
    """
    import sqlite3

    yield first
    while True:
        try:
            row = next(rest)
        except StopIteration:
            return
        except sqlite3.Error as error:
            from .backends.sqlite import is_runtime_failure

            if is_runtime_failure(error):
                raise BackendUnavailable(
                    f"sqlite backend died mid-stream after yielding rows: {error}"
                ) from error
            raise
        yield row


def _render_physical(op: Any, indent: int = 0) -> str:
    """Best-effort rendering of a physical operator tree by introspection."""
    pad = "  " * indent
    name = type(op).__name__
    details = []
    children = []
    for klass in type(op).__mro__:
        for attr in getattr(klass, "__slots__", ()):
            if attr in ("key",):
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
def connect(
    database: Optional[Database] = None,
    *,
    engine: str = "plan",
    semantics: str = "cwa",
    model: Optional[Any] = None,
    workers: Optional[int] = None,
    backend_path: str = ":memory:",
    kernel_watermark: Optional[int] = None,
    kernel_memo_limit: Optional[int] = None,
    budget: Optional[Budget] = None,
    on_budget: str = "degrade",
    retry_policy: Optional[RetryPolicy] = None,
    tracer: Optional[Tracer] = None,
    metrics: bool = True,
) -> Session:
    """Open a :class:`Session` owning all of its evaluation state.

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
    workers:
        When > 1, world enumeration fans out over a process pool.
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
    return Session(
        database,
        engine=engine,
        semantics=semantics,
        model=model,
        workers=workers,
        backend_path=backend_path,
        kernel_watermark=kernel_watermark,
        kernel_memo_limit=kernel_memo_limit,
        budget=budget,
        on_budget=on_budget,
        retry_policy=retry_policy,
        tracer=tracer,
        metrics=metrics,
    )
