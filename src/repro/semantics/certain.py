"""Brute-force certain answers by possible-world enumeration.

This module implements the classical, intersection-based definition of
certain answers (paper, eq. (1))::

    certain(Q, D) = ⋂ { Q(D') | D' ∈ [[D]] }

directly, by enumerating the (finitely approximated) set of worlds from
:mod:`repro.semantics.worlds` and intersecting the query answers.  It is
deliberately naive: it serves as the *ground truth* against which the
efficient methods (naive evaluation, ``RA_cwa`` evaluation, c-table
algebra) are validated, and as the "expensive" side of the complexity-shape
benchmarks.  Its cost is exponential in the number of nulls.

Two properties this module guarantees beyond the definition:

* **Deterministic total order.**  The world enumerators visit worlds in a
  fixed order (nulls sorted by name, domains sorted, extra-fact pools in
  schema order — see :mod:`repro.semantics.worlds`), and the ``workers=``
  fan-out consumes chunk results strictly in submission order.  A plain
  count of consumed worlds is therefore a valid *checkpoint*: an
  interrupted enumeration can resume by skipping that many worlds
  (``resume=`` below, carried by
  :class:`~repro.resilience.ResumeToken`).
* **Fault containment.**  With ``workers=``, children that die
  (``BrokenProcessPool``), hang (heartbeat timeout) or fail degrade the
  run to a sequential re-run of the affected chunks; answers stay
  identical to ``workers=None``.
"""

from __future__ import annotations

import contextlib
import itertools
import pickle
from collections import deque
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor, TimeoutError as FutureTimeoutError
from typing import Any, Callable, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from ..datamodel import Database, Relation
from ..datamodel.relations import Row
from ..datamodel.schema import RelationSchema
from ..obs.metrics import MetricsRegistry, current_metrics
from ..obs.trace import Tracer, current_tracer, obs_scope, serialize_spans
from ..resilience import (
    BudgetExceeded,
    QueryCancelled,
    ResumeToken,
    WorkerPoolError,
    active_budget,
)
from .worlds import cwa_worlds, owa_worlds, worlds

Evaluator = Callable[[Database], Relation]
"""A query, abstractly: a function from complete databases to relations."""

#: Worlds handed to each worker task; large enough to amortize submission
#: overhead, small enough to keep all workers busy on modest world counts.
_CHUNK_SIZE = 16

#: How long the parent waits on one chunk result before declaring the
#: child *hung* and re-running the chunk sequentially.  A chunk is
#: ``_CHUNK_SIZE`` single-world query evaluations — 30 s of silence means
#: a deadlocked or livelocked child, not a slow one.  An armed deadline
#: always tightens this bound.
_DEFAULT_HEARTBEAT = 30.0


def _chunks(iterable: Iterable[Any], size: int) -> Iterable[List[Any]]:
    iterator = iter(iterable)
    while True:
        chunk = list(itertools.islice(iterator, size))
        if not chunk:
            return
        yield chunk


def _can_pickle(value: Any) -> bool:
    try:
        pickle.dumps(value)
    except Exception:  # noqa: BLE001 - any pickling failure means "sequential"
        return False
    return True


#: Cancellation flag installed in worker children by :func:`_pool_initializer`.
#: ``multiprocessing`` synchronization primitives cannot travel as task
#: arguments (they only pickle during process inheritance), so the shared
#: Event arrives at executor construction time and lands in this module
#: global; the chunk tasks poll it between worlds.  ``None`` — per-call
#: pools, and the sequential path — means "no cross-process cancellation".
_child_cancel_event: Optional[Any] = None

#: The plan cache of a worker child, built by :func:`_pool_initializer`.
#: Always ``None`` in the parent process, which evaluates on state its
#: caller owns.
_child_plan_cache: Optional[Any] = None


def _pool_initializer(cancel_event: Any) -> None:
    """Executor ``initializer``: plant the cancel Event and a plan cache in the child."""
    global _child_cancel_event, _child_plan_cache
    from ..engine.planner import PlanCache

    _child_cancel_event = cancel_event
    _child_plan_cache = PlanCache()


def _check_child_cancelled() -> None:
    event = _child_cancel_event
    if event is not None and event.is_set():
        raise QueryCancelled("worker chunk cancelled by Session.cancel()")


def _observed_chunk(
    body: Callable[[], Any], observe: bool
) -> Tuple[Any, Optional[Tuple[List[dict], dict]]]:
    """Run a chunk body, optionally under fresh local obs instruments.

    ``observe=True`` is how worker *children* trace: they cannot share
    the parent's sink or registry across the process boundary, so the
    chunk runs under a local ring-buffer :class:`Tracer` and a local
    :class:`MetricsRegistry`, and the serialized spans + counter deltas
    travel back with the result (both picklable).  The parent absorbs
    them in :func:`_windowed_chunk_results`.
    """
    if not observe:
        return body(), None
    tracer = Tracer()
    registry = MetricsRegistry()
    with obs_scope(tracer, registry):
        payload = body()
    return payload, (serialize_spans(tracer), registry.counters())


def _intersect_chunk(
    evaluate: Evaluator, chunk: List[Database], observe: bool = False
) -> Tuple[Tuple[Optional[RelationSchema], Optional[Set[Row]]], Any]:
    """Worker task: intersect the query answers over a chunk of worlds.

    Checks the shared cancel Event between worlds, so the cancellation
    latency of a ``workers=`` fan-out is bounded by one world's
    evaluation, not by a whole chunk (``_CHUNK_SIZE`` worlds).
    """

    def body() -> Tuple[Optional[RelationSchema], Optional[Set[Row]]]:
        registry = current_metrics()
        tracer = current_tracer()
        schema: Optional[RelationSchema] = None
        certain: Optional[Set[Row]] = None
        for world in chunk:
            _check_child_cancelled()
            if tracer is not None:
                with tracer.span("world.evaluate"):
                    answer = evaluate(world)
            else:
                answer = evaluate(world)
            if registry is not None:
                registry.count("worlds.evaluated")
            if schema is None:
                schema = answer.schema
            if certain is None:
                certain = set(answer.rows)
            else:
                certain &= answer.rows
        return schema, certain

    return _observed_chunk(body, observe)


def _all_hold_chunk(
    evaluate: Callable[[Database], bool], chunk: List[Database], observe: bool = False
) -> Tuple[bool, Any]:
    """Worker task: ``True`` iff the Boolean query holds in every chunk world."""

    def body() -> bool:
        registry = current_metrics()
        tracer = current_tracer()
        result = True
        for world in chunk:
            _check_child_cancelled()
            if tracer is not None:
                with tracer.span("world.evaluate"):
                    holds = evaluate(world)
            else:
                holds = evaluate(world)
            if registry is not None:
                registry.count("worlds.evaluated")
            if not holds:
                result = False
                break
        return result

    return _observed_chunk(body, observe)


def _run_chunk_locally(task: Callable[..., Any], evaluate: Any, chunk: List[Database]) -> Any:
    """Re-run a failed chunk in the parent, attributing per-world failures.

    This is both the recovery path (a chunk whose child died takes the
    sequential road) and the blame path: when the failure is
    deterministic, re-running world by world identifies the culprit and
    raises :class:`WorkerPoolError` with that world attached.
    """

    def attributed(world: Database) -> Any:
        try:
            return evaluate(world)
        except Exception as error:
            raise WorkerPoolError(
                f"world evaluation failed deterministically: {error}", world=world
            ) from error

    return task(attributed, chunk)


def _windowed_chunk_results(
    pool: Any,
    task: Callable[..., Any],
    evaluate: Any,
    chunks: Iterable[List[Database]],
    window: int,
    heartbeat: Optional[float] = None,
) -> Iterator[Tuple[Any, int]]:
    """Run ``task(evaluate, chunk)`` over the pool with bounded in-flight work.

    World enumeration is exponential in the number of nulls, so the chunk
    stream must never be materialized: at most ``window`` chunks are
    submitted ahead of the consumer, and abandoning the iterator (early
    exit) leaves only that window to drain.  Results are yielded as
    ``(result, worlds_in_chunk)`` pairs, strictly in world order — that
    order is what makes the consumer's running world count a valid
    resumption checkpoint.

    Failure behavior (each future keeps its chunk alongside, so failed
    work is never lost):

    * A broken pool (child SIGKILLed, ``BrokenProcessPool`` — whether
      raised from ``submit`` or from a result) degrades the run to
      sequential: the popped chunk, every pending chunk and the
      unsubmitted remainder are re-run in the parent, *without* waiting
      on the pool's remaining futures (a broken pool's futures may never
      resolve).  Answers stay identical to ``workers=None``.
    * A chunk whose result does not arrive within ``heartbeat`` seconds
      (default :data:`_DEFAULT_HEARTBEAT`) is treated as a *hung* child —
      alive but deadlocked, which ``BrokenProcessPool`` never reports —
      and the run degrades to sequential the same way.
    * A genuine exception from a child re-runs its chunk locally too — if
      the local run succeeds the failure was child-environmental (OOM
      kill during unpickling, ...) and the result is used; if it fails
      again it raises :class:`WorkerPoolError` naming the world.
    * An armed budget bounds the wait for each result by the remaining
      deadline (tighter than the heartbeat when both apply) and counts
      worlds chunk by chunk — *after* each chunk is yielded, so a budget
      that expires mid-run still banks the chunk it just consumed (an
      interrupted-then-resumed run always makes progress; the world count
      may overshoot ``max_worlds`` by up to one chunk, as documented on
      :class:`~repro.resilience.Budget`).
    """
    window = max(2, window)
    if heartbeat is None:
        heartbeat = _DEFAULT_HEARTBEAT
    state = active_budget()
    registry = current_metrics()
    tracer = current_tracer()
    # Children trace/count into local instruments and ship the data back
    # with the result; only ask them to when someone here is listening.
    observe = registry is not None or tracer is not None
    pending: "deque" = deque()
    chunk_iter = iter(chunks)
    exhausted = False
    broken = False
    leftover: Optional[List[Database]] = None

    def emit(result: Any, chunk: List[Database]) -> Iterator[Tuple[Any, int]]:
        payload, obs = result
        if obs is not None:
            spans, counts = obs
            if tracer is not None and spans:
                chunk_span = tracer.record("enumerate.chunk", worlds=len(chunk))
                tracer.absorb(spans, chunk_span.span_id)
            if registry is not None:
                registry.merge_counts(counts)
        yield payload, len(chunk)
        if state is not None:
            state.tick_world(len(chunk))

    while True:
        while not broken and not exhausted and len(pending) < window:
            chunk = next(chunk_iter, None)
            if chunk is None:
                exhausted = True
                break
            try:
                pending.append((pool.submit(task, evaluate, chunk, observe), chunk))
            except BrokenExecutor:
                # The pool noticed a dead child at submission time; the
                # chunk must wait its turn behind the pending ones so the
                # world order (and with it the checkpoint) stays intact.
                broken = True
                leftover = chunk
        if pending:
            future, chunk = pending.popleft()
            if broken:
                # Futures of a broken/hung pool may never resolve: do not
                # wait another heartbeat per future, re-run right away.
                future.cancel()
                result = _run_chunk_locally(task, evaluate, chunk)
            else:
                timeout = heartbeat
                if state is not None:
                    remaining = state.remaining_time()
                    if remaining is not None and remaining < timeout:
                        timeout = max(0.0, remaining)
                try:
                    result = future.result(timeout=timeout)
                except FutureTimeoutError:
                    future.cancel()
                    if state is not None:
                        remaining = state.remaining_time()
                        if remaining is not None and remaining <= 0:
                            raise BudgetExceeded(
                                "deadline expired waiting for worker results",
                                resource="deadline",
                            ) from None
                    # The deadline is fine but the heartbeat tripped: the
                    # child hung without dying.  Degrade to sequential.
                    broken = True
                    result = _run_chunk_locally(task, evaluate, chunk)
                except BrokenExecutor:
                    broken = True
                    result = _run_chunk_locally(task, evaluate, chunk)
                except (WorkerPoolError, QueryCancelled):
                    # A cancelled child is the *requested* outcome of
                    # Session.cancel(), not a chunk failure: re-running the
                    # chunk locally would make cancellation wait for the
                    # whole chunk — exactly the latency bug being fixed.
                    raise
                except Exception:
                    result = _run_chunk_locally(task, evaluate, chunk)
            yield from emit(result, chunk)
        elif leftover is not None:
            chunk, leftover = leftover, None
            yield from emit(_run_chunk_locally(task, evaluate, chunk), chunk)
        elif not exhausted:
            # broken before the stream was fully submitted: finish the
            # remaining worlds sequentially in the parent.
            for chunk in chunk_iter:
                yield from emit(_run_chunk_locally(task, evaluate, chunk), chunk)
            return
        else:
            return


def enumerate_certain_answers(
    evaluate: Evaluator,
    database: Database,
    semantics: str = "cwa",
    domain: Optional[Sequence[Any]] = None,
    extra_constants: Optional[int] = None,
    max_extra_facts: int = 1,
    workers: Optional[int] = None,
    resume: Optional[ResumeToken] = None,
    heartbeat: Optional[float] = None,
    pool_factory: Optional[Callable[[int], Any]] = None,
    executor: Optional[Any] = None,
) -> Relation:
    """Intersection-based certain answers computed by world enumeration.

    Parameters
    ----------
    evaluate:
        The query, as a function from complete databases to relations.
    database:
        The incomplete input database.
    semantics:
        ``'cwa'`` or ``'owa'``.
    domain, extra_constants, max_extra_facts:
        Passed to the world enumerators; see :mod:`repro.semantics.worlds`.
    workers:
        When > 1, fan the per-world query evaluations out over a process
        pool in chunks — each world is an independent complete database,
        so this is embarrassingly parallel, and the engine's plan cache
        amortizes planning per worker.  Requires a picklable ``evaluate``
        (e.g. the bound ``evaluate`` method of an ``RAExpression``); a
        non-picklable query falls back to the sequential path.  Chunks
        are submitted through a bounded window (never materializing the
        exponential world stream), and an empty running intersection
        stops the enumeration after at most the in-flight window.
    resume:
        A :class:`~repro.resilience.ResumeToken` from a previous,
        budget-interrupted run over the *same* inputs: the first
        ``resume.worlds_done`` worlds are skipped (the enumeration order
        is deterministic) and the running intersection is seeded from the
        token.  Callers are responsible for checking the token's ``key``
        against the inputs — this function trusts it.
    heartbeat:
        Seconds the parent waits on one worker chunk before treating the
        child as hung and degrading to a sequential re-run (default
        :data:`_DEFAULT_HEARTBEAT`).
    pool_factory:
        Replaces ``ProcessPoolExecutor`` for the ``workers=`` fan-out —
        the injection point for pool-level chaos tests
        (:class:`~repro.backends.faults.FaultInjectingExecutor`).
    executor:
        A *live, caller-owned* pool for the ``workers=`` fan-out.  Unlike
        ``pool_factory`` (which creates a pool per call and tears it down
        on exit) the executor is used as-is and **never shut down** here —
        this is how :class:`~repro.session.Session` amortizes one warm
        ``ProcessPoolExecutor`` across ``certain()``/``boolean()`` calls
        instead of paying pool startup per call.  Ignored when ``workers``
        does not fan out; takes precedence over ``pool_factory``.

    Returns
    -------
    Relation
        The relation of tuples present in the answer over *every*
        enumerated world.  The schema is taken from the first answer.

    When an armed budget expires mid-run, the raised
    :class:`~repro.resilience.BudgetExceeded` carries a
    :class:`~repro.resilience.ResumeToken` (``error.resume_token``)
    checkpointing the worlds fully consumed, so the caller can continue
    instead of restarting.  With ``workers=`` the checkpoint is
    chunk-granular: in-flight chunks are simply re-evaluated on resume.
    """
    world_iter = worlds(
        database,
        semantics=semantics,
        domain=domain,
        extra_constants=extra_constants,
        max_extra_facts=max_extra_facts,
    )

    answer_schema = None
    certain: Optional[Set[Row]] = None
    done = 0
    if resume is not None:
        done = resume.worlds_done
        answer_schema = resume.schema
        certain = None if resume.intersection is None else set(resume.intersection)
        if done:
            world_iter = itertools.islice(world_iter, done, None)
        if certain is not None and not certain:
            # The interrupted run had already emptied the intersection —
            # the answer is final, no world can add rows back.
            world_iter = iter(())
    try:
        if workers is not None and workers > 1 and _can_pickle(evaluate):
            if executor is not None:
                pool_scope: Any = contextlib.nullcontext(executor)
            else:
                if pool_factory is None:
                    pool_factory = lambda n: ProcessPoolExecutor(max_workers=n)  # noqa: E731
                pool_scope = pool_factory(workers)
            with pool_scope as pool:
                for (chunk_schema, chunk_certain), chunk_worlds in _windowed_chunk_results(
                    pool,
                    _intersect_chunk,
                    evaluate,
                    _chunks(world_iter, _CHUNK_SIZE),
                    2 * workers,
                    heartbeat=heartbeat,
                ):
                    done += chunk_worlds
                    if chunk_schema is None or chunk_certain is None:
                        continue
                    if answer_schema is None:
                        answer_schema = chunk_schema
                    if certain is None:
                        certain = chunk_certain
                    else:
                        certain &= chunk_certain
                    if not certain:
                        break  # empty intersection can only stay empty
        else:
            state = active_budget()
            registry = current_metrics()
            tracer = current_tracer()
            for world in world_iter:
                if state is not None:
                    state.tick_world()
                if tracer is not None:
                    with tracer.span("world.evaluate"):
                        answer = evaluate(world)
                else:
                    answer = evaluate(world)
                if registry is not None:
                    registry.count("worlds.evaluated")
                if answer_schema is None:
                    answer_schema = answer.schema
                if certain is None:
                    certain = set(answer.rows)
                else:
                    certain &= answer.rows
                done += 1
                if not certain:
                    break
    except BudgetExceeded as error:
        # Checkpoint the worlds *fully consumed* (a world whose evaluation
        # the budget cut short is not counted and will be re-run).  The
        # running intersection is a superset of the certain answers, so it
        # travels inside the token — never as a result.
        error.resume_token = ResumeToken(
            worlds_done=done,
            schema=answer_schema,
            intersection=None if certain is None else frozenset(certain),
        )
        raise
    if answer_schema is None or certain is None:
        # No worlds at all only happens for an empty valuation domain;
        # evaluate on the database itself to obtain the answer schema.
        answer = evaluate(database.complete_part())
        return Relation(answer.schema, ())
    return Relation(answer_schema, certain)


def enumerate_possible_answers(
    evaluate: Evaluator,
    database: Database,
    semantics: str = "cwa",
    domain: Optional[Sequence[Any]] = None,
    extra_constants: Optional[int] = None,
    max_extra_facts: int = 1,
) -> Relation:
    """Union-based *possible* answers (tuples appearing in at least one world)."""
    answer_schema = None
    possible: Set[Row] = set()
    state = active_budget()
    registry = current_metrics()
    for world in worlds(
        database,
        semantics=semantics,
        domain=domain,
        extra_constants=extra_constants,
        max_extra_facts=max_extra_facts,
    ):
        if state is not None:
            state.tick_world()
        if registry is not None:
            registry.count("worlds.evaluated")
        answer = evaluate(world)
        if answer_schema is None:
            answer_schema = answer.schema
        possible |= answer.rows
    if answer_schema is None:
        answer = evaluate(database.complete_part())
        return Relation(answer.schema, ())
    return Relation(answer_schema, possible)


def answer_space(
    evaluate: Evaluator,
    database: Database,
    semantics: str = "cwa",
    domain: Optional[Sequence[Any]] = None,
    extra_constants: Optional[int] = None,
    max_extra_facts: int = 1,
) -> Set[frozenset]:
    """The set ``Q([[D]])`` of answers over all enumerated worlds.

    Each answer is returned as a frozen set of rows, so the result is a set
    of sets — the object that strong representation systems must capture
    exactly (paper, eq. (2)).
    """
    space: Set[frozenset] = set()
    for world in worlds(
        database,
        semantics=semantics,
        domain=domain,
        extra_constants=extra_constants,
        max_extra_facts=max_extra_facts,
    ):
        space.add(frozenset(evaluate(world).rows))
    return space


def enumerate_certain_boolean(
    evaluate: Callable[[Database], bool],
    database: Database,
    semantics: str = "cwa",
    domain: Optional[Sequence[Any]] = None,
    extra_constants: Optional[int] = None,
    max_extra_facts: int = 1,
    workers: Optional[int] = None,
    heartbeat: Optional[float] = None,
    pool_factory: Optional[Callable[[int], Any]] = None,
    executor: Optional[Any] = None,
) -> bool:
    """Certain answer of a Boolean query: true iff true in every enumerated world.

    ``workers`` parallelizes the per-world checks over a process pool in
    chunks, like :func:`enumerate_certain_answers` (``heartbeat``,
    ``pool_factory`` and the caller-owned ``executor`` behave as they do
    there); early exit then happens per chunk rather than per world.
    """
    world_iter = worlds(
        database,
        semantics=semantics,
        domain=domain,
        extra_constants=extra_constants,
        max_extra_facts=max_extra_facts,
    )
    if workers is not None and workers > 1 and _can_pickle(evaluate):
        if executor is not None:
            pool_scope: Any = contextlib.nullcontext(executor)
        else:
            if pool_factory is None:
                pool_factory = lambda n: ProcessPoolExecutor(max_workers=n)  # noqa: E731
            pool_scope = pool_factory(workers)
        with pool_scope as pool:
            for result, _ in _windowed_chunk_results(
                pool,
                _all_hold_chunk,
                evaluate,
                _chunks(world_iter, _CHUNK_SIZE),
                2 * workers,
                heartbeat=heartbeat,
            ):
                if not result:
                    return False
        return True
    state = active_budget()
    registry = current_metrics()
    for world in world_iter:
        if state is not None:
            state.tick_world()
        if registry is not None:
            registry.count("worlds.evaluated")
        if not evaluate(world):
            return False
    return True


def enumerate_possible_boolean(
    evaluate: Callable[[Database], bool],
    database: Database,
    semantics: str = "cwa",
    domain: Optional[Sequence[Any]] = None,
    extra_constants: Optional[int] = None,
    max_extra_facts: int = 1,
) -> bool:
    """Possibility of a Boolean query: true iff true in at least one world."""
    state = active_budget()
    registry = current_metrics()
    for world in worlds(
        database,
        semantics=semantics,
        domain=domain,
        extra_constants=extra_constants,
        max_extra_facts=max_extra_facts,
    ):
        if state is not None:
            state.tick_world()
        if registry is not None:
            registry.count("worlds.evaluated")
        if evaluate(world):
            return True
    return False
