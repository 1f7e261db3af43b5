"""Brute-force certain answers by possible-world enumeration.

This module implements the classical, intersection-based definition of
certain answers (paper, eq. (1))::

    certain(Q, D) = ⋂ { Q(D') | D' ∈ [[D]] }

directly, by enumerating the (finitely approximated) set of worlds from
:mod:`repro.semantics.worlds` and intersecting the query answers.  It is
deliberately naive: it serves as the *ground truth* against which the
efficient methods (naive evaluation, ``RA_cwa`` evaluation, c-table
algebra) are validated, and as the "expensive" side of the complexity-shape
benchmarks.  Its cost is exponential in the number of nulls.  A Boolean
query is the 0-ary query it is (:class:`NonEmpty`: ``{()}`` where it
holds, ``{}`` where not), so Boolean certainty is the same intersection
fold — with the same ``workers=`` fan-out — and false when no world
exists, like every other empty intersection.

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
    InvalidRequestError,
    QueryCancelled,
    ResumeToken,
    WorkerPoolError,
    active_budget,
)

Evaluator = Callable[[Database], Relation]
"""A query, abstractly: a function from complete databases to relations."""


def _worlds(
    semantics: Any,
    database: Database,
    domain: Optional[Sequence[Any]],
    extra_constants: Optional[int],
    max_extra_facts: int,
    interchangeable: Sequence[Any] = (),
) -> Iterator[Database]:
    """The worlds of ``database`` under ``semantics``: a name registered in
    :data:`repro.semantics.registry.SEMANTICS`, or its row."""
    from .registry import semantics_named  # the registry imports this module

    return semantics_named(semantics).worlds(
        database, domain, extra_constants, max_extra_facts, interchangeable=interchangeable
    )


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


def _intersect_chunk(
    evaluate: Evaluator, chunk: List[Database], observe: bool = False
) -> Tuple[Tuple[Optional[RelationSchema], Optional[Set[Row]]], Any]:
    """Worker task: intersect the query answers over a chunk of worlds.

    The intersection fold, checking the shared cancel Event before each
    world, so the cancellation latency of a ``workers=`` fan-out is
    bounded by one world's evaluation, not by a whole chunk
    (``_CHUNK_SIZE`` worlds).  ``observe=True`` is how worker *children*
    trace: they cannot share the parent's sink or registry across the
    process boundary, so the chunk runs under a local ring-buffer
    :class:`Tracer` and a local :class:`MetricsRegistry`, and the
    serialized spans + counter deltas travel back with the result (both
    picklable).  The parent absorbs them in :func:`_windowed_chunk_results`.
    """

    def body() -> Tuple[Optional[RelationSchema], Optional[Set[Row]]]:
        running = _Intersection().fold(evaluate, chunk, _check_child_cancelled)
        return running.schema, running.rows

    if not observe:
        return body(), None
    tracer = Tracer()
    registry = MetricsRegistry()
    with obs_scope(tracer, registry):
        payload = body()
    return payload, (serialize_spans(tracer), registry.counters())


def _run_chunk_locally(evaluate: Any, chunk: List[Database]) -> Any:
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

    return _intersect_chunk(attributed, chunk)


def _windowed_chunk_results(
    pool: Any,
    evaluate: Any,
    chunks: Iterable[List[Database]],
    window: int,
    heartbeat: Optional[float] = None,
) -> Iterator[Tuple[Any, int]]:
    """Intersect each chunk's answers over the pool, with bounded in-flight work.

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
                pending.append((pool.submit(_intersect_chunk, evaluate, chunk, observe), chunk))
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
                result = _run_chunk_locally(evaluate, chunk)
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
                    result = _run_chunk_locally(evaluate, chunk)
                except BrokenExecutor:
                    broken = True
                    result = _run_chunk_locally(evaluate, chunk)
                except (WorkerPoolError, QueryCancelled):
                    # A cancelled child is the *requested* outcome of
                    # Session.cancel(), not a chunk failure: re-running the
                    # chunk locally would make cancellation wait for the
                    # whole chunk — exactly the latency bug being fixed.
                    raise
                except Exception:
                    result = _run_chunk_locally(evaluate, chunk)
            yield from emit(result, chunk)
        elif leftover is not None:
            chunk, leftover = leftover, None
            yield from emit(_run_chunk_locally(evaluate, chunk), chunk)
        elif not exhausted:
            # broken before the stream was fully submitted: finish the
            # remaining worlds sequentially in the parent.
            for chunk in chunk_iter:
                yield from emit(_run_chunk_locally(evaluate, chunk), chunk)
            return
        else:
            return


def _evaluated(
    evaluate: Callable[[Any], Any],
    world_iter: Iterable[Any],
    check: Optional[Callable[[], Any]] = None,
) -> Iterator[Any]:
    """``evaluate(world)`` for each world: the one loop over possible worlds.

    Each world first passes ``check`` — by default it ticks the armed
    budget (``max_worlds``, the deadline, ``Session.cancel()``); a worker
    chunk checks the cross-process cancel event instead — then is
    evaluated under a ``world.evaluate`` span and counted in
    ``worlds.evaluated``.  A fold that stops early simply stops pulling,
    so only the worlds it consumed are counted.
    """
    if check is None:
        state = active_budget()
        check = None if state is None else state.tick_world
    registry = current_metrics()
    tracer = current_tracer()
    for world in world_iter:
        if check is not None:
            check()
        if tracer is not None:
            with tracer.span("world.evaluate"):
                answer = evaluate(world)
        else:
            answer = evaluate(world)
        if registry is not None:
            registry.count("worlds.evaluated")
        yield answer


class _Intersection:
    """The running intersection of the answers over the worlds consumed so far."""

    __slots__ = ("schema", "rows", "done")

    def __init__(self, resume: Optional[ResumeToken] = None) -> None:
        self.schema: Optional[RelationSchema] = None
        self.rows: Optional[Set[Row]] = None
        self.done = 0
        if resume is not None:
            self.schema = resume.schema
            self.rows = None if resume.intersection is None else set(resume.intersection)
            self.done = resume.worlds_done

    def add(self, schema: Optional[RelationSchema], rows: Optional[Set[Row]], worlds: int = 1) -> bool:
        """Intersect one answer (or one chunk's intersection) in; ``False`` once empty."""
        self.done += worlds
        if rows is None:
            return True
        if self.schema is None:
            self.schema = schema
        if self.rows is None:
            self.rows = set(rows)
        else:
            self.rows &= rows
        return bool(self.rows)

    def fold(
        self,
        evaluate: Callable[[Any], Relation],
        world_iter: Iterable[Any],
        check: Optional[Callable[[], Any]] = None,
    ) -> "_Intersection":
        """Intersect ``evaluate(world)`` in for each world, stopping once empty."""
        for answer in _evaluated(evaluate, world_iter, check):
            if not self.add(answer.schema, answer.rows):
                break
        return self

    def relation(self, fallback: Callable[[], Relation]) -> Relation:
        """The intersection; with no world at all, the empty answer of ``fallback()``."""
        if self.schema is None or self.rows is None:
            # No world only happens for an empty valuation domain.
            return Relation(fallback().schema, ())
        return Relation(self.schema, self.rows)


def certain_over(evaluate: Callable[[Any], Relation], world_iter: Iterable[Any], fallback: Callable[[], Relation]) -> Relation:
    """``⋂ evaluate(world)`` over ``world_iter``: the intersection fold.

    With no world at all the result is empty, with the schema of
    ``fallback()`` (the query's answer on some stand-in for the source).
    """
    return _Intersection().fold(evaluate, world_iter).relation(fallback)


def possible_over(evaluate: Callable[[Any], Relation], world_iter: Iterable[Any], fallback: Callable[[], Relation]) -> Relation:
    """``⋃ evaluate(world)`` over ``world_iter``: the union fold (``fallback`` as above)."""
    schema: Optional[RelationSchema] = None
    possible: Set[Row] = set()
    for answer in _evaluated(evaluate, world_iter):
        if schema is None:
            schema = answer.schema
        possible |= answer.rows
        if possible and not schema.attributes:
            break  # a 0-ary answer is at most {()}: no world can add to it
    if schema is None:
        schema = fallback().schema
    return Relation(schema, possible)


def space_over(evaluate: Callable[[Any], Any], world_iter: Iterable[Any]) -> Set[Any]:
    """``{evaluate(world)}`` over ``world_iter``: the set of answers."""
    return set(_evaluated(evaluate, world_iter))


_BOOLEAN = RelationSchema("Boolean", ())
_HOLDS = Relation(_BOOLEAN, [()])
_FAILS = Relation(_BOOLEAN, ())


class NonEmpty:
    """A Boolean query as the 0-ary one it is: ``{()}`` where it holds, else ``{}``.

    ``NonEmpty(evaluate)(world)`` is :data:`_HOLDS` when
    ``evaluate(world)`` is truthy (a true Boolean, a non-empty answer),
    so the intersection fold over these answers is Boolean certainty and
    the union fold Boolean possibility.  Picklable when ``evaluate`` is,
    so it crosses to ``workers=`` children.
    """

    __slots__ = ("evaluate",)

    def __init__(self, evaluate: Callable[[Database], Any]) -> None:
        self.evaluate = evaluate

    def __call__(self, world: Database) -> Relation:
        return _HOLDS if self.evaluate(world) else _FAILS


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
    executor: Optional[Any] = None,
    *,
    interchangeable: Sequence[Any] = (),
) -> Relation:
    """Intersection-based certain answers computed by world enumeration.

    Parameters
    ----------
    evaluate:
        The query, as a function from complete databases to relations.
    database:
        The incomplete input database.
    semantics:
        A name registered in :data:`repro.semantics.registry.SEMANTICS`,
        or its row; its worlds are enumerated.
    domain, extra_constants, max_extra_facts:
        Passed to the world enumerators (see :mod:`repro.semantics.worlds`),
        which check them before the first world.
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
        token.  A token that counts the other enumeration (its
        ``interchangeable`` differs) raises
        :class:`~repro.resilience.InvalidRequestError`; otherwise this
        function trusts the token.  Sessions reach it through
        :func:`repro.core.answers.enumeration_strategy`, which also checks
        the token's ``key`` and kernel epoch against the inputs.
    heartbeat:
        Seconds the parent waits on one worker chunk before treating the
        child as hung and degrading to a sequential re-run (default
        :data:`_DEFAULT_HEARTBEAT`).
    executor:
        A *live, caller-owned* pool for the ``workers=`` fan-out, used
        as-is and **never shut down** here: a session's warm pool, or a
        :class:`~repro.backends.faults.FaultInjectingExecutor`.  Without
        one, a ``ProcessPoolExecutor`` is built per call and torn down on
        exit.  Ignored when ``workers`` does not fan out.
    interchangeable:
        Values of the domain the query cannot tell apart: outside the
        database and the query, pairwise distinct.  With at least two,
        only the canonical valuations run (one per renaming of these
        values, :mod:`repro.semantics.worlds`) and answer rows holding one
        of them are dropped; for a generic query (equality-only
        relational algebra, first-order logic) the answer is the same as
        over every valuation.  The default, none, enumerates every
        valuation.

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
    fresh = tuple(interchangeable) if len(interchangeable) >= 2 else ()
    world_iter = _worlds(
        semantics, database, domain, extra_constants, max_extra_facts, interchangeable=fresh
    )
    if resume is not None and tuple(resume.interchangeable) != fresh:
        raise InvalidRequestError(
            "resume token does not match this enumeration: it counts the worlds of "
            f"valuations canonical over {resume.interchangeable!r}, this run's are "
            f"canonical over {fresh!r} (() is every valuation)"
        )
    running = _Intersection(resume)
    if running.done:
        world_iter = itertools.islice(world_iter, running.done, None)
    if running.rows is not None and not running.rows:
        # The interrupted run had already emptied the intersection — the
        # answer is final, no world can add rows back.
        world_iter = iter(())
    try:
        if workers is not None and workers > 1 and _can_pickle(evaluate):
            # A caller's executor is used as-is; a per-call pool is torn down on exit.
            if executor is not None:
                scope = contextlib.nullcontext(executor)
            else:
                scope = ProcessPoolExecutor(workers)
            with scope as pool:
                for (schema, rows), count in _windowed_chunk_results(
                    pool,
                    evaluate,
                    _chunks(world_iter, _CHUNK_SIZE),
                    2 * workers,
                    heartbeat=heartbeat,
                ):
                    if not running.add(schema, rows, count):
                        break  # empty intersection can only stay empty
        else:
            running.fold(evaluate, world_iter)
    except BudgetExceeded as error:
        # Checkpoint the worlds *fully consumed* (a world whose evaluation
        # the budget cut short is not counted and will be re-run).  The
        # running intersection is a superset of the certain answers, so it
        # travels inside the token — never as a result.
        error.resume_token = ResumeToken(
            worlds_done=running.done,
            schema=running.schema,
            intersection=None if running.rows is None else frozenset(running.rows),
            interchangeable=fresh,
        )
        raise
    answer = running.relation(lambda: evaluate(database.complete_part()))
    if fresh and answer.rows:
        # A canonical world stands for all its renamings: a row holding an
        # interchangeable value is not in every renamed answer.
        dropped = set(fresh)
        answer = Relation(answer.schema, [row for row in answer.rows if dropped.isdisjoint(row)])
    return answer



def enumerate_possible_answers(
    evaluate: Evaluator,
    database: Database,
    semantics: str = "cwa",
    domain: Optional[Sequence[Any]] = None,
    extra_constants: Optional[int] = None,
    max_extra_facts: int = 1,
) -> Relation:
    """Union-based *possible* answers (tuples appearing in at least one world)."""
    return possible_over(
        evaluate,
        _worlds(semantics, database, domain, extra_constants, max_extra_facts),
        lambda: evaluate(database.complete_part()),
    )


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
    return space_over(
        lambda world: frozenset(evaluate(world).rows),
        _worlds(semantics, database, domain, extra_constants, max_extra_facts),
    )


def enumerate_certain_boolean(
    evaluate: Callable[[Database], bool],
    database: Database,
    semantics: str = "cwa",
    domain: Optional[Sequence[Any]] = None,
    extra_constants: Optional[int] = None,
    max_extra_facts: int = 1,
    workers: Optional[int] = None,
    heartbeat: Optional[float] = None,
    executor: Optional[Any] = None,
) -> bool:
    """Certain answer of a Boolean query: true iff true in every enumerated world.

    The intersection of :func:`enumerate_certain_answers` over the
    query's 0-ary answers (:class:`NonEmpty`), with its ``workers=``
    fan-out, early stop and options; with no world at all it is false.
    A budget expiry raises without a resume token (a 0-ary checkpoint).
    """
    try:
        return bool(enumerate_certain_answers(
            NonEmpty(evaluate), database, semantics, domain, extra_constants, max_extra_facts,
            workers=workers, heartbeat=heartbeat, executor=executor,
        ))
    except BudgetExceeded as error:
        error.resume_token = None
        raise


def enumerate_possible_boolean(
    evaluate: Callable[[Database], bool],
    database: Database,
    semantics: str = "cwa",
    domain: Optional[Sequence[Any]] = None,
    extra_constants: Optional[int] = None,
    max_extra_facts: int = 1,
) -> bool:
    """Possibility of a Boolean query: true iff true in at least one world."""
    return bool(enumerate_possible_answers(
        NonEmpty(evaluate), database, semantics, domain, extra_constants, max_extra_facts
    ))
