"""``Server``: N async clients over one warmed, frozen session pool.

The serving story (ROADMAP "Concurrent query-service tier"): certain
answers are an expensive read-mostly computation — many cheap concurrent
readers over one compiled, persistent database.  The heavy state (loaded
backend tables, compiled SQL plans, the optimized logical plans, the
hash-consed condition kernel) is built once at construction, frozen, and
then shared by every pool thread without session locks; the asyncio
surface is a thin ``run_in_executor`` dispatch over a bounded thread
pool.

Observability: every dispatch is counted and timed into the frozen
session's :class:`~repro.obs.MetricsRegistry` (``serve.submitted`` /
``serve.completed`` / ``serve.latency`` — queue depth is their
difference), :meth:`Server.stats` merges :meth:`Session.metrics` in, and
when the frozen session has a tracer each request runs under a
``serve.request`` span.  ``run_in_executor`` does *not* propagate
contextvars, so the dispatch captures a ``contextvars`` snapshot and
runs the work inside it — that is what carries the ambient tracer across
the thread-pool boundary.
"""

from __future__ import annotations

import asyncio
import contextvars
import queue
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, AsyncIterator, Iterable, List, Optional, Tuple

from ..datamodel import Database
from ..resilience import (
    Budget,
    InvalidRequestError,
    PoolExhausted,
    RetryPolicy,
    SessionClosedError,
    check_count,
)
from ..session import Session, connect


class Server:
    """An asyncio query service over a pool of sessions on one database.

    Parameters
    ----------
    database:
        The incomplete database every query runs against.  Immutable for
        the server's lifetime — updates mean building a new server (the
        frozen backend refuses ``replace_database``).
    pool_size:
        Number of worker threads answering queries concurrently.  May
        exceed ``backends``: relation-returning reads share the single
        frozen session, so they need no handle of their own.
    engine, semantics, model, budget, on_budget, retry_policy:
        Forwarded to :func:`repro.connect` for every pooled session.
        ``semantics="prob"`` with a :class:`~repro.prob.ProbabilityModel`
        enables :meth:`confidence` on the frozen read path.
    backends:
        Number of *mutable* sessions (each with its own backend handle)
        kept for ``cursor()`` streaming, which pins per-connection cursor
        state and therefore cannot ride the shared frozen handle.
    warm:
        Queries run once before freezing, to populate the shared plan
        cache / condition kernel / compiled-SQL plans.  Serve your hot
        query set here; unwarmed queries stay correct but recompile per
        call.
    backend_path:
        SQLite storage root for ``engine="sqlite"``; cursor sessions get
        ``.s<i>`` suffixed files when it is not ``":memory:"``.
    cursor_timeout:
        Default bound (seconds) on waiting for a free ``backends``
        checkout in :meth:`cursor`.  When it expires the call raises
        :class:`~repro.resilience.PoolExhausted` instead of blocking
        forever behind stuck streams; per-call ``timeout=`` overrides it.
    tracer, metrics:
        Forwarded to :func:`repro.connect` for every pooled session —
        one tracer (if any) sees every request; ``metrics=False`` turns
        the per-session registries off.
    """

    def __init__(
        self,
        database: Database,
        *,
        pool_size: int = 8,
        engine: str = "sqlite",
        semantics: str = "cwa",
        model: Optional[Any] = None,
        backends: int = 2,
        warm: Iterable[Any] = (),
        backend_path: str = ":memory:",
        budget: Optional[Budget] = None,
        on_budget: str = "degrade",
        retry_policy: Optional[RetryPolicy] = None,
        cursor_timeout: Optional[float] = 30.0,
        tracer: Optional[Any] = None,
        metrics: bool = True,
    ) -> None:
        if pool_size < 1:
            raise InvalidRequestError(f"pool_size must be >= 1, got {pool_size!r}")
        if backends < 1:
            raise InvalidRequestError(f"backends must be >= 1, got {backends!r}")
        if cursor_timeout is not None and cursor_timeout <= 0:
            raise InvalidRequestError(
                f"cursor_timeout must be positive (or None for unbounded), "
                f"got {cursor_timeout!r}"
            )
        if not isinstance(database, Database):
            raise TypeError(
                f"Server expects a Database, got {type(database).__name__}"
            )
        self.database = database
        self.pool_size = pool_size
        self.cursor_timeout = cursor_timeout
        session_kwargs = dict(
            engine=engine,
            semantics=semantics,
            model=model,
            budget=budget,
            on_budget=on_budget,
            retry_policy=retry_policy,
            tracer=tracer,
            metrics=metrics,
        )
        # The shared read path: one session, warmed then frozen, serving
        # every relation-returning mode from all pool threads without session
        # locks (SQLite reads take turns on the handle per statement).
        self._frozen = connect(database, backend_path=backend_path, **session_kwargs)
        self._frozen.freeze(warm=warm)
        self._metrics = self._frozen._metrics
        # The streaming path: a small checkout pool of mutable sessions,
        # one backend handle each (a cursor pins connection state for its
        # whole lifetime, so streams cannot share the frozen handle).
        self._cursor_sessions: "queue.Queue[Session]" = queue.Queue()
        self._all_sessions: List[Session] = []
        for index in range(backends):
            path = backend_path
            if path != ":memory:":
                path = f"{path}.s{index}"
            session = connect(database, backend_path=path, **session_kwargs)
            self._cursor_sessions.put(session)
            self._all_sessions.append(session)
        self._pool = ThreadPoolExecutor(
            max_workers=pool_size, thread_name_prefix="repro-serve"
        )
        self._closed = False
        self._served = 0
        self._served_lock = threading.Lock()

    # ------------------------------------------------------------------
    # async dispatch
    # ------------------------------------------------------------------
    def _dispatch(self, fn: Any, kind: str) -> Any:
        """Wrap a pool-thread callable with serve metrics and the request span.

        Returns a zero-argument callable that runs ``fn`` inside a
        ``contextvars`` snapshot of the *submitting* coroutine (asyncio's
        ``run_in_executor`` drops contextvars on the floor otherwise), so
        spans opened in the pool thread still nest correctly.
        """
        ctx = contextvars.copy_context()
        metrics = self._metrics
        tracer = self._frozen._tracer
        metrics.count("serve.submitted")
        submitted = time.perf_counter()

        def run() -> Any:
            metrics.observe("serve.queue_wait", time.perf_counter() - submitted)
            if tracer is None:
                return fn()
            with tracer.span("serve.request", kind=kind):
                return fn()

        def call() -> Any:
            try:
                return ctx.run(run)
            finally:
                metrics.count("serve.completed")
                metrics.observe("serve.latency", time.perf_counter() - submitted)

        return call

    async def _run(self, fn: Any, kind: str) -> Any:
        if self._closed:
            raise SessionClosedError("server is closed")
        loop = asyncio.get_running_loop()
        result = await loop.run_in_executor(self._pool, self._dispatch(fn, kind))
        with self._served_lock:
            self._served += 1
        return result

    async def certain(self, query: Any, **kwargs: Any) -> Any:
        """``await``-able :meth:`repro.session.Query.certain` on the frozen session."""
        return await self._run(
            lambda: self._frozen.query(query).certain(**kwargs), "certain"
        )

    async def possible(self, query: Any, **kwargs: Any) -> Any:
        """``await``-able :meth:`repro.session.Query.possible`."""
        return await self._run(
            lambda: self._frozen.query(query).possible(**kwargs), "possible"
        )

    async def boolean(self, query: Any, **kwargs: Any) -> bool:
        """``await``-able :meth:`repro.session.Query.boolean`."""
        return await self._run(
            lambda: self._frozen.query(query).boolean(**kwargs), "boolean"
        )

    async def confidence(self, query: Any, **kwargs: Any) -> Any:
        """``await``-able :meth:`repro.session.Query.confidence`.

        Requires the server to be built with ``semantics="prob"`` and a
        ``model=``.  Confidence queries on the frozen session read the
        memo warmed before freezing and memoize new work per call, so
        they stay lock-free across the pool.
        """
        return await self._run(
            lambda: self._frozen.query(query).confidence(**kwargs), "confidence"
        )

    async def answer_object(self, query: Any) -> Any:
        """``await``-able :meth:`repro.session.Query.answer_object`."""
        return await self._run(
            lambda: self._frozen.query(query).answer_object(), "answer_object"
        )

    async def knowledge(self, query: Any) -> Any:
        """``await``-able :meth:`repro.session.Query.knowledge`."""
        return await self._run(
            lambda: self._frozen.query(query).knowledge(), "knowledge"
        )

    async def explain(self, query: Any) -> str:
        """``await``-able :meth:`repro.session.Query.explain`."""
        return await self._run(
            lambda: self._frozen.query(query).explain(), "explain"
        )

    def _checkout_cursor_session(self, timeout: Optional[float]) -> Session:
        """Blocking checkout of a streaming session, bounded by ``timeout``."""
        try:
            if timeout is None:
                return self._cursor_sessions.get()
            return self._cursor_sessions.get(timeout=timeout)
        except queue.Empty:
            self._metrics.count("serve.cursor_timeouts")
            raise PoolExhausted(
                f"no cursor session became free within {timeout:g}s "
                f"({len(self._all_sessions)} backends, all streaming); raise "
                "backends=, shorten streams, or pass a longer timeout=",
                timeout=timeout,
            ) from None

    async def cursor(
        self,
        query: Any,
        batch_size: int = 1024,
        certain: bool = False,
        timeout: Optional[float] = None,
    ) -> AsyncIterator[List[Tuple[Any, ...]]]:
        """Stream the answer rows as an async iterator of batches.

        Checks a mutable session out of the ``backends`` pool (awaiting
        one if all are streaming), pulls each batch through the thread
        pool, and returns the session when the stream ends — including
        when the consumer abandons the generator early, so an interrupted
        client cannot leak a backend handle or a temp table.

        The checkout wait is bounded: after ``timeout`` seconds (default
        the server's ``cursor_timeout``, itself defaulting to 30 s)
        :class:`~repro.resilience.PoolExhausted` is raised instead of
        blocking forever behind stuck streams.  ``timeout=None`` falls
        back to the server default; an unbounded wait needs a server
        constructed with ``cursor_timeout=None``.
        """
        if self._closed:
            raise SessionClosedError("server is closed")
        check_count("batch_size", batch_size, 1)
        if timeout is not None and timeout <= 0:
            raise InvalidRequestError(
                f"timeout must be positive (or None for the server default), "
                f"got {timeout!r}"
            )
        effective = timeout if timeout is not None else self.cursor_timeout
        loop = asyncio.get_running_loop()
        session = await loop.run_in_executor(
            self._pool, lambda: self._checkout_cursor_session(effective)
        )
        self._metrics.count("serve.submitted")
        submitted = time.perf_counter()
        try:
            cur = await loop.run_in_executor(
                self._pool,
                lambda: session.query(query).cursor(
                    batch_size=batch_size, certain=certain
                ),
            )
            try:
                while True:
                    batch = await loop.run_in_executor(self._pool, cur.fetchmany)
                    if not batch:
                        break
                    yield batch
            finally:
                await loop.run_in_executor(self._pool, cur.close)
        finally:
            self._cursor_sessions.put(session)
            self._metrics.count("serve.completed")
            self._metrics.observe("serve.latency", time.perf_counter() - submitted)
            with self._served_lock:
                self._served += 1

    # ------------------------------------------------------------------
    # control plane
    # ------------------------------------------------------------------
    def cancel(self) -> None:
        """Cancel every in-flight query, on every pooled session.

        Thread-safe and callable from any thread or coroutine; delegates
        to :meth:`repro.session.Session.cancel` on the frozen session and
        on each cursor session (budget flags and backend ``interrupt()``).
        """
        self._frozen.cancel()
        for session in self._all_sessions:
            session.cancel()

    def stats(self) -> dict:
        """A snapshot of the server's shape, traffic counters and metrics.

        ``metrics`` is the frozen session's :meth:`Session.metrics`
        snapshot (the cursor sessions each keep their own, readable via
        their sessions); ``queue_depth`` is submitted-minus-completed —
        requests currently waiting or running.
        """
        submitted = self._metrics.counter_value("serve.submitted")
        completed = self._metrics.counter_value("serve.completed")
        return {
            "pool_size": self.pool_size,
            "backends": len(self._all_sessions),
            "cursor_sessions_idle": self._cursor_sessions.qsize(),
            "served": self._served,
            "queue_depth": submitted - completed,
            "closed": self._closed,
            "metrics": self._frozen.metrics(),
        }

    def close(self) -> None:
        """Shut down the thread pool and close every session (idempotent).

        Queued-but-unstarted work is dropped; in-flight calls finish
        (pair with :meth:`cancel` first for a fast stop).
        """
        if self._closed:
            return
        self._closed = True
        self._pool.shutdown(wait=True, cancel_futures=True)
        self._frozen.close()
        for session in self._all_sessions:
            session.close()

    async def aclose(self) -> None:
        """Async :meth:`close` (the shutdown itself runs off-loop)."""
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self.close)

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def frozen_session(self) -> Session:
        """The shared frozen session (read-only; mainly for tests/diagnostics)."""
        return self._frozen

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    async def __aenter__(self) -> "Server":
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.aclose()
