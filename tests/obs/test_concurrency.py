"""Observability under concurrency: the guarantees the design promises.

* World enumeration accounts **exactly**: one ``world.evaluate`` span
  per world counted in ``worlds.evaluated``, each under the entry span.
* Frozen sessions are hammered from 8 threads: per-thread shards mean
  no lost increments (the counter equals the exact number of calls)
  and no cross-session leakage (an idle session's registry stays
  empty).
* The serve tier bounds its cursor checkout: an exhausted backend pool
  raises :class:`repro.PoolExhausted` instead of blocking forever, and
  ``Server.stats()`` carries the frozen session's metrics.
"""

import asyncio
import threading

import pytest

import repro
from repro import Database, Null, PoolExhausted, Tracer
from repro.algebra import parse_ra
from repro.serve import Server

QUERY = parse_ra("project[#0](R)")
DIFF_QUERY = parse_ra("diff(project[#0](R), project[#0](S))")


def _database():
    return Database.from_dict(
        {
            "R": [(1, 2), (2, 3), (3, 4), (Null("x"), 5)],
            "S": [(2, 0), (Null("y"), 1)],
        }
    )


# ---------------------------------------------------------------------------
# exact world accounting
# ---------------------------------------------------------------------------
class TestWorldAccounting:
    @pytest.mark.parametrize("query", [QUERY, DIFF_QUERY], ids=["project", "diff"])
    def test_traced_worlds_equal_counted_worlds(self, query):
        tracer = Tracer()
        with repro.connect(_database(), tracer=tracer) as session:
            session.query(query).certain(method="enumeration")
            counted = session.metrics()["counters"]["worlds.evaluated"]
        spans = tracer.spans()
        worlds = [s for s in spans if s.name == "world.evaluate"]
        (entry,) = [s for s in spans if s.name == "query.certain"]
        assert counted > 0
        assert len(worlds) == counted
        # Every world is evaluated in the fold under the entry span.
        assert all(s.parent_id == entry.span_id for s in worlds)


# ---------------------------------------------------------------------------
# frozen-session hammering
# ---------------------------------------------------------------------------
class TestFrozenSessionThreads:
    THREADS = 8
    CALLS_PER_THREAD = 25

    def test_no_lost_increments_and_no_leakage(self):
        database = _database()
        session = repro.connect(database, engine="sqlite")
        bystander = repro.connect(database, engine="sqlite")
        session.freeze(warm=[QUERY])
        errors = []
        barrier = threading.Barrier(self.THREADS)

        def hammer():
            try:
                barrier.wait(timeout=10)
                for _ in range(self.CALLS_PER_THREAD):
                    session.query(QUERY).certain()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(self.THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors

        counters = session.metrics()["counters"]
        expected = self.THREADS * self.CALLS_PER_THREAD
        # The warm-up ran the query once before freezing.
        assert counters["query.certain"] == expected + 1
        histogram = session.metrics()["histograms"]["query.certain.seconds"]
        assert histogram["count"] == expected + 1

        # The bystander session observed nothing: registries are
        # per-session state, not process globals.
        assert bystander.metrics()["counters"] == {}
        session.close()
        bystander.close()

    def test_shards_survive_thread_exit(self):
        session = repro.connect(_database())
        def work():
            session.query(QUERY).certain()
        thread = threading.Thread(target=work)
        thread.start()
        thread.join()
        # The recording thread is gone; its counts must not be.
        assert session.metrics()["counters"]["query.certain"] == 1
        session.close()


# ---------------------------------------------------------------------------
# serve tier: bounded cursor checkout + merged metrics
# ---------------------------------------------------------------------------
class TestServeObservability:
    def test_cursor_checkout_times_out_with_pool_exhausted(self):
        async def scenario():
            async with Server(_database(), backends=1, cursor_timeout=5.0) as server:
                held = server.cursor(QUERY, batch_size=1)
                await held.__anext__()  # pins the only backend session
                starved = server.cursor(QUERY, timeout=0.05)
                with pytest.raises(PoolExhausted) as info:
                    await starved.__anext__()
                assert info.value.timeout == pytest.approx(0.05)
                assert isinstance(info.value, repro.ReproError)
                await held.aclose()
                # The session went back to the pool: the next stream works.
                rows = [
                    row
                    async for batch in server.cursor(QUERY, timeout=1.0)
                    for row in batch
                ]
                assert rows
                return server.stats()

        stats = asyncio.run(scenario())
        assert stats["metrics"]["counters"]["serve.cursor_timeouts"] == 1

    def test_invalid_timeouts_are_rejected(self):
        async def scenario():
            async with Server(_database(), backends=1) as server:
                with pytest.raises(repro.InvalidRequestError):
                    await server.cursor(QUERY, timeout=-1).__anext__()

        asyncio.run(scenario())
        with pytest.raises(repro.InvalidRequestError):
            Server(_database(), cursor_timeout=0)

    def test_stats_merge_frozen_session_metrics(self):
        async def scenario():
            async with Server(_database(), pool_size=4) as server:
                await asyncio.gather(*(server.certain(QUERY) for _ in range(6)))
                return server.stats()

        stats = asyncio.run(scenario())
        counters = stats["metrics"]["counters"]
        assert counters["serve.submitted"] == 6
        assert counters["serve.completed"] == 6
        assert stats["queue_depth"] == 0
        assert counters["query.certain"] == 6
        latency = stats["metrics"]["histograms"]["serve.latency"]
        assert latency["count"] == 6
        assert latency["min"] >= 0

    def test_serve_requests_trace_across_the_thread_pool(self):
        tracer = Tracer()

        async def scenario():
            async with Server(_database(), pool_size=2, tracer=tracer) as server:
                await server.certain(QUERY)
                await server.boolean(QUERY)

        asyncio.run(scenario())
        spans = {s.name: s for s in tracer.spans()}
        assert "serve.request" in spans
        requests = [s for s in tracer.spans() if s.name == "serve.request"]
        assert {s.attrs["kind"] for s in requests} == {"certain", "boolean"}
        # Entry spans opened in pool threads nest under their request span.
        request_ids = {s.span_id for s in requests}
        entries = [
            s for s in tracer.spans() if s.name in ("query.certain", "query.boolean")
        ]
        assert entries
        assert all(s.parent_id in request_ids for s in entries)
