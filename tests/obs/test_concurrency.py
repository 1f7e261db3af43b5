"""Observability under concurrency: the guarantees the design promises.

* ``workers=`` children evaluate worlds in other *processes*; their
  counters and spans ship back with each chunk and must aggregate
  **exactly** — the parallel run reports the same ``worlds.evaluated``
  as the sequential run, and the chunk spans arrive under
  ``enumerate.chunk`` anchors.
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
# exact aggregation across worker children
# ---------------------------------------------------------------------------
class TestWorkerAggregation:
    def test_worlds_evaluated_matches_sequential_exactly(self):
        database = _database()
        with repro.connect(database) as sequential:
            answer_seq = sequential.query(QUERY).certain(method="enumeration")
            expected = sequential.metrics()["counters"]["worlds.evaluated"]
        assert expected > 0

        with repro.connect(database, workers=2) as parallel:
            answer_par = parallel.query(QUERY).certain(method="enumeration")
            observed = parallel.metrics()["counters"]["worlds.evaluated"]

        assert answer_par == answer_seq
        assert observed == expected, (
            f"parallel run counted {observed} worlds, sequential {expected}"
        )

    def test_chunk_spans_anchor_the_worlds_shipped_back(self):
        tracer = Tracer()
        with repro.connect(_database(), workers=2, tracer=tracer) as session:
            session.query(QUERY).certain(method="enumeration")
            counted = session.metrics()["counters"]["worlds.evaluated"]
        spans = tracer.spans()
        chunks = [s for s in spans if s.name == "enumerate.chunk"]
        worlds = [s for s in spans if s.name == "world.evaluate"]
        (entry,) = [s for s in spans if s.name == "query.certain"]
        assert worlds, "per-world spans must be traced"
        # Every world span hangs either under a chunk anchor (evaluated in
        # a pool child, spans shipped back and absorbed) or directly under
        # the entry span (chunk run locally while the pool was busy).
        chunk_ids = {s.span_id for s in chunks}
        anchored = [s for s in worlds if s.parent_id in chunk_ids]
        local = [s for s in worlds if s.parent_id == entry.span_id]
        assert len(anchored) + len(local) == len(worlds)
        # Chunk anchors account exactly for the worlds they shipped back.
        assert sum(s.attrs["worlds"] for s in chunks) == len(anchored)
        # Nothing went missing in transit: traced worlds == counted worlds.
        assert len(worlds) == counted

    def test_worker_and_sequential_runs_count_enumeration_fallback_equally(self):
        database = _database()
        with repro.connect(database) as sequential:
            sequential.query(DIFF_QUERY).certain(method="enumeration")
            seq_counters = sequential.metrics()["counters"]
        with repro.connect(database, workers=2) as parallel:
            parallel.query(DIFF_QUERY).certain(method="enumeration")
            par_counters = parallel.metrics()["counters"]
        assert (
            par_counters["worlds.evaluated"] == seq_counters["worlds.evaluated"]
        )


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
