"""The session-held worker pool, fan-out cancellation, and the
content-digest fingerprint cache — the three PR-8 bugfixes.

* ``workers=`` used to rebuild a ``ProcessPoolExecutor`` on *every*
  ``certain()``/``boolean()`` call; a Session now holds one warm pool,
  reuses it across calls, replaces it only when broken, and shuts it
  down in ``close()``.  Callers without a session (the deprecated
  shims' road) still get the per-call pool fallback.
* ``Session.cancel()`` used to wait for in-flight chunks: a chunk of 16
  slow worlds ran to completion before the pool noticed.  The shared
  ``multiprocessing.Event`` is now checked per *world* in the children,
  so cancel latency is bounded by one world, not one chunk.
* ``ResumeToken`` fingerprinting used to hash the full database contents
  O(rows) on every stamp; the digest is now computed once per Database
  and cached (immutability makes invalidation unnecessary).
"""

import multiprocessing
import pickle
import threading
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

import repro
from repro import Budget, Database, Null, PartialResult, QueryCancelled
from repro.algebra import parse_ra
from repro.semantics.certain import _pool_initializer, enumerate_certain_answers

QUERY = parse_ra("project[#0](R)")


def _database():
    return Database.from_dict({"R": [(1,), (2,), (3,), (Null("x"),)]})


# ---------------------------------------------------------------------------
# Module-level evaluators: picklable, runnable inside pool children.
# ---------------------------------------------------------------------------
def _evaluate_world(world):
    return QUERY.evaluate(world)


SLOW_WORLD_SECONDS = 0.5


def _slow_evaluate_world(world):
    # A deliberately slow per-world evaluation: a 16-world chunk of these
    # takes ~8 s, so a cancel that "waits for the chunk" is unmistakable.
    time.sleep(SLOW_WORLD_SECONDS)
    return _evaluate_world(world)


# ---------------------------------------------------------------------------
# the session-held executor
# ---------------------------------------------------------------------------
class TestSessionExecutor:
    def test_executor_is_reused_across_calls(self):
        with repro.connect(_database(), workers=2) as session:
            first = session._worker_executor()
            assert first is not None
            assert session._worker_executor() is first
            query = session.query(QUERY)
            a = query.certain(method="enumeration")
            b = query.certain(method="enumeration")
            assert a == b
            assert session._worker_executor() is first  # no per-call rebuild

    def test_no_executor_without_workers(self):
        with repro.connect(_database()) as session:
            assert session._worker_executor() is None
        with repro.connect(_database(), workers=1) as session:
            assert session._worker_executor() is None

    def test_broken_executor_is_replaced(self):
        with repro.connect(_database(), workers=2) as session:
            first = session._worker_executor()
            first._broken = "simulated child massacre"
            second = session._worker_executor()
            assert second is not first
            with pytest.raises(RuntimeError):
                first.submit(int)  # the broken pool was shut down
            assert session.query(QUERY).certain(method="enumeration") is not None

    def test_close_shuts_the_executor_down(self):
        session = repro.connect(_database(), workers=2)
        executor = session._worker_executor()
        session.close()
        assert session._executor is None
        with pytest.raises(RuntimeError):
            executor.submit(int)

    def test_per_call_pool_fallback_without_a_session(self, monkeypatch):
        """Sessionless callers without ``executor=`` build — and tear
        down — one pool per call."""
        import repro.semantics.certain as certain_module

        built, shut = [], []

        class CountedPool(ProcessPoolExecutor):
            def __init__(self, workers):
                built.append(workers)
                super().__init__(max_workers=workers)

            def shutdown(self, *args, **kwargs):
                shut.append(self)
                super().shutdown(*args, **kwargs)

        monkeypatch.setattr(certain_module, "ProcessPoolExecutor", CountedPool)
        database = _database()
        expected = enumerate_certain_answers(_evaluate_world, database)
        for _ in range(2):
            answer = enumerate_certain_answers(_evaluate_world, database, workers=2)
            assert answer == expected
        assert built == [2, 2]
        assert len(shut) == 2


# ---------------------------------------------------------------------------
# fan-out cancellation
# ---------------------------------------------------------------------------
class TestFanOutCancellation:
    def test_cancel_does_not_wait_for_the_running_chunk(self):
        """Six slow worlds land in one chunk (~3 s of child runtime); the
        cancel event must abort it after at most one world."""
        database = Database.from_dict(
            {"R": [(1,), (2,), (3,), (4,), (5,), (6,), (Null("x"),)]}
        )
        event = multiprocessing.Event()
        chunk_seconds = 6 * SLOW_WORLD_SECONDS
        with ProcessPoolExecutor(
            max_workers=2, initializer=_pool_initializer, initargs=(event,)
        ) as pool:
            timer = threading.Timer(SLOW_WORLD_SECONDS / 2, event.set)
            timer.start()
            started = time.monotonic()
            try:
                with pytest.raises(QueryCancelled):
                    enumerate_certain_answers(
                        _slow_evaluate_world, database, workers=2, executor=pool
                    )
                elapsed = time.monotonic() - started
            finally:
                timer.cancel()
        # Bounded by the check cadence (one world + margin), not the chunk.
        assert elapsed < chunk_seconds - SLOW_WORLD_SECONDS, elapsed

    def test_session_cancel_interrupts_inflight_fanout(self, monkeypatch):
        """``Session.cancel()`` from another thread aborts a running
        ``workers=`` enumeration mid-chunk."""
        import repro.session as session_module

        monkeypatch.setattr(
            session_module._WorldEvaluator, "__call__", _patched_slow_world_call
        )
        database = Database.from_dict(
            {"R": [(1,), (2,), (3,), (4,), (5,), (6,), (Null("x"),)]}
        )
        outcome = {}
        with repro.connect(database, workers=2) as session:

            def run():
                started = time.monotonic()
                try:
                    session.query(QUERY).certain(method="enumeration")
                    outcome["result"] = "completed"
                except QueryCancelled:
                    outcome["result"] = "cancelled"
                outcome["seconds"] = time.monotonic() - started

            thread = threading.Thread(target=run)
            thread.start()
            time.sleep(SLOW_WORLD_SECONDS)  # let the fan-out get in flight
            session.cancel()
            thread.join(timeout=30)
            assert not thread.is_alive()
        assert outcome["result"] == "cancelled"
        # Six slow worlds per chunk: completion would need ~3 s of child
        # time; cancellation must beat the chunk by at least one world.
        assert outcome["seconds"] < 6 * SLOW_WORLD_SECONDS - SLOW_WORLD_SECONDS

    def test_cancel_event_is_cleared_for_the_next_run(self):
        """A cancelled session is not poisoned: the next query runs."""
        with repro.connect(_database(), workers=2) as session:
            session.cancel()  # sets the event with nothing in flight
            answer = session.query(QUERY).certain(method="enumeration")
            assert {(1,), (2,), (3,)} <= set(answer.rows)


def _patched_slow_world_call(self, world):
    time.sleep(SLOW_WORLD_SECONDS)
    return self.query.evaluate(world)


# ---------------------------------------------------------------------------
# the content-digest fingerprint cache
# ---------------------------------------------------------------------------
class TestContentDigestCache:
    def _counting(self, monkeypatch):
        calls = []
        original = Database._compute_content_digest

        def counted(db):
            calls.append(db)
            return original(db)

        monkeypatch.setattr(Database, "_compute_content_digest", counted)
        return calls

    def test_digest_is_computed_once(self, monkeypatch):
        calls = self._counting(monkeypatch)
        database = _database()
        first = database.content_digest()
        assert database.content_digest() == first
        assert len(calls) == 1

    def test_digest_survives_pickling_without_shipping_the_cache(self):
        database = _database()
        digest = database.content_digest()
        clone = pickle.loads(pickle.dumps(database))
        assert clone._content_digest is None  # not serialized to workers
        assert clone.content_digest() == digest

    def test_two_budget_stamps_hash_rows_at_most_once(self, monkeypatch):
        """The ISSUE's regression: two consecutive ``certain(budget=)``
        calls on an unchanged 100k-row database stamp two resume tokens
        but hash the rows at most once."""
        rows = [(i,) for i in range(100_000)]
        rows.append((Null("x"),))
        database = Database.from_dict({"R": rows})
        calls = self._counting(monkeypatch)
        with repro.connect(database) as session:
            query = session.query(QUERY)
            partials = [
                query.certain(
                    method="enumeration",
                    budget=Budget(deadline=0.001),
                    on_budget="partial",
                )
                for _ in range(2)
            ]
        for partial in partials:
            assert isinstance(partial, PartialResult)
            assert partial.token is not None  # both calls really stamped
        assert len(calls) <= 1
