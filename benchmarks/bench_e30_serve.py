"""Benchmark E30 — the serving tier: concurrent throughput + warm executors.

Two questions, both gated in ``run_all.py --quick --check`` as
``gate:serve``:

* **Concurrent-client throughput** — eight async clients hammering one
  :class:`repro.serve.Server` (whose relation-returning reads all share a
  single *frozen* session lock-free) must produce answers identical to a
  sequential session on the same database, at a rate above a conservative
  floor.  The differential half is the load-bearing part: a frozen plan
  cache or condition kernel that mutates under concurrency shows up as a
  wrong answer here long before it shows up as a crash.
* **Warm-executor speedup** — the ``workers=`` bugfix: a Session now
  holds one :class:`~concurrent.futures.ProcessPoolExecutor` across
  calls instead of forking a fresh pool per ``certain()``.  On a
  workload small enough that pool startup dominates, N calls through an
  injected warm executor must beat N per-call pools by at least
  :data:`WARM_EXECUTOR_MIN_SPEEDUP`.

Absolute throughput depends on the machine; the floor is set an order of
magnitude below what a warmed frozen session sustains so the gate checks
*liveness under concurrency*, not hardware.
"""

import asyncio
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

import repro
from repro.algebra import parse_ra
from repro.datamodel import Database, Null

# --- throughput gate shape -------------------------------------------------
SERVE_CLIENTS = 8
SERVE_ROUNDS = 5  # each client runs every query this many times
SERVE_POOL_SIZE = 8
# Queries per second, across all clients.  A warmed frozen session answers
# these in low milliseconds; the floor only catches serialization collapse
# (e.g. a lock re-introduced on the shared read path) or outright hangs.
THROUGHPUT_FLOOR_QPS = 10.0

# --- warm-executor gate shape ----------------------------------------------
WARM_WORKERS = 2
WARM_CALLS = 6
WARM_EXECUTOR_MIN_SPEEDUP = 1.5

SERVE_QUERIES = (
    parse_ra("project[#0](R)"),
    parse_ra("project[#0](select[#1 = #2](product(R, S)))"),
)


def serve_database(rows: int = 120) -> Database:
    """The serving workload: a joinable pair with a sprinkle of nulls."""
    r = [(i, i % 7) for i in range(rows)]
    r.append((rows, Null("n1")))
    r.append((rows + 1, Null("n2")))
    s = [(i % 7, "c%d" % i) for i in range(rows // 4)]
    return Database.from_dict({"R": r, "S": s})


# A deliberately tiny enumeration workload: two nulls over a four-constant
# active domain is 16 worlds — one worker chunk, milliseconds of query
# work — so per-call pool forking is the dominant cost by construction.
WARM_QUERY = parse_ra("project[#0](W)")


def warm_database() -> Database:
    return Database.from_dict(
        {"W": [(1, 2), (2, 3), (3, Null("x")), (Null("y"), 5)]}
    )


# ----------------------------------------------------------------------
# Gate: eight async clients vs one sequential session
# ----------------------------------------------------------------------
async def _drive_clients(server, expected):
    """``SERVE_CLIENTS`` coroutines, each replaying the query set in turn."""

    async def client(offset):
        results = []
        for round_index in range(SERVE_ROUNDS):
            for index in range(len(SERVE_QUERIES)):
                pick = (offset + round_index + index) % len(SERVE_QUERIES)
                answer = await server.certain(SERVE_QUERIES[pick])
                results.append((pick, answer))
        return results

    batches = await asyncio.gather(*(client(i) for i in range(SERVE_CLIENTS)))
    mismatches = 0
    for batch in batches:
        for pick, answer in batch:
            if answer != expected[pick]:
                mismatches += 1
    return mismatches


def run_throughput_gate():
    """The concurrent differential + throughput half of ``gate:serve``."""
    import repro
    from repro.serve import Server

    database = serve_database()
    with repro.connect(database, engine="sqlite") as sequential:
        expected = [sequential.query(q).certain() for q in SERVE_QUERIES]

    requests = SERVE_CLIENTS * SERVE_ROUNDS * len(SERVE_QUERIES)
    with Server(
        database,
        pool_size=SERVE_POOL_SIZE,
        engine="sqlite",
        warm=SERVE_QUERIES,
    ) as server:
        started = time.perf_counter()
        mismatches = asyncio.run(_drive_clients(server, expected))
        elapsed = time.perf_counter() - started
        served = server.stats()["served"]

    qps = requests / elapsed if elapsed > 0 else 0.0
    passed = mismatches == 0 and served == requests and qps >= THROUGHPUT_FLOOR_QPS
    return {
        "passed": passed,
        "clients": SERVE_CLIENTS,
        "requests": requests,
        "mismatches": mismatches,
        "seconds": elapsed,
        "qps": qps,
        "note": (
            f"{SERVE_CLIENTS} async clients, {requests} requests, "
            f"{qps:.0f} q/s (floor {THROUGHPUT_FLOOR_QPS:.0f}), "
            f"{mismatches} differential mismatches"
        ),
    }


# ----------------------------------------------------------------------
# Gate: session-warm executor vs a fresh pool per call
# ----------------------------------------------------------------------
def run_warm_executor_gate():
    """The warm-executor half of ``gate:serve``.

    Calls :func:`enumerate_certain_answers` directly so the two paths
    differ *only* in pool lifetime: the cold side takes the default
    per-call ``ProcessPoolExecutor`` (the pre-fix behaviour, still used
    by the deprecated shims), the warm side injects one primed executor
    across all :data:`WARM_CALLS` calls (what ``Session`` now does).
    """
    from repro.semantics.certain import enumerate_certain_answers

    database = warm_database()
    evaluate = WARM_QUERY.evaluate

    def cold_call():
        return enumerate_certain_answers(
            evaluate, database, semantics="cwa", workers=WARM_WORKERS
        )

    answers = []
    started = time.perf_counter()
    for _ in range(WARM_CALLS):
        answers.append(cold_call())
    cold_seconds = time.perf_counter() - started

    with ProcessPoolExecutor(max_workers=WARM_WORKERS) as pool:
        def warm_call():
            return enumerate_certain_answers(
                evaluate,
                database,
                semantics="cwa",
                workers=WARM_WORKERS,
                executor=pool,
            )

        warm_call()  # untimed: forks the workers once, like Session's first call
        started = time.perf_counter()
        for _ in range(WARM_CALLS):
            answers.append(warm_call())
        warm_seconds = time.perf_counter() - started

    # The sequential baseline runs *last*: evaluating in this process
    # caches an unpicklable compiled plan on the expression, which would
    # flip ``_can_pickle(evaluate)`` and silently turn every timed call
    # above into the sequential fallback.
    baseline = enumerate_certain_answers(evaluate, database, semantics="cwa")
    speedup = cold_seconds / warm_seconds if warm_seconds > 0 else float("inf")
    correct = all(answer == baseline for answer in answers)
    passed = correct and speedup >= WARM_EXECUTOR_MIN_SPEEDUP
    return {
        "passed": passed,
        "calls": WARM_CALLS,
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "speedup": speedup,
        "correct": correct,
        "note": (
            f"warm executor {speedup:.1f}x over per-call pools on "
            f"{WARM_CALLS} calls (floor {WARM_EXECUTOR_MIN_SPEEDUP}x), "
            f"answers {'equal' if correct else 'DIVERGED'}"
        ),
    }


# ----------------------------------------------------------------------
# pytest cases
# ----------------------------------------------------------------------
def test_serve_throughput_gate(report):
    verdict = run_throughput_gate()
    report(
        "E30: concurrent serving gate",
        ["clients", "requests", "q/s", "floor", "mismatches"],
        [
            [
                verdict["clients"],
                verdict["requests"],
                f"{verdict['qps']:.0f}",
                f"{THROUGHPUT_FLOOR_QPS:.0f}",
                verdict["mismatches"],
            ]
        ],
    )
    assert verdict["passed"], verdict


def test_warm_executor_gate(report):
    verdict = run_warm_executor_gate()
    report(
        "E30: warm-executor gate",
        ["calls", "per-call pools (s)", "warm executor (s)", "speedup", "floor"],
        [
            [
                verdict["calls"],
                f"{verdict['cold_seconds']:.2f}",
                f"{verdict['warm_seconds']:.2f}",
                f"{verdict['speedup']:.1f}x",
                f"{WARM_EXECUTOR_MIN_SPEEDUP}x",
            ]
        ],
    )
    assert verdict["passed"], verdict


@pytest.mark.parametrize("clients", [1, SERVE_CLIENTS])
def test_server_certain_latency(benchmark, clients):
    """Warm frozen-session dispatch latency, solo vs under concurrency."""
    import repro  # noqa: F401  (keeps the import shape of the gate paths)
    from repro.serve import Server

    database = serve_database()
    query = SERVE_QUERIES[0]

    async def burst(server):
        await asyncio.gather(*(server.certain(query) for _ in range(clients)))

    with Server(
        database, pool_size=SERVE_POOL_SIZE, engine="sqlite", warm=SERVE_QUERIES
    ) as server:
        asyncio.run(burst(server))  # warm the pool threads
        benchmark.group = f"e30 clients={clients}"
        benchmark(lambda: asyncio.run(burst(server)))
