"""Benchmark E30 — the serving tier: concurrent throughput.

Gated in ``run_all.py --quick --check`` as ``gate:serve``: eight async
clients hammering one :class:`repro.serve.Server` (whose
relation-returning reads all share a single *frozen* session lock-free)
must produce answers identical to a sequential session on the same
database, at a rate above a conservative floor.  The differential is
the load-bearing part: a frozen plan cache or condition kernel that
mutates under concurrency shows up as a wrong answer here long before it
shows up as a crash.

Absolute throughput depends on the machine; the floor is set an order of
magnitude below what a warmed frozen session sustains so the gate checks
*liveness under concurrency*, not hardware.
"""

import asyncio
import time

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
    """The concurrent differential + throughput check of ``gate:serve``."""
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
