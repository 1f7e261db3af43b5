"""Benchmark E25 — the SQL backend: in-memory vs SQLite, and out-of-core scale.

Three questions, per DESIGN-style shape reporting:

* **Warm-cache throughput** — with the backend loaded and the compiled
  plan cached, how does repeated query evaluation through SQLite compare
  to the in-memory physical engine?  (In-memory wins at sizes that fit —
  the backend's value is scale, not per-query latency.)
* **Correctness** — ``engine="sqlite"`` must equal ``engine="plan"`` on
  the bench workload (also gated in ``run_all.py --quick --check``).
* **Scale** — the headline: a workload is sized so that, under a capped
  address space, building the in-memory :class:`Relation` *cannot
  complete* (``MemoryError``) while the SQLite backend — streaming the
  same generator into an on-disk database in batches — loads it and
  answers a query under the same cap.  This is the "evaluate databases
  larger than memory" capability no earlier benchmark could even set up.

The scale check runs each side in a forked child whose ``RLIMIT_AS`` is
its current address-space usage plus :data:`CAP_MARGIN_BYTES`; the
workload needs several times the margin in Python but only a fixed few
megabytes through the streaming SQLite load.
"""

import os
import sys
import tempfile
import time

import pytest

import repro
from repro.algebra import parse_ra
from repro.datamodel import Database, Relation

# Rows of the out-of-core workload: ~230 MB as an in-memory relation
# (tuples + interned strings + set), ~25 MB as an on-disk SQLite file.
SCALE_ROWS = 600_000
# Address-space headroom granted to each capped child process.
CAP_MARGIN_BYTES = 128 * 1024 * 1024
# Headroom left for the cursor streams once the cursor child has loaded:
# a capped decode memo adds about 25 MB while streaming, one that grew
# with the 600k distinct values would add about 105 MB.
STREAM_MARGIN_BYTES = 64 * 1024 * 1024
# Wall-clock budget for each capped child.
SCALE_BUDGET_SECONDS = 180.0

MODERATE_SIZES = [5_000, 20_000]

QUERY = parse_ra("project[a](join(Big, Small))")


def scale_rows(count):
    """The deterministic row stream of the big relation (never a list)."""
    for i in range(count):
        yield ("k%d" % (i % 1_000), "v%d" % i)


def _scale_schema():
    from repro.datamodel.schema import DatabaseSchema

    return DatabaseSchema.from_attributes({"Big": ("a", "b")})


def moderate_database(rows):
    """An in-memory instance sized to fit comfortably (for comparisons)."""
    big = Relation.create("Big", list(scale_rows(rows)), attributes=("a", "b"))
    small = Relation.create(
        "Small", [("v%d" % (i * 97), "w%d" % i) for i in range(rows // 50)],
        attributes=("b", "c"),
    )
    return Database.from_relations([big, small])


# ----------------------------------------------------------------------
# Capped-child machinery (Linux; used by run_all's e25 scale gate too)
# ----------------------------------------------------------------------
def _cap_address_space(margin_bytes):
    """Limit this process's address space to current usage + margin.

    Never raises an existing limit, so a second call only tightens it.
    """
    import resource

    current = 0
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmSize:"):
                    current = int(line.split()[1]) * 1024
                    break
    except OSError:
        pass
    limit = current + margin_bytes
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    if hard != resource.RLIM_INFINITY:
        limit = min(limit, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def _child_load_in_memory():
    """Child target: try to materialize the scale relation under the cap.

    Exit code 0 means the load failed with ``MemoryError`` (the expected
    outcome — the instance does not fit); 1 means it fit (cap too loose).
    """
    _cap_address_space(CAP_MARGIN_BYTES)
    try:
        relation = Relation.create(
            "Big", scale_rows(SCALE_ROWS), attributes=("a", "b")
        )
    except MemoryError:
        os._exit(0)
    del relation
    os._exit(1)


def _child_load_sqlite():
    """Child target: stream-load and query through SQLite under the cap.

    Exit code 0 means the backend loaded all rows into an on-disk
    database and answered a selective query; anything else is a failure.
    """
    _cap_address_space(CAP_MARGIN_BYTES)
    from repro.algebra.ast import relation as rel
    from repro.algebra.predicates import Attr, eq
    from repro.backends import SQLiteBackend
    from repro.engine import PlanCache

    path = os.path.join(tempfile.mkdtemp(prefix="repro_e25_"), "scale.sqlite")
    code = 1
    try:
        backend = SQLiteBackend(path)
        backend.create_schema(_scale_schema())
        written = backend.load_rows("Big", scale_rows(SCALE_ROWS))
        if written != SCALE_ROWS:
            code = 2
        else:
            answer = backend.evaluate(rel("Big").select(eq(Attr("a"), "k7")), PlanCache())
            code = 0 if len(answer) == SCALE_ROWS // 1_000 else 3
        backend.close()
    finally:
        # os._exit skips finally blocks, so the temp directory must be
        # gone before the exit call below — not after it.
        try:
            os.remove(path)
            os.rmdir(os.path.dirname(path))
        except OSError:
            pass
    os._exit(code)


def _child_cursor_stream():
    """Child target: stream 600k-row *answers* through a session cursor.

    Exit code 0 means a Session loaded the scale workload out of core and
    then consumed the full 600k-row answer through ``Query.cursor()``
    under the same address-space cap — which is only possible because the
    cursor never materializes the result ``Relation`` (the materialized
    relation alone needs several times the cap margin; ``gate:scale``
    proves that side).  After the load the cap tightens to
    :data:`STREAM_MARGIN_BYTES`, and a second stream, ``project[b](Big)``,
    has 600k distinct values, so a decode memo that grew with the answer
    instead of staying capped runs out of memory too.  1/2/3/4 are
    load/count/stream/memory failures.
    """
    _cap_address_space(CAP_MARGIN_BYTES)
    import repro
    from repro.algebra.ast import project
    from repro.algebra.ast import relation as rel

    path = os.path.join(tempfile.mkdtemp(prefix="repro_e25c_"), "cursor.sqlite")
    code = 1
    try:
        with repro.connect(engine="sqlite", backend_path=path) as session:
            session.create_schema(_scale_schema())
            written = session.load_rows("Big", scale_rows(SCALE_ROWS))
            if written != SCALE_ROWS:
                code = 2
            else:
                _cap_address_space(STREAM_MARGIN_BYTES)
                code = 0
                for query in (rel("Big"), project(rel("Big"), ("b",))):
                    count = 0
                    for _ in session.query(query).cursor(batch_size=10_000):
                        count += 1
                    if count != SCALE_ROWS:
                        code = 3
    except MemoryError:
        code = 4
    finally:
        try:
            os.remove(path)
            os.rmdir(os.path.dirname(path))
        except OSError:
            pass
    os._exit(code)


def run_cursor_gate(budget_seconds=SCALE_BUDGET_SECONDS):
    """The e25 streaming gate (``gate:cursor`` in ``run_all.py --check``).

    Passes when the capped child streams the full 600k-row answers of
    ``Big`` and ``project[b](Big)`` through ``Session.query(...).cursor()``;
    a cursor that materialized the result relation, or a decode memo
    that grew with the 600k distinct values, would die on the same
    ``MemoryError`` the in-memory load does in ``gate:scale``.
    """
    if sys.platform not in ("linux", "darwin"):
        return {"passed": True, "note": "skipped: RLIMIT_AS unavailable on this platform"}
    exit_code, seconds = _run_capped(_child_cursor_stream, budget_seconds)
    return {
        "passed": exit_code == 0,
        "rows": SCALE_ROWS,
        "cap_margin_bytes": CAP_MARGIN_BYTES,
        "cursor_exit": exit_code,
        "cursor_seconds": seconds,
        "note": (
            "session cursor streamed the full answer under the memory cap"
            if exit_code == 0
            else f"cursor child exit {exit_code}"
        ),
    }


def _run_capped(target, budget_seconds):
    """Fork ``target``; return ``(exit_code, seconds)``; kill at budget."""
    import multiprocessing

    process = multiprocessing.get_context("fork").Process(target=target, daemon=True)
    start = time.perf_counter()
    process.start()
    process.join(budget_seconds)
    elapsed = time.perf_counter() - start
    if process.is_alive():
        process.terminate()
        process.join()
        return None, elapsed
    return process.exitcode, elapsed


def run_scale_gate(budget_seconds=SCALE_BUDGET_SECONDS):
    """The e25 scale gate, shared with ``run_all.py --quick --check``.

    Passes when the capped in-memory load fails to complete while the
    capped SQLite load completes and answers correctly.
    """
    if sys.platform not in ("linux", "darwin"):
        return {"passed": True, "note": "skipped: RLIMIT_AS unavailable on this platform"}
    memory_code, memory_seconds = _run_capped(_child_load_in_memory, budget_seconds)
    sqlite_code, sqlite_seconds = _run_capped(_child_load_sqlite, budget_seconds)
    in_memory_failed = memory_code != 1  # MemoryError, crash or timeout: did not fit
    sqlite_completed = sqlite_code == 0
    return {
        "passed": bool(in_memory_failed and sqlite_completed),
        "rows": SCALE_ROWS,
        "cap_margin_bytes": CAP_MARGIN_BYTES,
        "in_memory_exit": memory_code,
        "in_memory_seconds": memory_seconds,
        "sqlite_exit": sqlite_code,
        "sqlite_seconds": sqlite_seconds,
        "note": (
            "sqlite streamed the workload under the memory cap; "
            "the in-memory load could not"
            if in_memory_failed and sqlite_completed
            else f"in-memory exit {memory_code}, sqlite exit {sqlite_code}"
        ),
    }


# ----------------------------------------------------------------------
# pytest-benchmark cases
# ----------------------------------------------------------------------
@pytest.mark.parametrize("rows", MODERATE_SIZES)
def test_inmemory_engine_query(benchmark, rows):
    query = repro.connect(moderate_database(rows)).query(QUERY)
    query.answer_object()  # warm plan cache
    benchmark.group = f"e25 rows={rows}"
    benchmark(query.answer_object)


@pytest.mark.parametrize("rows", MODERATE_SIZES)
def test_sqlite_backend_warm_query(benchmark, rows):
    query = repro.connect(moderate_database(rows), engine="sqlite").query(QUERY)
    query.answer_object()  # load + compile once
    benchmark.group = f"e25 rows={rows}"
    benchmark(query.answer_object)


def test_sqlite_matches_inmemory_on_bench_workload():
    database = moderate_database(MODERATE_SIZES[-1])
    sqlite = repro.connect(database, engine="sqlite").query(QUERY).answer_object()
    assert sqlite == repro.connect(database).query(QUERY).answer_object()


def test_cursor_gate_streams_the_scale_answer(report):
    verdict = run_cursor_gate()
    report(
        "E25: session-cursor streaming gate",
        ["rows", "cap margin (MB)", "cursor", "seconds"],
        [
            [
                verdict.get("rows", "-"),
                CAP_MARGIN_BYTES // (1024 * 1024),
                "streamed" if verdict.get("cursor_exit") == 0 else "FAILED",
                f"{verdict.get('cursor_seconds', 0):.1f}",
            ]
        ],
    )
    assert verdict["passed"], verdict


def test_scale_gate_sqlite_completes_where_inmemory_cannot(report):
    verdict = run_scale_gate()
    report(
        "E25: out-of-core scale gate",
        ["rows", "cap margin (MB)", "in-memory", "sqlite", "sqlite seconds"],
        [
            [
                verdict.get("rows", "-"),
                CAP_MARGIN_BYTES // (1024 * 1024),
                "did not fit" if verdict.get("in_memory_exit") != 1 else "FIT (bad)",
                "completed" if verdict.get("sqlite_exit") == 0 else "FAILED",
                f"{verdict.get('sqlite_seconds', 0):.1f}",
            ]
        ],
    )
    assert verdict["passed"], verdict
