"""SQLite's planner statistics follow every write of the backend.

Without ``sqlite_stat1`` SQLite costs every table alike, so on the e01
UCQ join it scanned the large ``Orders`` table and probed ``Pay``'s
index.  The backend refreshes the statistics inside each write: a load,
a version switch (in its transaction, so a rollback restores them), a
new index, and once when it is frozen.  A frozen backend writes nothing.
"""

import sqlite3

import pytest

import repro
from repro.algebra import parse_ra
from repro.backends import SQLiteBackend, table_name
from repro.backends.encoding import SentinelCodec
from repro.backends.faults import FaultInjectingCodec
from repro.datamodel import Database, Null
from repro.datamodel.schema import DatabaseSchema
from repro.engine import PlanCache
from repro.workloads import orders_payments

UCQ = "project[o_id, amount](join(Orders, rename[P(p_id, o_id, amount)](Pay)))"
SCHEMA = DatabaseSchema.from_attributes({"R": ("a", "b"), "S": ("b", "c"), "E": ("e",)})


def _stats(backend):
    """``{table: [(index, stat), ...]}`` of the handle's ``sqlite_stat1``."""
    found = {}
    for table, index, stat in backend.connection.execute(
        "SELECT tbl, idx, stat FROM sqlite_stat1 ORDER BY tbl, idx"
    ):
        found.setdefault(table, []).append((index, stat))
    return found


def _row_estimate(backend, name):
    """SQLite's row count of table ``name`` (its primary-key stat row)."""
    table = table_name(name).strip('"')
    (stat,) = [stat for index, stat in _stats(backend)[table] if index == table]
    return int(stat.split()[0])


def _tables(database):
    """The SQL tables of ``database``'s non-empty relations.

    ``ANALYZE`` writes no row for an empty table, so those are left out.
    """
    return {table_name(r.name).strip('"') for r in database.relations() if len(r)}


def _version(**relations):
    return Database(SCHEMA, relations)


def test_a_load_analyzes_every_table():
    database = _version(R=[(i, i % 3) for i in range(50)], S=[(1, "a")], E=[(Null("x"),)])
    backend = SQLiteBackend()
    backend.load_database(database)
    assert set(_stats(backend)) == _tables(database)
    assert _row_estimate(backend, "R") == 50
    backend.close()


def test_a_version_switch_refreshes_the_changed_tables():
    backend = SQLiteBackend()
    backend.load_database(_version(R=[(i, i) for i in range(10)], S=[], E=[]))
    assert set(_stats(backend)) == {"t_R"}
    new = _version(R=[(i, i) for i in range(30)], S=[(1, "a"), (2, "b")], E=[(1,)])
    backend.replace_database(new)
    assert set(_stats(backend)) == _tables(new)
    assert _row_estimate(backend, "R") == 30
    backend.close()


def test_a_schema_switch_analyzes_the_new_tables():
    backend = SQLiteBackend()
    backend.load_database(_version(R=[(1, 2)], S=[(2, 3)], E=[(1,)]))
    other = Database.from_dict({"T": [(i,) for i in range(7)], "U": [("a", "b", "c")]})
    backend.replace_database(other)
    assert set(_stats(backend)) == _tables(other) == {"t_T", "t_U"}
    backend.close()


def test_a_rolled_back_switch_restores_the_statistics():
    codec = FaultInjectingCodec(SentinelCodec())
    backend = SQLiteBackend(codec=codec)
    backend.load_database(_version(R=[(i, i) for i in range(10)], S=[(1, "a")], E=[]))
    before = _stats(backend)
    # R's 10 deletes and 20 inserts (and its ANALYZE) run before S's
    # new row, the 31st encoded, fails the switch.
    codec.encode_calls, codec.fail_encode_at = 0, 31
    with pytest.raises(sqlite3.OperationalError):
        backend.replace_database(
            _version(R=[(i, i) for i in range(10, 30)], S=[(1, "a"), (9, "z")], E=[])
        )
    assert codec.encode_calls == 31
    assert _stats(backend) == before
    backend.close()


def test_a_new_index_is_analyzed():
    backend = SQLiteBackend()
    backend.load_database(_version(R=[(i, i % 4) for i in range(40)], S=[], E=[]))
    backend.ensure_index("R", (1,))
    indexes = dict(_stats(backend)["t_R"])
    assert set(indexes) == {"t_R", "idx_R:1"}
    # 40 rows over 4 distinct keys: about 10 rows per key.
    assert indexes["idx_R:1"].split() == ["40", "10"]
    backend.close()


def test_the_ucq_join_scans_the_smaller_table():
    database = orders_payments(num_orders=2000, num_payments=200, null_fraction=0.1, seed=3)
    session = repro.connect(database, engine="sqlite")
    query = parse_ra(UCQ)
    session.query(query).certain()
    backend = session._engine.sentinel.backend
    plan, _ = backend._plans[query]
    steps = [row[3] for row in backend.connection.execute(
        "EXPLAIN QUERY PLAN " + plan.query, plan.params
    )]
    assert steps[0].startswith("SCAN t_Pay"), steps
    assert steps[1].startswith("SEARCH t_Orders"), steps
    session.close()


def test_freeze_keeps_the_statistics_and_a_frozen_backend_writes_nothing():
    database = orders_payments(num_orders=60, num_payments=20, null_fraction=0.2, seed=5)
    backend = SQLiteBackend()
    backend.load_database(database)
    backend.freeze()
    stats = _stats(backend)
    assert set(stats) == _tables(database)
    statements = []
    backend.connection.set_trace_callback(statements.append)
    plan_cache = PlanCache()
    # The join would create an index on an unfrozen backend.
    backend.evaluate(parse_ra(UCQ), plan_cache)
    backend.evaluate(parse_ra("diff(project[o_id](Orders), project[p_id](Pay))"), plan_cache)
    for _ in backend.execute_batches(parse_ra("project[o_id](Orders)"), plan_cache, batch_size=8):
        pass
    backend.connection.set_trace_callback(None)
    assert statements
    assert all(statement.lstrip().upper().startswith("SELECT") for statement in statements), statements
    assert _stats(backend) == stats
    assert backend._indexes == set()
    backend.close()
