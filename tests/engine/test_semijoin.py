"""Semi-joins on the plan engine, and the operators that read cached keys.

A projection over a join whose one side supplies only join keys lowers to
``SemiJoin``: the other side's rows are kept by membership in the key
side's key map.  The interpreter is the oracle, and rows are compared
*with their value types*: ``1``, ``1.0`` and ``True`` compare equal, so a
semi-join that returned the kept side's value where the join returns the
key side's would still pass a plain set comparison.
"""

import pickle
import random

import pytest

import repro
from repro import Tracer
from repro.algebra import parse_ra
from repro.algebra.ast import Division, join, project, relation, select
from repro.algebra.ctable_algebra import CTableDatabase
from repro.algebra.predicates import Attr, Comparison
from repro.backends.compiler import compile_logical_plan
from repro.backends.encoding import SentinelCodec
from repro.datamodel import Database, Null, Relation
from repro.engine.ctable import CHashJoin, CProject, _CTableLowering, _CTableSizes
from repro.engine.logical import optimize
from repro.engine.physical import HashJoin, SemiJoin
from repro.engine.planner import lower
from repro.workloads import orders_payments

UCQ = "project[o_id, amount](join(Orders, rename[P(p_id, o_id, amount)](Pay)))"
SHAPE_SEEDS = list(range(150))


def _typed(result):
    """The rows of ``result`` with every value tagged by its type."""
    return {tuple((type(v), v) for v in row) for row in result.rows}


def _agree(query, database):
    plan = repro.connect(database, engine="plan").query(query).answer_object()
    oracle = repro.connect(database, engine="interpreter").query(query).answer_object()
    assert plan == oracle, query
    assert _typed(plan) == _typed(oracle), query


# ---------------------------------------------------------------------------
# generated π(join) shapes
# ---------------------------------------------------------------------------
# Each relation spells numbers its own way — L as ints, R as floats with
# True for 1 — so every output column has one spelling per value and the
# typed comparison is exact.  Nulls are drawn from one pool, so the two
# relations share them.
def _left_value(rng):
    return rng.choice((1, 2, 3, Null("n0"), Null("n1")))


def _right_value(rng):
    value = rng.choice((1, 2, 3, "null"))
    if value == "null":
        return rng.choice((Null("n0"), Null("n1"), Null("n2")))
    return True if value == 1 else float(value)


def _shape(seed):
    """A database ``L``/``R`` and a query ``π(L' ⋈ R')`` built from ``seed``."""
    rng = random.Random(seed)
    common = [f"k{i}" for i in range(rng.choice((0, 1, 1, 2, 2)))]
    left_attrs = common + [f"a{i}" for i in range(rng.randint(0 if common else 1, 2))]
    right_attrs = common + [f"b{i}" for i in range(rng.randint(0 if common else 1, 2))]
    rng.shuffle(left_attrs)
    rng.shuffle(right_attrs)
    left_rows = [tuple(_left_value(rng) for _ in left_attrs) for _ in range(rng.randint(0, 9))]
    right_rows = [tuple(_right_value(rng) for _ in right_attrs) for _ in range(rng.randint(0, 9))]
    database = Database.from_relations(
        [
            Relation.create("L", left_rows, attributes=left_attrs),
            Relation.create("R", right_rows, attributes=right_attrs),
        ]
    )
    right_only = [a for a in right_attrs if a not in common]
    # Which side may supply only keys: the left when the projection reads
    # the common attributes (the join takes them from the left) and R's own
    # columns; the right when it reads L's columns alone.
    pool = rng.choice((common + right_only, left_attrs, left_attrs + right_only))
    attributes = rng.sample(pool, rng.randint(0, len(pool)))
    left, right = relation("L"), relation("R")
    # A pushed-down selection turns a side into a filtered scan, so its
    # key map is built from rows instead of read off the relation.
    if rng.random() < 0.3:
        left = select(left, Comparison(Attr(rng.choice(left_attrs)), "=", rng.choice((1, 2))))
    if rng.random() < 0.3:
        value = rng.choice((2.0, True))
        right = select(right, Comparison(Attr(rng.choice(right_attrs)), "=", value))
    return project(join(left, right), attributes), database


@pytest.mark.parametrize("seed", SHAPE_SEEDS)
def test_projected_joins_match_the_interpreter_with_value_types(seed):
    query, database = _shape(seed)
    _agree(query, database)


def test_generated_shapes_cover_every_semijoin_flavour():
    """The shapes above really exercise the rewrite, in each of its forms."""
    seen = set()
    for seed in SHAPE_SEEDS:
        query, database = _shape(seed)
        root = lower(optimize(query, database.schema), database)
        if isinstance(root, SemiJoin):
            seen.add(("keys from relation", root.relation is not None))
            seen.add(("key width", min(len(root.key_keys), 2)))
            seen.add(("reads key side", any(p < len(root.key_keys) for p in root.positions)))
            seen.add(("key side", root.relation or "rows"))
    assert {
        ("keys from relation", True),
        ("keys from relation", False),
        ("key width", 0),
        ("key width", 1),
        ("key width", 2),
        ("reads key side", True),
        ("reads key side", False),
        ("key side", "L"),
        ("key side", "R"),
    } <= seen


def test_output_keeps_the_key_sides_values():
    """``Orders`` holds ``1``; ``Pay`` refers to it as ``1.0`` and ``True``."""
    database = Database.from_relations(
        [
            Relation.create("Orders", [(1, "pr1"), (2, "pr2")], attributes=("o_id", "product")),
            Relation.create(
                "Pay", [("p1", 1.0, 10), ("p2", True, 20)], attributes=("p_id", "ord", "amount")
            ),
        ]
    )
    query = parse_ra(UCQ)
    assert isinstance(lower(optimize(query, database.schema), database), SemiJoin)
    _agree(query, database)
    answer = repro.connect(database).query(query).answer_object()
    assert _typed(answer) == {((int, 1), (int, 10)), ((int, 1), (int, 20))}


def test_shared_nulls_join_as_values():
    database = Database.from_relations(
        [
            Relation.create("L", [(Null("x"), 1), (2, 2), (3, 3), (4, 4)], attributes=("k", "a")),
            Relation.create(
                "R", [(Null("x"), "u"), (Null("y"), "v"), (2, "w")], attributes=("k", "b")
            ),
        ]
    )
    query = project(join(relation("L"), relation("R")), ["k", "b"])
    assert isinstance(lower(optimize(query, database.schema), database), SemiJoin)
    _agree(query, database)
    assert repro.connect(database).query(query).answer_object().rows == {
        (Null("x"), "u"),
        (2, "w"),
    }


# ---------------------------------------------------------------------------
# the e01 UCQ, and the lowerings that must keep the join
# ---------------------------------------------------------------------------
@pytest.fixture
def orders():
    return orders_payments(num_orders=60, num_payments=12, null_fraction=0.3, seed=3)


def test_explain_shows_the_semijoin_for_the_e01_ucq(orders):
    with repro.connect(orders) as session:
        query = session.query(parse_ra(UCQ))
        text = query.explain()
        assert "naive evaluation" in text
        physical = text.split("physical plan:")[1]
        assert physical.split("\n")[1].strip().startswith("SemiJoin [")
        assert "relation='Orders'" in physical
        assert "HashJoin" not in physical
        assert query.certain() == parse_ra(UCQ).evaluate(orders).complete_part()


def test_ctable_lowering_keeps_join_and_project(orders):
    query = parse_ra(UCQ)
    ctdb = CTableDatabase.from_database(orders)
    root = _CTableLowering(_CTableSizes(ctdb)).lower(optimize(query, orders.schema))
    assert isinstance(root, CProject)
    assert isinstance(root.child, CHashJoin)


def test_sql_compiler_keeps_join_and_project(orders):
    compiled = compile_logical_plan(optimize(parse_ra(UCQ), orders.schema), orders, SentinelCodec())
    assert compiled.query.startswith("SELECT DISTINCT ")
    assert " JOIN " in compiled.query
    assert compiled.index_requests == (("Pay", (1,)),)


def test_generated_semijoins_keep_join_and_project_on_the_other_lowerings():
    lowered = 0
    for seed in SHAPE_SEEDS:
        query, database = _shape(seed)
        plan = optimize(query, database.schema)
        if not isinstance(lower(plan, database), SemiJoin):
            continue
        lowered += 1
        ctdb = CTableDatabase.from_database(database)
        root = _CTableLowering(_CTableSizes(ctdb)).lower(plan)
        assert isinstance(root, CProject) and isinstance(root.child, CHashJoin)
        sql = compile_logical_plan(plan, database, SentinelCodec()).query
        assert sql.startswith("SELECT DISTINCT ") and " FROM (SELECT " in sql
    assert lowered > 50


def test_sqlite_engine_agrees(orders):
    query = parse_ra(UCQ)
    with repro.connect(orders, engine="sqlite") as sql, repro.connect(orders) as plan:
        assert sql.query(query).certain() == plan.query(query).certain()


def test_join_is_kept_when_the_semijoin_would_scan_more():
    """π over a small filtered probe side against a large indexed relation."""
    database = Database.from_relations(
        [
            Relation.create("Small", [(i, i % 3) for i in range(40)], attributes=("k", "c")),
            Relation.create("Big", [(i % 50, i) for i in range(2000)], attributes=("k", "v")),
        ]
    )
    small = select(relation("Small"), Comparison(Attr("c"), "=", 0))
    query = project(join(small, relation("Big")), ["v"])
    root = lower(optimize(query, database.schema), database)
    assert not isinstance(root, SemiJoin)
    assert isinstance(root.child, HashJoin) and root.child.relation == "Big"
    _agree(query, database)


# ---------------------------------------------------------------------------
# cached structures are chosen at lowering, so analyze runs the same algorithm
# ---------------------------------------------------------------------------
def _count_builds(monkeypatch, method):
    """Record (calls, builds) of a cached ``Relation`` structure."""
    counts = {"calls": 0, "builds": 0}
    original = getattr(Relation, method)

    def counted(self, positions):
        before = len(self._indexes or {})
        result = original(self, positions)
        counts["calls"] += 1
        counts["builds"] += len(self._indexes) - before
        return result

    monkeypatch.setattr(Relation, method, counted)
    return counts


def test_hash_join_reuses_the_cached_index_under_analyze(monkeypatch):
    database = Database.from_dict({"R": [(1, 2), (2, 3), (3, 3)], "S": [(2, "a"), (3, "b")]})
    query = join(relation("R"), relation("S"))
    assert isinstance(lower(optimize(query, database.schema), database), HashJoin)
    counts = _count_builds(monkeypatch, "index_on")
    with repro.connect(database) as session:
        warm = session.query(query).answer_object()
        report = session.query(query).analyze()
        session.query(query).explain(analyze=True)
    assert counts == {"calls": 3, "builds": 1}
    assert report.rows == len(warm)
    scans = sorted(child.rows for child in report.root.children)
    assert scans == [2, 3]  # both inputs still show in the analyze tree


def test_semijoin_reuses_the_cached_key_map_under_analyze(monkeypatch, orders):
    counts = _count_builds(monkeypatch, "key_map")
    with repro.connect(orders) as session:
        query = session.query(parse_ra(UCQ))
        warm = query.answer_object()
        report = query.analyze()
    assert counts == {"calls": 2, "builds": 1}
    assert report.root.name == "SemiJoin"
    assert report.rows == len(warm)


def test_traced_runs_reuse_the_cached_key_map(monkeypatch, orders):
    counts = _count_builds(monkeypatch, "key_map")
    tracer = Tracer()
    with repro.connect(orders, tracer=tracer) as session:
        query = parse_ra(UCQ)
        session.query(query).answer_object()
        session.query(query).answer_object()
    assert counts == {"calls": 2, "builds": 1}
    assert "op.SemiJoin" in {span.name for span in tracer.spans()}


# ---------------------------------------------------------------------------
# relations pickle their data, not their caches
# ---------------------------------------------------------------------------
def test_relation_pickles_without_its_indexes():
    rel = Relation.create("R", [(i, i % 7) for i in range(500)] + [(Null("x"), 1)])
    cold = len(pickle.dumps(rel))
    rel.index_on((1,))
    rel.key_map((0, 1))
    assert len(pickle.dumps(rel)) == cold
    clone = pickle.loads(pickle.dumps(rel))
    assert clone._indexes is None
    assert clone == rel and hash(clone) == hash(rel)
    rebuilt = clone.index_on((1,))
    assert {k: set(rows) for k, rows in rebuilt.items()} == {
        k: set(rows) for k, rows in rel.index_on((1,)).items()
    }


# ---------------------------------------------------------------------------
# division: values are semi-joined against the divisor before counting
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(40))
def test_division_matches_the_interpreter(seed):
    rng = random.Random(seed)
    values = (1, 2, 3, Null("x"), Null("y"))
    enrol = {(rng.choice(values), rng.choice(values)) for _ in range(rng.randint(0, 12))}
    divisor = {(rng.choice(values),) for _ in range(rng.choice((0, 0, 1, 2, 3)))}
    database = Database.from_relations(
        [
            Relation.create("E", sorted(enrol, key=repr), attributes=("s", "c")),
            Relation.create("D", sorted(divisor, key=repr), attributes=("c",)),
        ]
    )
    _agree(Division(relation("E"), relation("D")), database)


def test_division_edge_cases():
    database = Database.from_relations(
        [
            Relation.create(
                "E",
                [
                    (1, "c1"), (1, "c2"), (2, "c1"),
                    (Null("x"), "c1"), (Null("x"), "c2"), (3, Null("n")),
                ],
                attributes=("s", "c"),
            ),
            Relation.create("D", [("c1",), ("c2",)], attributes=("c",)),
            Relation.create("Empty", [], attributes=("c",)),
            Relation.create("DN", [(Null("n"),)], attributes=("c",)),
        ]
    )
    cases = {
        "D": {(1,), (Null("x"),)},
        "Empty": {(1,), (2,), (Null("x"),), (3,)},  # an empty divisor keeps every group
        "DN": {(3,)},  # nulls are values under naive evaluation
    }
    for name, expected in cases.items():
        query = Division(relation("E"), relation(name))
        _agree(query, database)
        assert repro.connect(database).query(query).answer_object().rows == expected
