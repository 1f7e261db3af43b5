"""Certain answers from c-table lineage equal full-product world enumeration.

The oracle intersects the query's answers over *every* valuation of the
nulls into the enumeration domain (no canonical valuations).  The
lineage strategy must give the same relation under ``cwa`` and ``prob``
on every engine, and every falsifying valuation it returns must, applied
to the database, give a world whose answer misses the refuted row.
"""

from __future__ import annotations

import pytest

import repro
from repro.algebra import parse_ra
from repro.algebra.ast import ActiveDomain, Delta, Difference, Intersection, Projection, RelationRef
from repro.core.answers import enumeration_domain
from repro.datamodel import Database, Null
from repro.obs import Tracer
from repro.prob import ProbabilityModel
from repro.resilience import Budget, BudgetExceeded, PartialResult
from repro.semantics.certain import enumerate_certain_answers
from repro.semantics.lineage import lineage_strategy, lineage_verdicts
from repro.workloads.generators import (
    random_database,
    random_full_ra_query,
    random_positive_query,
    random_ra_cwa_query,
)

ENGINES = ("plan", "interpreter", "sqlite")


def full_product(query, database, domain=None, extra_constants=None):
    """``⋂ Q(v(D))`` over every valuation into the enumeration domain."""
    resolved = enumeration_domain(query, database, domain, extra_constants)
    return enumerate_certain_answers(query.evaluate, database, "cwa", resolved)


def check_falsifiers(query, database, domain=None, extra_constants=None):
    """Every refuted candidate's valuation gives a world without the row."""
    resolved = enumeration_domain(query, database, domain, extra_constants)
    _schema, verdicts = lineage_verdicts(query, database, resolved)
    for row, fails in verdicts:
        if fails is not None:
            world = fails.apply(database)
            assert row not in query.evaluate(world).rows, (query, row, fails)
    return verdicts


def by_lineage(session, query, database, **options):
    """The lineage strategy on ``session``'s c-table engine, wherever naive
    evaluation would come first."""
    return lineage_strategy(
        query, database, evaluate_ctable=session.evaluate_ctable, kernel=session.kernel, **options
    )


def uniform_model(database):
    values = sorted(database.constants(), key=str)[:2] or ["c"]
    return ProbabilityModel(
        independent={null: {value: 1.0 / len(values) for value in values} for null in database.nulls()}
    )


def generated_cases():
    """Null-heavy databases with shared nulls, and generic RA over them."""
    cases = []
    for seed in range(12):
        database = random_database(
            num_relations=2, arity=2, rows_per_relation=4, num_constants=3,
            num_nulls=2 + seed % 3, seed=seed,
        )
        schema = database.schema
        positive = [random_positive_query(schema, depth=2, seed=seed * 7 + k) for k in range(2)]
        queries = [
            random_full_ra_query(schema, seed=seed),
            random_ra_cwa_query(schema, "R0", "R1", seed=seed),
            Difference(RelationRef("R0"), RelationRef("R1")),
            Intersection(RelationRef("R0"), RelationRef("R1")),
            Difference(Projection(RelationRef("R0"), (seed % 2,)), ActiveDomain()),
            Difference(ActiveDomain(), Projection(RelationRef("R1"), (0,))),
            Intersection(RelationRef("R0"), Delta()),
            Difference(Delta(), RelationRef("R1")),
        ]
        arities = [query.output_schema(schema).arity for query in positive]
        if arities[0] == arities[1]:
            queries.append(Difference(positive[0], positive[1]))
            queries.append(Intersection(positive[0], positive[1]))
        cases.extend((f"seed{seed}-q{i}", database, query) for i, query in enumerate(queries))
    return cases


CASES = generated_cases()
_EXPECTED = {}


def expected_of(name, database, query):
    """The oracle's answer of one generated case, computed once."""
    if name not in _EXPECTED:
        _EXPECTED[name] = full_product(query, database)
    return _EXPECTED[name]


@pytest.mark.parametrize("name,database,query", CASES, ids=[case[0] for case in CASES])
def test_lineage_equals_full_product_enumeration(name, database, query):
    expected = expected_of(name, database, query)
    check_falsifiers(query, database)
    for semantics in ("cwa", "prob"):
        model = uniform_model(database) if semantics == "prob" else None
        with repro.connect(database, semantics=semantics, model=model) as session:
            q = session.query(query)
            assert q.certain() == expected, (name, semantics)
            # Naive evaluation comes first where it is exact (RA_cwa under CWA).
            assert q._ran in ("naive evaluation", "lineage validity")
            assert by_lineage(session, query, database) == expected


@pytest.mark.parametrize("engine", ENGINES)
def test_every_engine_answers_like_the_oracle(engine):
    for name, database, query in CASES[::5]:
        with repro.connect(database, engine=engine) as session:
            assert session.query(query).certain() == expected_of(name, database, query), name


# ----------------------------------------------------------------------
# domain= holding 1 / 1.0 / True, and extra_constants=
# ----------------------------------------------------------------------
x, y = Null("x"), Null("y")
TYPED = Database.from_dict({
    "R": [(1, x), (True, 2), (y, 1.0), (x, y)],
    "S": [(1,), (x,)],
})
TYPED_QUERIES = [
    "diff(project[#0](R), S)",
    "diff(project[#1](R), S)",
    "select[#0 = 1](R)",
    "diff(select[#1 = 2](R), product(S, S))",
    "intersect(project[#0](R), project[#1](R))",
    "divide(R, S)",
    "diff(adom, S)",
    "intersect(R, delta)",
]
DOMAINS = [
    dict(domain=[1, 1.0, True, 2, "z"]),
    dict(domain=[True, 2]),
    dict(domain=[1.0, "a", "b"]),
    dict(domain=[2]),
    dict(extra_constants=0),
    dict(extra_constants=1),
    dict(extra_constants=3),
    dict(),
]


@pytest.mark.parametrize("text", TYPED_QUERIES)
@pytest.mark.parametrize("options", DOMAINS, ids=[repr(options) for options in DOMAINS])
def test_typed_constants_and_domains_behave_as_the_oracle(text, options):
    query = parse_ra(text)
    expected = full_product(query, TYPED, **options)
    check_falsifiers(query, TYPED, **options)
    with repro.connect(TYPED) as session:
        q = session.query(query)
        assert by_lineage(session, query, TYPED, **options) == expected
        assert q.certain(**options) == expected
        if "domain" in options:
            # Naive evaluation is exact over the unrestricted domain only.
            assert q._ran != "naive evaluation"
        assert q.certain(method="enumeration", **options) == expected
        assert q._ran.startswith("world enumeration")


def test_an_empty_domain_has_no_world():
    query = parse_ra("diff(project[#0](R), S)")
    with repro.connect(TYPED) as session:
        assert session.query(query).certain(domain=[]) == full_product(query, TYPED, domain=[])


def test_falsifiers_refute_on_the_e01_shape():
    database = Database.from_dict({
        "Orders": [("o1", "p1"), ("o2", "p2"), ("o3", "p1")],
        "Pay": [("p", "o1"), ("q", Null("z"))],
    })
    query = parse_ra("diff(project[#0](Orders), project[#1](Pay))")
    verdicts = check_falsifiers(query, database)
    assert {row for row, fails in verdicts if fails is not None} == {("o2",), ("o3",)}


def test_the_default_domain_is_built_once_per_query_constants(monkeypatch):
    import repro.core.answers as answers

    built = []
    real = answers.default_domain

    def counting(*args, **kwargs):
        built.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(answers, "default_domain", counting)
    database = Database.from_dict({"R": [(1, x), (2, y)]})
    one, also_one, one_float = (parse_ra(f"select[#0 = {c}](R)") for c in ("1", "1", "1.0"))
    first = enumeration_domain(one, database)
    first.append("mutated")
    assert enumeration_domain(also_one, database) == first[:-1]
    assert len(built) == 1
    # Equal but differently typed constants key their own domain...
    enumeration_domain(one_float, database)
    # ...as does every extra_constants; domain= bypasses the cache.
    enumeration_domain(one, database, extra_constants=0)
    enumeration_domain(one, database, domain=[2])
    assert len(built) == 3


# ----------------------------------------------------------------------
# where the strategy applies, and what it reports
# ----------------------------------------------------------------------
DIFF = parse_ra("diff(project[#0](R), S)")

#: Both nulls in both rows of S: each candidate's lineage
#: ¬(x = a ∧ y = b) ∧ ¬(y = a ∧ x = b) splits into no independent parts.
SHARED = Database.from_dict({"R": [("a", "b"), ("b", "a")], "S": [(x, y), (y, x)]})


def test_auto_picks_lineage_for_generic_queries_under_closed_worlds():
    for semantics in ("cwa", "prob"):
        model = uniform_model(TYPED) if semantics == "prob" else None
        with repro.connect(TYPED, semantics=semantics, model=model) as session:
            assert "certain(): lineage validity —" in session.query(DIFF).explain()
    for semantics in ("owa", "wcwa"):
        with repro.connect(TYPED, semantics=semantics) as session:
            q = session.query(DIFF)
            assert "certain(): world enumeration" in q.explain()
            q.certain()
            assert q._ran.startswith("world enumeration")
    ordered = parse_ra("diff(project[#0](R), select[#0 < 2](S))")
    with repro.connect(Database.from_dict({"R": [(1, x)], "S": [(x,), (3,)]})) as session:
        q = session.query(ordered)
        assert "certain(): world enumeration" in q.explain()
        q.certain(domain=[1, 3, 5])
        assert q._ran.startswith("world enumeration")


def test_a_resume_token_forces_enumeration():
    query = parse_ra("diff(R, S)")
    with repro.connect(SHARED) as session:
        q = session.query(query)
        with pytest.raises(BudgetExceeded) as caught:
            q.certain(method="enumeration", budget=Budget(max_worlds=1), on_budget="raise")
        token = caught.value.resume_token
        assert q.certain(resume=token) == full_product(query, SHARED)
        assert q._ran.startswith("world enumeration")


def test_shannon_branches_tick_the_budget_and_mint_no_token():
    query = parse_ra("diff(R, S)")
    database = SHARED
    with repro.connect(database) as session:
        q = session.query(query)
        assert q.certain() == full_product(query, database)
        with pytest.raises(BudgetExceeded) as caught:
            q.certain(budget=Budget(max_worlds=1), on_budget="raise")
        assert caught.value.resume_token is None
        partial = q.certain(budget=Budget(max_worlds=1), on_budget="partial")
        assert isinstance(partial, PartialResult) and partial.token is None
        assert "degraded" in q.explain()


def test_the_lineage_span_carries_candidates_and_branches():
    tracer = Tracer()
    with repro.connect(SHARED, tracer=tracer) as session:
        session.query(parse_ra("diff(R, S)")).certain()
    (lineage,) = [span for span in tracer.spans() if span.name == "semantics.lineage"]
    assert lineage.attrs["candidates"] == 2
    assert lineage.attrs["branches"] > 0
    assert not [span for span in tracer.spans() if span.name == "world.evaluate"]


def test_a_closed_session_refuses():
    session = repro.connect(TYPED)
    session.close()
    with pytest.raises(repro.SessionClosedError):
        session.query(DIFF).certain()


def test_a_frozen_session_keeps_new_ctable_lowerings_local():
    with repro.connect(TYPED) as session:
        session.freeze(warm=[DIFF])
        (entry,) = session.plan_cache._cache.values()
        physical, sizes = entry.ctable_physical, entry.ctable_sizes
        assert physical is not None
        other = Database.from_dict({"R": [(1, x), (2, 3), (y, 3)], "S": [(1,)]})
        q = session.query(DIFF, database=other)
        assert q.certain() == full_product(DIFF, other)
        assert q._ran == "lineage validity"
        assert (entry.ctable_physical, entry.ctable_sizes) == (physical, sizes)
