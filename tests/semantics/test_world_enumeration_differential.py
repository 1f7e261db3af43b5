"""Differential suites: keyed world enumeration == the valuation path, and
canonical valuations == every valuation.

The oracle below is the enumerator the keyed one replaced, kept verbatim
in behaviour: apply every valuation from ``enumerate_valuations`` with
``Valuation.apply``, deduplicate whole databases in a ``set``, and under
OWA/WCWA extend each base world with ``Database.add_facts``.  Every
random instance must yield the *same list* — order included, because
the number of worlds consumed is the checkpoint ``ResumeToken`` resumes
from.

Instances mix what makes keys and worlds easy to get wrong: nulls shared
across relations and repeated within a row, null images colliding with
complete rows, equal constants of different types (``1``/``1.0``/``True``,
``0``/``False``), arity-1 relations, no nulls at all, and empty or
truncated domains.

Sessions answer ``certain()`` and ``boolean(mode="certain")`` of a
generic query over canonical valuations only (one per renaming of the
domain values outside the database and the query).  The second suite
compares them, on every engine and semantics, with the library's
``enumerate_certain_answers`` over every valuation of the same resolved
domain, on the same random instances plus the edge cases canonical
enumeration has to get right.
"""

import itertools
import random
from typing import Any, Iterator, List, Optional, Sequence, Set

import pytest

import repro
from repro.algebra import parse_ra
from repro.algebra.ast import ConstantRelation, Difference
from repro.core.answers import enumeration_domain, valuation_space
from repro.datamodel import Database, Null, Relation, enumerate_valuations
from repro.semantics import default_domain, enumerate_certain_answers, enumerate_certain_boolean
from repro.semantics.certain import certain_over
from repro.semantics.registry import SEMANTICS

SEEDS = list(range(210))

#: Constants drawn for rows and explicit domains; 1/1.0/True and 0/False
#: are equal (and hash equal) across types.
CONSTANTS = [1, 1.0, True, 0, False, 2, 2.5, "a", "b"]

#: Caps the oracle's work per instance: the OWA/WCWA fact pool grows as
#: |domain| ** arity and the oracle builds a database per candidate.
_MAX_PAIRS = 400


# ----------------------------------------------------------------------
# the oracle: the valuation path
# ----------------------------------------------------------------------
def _oracle_all_facts(database: Database, domain: Sequence[Any]):
    for rel_schema in database.schema:
        for combo in itertools.product(domain, repeat=rel_schema.arity):
            yield (rel_schema.name, tuple(combo))


def _oracle_cwa(database: Database, domain: Sequence[Any]) -> Iterator[Database]:
    seen: Set[Database] = set()
    for valuation in enumerate_valuations(database.nulls(), domain):
        world = valuation.apply(database)
        if world not in seen:
            seen.add(world)
            yield world


def _oracle_owa(database: Database, domain: Sequence[Any], max_extra_facts: int) -> Iterator[Database]:
    extra_fact_pool = list(_oracle_all_facts(database, domain))
    seen: Set[Database] = set()
    for base_world in _oracle_cwa(database, domain):
        for count in range(0, max_extra_facts + 1):
            for extra in itertools.combinations(extra_fact_pool, count):
                world = base_world.add_facts(extra)
                if world not in seen:
                    seen.add(world)
                    yield world


def _oracle_wcwa(database: Database, domain: Sequence[Any], max_extra_facts: int) -> Iterator[Database]:
    seen: Set[Database] = set()
    for base_world in _oracle_cwa(database, domain):
        world_domain = sorted(base_world.active_domain(), key=lambda v: (str(type(v)), str(v)))
        extra_fact_pool = list(_oracle_all_facts(base_world, world_domain))
        for count in range(0, max_extra_facts + 1):
            for extra in itertools.combinations(extra_fact_pool, count):
                world = base_world.add_facts(extra)
                if world not in seen:
                    seen.add(world)
                    yield world


def _oracle(database, semantics, domain, max_extra_facts):
    if domain is None:
        domain = default_domain(database)
    if semantics == "cwa":
        return _oracle_cwa(database, domain)
    if semantics == "owa":
        return _oracle_owa(database, domain, max_extra_facts)
    return _oracle_wcwa(database, domain, max_extra_facts)


# ----------------------------------------------------------------------
# random instances
# ----------------------------------------------------------------------
def _instance(seed: int, semantics: str):
    rng = random.Random(seed)
    open_world = semantics != "cwa"
    num_relations = rng.randint(1, 3)
    num_nulls = rng.choice([0, 1, 2] if open_world else [0, 1, 2, 3])
    nulls = [Null(f"n{k}") for k in range(num_nulls)]
    constants = rng.sample(CONSTANTS, rng.randint(1, 4))
    relations: List[Relation] = []
    for index in range(num_relations):
        arity = rng.randint(1, 2 if open_world else 3)
        rows = []
        for _ in range(rng.randint(0, 4)):
            pool = constants + nulls if rng.random() < 0.6 else constants
            rows.append(tuple(rng.choice(pool) for _ in range(arity)))
        relations.append(Relation.create(f"R{index}", rows, arity=arity))
    database = Database.from_relations(relations)

    choice = rng.random()
    domain: Optional[List[Any]]
    if choice < 0.4:
        domain = None  # default_domain: constants plus fresh values
    elif choice < 0.55:
        domain = []
    elif choice < 0.75:
        # truncated: fewer values than nulls, often colliding with rows
        domain = rng.sample(CONSTANTS, max(1, num_nulls - 1))
    else:
        domain = [rng.choice(CONSTANTS) for _ in range(rng.randint(1, 4))]

    max_extra_facts = rng.choice([0, 1, 1, 2]) if open_world else 1
    if open_world and max_extra_facts:
        resolved = default_domain(database) if domain is None else domain
        width = max(len(resolved), len(database.constants()) + num_nulls)
        pool = sum(width ** rel.arity for rel in relations)
        if pool > 12:
            max_extra_facts = 1
        if pool > _MAX_PAIRS:
            max_extra_facts = 0
    return database, domain, max_extra_facts


@pytest.mark.parametrize("semantics", ["cwa", "owa", "wcwa"])
@pytest.mark.parametrize("seed", SEEDS)
def test_keyed_enumeration_equals_valuation_path(seed, semantics):
    database, domain, max_extra_facts = _instance(seed, semantics)
    expected = list(_oracle(database, semantics, domain, max_extra_facts))
    actual = list(SEMANTICS[semantics].worlds(database, domain=domain, max_extra_facts=max_extra_facts))
    assert actual == expected
    for world in actual:
        assert world.is_complete()
        assert world.schema == database.schema


def _features(database, domain, max_extra_facts):
    """The hard cases an instance exercises."""
    features = set()
    null_rows = [
        (rel, row) for rel in database.relations() for row in rel.rows if rel.nulls() & set(row)
    ]
    if any(len({v for v in row if isinstance(v, Null)}) < sum(isinstance(v, Null) for v in row)
           for _, row in null_rows):
        features.add("null repeated in a row")
    if any(len({rel.name for rel, row in null_rows if null in row}) > 1 for null in database.nulls()):
        features.add("null shared across relations")
    if not database.nulls():
        features.add("no nulls")
    if domain == []:
        features.add("empty domain")
    elif domain and len(set(domain)) < len(database.nulls()):
        features.add("truncated domain")
    if any(rel.arity == 1 for rel in database.relations()):
        features.add("arity 1")
    resolved = default_domain(database) if domain is None else domain
    if len({type(v) for v in list(database.constants()) + list(resolved) if v == 1}) > 1:
        features.add("1/1.0/True")
    if any(
        (value,) in rel.rows
        for rel, row in null_rows
        if rel.arity == 1
        for value in resolved
    ):
        features.add("image collides with a complete row")
    if max_extra_facts == 2:
        features.add("two extra facts")
    return features


def test_instances_cover_the_hard_cases():
    """The generator actually produces the cases this suite is about."""
    covered = set()
    for semantics in ("cwa", "owa", "wcwa"):
        for seed in SEEDS:
            covered |= _features(*_instance(seed, semantics))
    assert covered == {
        "null repeated in a row",
        "null shared across relations",
        "no nulls",
        "empty domain",
        "truncated domain",
        "arity 1",
        "1/1.0/True",
        "image collides with a complete row",
        "two extra facts",
    }


@pytest.mark.parametrize("semantics", ["cwa", "owa", "wcwa"])
@pytest.mark.parametrize("bad", [None, Null("z")])
def test_domain_values_must_be_constants(semantics, bad):
    database = Database.from_dict({"R": [(1, Null("x"))]})
    with pytest.raises(TypeError):
        list(_oracle(database, semantics, [1, bad], 1))
    with pytest.raises(TypeError):
        list(SEMANTICS[semantics].worlds(database, domain=[1, bad]))


def test_unhashable_domain_value_is_rejected():
    database = Database.from_dict({"R": [(Null("x"),)]})
    with pytest.raises(TypeError):
        list(_oracle_cwa(database, [[1]]))
    with pytest.raises(TypeError):
        list(SEMANTICS["cwa"].worlds(database, domain=[[1]]))


# ----------------------------------------------------------------------
# canonical valuations: session answers == every valuation
# ----------------------------------------------------------------------
ENGINES = ["plan", "interpreter", "sqlite"]

#: Session semantics -> the world space the library enumerates for it.
WORLD_SPACES = {"owa": "owa", "cwa": "cwa", "wcwa": "wcwa", "prob": "cwa"}

#: The random instances the session sweep runs (each on every engine).
CANONICAL_SEEDS = SEEDS[:40]

#: A literal relation holding ``'q'``, a constant no instance contains.
OUTSIDE = ConstantRelation(Relation.create("Q", [("q",), (2,)]))


def _queries(database):
    """Generic queries over ``database``'s first and last relation."""
    first, last = database.relations()[0].name, database.relations()[-1].name
    return [
        parse_ra(f"project[#0]({first})"),
        parse_ra(f"diff(project[#0]({first}), project[#0]({last}))"),
        parse_ra(f"diff(adom, project[#0]({first}))"),
        parse_ra(f"select[#0 != 'q'](project[#0]({last}))"),
        parse_ra(f"project[#0](select[#0 = #1](product(project[#0]({first}), adom)))"),
        Difference(OUTSIDE, parse_ra(f"project[#0]({first})")),
    ]


def _connect(database, semantics, engine, **options):
    if semantics == "prob":
        # The measure is irrelevant to certain(): the worlds are the CWA ones.
        model = repro.ProbabilityModel(independent={Null("unmodeled"): {0: 1.0}})
        return repro.connect(database, engine=engine, semantics=semantics, model=model, **options)
    return repro.connect(database, engine=engine, semantics=semantics, **options)


def _full_product(query, database, semantics, domain, max_extra_facts):
    """Certain answer and Boolean certainty over every valuation."""
    resolved = enumeration_domain(query, database, domain)
    space = WORLD_SPACES[semantics]
    answer = enumerate_certain_answers(
        query.evaluate, database, space, domain=resolved, max_extra_facts=max_extra_facts
    )
    holds = enumerate_certain_boolean(
        query.evaluate, database, space, domain=resolved, max_extra_facts=max_extra_facts
    )
    return answer, holds


def _assert_sessions_match(database, semantics, domain, max_extra_facts, queries=None):
    queries = _queries(database) if queries is None else queries
    expected = [
        _full_product(query, database, semantics, domain, max_extra_facts) for query in queries
    ]
    for engine in ENGINES:
        with _connect(database, semantics, engine) as session:
            for query, (answer, holds) in zip(queries, expected):
                q = session.query(query)
                options = dict(domain=domain, max_extra_facts=max_extra_facts)
                assert q.certain(method="enumeration", **options) == answer, (engine, query)
                assert q.boolean(mode="certain", **options) is holds, (engine, query)


@pytest.mark.parametrize("semantics", sorted(WORLD_SPACES))
@pytest.mark.parametrize("seed", CANONICAL_SEEDS)
def test_canonical_sessions_equal_the_full_product(seed, semantics):
    database, domain, max_extra_facts = _instance(seed, WORLD_SPACES[semantics])
    _assert_sessions_match(database, semantics, domain, max_extra_facts)


def test_sweep_takes_the_canonical_path():
    """The random sweep runs canonical valuations, on explicit domains too,
    and meets answers whose canonical intersection holds a fresh value."""
    taken = set()
    for semantics in ("cwa", "owa", "wcwa"):
        for seed in CANONICAL_SEEDS:
            database, domain, max_extra_facts = _instance(seed, semantics)
            for query in _queries(database):
                resolved = enumeration_domain(query, database, domain)
                fresh = valuation_space(query, database, resolved).interchangeable
                if not fresh:
                    continue
                taken.add("canonical")
                if domain is not None:
                    taken.add("explicit domain")
                canonical = certain_over(
                    query.evaluate,
                    SEMANTICS[semantics].worlds(
                        database, resolved, None, max_extra_facts, interchangeable=fresh
                    ),
                    lambda: query.evaluate(database),
                )
                if any(set(fresh) & set(row) for row in canonical.rows):
                    taken.add("fresh row dropped")
    assert taken == {"canonical", "explicit domain", "fresh row dropped"}


def _db(**relations):
    return Database.from_dict(relations)


#: ``(database, domain)`` pairs for the cases canonical enumeration must get right.
EDGE_CASES = {
    # 1/1.0/True and 0/False are equal: none of them is interchangeable,
    # though neither the database nor the queries mention them; 'c' and
    # 'd' are.
    "1/1.0/True and 0/False": (
        _db(R=[(Null("x"), "a"), (Null("y"), "a")], S=[(Null("x"), "b")]),
        [1, 1.0, True, 0, False, "c", "d"],
    ),
    # True equals the database's 1; 2.5 and 'z' are interchangeable.
    "True beside a database 1": (_db(R=[(Null("x"), 1)], S=[(1, Null("y"))]), [True, 2.5, "z"]),
    "one-value domain": (_db(R=[(Null("x"), 1)], S=[(1, 1)]), ["w"]),
    "empty domain": (_db(R=[(Null("x"), 1)], S=[(1, 1)]), []),
    "no nulls": (_db(R=[(1, 2), (2, 3)], S=[(2, 2)]), None),
    # Only the query mentions 'q': nulls range over it, it is never dropped.
    "query constant outside the database": (_db(R=[(Null("x"), 1)], S=[(3, 1)]), None),
    # Empty adom: the canonical intersection of project[#0](R) is {(w0,)}.
    "answer would hold a fresh value": (_db(R=[(Null("x"), Null("y"))], S=[(Null("z"), Null("x"))]), None),
}


@pytest.mark.parametrize("semantics", sorted(WORLD_SPACES))
@pytest.mark.parametrize("case", sorted(EDGE_CASES))
def test_canonical_edge_cases_equal_the_full_product(case, semantics):
    database, domain = EDGE_CASES[case]
    _assert_sessions_match(database, semantics, domain, max_extra_facts=1)


def test_edge_cases_are_what_they_say():
    spaces = {}
    for case, (database, domain) in EDGE_CASES.items():
        query = parse_ra("project[#0](R)")
        spaces[case] = valuation_space(query, database, enumeration_domain(query, database, domain))
    assert spaces["1/1.0/True and 0/False"].interchangeable == ("c", "d")
    assert spaces["True beside a database 1"].interchangeable == (2.5, "z")
    assert spaces["one-value domain"].reason == spaces["empty domain"].reason == "fewer than 2 fresh values"
    assert not spaces["no nulls"].interchangeable
    database, _ = EDGE_CASES["answer would hold a fresh value"]
    query = parse_ra("project[#0](R)")
    domain = enumeration_domain(query, database)
    assert database.constants() == set()
    fresh = valuation_space(query, database, domain).interchangeable
    assert fresh == tuple(domain)
    canonical = certain_over(
        query.evaluate, SEMANTICS["cwa"].worlds(database, domain, interchangeable=fresh), lambda: None
    )
    assert canonical.rows == {(domain[0],)}
    with repro.connect(database) as session:
        assert session.query(query).certain(method="enumeration").rows == set()
    database, _ = EDGE_CASES["query constant outside the database"]
    query = Difference(OUTSIDE, parse_ra("project[#0](R)"))
    assert "q" in enumeration_domain(query, database)
    assert "q" not in valuation_space(query, database, enumeration_domain(query, database)).interchangeable


@pytest.mark.parametrize("seed", [0, 5, 9])
def test_canonical_workers_parity(seed):
    database, domain, max_extra_facts = _instance(seed, "cwa")
    expected = [_full_product(query, database, "cwa", domain, max_extra_facts) for query in _queries(database)]
    with repro.connect(database, workers=2) as session:
        for query, (answer, holds) in zip(_queries(database), expected):
            q = session.query(query)
            assert q.certain(method="enumeration", domain=domain) == answer
            assert q.boolean(mode="certain", domain=domain) is holds
