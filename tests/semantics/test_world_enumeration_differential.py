"""Differential suite: keyed world enumeration == the valuation path.

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
"""

import itertools
import random
from typing import Any, Iterator, List, Optional, Sequence, Set

import pytest

from repro.datamodel import Database, Null, Relation, enumerate_valuations
from repro.semantics import default_domain, worlds

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
    actual = list(worlds(database, semantics, domain=domain, max_extra_facts=max_extra_facts))
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
        list(worlds(database, semantics, domain=[1, bad]))


def test_unhashable_domain_value_is_rejected():
    database = Database.from_dict({"R": [(Null("x"),)]})
    with pytest.raises(TypeError):
        list(_oracle_cwa(database, [[1]]))
    with pytest.raises(TypeError):
        list(worlds(database, "cwa", domain=[[1]]))
