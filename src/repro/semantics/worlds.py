"""Possible-world enumeration for incomplete databases.

The paper's semantics functions map an incomplete database to an (in
general infinite) set of complete databases::

    [[D]]_cwa = { v(D)      | v a valuation }
    [[D]]_owa = { D' ⊇ v(D) | v a valuation }

Const is countably infinite, so neither set can be enumerated literally.
For the query languages studied in the paper, however, certain answers are
insensitive to the identity of constants outside the query and the
database (genericity, Section 5/6).  The standard consequence — and the
substitution documented in DESIGN.md §6 — is that it suffices to let nulls
range over the *active domain extended with a few fresh constants* (at
least as many as there are nulls, so that "all distinct and new" is among
the enumerated valuations) and, under OWA, to bound the number of extra
facts added over that finite domain.  The helpers here implement exactly
that, with the finite domain and OWA fact bound exposed as parameters so
experiments can cross-check two different pool sizes.

**Keyed enumeration.**  Many valuations produce the same world (729
valuations of the e2e ``worlds`` instance give 64 worlds), so the
enumerators never build a world just to find out it is a duplicate.
Each relation is split once into its *complete rows* ``C_R`` (a
frozenset) and its null-row *templates* (an ``operator.itemgetter``
picking each position out of ``valuation tuple + constants``).  Per
valuation the enumerator computes the *key*: one entry per relation,
``K_R = {template images} − C_R``; OWA/WCWA extra facts join ``K_R``
minus ``C_R`` the same way.  The world is ``C_R ∪ K_R`` and
``K_R ∩ C_R = ∅``, so ``K_R`` is exactly ``world_R − C_R``: two keys are
equal iff their worlds are, and deduplication runs on keys.  A
:class:`~repro.datamodel.Database` is built only for a key not seen
before.  Worlds come out in valuation order (nulls sorted by name, the
domain in the given order, then extra-fact combinations), the order the
``ResumeToken.worlds_done`` checkpoint counts in.

**Canonical valuations.**  Genericity says more than "a finite domain
suffices": a query that compares values only for equality cannot tell
apart the *interchangeable* values — domain values outside the database
and the query, pairwise distinct — so renaming them renames its answers
and nothing else.  Every valuation is a renaming of a *canonical* one,
whose k-th distinct interchangeable value is the k-th in domain order
(restricted-growth order), so for certain answers these suffice once the
answer rows holding an interchangeable value are dropped (with two or
more such values, some world avoids each one).  Passing
``interchangeable=`` runs only the canonical valuations, in the same
valuation order (a subsequence of it): on the e2e ``worlds`` instance
(3 nulls, 5 constants, 4 fresh values) that is 235 of 729 valuations and
20 of 64 worlds.  OWA/WCWA extra facts still range over the whole domain
(or world active domain): a renaming maps each fact pool onto itself.
Without ``interchangeable`` every valuation runs; sessions pass it for
``certain()`` and ``boolean(mode="certain")`` of generic queries only
(:func:`repro.core.answers.valuation_space`).

**Other sources.**  Graphs, data trees and c-tables reach the folds of
:mod:`repro.semantics.certain` through :func:`valuation_worlds`: one
``build(v)`` per valuation, in valuation order.  It does not deduplicate:
a key needs the complete-row/template split above, which only a
:class:`~repro.datamodel.Database` has, and without one the only way to
spot a duplicate is to build the world anyway.  So the worlds of such a
source, and the budget ticks they cost, are one per valuation.
"""

from __future__ import annotations

import itertools
import operator
from typing import Any, Callable, Collection, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from ..datamodel import ConstantPool, Database, Null, Relation, Valuation, enumerate_valuations
from ..datamodel.relations import Row
from ..datamodel.schema import DatabaseSchema
from ..datamodel.values import check_value, intern_value, is_null

Key = Tuple[FrozenSet[Row], ...]
"""Per relation (schema order), the rows of a world that are not complete rows of the input."""

Template = Callable[[Tuple[Any, ...]], Row]
"""The image of one null row, given ``valuation tuple + constants``."""


def _domain_order(value: Any) -> Tuple[str, str]:
    return (str(type(value)), str(value))


def default_domain(
    database: Any,
    extra_constants: Optional[int] = None,
    constants: Iterable[Any] = (),
    prefix: str = "w",
) -> List[Any]:
    """A finite constant domain for valuation enumeration.

    The domain consists of the constants of ``database`` (anything with
    ``constants()`` and ``nulls()``: a database, a graph, a data tree),
    any explicitly supplied ``constants`` (e.g. constants mentioned by the
    query), and ``extra_constants`` fresh constants.  When ``extra_constants`` is not
    given it defaults to ``number of nulls + 1``: the valuation mapping all
    nulls to pairwise-distinct fresh values is then enumerated, and every
    null always has at least two candidate values, so tuples built from a
    single unavoidable fresh constant cannot masquerade as certain answers.
    """
    base: List[Any] = sorted(set(database.constants()) | {c for c in constants}, key=_domain_order)
    if extra_constants is None:
        extra_constants = len(database.nulls()) + 1
    pool = ConstantPool(forbidden=base, prefix=prefix)
    return base + pool.take(extra_constants)


def _template(positions: List[int]) -> Template:
    """The :data:`Template` picking ``positions`` out of ``valuation tuple + constants``."""
    if len(positions) == 1:
        # itemgetter with a single index returns the value, not a 1-tuple.
        get = operator.itemgetter(positions[0])
        return lambda values: (get(values),)
    return operator.itemgetter(*positions)


def _valuation_values(domain: Sequence[Any]) -> List[Any]:
    """``domain`` checked and interned once, as :class:`Valuation` and ``Relation`` would."""
    values = []
    for value in domain:
        if value is None or is_null(value):
            raise TypeError(f"valuations must assign constants, got {value!r}")
        values.append(intern_value(check_value(value)))
    return values


def _canonical_valuations(
    values: Sequence[Any], interchangeable: Collection[Any], length: int
) -> Iterator[Tuple[Any, ...]]:
    """The canonical ``length``-tuples over ``values``, in product order.

    A tuple is canonical when the k-th distinct ``interchangeable`` value
    it uses is the k-th of them in ``values`` (restricted-growth order):
    every tuple is one of these up to a permutation of the interchangeable
    values.  The tuples are the subsequence of
    ``itertools.product(values, repeat=length)`` that is canonical.  An
    odometer over the positions walks them, so any ``length`` runs in
    constant stack depth.
    """
    if not length:
        yield ()
        return
    fresh = set(interchangeable)
    # ranks[i]: the rank of values[i] among the interchangeable values, -1
    # for the others; position p may take values[i] iff ranks[i] <= used[p].
    ranks, count = [], 0
    for value in values:
        if value in fresh:
            ranks.append(count)
            count += 1
        else:
            ranks.append(-1)
    end = len(ranks)

    def allowed(start: int, used: int) -> int:
        """The first index from ``start`` a position with ``used`` fresh values before it may take."""
        while start < end and ranks[start] > used:
            start += 1
        return start

    choices = list(zip(values, ranks))
    last = length - 1
    index = [0] * length  # the value index at each position before the last
    used = [0] * length  # used[p]: distinct fresh values before position p
    current: List[Any] = [None] * last
    position = 0
    index[0] = allowed(0, 0)
    while True:
        if position == last:  # the last position runs through its values at once
            prefix = tuple(current)
            for value, rank in choices:
                if rank <= used[last]:
                    yield prefix + (value,)
        elif index[position] < end:
            i = index[position]
            current[position] = values[i]
            used[position + 1] = used[position] + (ranks[i] == used[position])
            position += 1
            index[position] = allowed(0, used[position])
            continue
        # This position is exhausted: advance the one before it.
        if position == 0:
            return
        position -= 1
        index[position] = allowed(index[position] + 1, used[position])


class _SplitDatabase:
    """An incomplete database split into complete rows and null-row templates."""

    __slots__ = ("schema", "nulls", "constants", "completes", "bases", "templated")

    def __init__(self, database: Database) -> None:
        self.schema = database.schema
        self.nulls: List[Null] = sorted(database.nulls(), key=lambda null: null.name)
        slot = {null: index for index, null in enumerate(self.nulls)}
        constants: List[Any] = []
        #: Per relation: its complete rows, and the relation a world holds
        #: when no other row joins them (shared by every such world).
        self.completes: List[FrozenSet[Row]] = []
        self.bases: List[Relation] = []
        #: ``(relation index, templates)`` for each relation with null rows.
        self.templated: List[Tuple[int, List[Template]]] = []
        for index, relation in enumerate(database.relations()):
            complete: List[Row] = []
            templates: List[Template] = []
            for row in relation.rows:
                if not any(is_null(value) for value in row):
                    complete.append(row)
                    continue
                positions = []
                for value in row:
                    if is_null(value):
                        positions.append(slot[value])
                    else:
                        positions.append(len(self.nulls) + len(constants))
                        constants.append(value)
                templates.append(_template(positions))
            if templates:
                rows = frozenset(complete)
                self.templated.append((index, templates))
                self.bases.append(Relation._from_trusted(relation.schema, rows))
            else:
                rows = relation.rows
                self.bases.append(relation)
            self.completes.append(rows)
        self.constants = tuple(constants)

    def distinct_keys(
        self, domain: Sequence[Any], interchangeable: Collection[Any] = ()
    ) -> Iterator[Tuple[Tuple[Any, ...], Key]]:
        """``(valuation tuple, key)`` for each first valuation of a new world.

        Valuations run in :func:`~repro.datamodel.enumerate_valuations`
        order: the tuple assigns ``domain`` values to the nulls sorted by
        name.  With ``interchangeable`` values only the canonical ones
        run (:func:`_canonical_valuations`), in the same order.  With no
        nulls the single empty valuation is enumerated; with nulls and an
        empty domain, none is.
        """
        values = _valuation_values(domain) if self.nulls else []
        constants = self.constants
        completes = self.completes
        templated = self.templated
        blank = (frozenset(),) * len(completes)
        seen: Set[Key] = set()
        if interchangeable:
            combos: Iterable[Tuple[Any, ...]] = _canonical_valuations(
                values, interchangeable, len(self.nulls)
            )
        else:
            combos = itertools.product(values, repeat=len(self.nulls))
        for combo in combos:
            row_values = combo + constants
            key = list(blank)
            for index, templates in templated:
                key[index] = frozenset([image(row_values) for image in templates]) - completes[index]
            frozen = tuple(key)
            if frozen not in seen:
                seen.add(frozen)
                yield combo, frozen

    def world(self, key: Key) -> Database:
        """The world ``complete rows ∪ key``, relation by relation."""
        relations = {}
        for base, complete, extra in zip(self.bases, self.completes, key):
            if extra:
                base = Relation._from_trusted(base.schema, complete | extra)
            relations[base.name] = base
        return Database(self.schema, relations)

    def extended_worlds(
        self,
        base: Key,
        pool: List[Tuple[int, Row]],
        max_extra_facts: int,
        seen: Set[Key],
    ) -> Iterator[Database]:
        """The unseen worlds ``base`` plus at most ``max_extra_facts`` facts of ``pool``."""
        completes = self.completes
        for count in range(0, max_extra_facts + 1):
            for extra in itertools.combinations(pool, count):
                key = list(base)
                for index, row in extra:
                    if row not in completes[index]:
                        key[index] = key[index] | {row}
                frozen = tuple(key)
                if frozen not in seen:
                    seen.add(frozen)
                    yield self.world(frozen)


def _fact_pool(schema: DatabaseSchema, domain: Sequence[Any]) -> List[Tuple[int, Row]]:
    """All facts over ``schema`` with values drawn from ``domain``.

    Facts are ``(relation index in schema order, row)``, with values
    checked and interned as ``Relation`` would store them.
    """
    values = [intern_value(check_value(value)) for value in domain]
    return [
        (index, combo)
        for index, rel_schema in enumerate(schema)
        for combo in itertools.product(values, repeat=rel_schema.arity)
    ]


def cwa_worlds(
    database: Database,
    domain: Optional[Sequence[Any]] = None,
    extra_constants: Optional[int] = None,
    *,
    interchangeable: Collection[Any] = (),
) -> Iterator[Database]:
    """Enumerate ``{ v(D) | v : Null(D) → domain }`` (the finite CWA approximation).

    Every yielded database is complete.  Duplicates (different valuations
    producing the same world) are suppressed.  ``interchangeable`` values
    of ``domain`` restrict the valuations to the canonical ones (see the
    module docstring); the default, none, enumerates every valuation.
    """
    if domain is None:
        domain = default_domain(database, extra_constants=extra_constants)
    split = _SplitDatabase(database)
    for _, key in split.distinct_keys(domain, interchangeable):
        yield split.world(key)


def owa_worlds(
    database: Database,
    domain: Optional[Sequence[Any]] = None,
    extra_constants: Optional[int] = None,
    max_extra_facts: int = 1,
    *,
    interchangeable: Collection[Any] = (),
) -> Iterator[Database]:
    """Enumerate a finite approximation of ``[[D]]_owa``.

    Each world is ``v(D)`` extended with at most ``max_extra_facts``
    additional facts whose values are drawn from ``domain``.  The
    approximation is exhaustive relative to the chosen domain and fact
    bound; experiments that rely on OWA enumeration state explicitly why
    the bound suffices for the query under test (e.g. monotone queries need
    ``max_extra_facts = 0``).  ``interchangeable`` restricts the
    valuations as in :func:`cwa_worlds`; extra facts still range over the
    whole domain.
    """
    if domain is None:
        domain = default_domain(database, extra_constants=extra_constants)
    split = _SplitDatabase(database)
    pool = _fact_pool(database.schema, domain) if max_extra_facts > 0 else []
    seen: Set[Key] = set()
    for _, base in split.distinct_keys(domain, interchangeable):
        yield from split.extended_worlds(base, pool, max_extra_facts, seen)


def _world_domain(database: Database, nulls: List[Null], combo: Tuple[Any, ...]) -> List[Any]:
    """The sorted active domain of ``v(D)`` for ``v = nulls ↦ combo``.

    ``v(D)`` is built the way ``Valuation.apply`` builds it: among equal
    constants of different types (``1``, ``1.0``, ``True``) the one the
    active domain keeps depends on that construction, and its sort
    position orders the weak-CWA fact pool.
    """
    image = dict(zip(nulls, combo))
    world = database.map_values(lambda value: image.get(value, value))
    return sorted(world.active_domain(), key=_domain_order)


def wcwa_worlds(
    database: Database,
    domain: Optional[Sequence[Any]] = None,
    extra_constants: Optional[int] = None,
    max_extra_facts: int = 1,
    *,
    interchangeable: Collection[Any] = (),
) -> Iterator[Database]:
    """Enumerate a finite approximation of the weak-CWA semantics.

    Worlds are ``v(D)`` extended with at most ``max_extra_facts`` facts whose
    values are drawn from the *world's own* active domain (Reiter's weak
    closed-world assumption: new tuples yes, new values no).
    ``interchangeable`` restricts the valuations as in :func:`cwa_worlds`.
    """
    if domain is None:
        domain = default_domain(database, extra_constants=extra_constants)
    split = _SplitDatabase(database)
    seen: Set[Key] = set()
    for combo, base in split.distinct_keys(domain, interchangeable):
        pool: List[Tuple[int, Row]] = []
        if max_extra_facts > 0:
            pool = _fact_pool(database.schema, _world_domain(database, split.nulls, combo))
        yield from split.extended_worlds(base, pool, max_extra_facts, seen)


def valuation_worlds(
    nulls: Iterable[Null],
    domain: Iterable[Any],
    build: Callable[[Valuation], Optional[Any]],
) -> Iterator[Any]:
    """``build(v)`` for each valuation ``v`` of ``nulls`` into ``domain``.

    Valuations run in :func:`~repro.datamodel.enumerate_valuations`
    order; a ``None`` from ``build`` (a valuation that yields no world,
    e.g. one violating a global condition) is skipped.  No duplicate is
    suppressed (see the module docstring).
    """
    for valuation in enumerate_valuations(nulls, domain):
        world = build(valuation)
        if world is not None:
            yield world


def count_cwa_worlds(database: Database, domain: Sequence[Any]) -> int:
    """Upper bound on the number of worlds enumerated by :func:`cwa_worlds`."""
    return max(1, len(domain)) ** len(database.nulls())


def worlds(
    database: Database,
    semantics: str = "cwa",
    domain: Optional[Sequence[Any]] = None,
    extra_constants: Optional[int] = None,
    max_extra_facts: int = 1,
    *,
    interchangeable: Collection[Any] = (),
) -> Iterator[Database]:
    """Dispatch to :func:`cwa_worlds`, :func:`owa_worlds` or :func:`wcwa_worlds`."""
    if semantics == "cwa":
        return cwa_worlds(database, domain, extra_constants, interchangeable=interchangeable)
    if semantics == "owa":
        return owa_worlds(
            database, domain, extra_constants, max_extra_facts, interchangeable=interchangeable
        )
    if semantics == "wcwa":
        return wcwa_worlds(
            database, domain, extra_constants, max_extra_facts, interchangeable=interchangeable
        )
    raise ValueError(f"unknown semantics {semantics!r}; expected 'cwa', 'owa' or 'wcwa'")


def fresh_value_worlds(
    database: Database,
    semantics: str,
    value: Any,
    max_extra_facts: int = 1,
    partners: Sequence[Any] = (),
) -> Iterator[Database]:
    """Worlds of :func:`worlds` that put ``value``, a domain value outside
    the database, everywhere the semantics can put one.

    Every null mapped to ``value``; where worlds gain facts (OWA, and
    weak CWA once ``value`` is in the world's active domain), that world
    plus one fact ``R(value, ..., value)`` per relation; and for each of
    ``partners`` (domain values) and each null, that null mapped to
    ``value`` and every other null to the partner, so two nulls can hold
    ``value`` and a partner side by side.  Each is a world of
    ``worlds(database, semantics, domain)`` for any ``domain`` holding
    ``value``, the partners and the same ``max_extra_facts``, so an
    error evaluating one is an error the full enumeration meets too.
    """
    nulls = sorted(database.nulls(), key=lambda null: null.name)
    base = Valuation({null: value for null in nulls}).apply(database)
    if nulls:
        yield base
    grows = semantics == "owa" or (semantics == "wcwa" and bool(nulls))
    if grows and max_extra_facts > 0:
        for rel_schema in database.schema:
            yield base.add_facts([(rel_schema.name, (value,) * rel_schema.arity)])
    if len(nulls) > 1:
        for partner in partners:
            for chosen in nulls:
                yield Valuation(
                    {null: value if null is chosen else partner for null in nulls}
                ).apply(database)
