"""Incomplete database instances (naive databases).

A database instance assigns a relation (naive table) to every relation
symbol of a schema.  It is *complete* when no relation mentions a null and
a *Codd database* when every null occurs at most once across the whole
instance (paper, Section 2).
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .relations import Relation, Row
from .schema import DatabaseSchema, RelationSchema
from .values import Null, is_null

Fact = Tuple[str, Row]
"""A fact is a pair ``(relation name, tuple)``."""


class Database:
    """An incomplete relational database instance.

    The instance is immutable: all transformation methods return new
    databases.  Relations missing from the provided mapping are interpreted
    as empty relations over the schema.

    Examples
    --------
    >>> from repro.datamodel import Null, Relation, DatabaseSchema
    >>> schema = DatabaseSchema.from_arities({"R": 2, "S": 1})
    >>> db = Database(schema, {"R": [(1, Null("x"))], "S": [(2,)]})
    >>> db.is_complete()
    False
    >>> sorted(db.facts())
    [('R', (1, Null('x'))), ('S', (2,))]
    """

    __slots__ = ("_schema", "_relations", "_hash", "_analysis_cache", "_content_digest")

    def __init__(
        self,
        schema: DatabaseSchema,
        relations: Optional[Mapping[str, Any]] = None,
    ) -> None:
        self._schema = schema
        rels: Dict[str, Relation] = {}
        provided = dict(relations or {})
        for rel_schema in schema:
            data = provided.pop(rel_schema.name, None)
            rels[rel_schema.name] = _coerce_relation(rel_schema, data)
        if provided:
            unknown = ", ".join(sorted(provided))
            raise KeyError(f"relations not declared in the schema: {unknown}")
        self._relations = rels
        self._hash: Optional[int] = None
        self._analysis_cache: Optional[Dict[str, Any]] = None
        self._content_digest: Optional[str] = None

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_relations(cls, relations: Iterable[Relation]) -> "Database":
        """Build a database (and its schema) from a collection of relations."""
        relations = list(relations)
        schema = DatabaseSchema(rel.schema for rel in relations)
        return cls(schema, {rel.name: rel for rel in relations})

    @classmethod
    def from_dict(cls, data: Mapping[str, Iterable[Sequence[Any]]]) -> "Database":
        """Build a database from a ``{name: rows}`` mapping, inferring arities."""
        relations = [Relation.create(name, list(rows)) for name, rows in data.items()]
        return cls.from_relations(relations)

    @classmethod
    def from_facts(cls, schema: DatabaseSchema, facts: Iterable[Fact]) -> "Database":
        """Build a database over ``schema`` from ``(relation, tuple)`` facts."""
        grouped: Dict[str, List[Row]] = {name: [] for name in schema.names()}
        for name, row in facts:
            if name not in grouped:
                raise KeyError(f"unknown relation {name!r}")
            grouped[name].append(tuple(row))
        return cls(schema, grouped)

    @classmethod
    def empty(cls, schema: DatabaseSchema) -> "Database":
        """The empty instance over ``schema``."""
        return cls(schema, {})

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def schema(self) -> DatabaseSchema:
        """The database schema."""
        return self._schema

    def relation(self, name: str) -> Relation:
        """The relation assigned to ``name``."""
        try:
            return self._relations[name]
        except KeyError:
            raise KeyError(f"unknown relation {name!r}") from None

    def __getitem__(self, name: str) -> Relation:
        return self.relation(name)

    def __contains__(self, name: object) -> bool:
        return name in self._relations

    def relations(self) -> List[Relation]:
        """All relations, in schema order."""
        return [self._relations[name] for name in self._schema.names()]

    def facts(self) -> List[Fact]:
        """All facts ``(relation name, tuple)`` of the instance."""
        result: List[Fact] = []
        for name in self._schema.names():
            result.extend((name, row) for row in self._relations[name])
        return result

    def __getstate__(self):
        # The analysis cache is per-process scratch (it may hold
        # unpicklable artifacts) and the hash is cheap to recompute: a
        # caller that pickles a database gets only the actual data.
        return (self._schema, self._relations)

    def __setstate__(self, state) -> None:
        self._schema, self._relations = state
        self._hash = None
        self._analysis_cache = None
        self._content_digest = None

    def analysis_cache(self) -> Dict[str, Any]:
        """A per-instance scratch cache for derived, immutable artifacts.

        Databases are immutable, so analyses that depend only on the
        instance (sorted fact lists, search orderings, ...) can be computed
        once and reused across calls.  Callers own their key namespace.
        """
        if self._analysis_cache is None:
            self._analysis_cache = {}
        return self._analysis_cache

    def _compute_content_digest(self) -> str:
        """The O(rows) digest computation behind :meth:`content_digest`.

        Kept separate so tests (and profilers) can count how often the
        expensive walk actually runs.
        """
        import hashlib

        digest = hashlib.sha256()
        for name in sorted(self._schema.names()):
            digest.update(name.encode("utf-8"))
            digest.update(b"\x1f")
            for row in sorted(repr(row) for row in self._relations[name].rows):
                digest.update(row.encode("utf-8"))
                digest.update(b"\x1e")
            digest.update(b"\x1f")
        return digest.hexdigest()

    def content_digest(self) -> str:
        """A sha256 fingerprint of the instance's facts, cached per object.

        Databases are immutable — every transformation returns a *new*
        instance with an empty cache — so the digest never needs explicit
        invalidation: a mutated database is a different object, and
        ``Session``'s backend ``replace_database`` points at that new
        object.  Consumers that fingerprint the same instance repeatedly
        (the :class:`~repro.resilience.ResumeToken` stamp/validation path
        hashes the database once per ``certain(budget=)`` call) therefore
        pay the O(rows) walk at most once per instance.
        """
        cached = self._content_digest
        if cached is None:
            cached = self._compute_content_digest()
            self._content_digest = cached
        return cached

    def size(self) -> int:
        """Total number of tuples across all relations."""
        return sum(len(rel) for rel in self._relations.values())

    def relation_sizes(self) -> Tuple[int, ...]:
        """Each relation's tuple count, in schema order, computed once per
        instance (kept on :meth:`analysis_cache`): the vector a cached
        physical plan was cost-ordered for is compared against it."""
        cache = self.analysis_cache()
        sizes = cache.get("relation_sizes")
        if sizes is None:
            sizes = cache["relation_sizes"] = tuple(len(rel) for rel in self.relations())
        return sizes

    def __len__(self) -> int:
        return self.size()

    def __iter__(self) -> Iterator[Relation]:
        return iter(self.relations())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Database):
            return self._schema == other._schema and self._relations == other._relations
        return NotImplemented

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self._schema, frozenset(self._relations.items())))
        return self._hash

    def __repr__(self) -> str:
        parts = ", ".join(f"{name}:{len(rel)}" for name, rel in sorted(self._relations.items()))
        return f"Database({parts})"

    def to_table(self) -> str:
        """Render every relation as an ASCII table."""
        return "\n\n".join(rel.to_table() for rel in self.relations())

    # ------------------------------------------------------------------
    # nulls, constants, completeness
    # ------------------------------------------------------------------
    def nulls(self) -> Set[Null]:
        """``Null(D)``: all marked nulls occurring in the instance.

        Computed once per instance (kept on :meth:`analysis_cache`); each
        call returns a fresh ``set`` the caller may modify.
        """
        cache = self.analysis_cache()
        nulls = cache.get("nulls")
        if nulls is None:
            found: Set[Null] = set()
            for rel in self._relations.values():
                found |= rel.nulls()
            nulls = cache["nulls"] = frozenset(found)
        return set(nulls)

    def constants(self) -> Set[Any]:
        """``Const(D)``: all constants occurring in the instance."""
        result: Set[Any] = set()
        for rel in self._relations.values():
            result |= rel.constants()
        return result

    def active_domain(self) -> Set[Any]:
        """``adom(D) = Const(D) ∪ Null(D)``."""
        return self.constants() | self.nulls()

    def is_complete(self) -> bool:
        """``True`` iff no relation mentions a null."""
        return all(rel.is_complete() for rel in self._relations.values())

    def is_codd(self) -> bool:
        """``True`` iff every null occurs at most once across the instance."""
        seen: Set[Null] = set()
        for rel in self._relations.values():
            for null, count in rel.null_occurrences().items():
                if count > 1 or null in seen:
                    return False
                seen.add(null)
        return True

    def complete_part(self) -> "Database":
        """``D_cmpl``: the instance retaining only tuples without nulls."""
        return self.map_relations(lambda rel: rel.complete_part())

    # ------------------------------------------------------------------
    # transformations
    # ------------------------------------------------------------------
    def map_values(self, function: Callable[[Any], Any]) -> "Database":
        """Apply ``function`` to every value of every tuple."""
        return self.map_relations(lambda rel: rel.map_values(function))

    def map_relations(self, function: Callable[[Relation], Relation]) -> "Database":
        """Apply ``function`` to every relation (must preserve schema name/arity)."""
        new_relations = {}
        for name, rel in self._relations.items():
            new_rel = function(rel)
            if new_rel.name != name or new_rel.arity != rel.arity:
                raise ValueError("map_relations must preserve relation names and arities")
            new_relations[name] = new_rel
        return Database(self._schema, new_relations)

    def with_relation(self, relation: Relation) -> "Database":
        """Replace one relation (the schema must already declare it)."""
        if relation.name not in self._relations:
            raise KeyError(f"unknown relation {relation.name!r}")
        expected = self._schema[relation.name]
        if relation.arity != expected.arity:
            raise ValueError(
                f"relation {relation.name} must have arity {expected.arity}"
            )
        new_relations = dict(self._relations)
        new_relations[relation.name] = relation
        return Database(self._schema, new_relations)

    def add_facts(self, facts: Iterable[Fact]) -> "Database":
        """A database extended with the given facts."""
        grouped: Dict[str, List[Row]] = {}
        for name, row in facts:
            grouped.setdefault(name, []).append(tuple(row))
        new_relations = dict(self._relations)
        for name, rows in grouped.items():
            if name not in new_relations:
                raise KeyError(f"unknown relation {name!r}")
            new_relations[name] = new_relations[name].add_rows(rows)
        return Database(self._schema, new_relations)

    def union(self, other: "Database") -> "Database":
        """Relation-wise union of two instances over the same schema."""
        if self._schema != other._schema:
            raise ValueError("can only union databases over the same schema")
        return Database(
            self._schema,
            {name: self._relations[name].union(other._relations[name]) for name in self._schema.names()},
        )

    def contains_database(self, other: "Database") -> bool:
        """``True`` iff every fact of ``other`` is a fact of this instance."""
        if self._schema != other._schema:
            return False
        return all(
            other._relations[name].rows <= self._relations[name].rows
            for name in self._schema.names()
        )


def _coerce_relation(rel_schema: RelationSchema, data: Any) -> Relation:
    if data is None:
        return Relation.empty(rel_schema)
    if isinstance(data, Relation):
        if data.arity != rel_schema.arity:
            raise ValueError(
                f"relation {rel_schema.name} must have arity {rel_schema.arity}, "
                f"got {data.arity}"
            )
        if data.schema != rel_schema:
            return Relation._from_trusted(rel_schema, data.rows)
        return data
    return Relation(rel_schema, data)


def facts_with_nulls(database: Database) -> List[Fact]:
    """The facts of ``database`` that mention at least one null."""
    return [(name, row) for name, row in database.facts() if any(is_null(v) for v in row)]
