"""Relations over constants and nulls: naive tables and Codd tables.

Following the paper (Section 2), an incomplete relation assigns to a
``k``-ary relation symbol a finite subset of ``(Const ∪ Null)^k``.  Such
relations are *naive tables*; if every null occurs at most once in the
whole table we speak of a *Codd table* (the model of SQL's nulls).  A
*complete* relation mentions no nulls at all.

Relations use set semantics (no duplicate tuples), matching the paper's
formal model.  The SQL layer (:mod:`repro.sqlnulls`) layers bag semantics
on top where it matters for faithfulness to SQL.
"""

from __future__ import annotations

from operator import itemgetter
from typing import (
    AbstractSet,
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from .schema import RelationSchema
from .values import Null, check_value, intern_value, is_null

Row = Tuple[Any, ...]


def _freeze_row(row: Sequence[Any], arity: int, relation_name: str) -> Row:
    values = tuple(intern_value(check_value(v)) for v in row)
    if len(values) != arity:
        raise ValueError(
            f"tuple {values!r} has arity {len(values)}, "
            f"but relation {relation_name} has arity {arity}"
        )
    return values


class Relation:
    """An incomplete relation (naive table) with set semantics.

    Parameters
    ----------
    schema:
        Either a :class:`~repro.datamodel.schema.RelationSchema` or a plain
        relation name, in which case the arity is inferred from the first
        tuple (and must be supplied via ``arity`` for empty relations).
    rows:
        The tuples of the relation.  Each value must be a constant or a
        :class:`~repro.datamodel.values.Null`.

    Examples
    --------
    >>> from repro.datamodel import Null
    >>> r = Relation.create("R", [(1, 2), (2, Null("x"))])
    >>> len(r)
    2
    >>> r.is_complete()
    False
    >>> sorted(n.name for n in r.nulls())
    ['x']
    """

    __slots__ = ("_schema", "_rows", "_hash", "_indexes")

    def __init__(self, schema: RelationSchema, rows: Iterable[Sequence[Any]] = ()) -> None:
        if not isinstance(schema, RelationSchema):
            raise TypeError("schema must be a RelationSchema; use Relation.create for shortcuts")
        self._schema = schema
        self._rows: FrozenSet[Row] = frozenset(
            _freeze_row(row, schema.arity, schema.name) for row in rows
        )
        self._hash: Optional[int] = None
        # index_on and key_map results, keyed by ("index"|"keys", positions).
        self._indexes: Optional[Dict[Tuple[str, Tuple[int, ...]], Dict[Any, Any]]] = None

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        name: str,
        rows: Iterable[Sequence[Any]],
        attributes: Optional[Sequence[str]] = None,
        arity: Optional[int] = None,
    ) -> "Relation":
        """Convenience constructor inferring the schema from the data.

        ``attributes`` takes precedence over ``arity``; if neither is given
        the arity is taken from the first row (the row list must then be
        non-empty).
        """
        rows = [tuple(row) for row in rows]
        if attributes is not None:
            schema = RelationSchema(name, tuple(attributes))
        else:
            if arity is None:
                if not rows:
                    raise ValueError(
                        "cannot infer the arity of an empty relation; "
                        "pass attributes=... or arity=..."
                    )
                arity = len(rows[0])
            schema = RelationSchema.with_arity(name, arity)
        return cls(schema, rows)

    @classmethod
    def empty(cls, schema: RelationSchema) -> "Relation":
        """The empty relation over ``schema``."""
        return cls(schema, ())

    @classmethod
    def _from_trusted(cls, schema: RelationSchema, rows: Iterable[Row]) -> "Relation":
        """Internal fast constructor for rows that are already validated.

        Values are validated and interned once, when they enter a relation
        from outside the library (``Relation(...)``, :meth:`create`,
        :meth:`with_rows`, :meth:`map_values`, :meth:`add_rows`).  Every
        relation built only from rows of existing relations — set
        operations, renaming, :meth:`complete_part`, the evaluation engine's
        operators — comes through here and skips the per-value checks.

        The caller's contract: every row is either a row of an existing
        relation, or a freshly frozen tuple recombining values taken from
        existing relations, and has exactly ``schema.arity`` entries.  A
        row holding a value that never went through ``check_value`` /
        ``intern_value`` (``None``, an unhashable or un-interned value)
        breaks the invariant the rest of the library relies on.
        """
        relation = cls.__new__(cls)
        relation._schema = schema
        relation._rows = rows if isinstance(rows, frozenset) else frozenset(rows)
        relation._hash = None
        relation._indexes = None
        return relation

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def schema(self) -> RelationSchema:
        """The relation schema."""
        return self._schema

    @property
    def name(self) -> str:
        """The relation name."""
        return self._schema.name

    @property
    def arity(self) -> int:
        """Number of attributes."""
        return self._schema.arity

    @property
    def attributes(self) -> Tuple[str, ...]:
        """The attribute names."""
        return self._schema.attributes

    @property
    def rows(self) -> FrozenSet[Row]:
        """The set of tuples."""
        return self._rows

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)

    def __contains__(self, row: object) -> bool:
        return row in self._rows

    def __bool__(self) -> bool:
        return bool(self._rows)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Relation):
            return self._schema == other._schema and self._rows == other._rows
        return NotImplemented

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self._schema, self._rows))
        return self._hash

    def __getstate__(self) -> Tuple[RelationSchema, FrozenSet[Row]]:
        # Indexes and key maps are per-process scratch, rebuilt on demand:
        # a caller that pickles a relation gets the rows, not every cached
        # index.
        return (self._schema, self._rows)

    def __setstate__(self, state: Tuple[RelationSchema, FrozenSet[Row]]) -> None:
        self._schema, self._rows = state
        self._hash = None
        self._indexes = None

    def __repr__(self) -> str:
        preview = ", ".join(repr(row) for row in self.sorted_rows()[:4])
        suffix = ", ..." if len(self) > 4 else ""
        return f"Relation({self.name}/{self.arity}, {{{preview}{suffix}}})"

    def sorted_rows(self) -> List[Row]:
        """The tuples sorted by their string rendering (deterministic output)."""
        return sorted(self._rows, key=lambda row: tuple(str(v) for v in row))

    # ------------------------------------------------------------------
    # nulls and constants
    # ------------------------------------------------------------------
    def nulls(self) -> Set[Null]:
        """The set ``Null(R)`` of marked nulls occurring in the relation."""
        return {v for row in self._rows for v in row if is_null(v)}

    def constants(self) -> Set[Any]:
        """The set ``Const(R)`` of constants occurring in the relation."""
        return {v for row in self._rows for v in row if not is_null(v)}

    def active_domain(self) -> Set[Any]:
        """``adom(R) = Const(R) ∪ Null(R)``."""
        return {v for row in self._rows for v in row}

    def is_complete(self) -> bool:
        """``True`` iff the relation mentions no nulls."""
        return not any(is_null(v) for row in self._rows for v in row)

    def is_codd(self) -> bool:
        """``True`` iff every null occurs at most once (a Codd table)."""
        seen: Set[Null] = set()
        for row in self._rows:
            for value in row:
                if is_null(value):
                    if value in seen:
                        return False
                    seen.add(value)
        return True

    def null_occurrences(self) -> Dict[Null, int]:
        """Number of occurrences of each null (a Codd table has all counts 1)."""
        counts: Dict[Null, int] = {}
        for row in self._rows:
            for value in row:
                if is_null(value):
                    counts[value] = counts.get(value, 0) + 1
        return counts

    def complete_part(self) -> "Relation":
        """The tuples without nulls (``R_cmpl`` in the paper)."""
        # A plain loop: a per-row ``any(...)`` generator costs ~4x more, and
        # this runs on every naive ``certain()``.
        kept = []
        for row in self._rows:
            for value in row:
                if isinstance(value, Null):
                    break
            else:
                kept.append(row)
        return Relation._from_trusted(self._schema, frozenset(kept))

    # ------------------------------------------------------------------
    # indexes
    # ------------------------------------------------------------------
    def index_on(self, positions: Sequence[int]) -> Dict[Row, List[Row]]:
        """A hash index of the rows keyed by the values at ``positions``.

        The index maps each key tuple to the list of rows carrying it and is
        cached on the relation (relations are immutable), so repeated joins
        and homomorphism searches against the same relation reuse it.
        """
        key_positions = tuple(positions)
        if self._indexes is None:
            self._indexes = {}
        index = self._indexes.get(("index", key_positions))
        if index is None:
            index = {}
            for row in self._rows:
                key = tuple(row[p] for p in key_positions)
                index.setdefault(key, []).append(row)
            self._indexes[("index", key_positions)] = index
        return index

    def key_map(self, positions: Sequence[int]) -> Dict[Any, Any]:
        """The distinct keys at ``positions``, each mapped to this relation's own key.

        Keys and values follow :func:`key_getter`: a bare value for one
        position, a tuple otherwise.  A semi-join probes the map by
        membership and reads the stored key back, so its output carries
        this relation's values (``1`` stays ``1`` when probed with
        ``1.0``).  Cached beside :meth:`index_on`.
        """
        key_positions = tuple(positions)
        if self._indexes is None:
            self._indexes = {}
        keys = self._indexes.get(("keys", key_positions))
        if keys is None:
            keys = build_key_map(self._rows, key_positions)
            self._indexes[("keys", key_positions)] = keys
        return keys

    # ------------------------------------------------------------------
    # bulk transformations
    # ------------------------------------------------------------------
    def map_values(self, function: Callable[[Any], Any]) -> "Relation":
        """Apply ``function`` to every value; used by valuations and homomorphisms."""
        return Relation(self._schema, (tuple(function(v) for v in row) for row in self._rows))

    def with_rows(self, rows: Iterable[Sequence[Any]]) -> "Relation":
        """A relation with the same schema but the given tuples."""
        return Relation(self._schema, rows)

    def add_rows(self, rows: Iterable[Sequence[Any]]) -> "Relation":
        """A relation extended with the given tuples (set union).

        Only the added tuples are validated; the stored ones already were.
        """
        schema = self._schema
        added = frozenset(_freeze_row(row, schema.arity, schema.name) for row in rows)
        return Relation._from_trusted(schema, self._rows | added)

    def union(self, other: "Relation") -> "Relation":
        """Set union; the schemas must have equal arity."""
        self._check_compatible(other)
        return Relation._from_trusted(self._schema, self._rows | other._rows)

    def difference(self, other: "Relation") -> "Relation":
        """Set difference (tuple-level, exact equality of values)."""
        self._check_compatible(other)
        return Relation._from_trusted(self._schema, self._rows - other._rows)

    def intersection(self, other: "Relation") -> "Relation":
        """Set intersection (tuple-level, exact equality of values)."""
        self._check_compatible(other)
        return Relation._from_trusted(self._schema, self._rows & other._rows)

    def rename(self, new_name: str, attributes: Optional[Sequence[str]] = None) -> "Relation":
        """Rename the relation (and optionally its attributes)."""
        if attributes is None:
            schema = self._schema.rename(new_name)
        else:
            schema = RelationSchema(new_name, tuple(attributes))
            if schema.arity != self.arity:
                raise ValueError("renamed attribute list must preserve the arity")
        return Relation._from_trusted(schema, self._rows)

    def _check_compatible(self, other: "Relation") -> None:
        if self.arity != other.arity:
            raise ValueError(
                f"relations {self.name}/{self.arity} and {other.name}/{other.arity} "
                "are not union-compatible"
            )

    # ------------------------------------------------------------------
    # pretty printing
    # ------------------------------------------------------------------
    def to_table(self) -> str:
        """Render the relation as an ASCII table (used by the examples)."""
        headers = list(self.attributes)
        rendered = [[str(v) for v in row] for row in self.sorted_rows()]
        widths = [len(h) for h in headers]
        for row in rendered:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        sep = "+" + "+".join("-" * (w + 2) for w in widths) + "+"
        lines = [f"{self.name}:", sep]
        lines.append("| " + " | ".join(h.ljust(w) for h, w in zip(headers, widths)) + " |")
        lines.append(sep)
        for row in rendered:
            lines.append("| " + " | ".join(c.ljust(w) for c, w in zip(row, widths)) + " |")
        lines.append(sep)
        return "\n".join(lines)


def rows_with_nulls(relation: Relation) -> Iterator[Row]:
    """Yield the tuples of ``relation`` that mention at least one null."""
    for row in relation:
        if any(is_null(v) for v in row):
            yield row


def drop_null_rows(rows: Iterable[Row]) -> List[Row]:
    """Keep only tuples without nulls (the ``·_cmpl`` operation on row sets)."""
    return [row for row in rows if not any(is_null(v) for v in row)]


def key_getter(positions: Tuple[int, ...]) -> Callable[[Row], Any]:
    """A row's key at ``positions``: a bare value for one position, a tuple otherwise."""
    if not positions:
        return lambda row: ()
    return itemgetter(*positions)


def build_key_map(rows: Iterable[Row], positions: Tuple[int, ...]) -> Dict[Any, Any]:
    """Map each distinct key at ``positions`` (see :func:`key_getter`) to itself.

    Keys that compare equal collapse to one entry whose value is one of
    the rows' own keys, so a probe with ``1.0`` reads back the stored ``1``.
    """
    return {key: key for key in map(key_getter(positions), rows)}
