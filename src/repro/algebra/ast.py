"""Relational-algebra expressions.

The paper's query languages are fragments of relational algebra:

* the *positive* relational algebra (selection, projection, product/join,
  union) — equivalent to unions of conjunctive queries (UCQ);
* full relational algebra, adding difference — equivalent to first-order
  logic / relational calculus;
* ``RA_cwa`` (Section 6.2) — the positive algebra closed under division
  ``Q ÷ Q'`` where ``Q'`` is built from base relations and the diagonal
  ``Δ = {(a,a) | a ∈ adom(D)}`` using projection, product and union.

Expressions are immutable trees.  Every node knows how to compute its
output schema against a database schema and how to evaluate itself on a
database instance.  Evaluation treats the values in the database
*syntactically*: on complete databases this is the standard semantics; on
databases with nulls it is exactly the paper's **naive evaluation** (nulls
behave as ordinary values equal only to themselves).  SQL's three-valued
evaluation is provided separately by :mod:`repro.sqlnulls`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from ..datamodel import Database, Relation
from ..datamodel.schema import DatabaseSchema, RelationSchema
from .predicates import Attr, Comparison, PAnd, Predicate, PTrue, eq

AttributeRef = Union[str, int]

#: Per-process caches kept on an expression object (never pickled).
_PINS = ("_plan_entries", "_strategy_picks")


class RAExpression:
    """Base class of relational-algebra expression nodes."""

    def children(self) -> Tuple["RAExpression", ...]:
        """Immediate sub-expressions."""
        raise NotImplementedError

    def output_schema(self, schema: DatabaseSchema) -> RelationSchema:
        """The schema of the result when evaluated over ``schema``."""
        raise NotImplementedError

    def evaluate(self, database: Database) -> Relation:
        """Evaluate the expression (standard / naive semantics).

        Runs the seed tree-walking interpreter, the oracle every engine is
        tested against.  Planned evaluation needs caller-owned state: a
        session (``repro.connect(db, engine=...)``) or an explicit
        :class:`repro.engine.PlanCache`.
        """
        return self._interpret(database)

    def _interpret(self, database: Database) -> Relation:
        """Tree-walking evaluation of this node (the seed interpreter).

        Subclasses outside this module that were written against the seed
        API override ``evaluate`` directly; honor that override so such
        nodes keep working when nested inside other expressions (the
        engine treats them as opaque and interprets them).
        """
        if type(self).evaluate is not RAExpression.evaluate:
            return type(self).evaluate(self, database)
        raise NotImplementedError

    def __getstate__(self) -> Dict[str, Any]:
        # The plan pin (``PlanCache.execute``) holds a weakref to a
        # session's cache and the strategy picks (``strategies.choose``)
        # hold strategy rows: per-process state that cannot be pickled.
        # Dropping both keeps an evaluated expression picklable for a
        # caller that stores or ships it.
        state = self.__dict__
        if any(pin in state for pin in _PINS):
            state = {key: value for key, value in state.items() if key not in _PINS}
        return state

    def relation_names(self) -> Set[str]:
        """Names of the base relations mentioned by the expression."""
        names: Set[str] = set()
        stack: List[RAExpression] = [self]
        while stack:
            node = stack.pop()
            if isinstance(node, RelationRef):
                names.add(node.name)
            stack.extend(node.children())
        return names

    def walk(self) -> Iterable["RAExpression"]:
        """Yield every node of the expression tree (pre-order)."""
        stack: List[RAExpression] = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children()))

    # -- operator sugar ------------------------------------------------
    def select(self, predicate: Predicate) -> "Selection":
        """``σ_predicate(self)``."""
        return Selection(self, predicate)

    def project(self, attributes: Sequence[AttributeRef]) -> "Projection":
        """``π_attributes(self)``."""
        return Projection(self, tuple(attributes))

    def product(self, other: "RAExpression") -> "Product":
        """``self × other``."""
        return Product(self, other)

    def join(self, other: "RAExpression") -> "NaturalJoin":
        """Natural join on shared attribute names."""
        return NaturalJoin(self, other)

    def union(self, other: "RAExpression") -> "Union_":
        """``self ∪ other``."""
        return Union_(self, other)

    def difference(self, other: "RAExpression") -> "Difference":
        """``self − other``."""
        return Difference(self, other)

    def intersect(self, other: "RAExpression") -> "Intersection":
        """``self ∩ other``."""
        return Intersection(self, other)

    def divide(self, other: "RAExpression") -> "Division":
        """``self ÷ other``."""
        return Division(self, other)

    def rename(self, name: str, attributes: Optional[Sequence[str]] = None) -> "Rename":
        """Rename the result relation and optionally its attributes."""
        return Rename(self, name, tuple(attributes) if attributes is not None else None)


def _merge_attribute_names(left: RelationSchema, right: RelationSchema) -> Tuple[str, ...]:
    """Attribute names of a product: keep originals when unambiguous, else positional."""
    combined = left.attributes + right.attributes
    if len(set(combined)) == len(combined):
        return combined
    return tuple(f"#{i}" for i in range(len(combined)))


# ----------------------------------------------------------------------
# Leaves
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RelationRef(RAExpression):
    """A reference to a base relation of the database."""

    name: str

    def children(self) -> Tuple[RAExpression, ...]:
        return ()

    def output_schema(self, schema: DatabaseSchema) -> RelationSchema:
        return schema[self.name]

    def _interpret(self, database: Database) -> Relation:
        return database.relation(self.name)

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class ConstantRelation(RAExpression):
    """A literal relation embedded in the query."""

    relation: Relation

    def children(self) -> Tuple[RAExpression, ...]:
        return ()

    def output_schema(self, schema: DatabaseSchema) -> RelationSchema:
        return self.relation.schema

    def _interpret(self, database: Database) -> Relation:
        return self.relation

    def __str__(self) -> str:
        return f"const({self.relation.name})"


@dataclass(frozen=True)
class Delta(RAExpression):
    """The diagonal ``Δ = {(a, a) | a ∈ adom(D)}`` (paper, Section 6.2)."""

    def children(self) -> Tuple[RAExpression, ...]:
        return ()

    def output_schema(self, schema: DatabaseSchema) -> RelationSchema:
        return RelationSchema("Δ", ("#0", "#1"))

    def _interpret(self, database: Database) -> Relation:
        return Relation(
            self.output_schema(database.schema),
            ((value, value) for value in database.active_domain()),
        )

    def __str__(self) -> str:
        return "Δ"


@dataclass(frozen=True)
class ActiveDomain(RAExpression):
    """The unary active-domain relation ``{(a) | a ∈ adom(D)}``."""

    def children(self) -> Tuple[RAExpression, ...]:
        return ()

    def output_schema(self, schema: DatabaseSchema) -> RelationSchema:
        return RelationSchema("adom", ("#0",))

    def _interpret(self, database: Database) -> Relation:
        return Relation(
            self.output_schema(database.schema),
            ((value,) for value in database.active_domain()),
        )

    def __str__(self) -> str:
        return "adom"


# ----------------------------------------------------------------------
# Unary operators
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Selection(RAExpression):
    """``σ_predicate(child)``."""

    child: RAExpression
    predicate: Predicate

    def children(self) -> Tuple[RAExpression, ...]:
        return (self.child,)

    def output_schema(self, schema: DatabaseSchema) -> RelationSchema:
        return self.child.output_schema(schema)

    def _interpret(self, database: Database) -> Relation:
        relation = self.child._interpret(database)
        return Relation(
            relation.schema,
            (row for row in relation if self.predicate.holds(row, relation.schema)),
        )

    def __str__(self) -> str:
        return f"select[{self.predicate}]({self.child})"


@dataclass(frozen=True)
class Projection(RAExpression):
    """``π_attributes(child)``; attributes may repeat and reorder columns."""

    child: RAExpression
    attributes: Tuple[AttributeRef, ...]

    def children(self) -> Tuple[RAExpression, ...]:
        return (self.child,)

    def output_schema(self, schema: DatabaseSchema) -> RelationSchema:
        child_schema = self.child.output_schema(schema)
        positions = [child_schema.index_of(a) for a in self.attributes]
        names = []
        seen: Set[str] = set()
        for position in positions:
            name = child_schema.attributes[position]
            if name in seen:
                name = f"{name}_{len(seen)}"
            seen.add(name)
            names.append(name)
        return RelationSchema(child_schema.name, tuple(names))

    def _interpret(self, database: Database) -> Relation:
        relation = self.child._interpret(database)
        positions = [relation.schema.index_of(a) for a in self.attributes]
        out_schema = self.output_schema(database.schema)
        return Relation(out_schema, (tuple(row[p] for p in positions) for row in relation))

    def __str__(self) -> str:
        attrs = ", ".join(str(Attr(a)) for a in self.attributes)
        return f"project[{attrs}]({self.child})"


@dataclass(frozen=True)
class Rename(RAExpression):
    """``ρ``: rename the output relation and optionally its attributes."""

    child: RAExpression
    name: str
    attributes: Optional[Tuple[str, ...]] = None

    def children(self) -> Tuple[RAExpression, ...]:
        return (self.child,)

    def output_schema(self, schema: DatabaseSchema) -> RelationSchema:
        child_schema = self.child.output_schema(schema)
        if self.attributes is None:
            return child_schema.rename(self.name)
        if len(self.attributes) != child_schema.arity:
            raise ValueError("rename must preserve the arity")
        return RelationSchema(self.name, self.attributes)

    def _interpret(self, database: Database) -> Relation:
        relation = self.child._interpret(database)
        return Relation(self.output_schema(database.schema), relation.rows)

    def __str__(self) -> str:
        if self.attributes is None:
            return f"rename[{self.name}]({self.child})"
        return f"rename[{self.name}({', '.join(self.attributes)})]({self.child})"


# ----------------------------------------------------------------------
# Binary operators
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Product(RAExpression):
    """Cartesian product ``left × right``."""

    left: RAExpression
    right: RAExpression

    def children(self) -> Tuple[RAExpression, ...]:
        return (self.left, self.right)

    def output_schema(self, schema: DatabaseSchema) -> RelationSchema:
        left = self.left.output_schema(schema)
        right = self.right.output_schema(schema)
        return RelationSchema(left.name, _merge_attribute_names(left, right))

    def _interpret(self, database: Database) -> Relation:
        left = self.left._interpret(database)
        right = self.right._interpret(database)
        out_schema = self.output_schema(database.schema)
        return Relation(
            out_schema,
            (l_row + r_row for l_row in left for r_row in right),
        )

    def __str__(self) -> str:
        return f"product({self.left}, {self.right})"


@dataclass(frozen=True)
class NaturalJoin(RAExpression):
    """Natural join on the attribute names shared by the two sides.

    When no attribute names are shared this degenerates to the Cartesian
    product.  The output keeps the left attributes followed by the right
    attributes that are not join attributes.
    """

    left: RAExpression
    right: RAExpression

    def children(self) -> Tuple[RAExpression, ...]:
        return (self.left, self.right)

    def _join_plan(
        self, schema: DatabaseSchema
    ) -> Tuple[RelationSchema, RelationSchema, List[Tuple[int, int]], List[int]]:
        left = self.left.output_schema(schema)
        right = self.right.output_schema(schema)
        shared = [name for name in right.attributes if name in left.attributes]
        join_pairs = [(left.index_of(name), right.index_of(name)) for name in shared]
        right_keep = [i for i, name in enumerate(right.attributes) if name not in left.attributes]
        return left, right, join_pairs, right_keep

    def output_schema(self, schema: DatabaseSchema) -> RelationSchema:
        left, right, _, right_keep = self._join_plan(schema)
        names = left.attributes + tuple(right.attributes[i] for i in right_keep)
        return RelationSchema(left.name, names)

    def _interpret(self, database: Database) -> Relation:
        left_schema, right_schema, join_pairs, right_keep = self._join_plan(database.schema)
        left = self.left._interpret(database)
        right = self.right._interpret(database)
        out_schema = self.output_schema(database.schema)

        # Hash join on the shared attributes.
        index: Dict[Tuple[Any, ...], List[Tuple[Any, ...]]] = {}
        for r_row in right:
            key = tuple(r_row[j] for _, j in join_pairs)
            index.setdefault(key, []).append(r_row)

        rows = []
        for l_row in left:
            key = tuple(l_row[i] for i, _ in join_pairs)
            for r_row in index.get(key, ()):
                rows.append(l_row + tuple(r_row[i] for i in right_keep))
        return Relation(out_schema, rows)

    def __str__(self) -> str:
        return f"join({self.left}, {self.right})"


@dataclass(frozen=True, eq=False, repr=False)
class _SetOperation(RAExpression):
    """Shared machinery of union / difference / intersection."""

    left: RAExpression
    right: RAExpression

    symbol = "?"

    def children(self) -> Tuple[RAExpression, ...]:
        return (self.left, self.right)

    def output_schema(self, schema: DatabaseSchema) -> RelationSchema:
        left = self.left.output_schema(schema)
        right = self.right.output_schema(schema)
        if left.arity != right.arity:
            raise ValueError(
                f"{type(self).__name__} requires equal arities, "
                f"got {left.arity} and {right.arity}"
            )
        return left

    def _combine(self, left_rows: frozenset, right_rows: frozenset) -> Iterable[Tuple[Any, ...]]:
        raise NotImplementedError

    def _interpret(self, database: Database) -> Relation:
        left = self.left._interpret(database)
        right = self.right._interpret(database)
        out_schema = self.output_schema(database.schema)
        return Relation(out_schema, self._combine(left.rows, right.rows))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, type(self)) and type(self) is type(other):
            return self.left == other.left and self.right == other.right
        return NotImplemented

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.left, self.right))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(left={self.left!r}, right={self.right!r})"

    def __str__(self) -> str:
        return f"{self.symbol}({self.left}, {self.right})"


@dataclass(frozen=True, eq=False, repr=False)
class Union_(_SetOperation):
    """Set union ``left ∪ right`` (arity-compatible)."""

    symbol = "union"

    def _combine(self, left_rows: frozenset, right_rows: frozenset) -> Iterable[Tuple[Any, ...]]:
        return left_rows | right_rows


@dataclass(frozen=True, eq=False, repr=False)
class Difference(_SetOperation):
    """Set difference ``left − right``."""

    symbol = "diff"

    def _combine(self, left_rows: frozenset, right_rows: frozenset) -> Iterable[Tuple[Any, ...]]:
        return left_rows - right_rows


@dataclass(frozen=True, eq=False, repr=False)
class Intersection(_SetOperation):
    """Set intersection ``left ∩ right``."""

    symbol = "intersect"

    def _combine(self, left_rows: frozenset, right_rows: frozenset) -> Iterable[Tuple[Any, ...]]:
        return left_rows & right_rows


@dataclass(frozen=True)
class Division(RAExpression):
    """Relational division ``R ÷ S`` (paper, Section 6.2).

    If all attribute names of ``S`` occur among the attribute names of
    ``R``, the division is taken on those named attributes; otherwise it is
    taken positionally on the *last* ``arity(S)`` columns of ``R``.  The
    result contains the remaining columns of ``R``, i.e. the tuples ``t``
    such that ``(t, s) ∈ R`` for *every* ``s ∈ S``.  Note that when ``S``
    is empty the result is ``π_A(R)`` (every ``t`` vacuously qualifies),
    the textbook convention.
    """

    left: RAExpression
    right: RAExpression

    def children(self) -> Tuple[RAExpression, ...]:
        return (self.left, self.right)

    def _division_plan(
        self, schema: DatabaseSchema
    ) -> Tuple[RelationSchema, RelationSchema, List[int], List[int]]:
        left = self.left.output_schema(schema)
        right = self.right.output_schema(schema)
        if right.arity == 0 or right.arity >= left.arity:
            raise ValueError(
                f"division requires 0 < arity(S) < arity(R); got {right.arity} and {left.arity}"
            )
        named = not any(name.startswith("#") for name in right.attributes)
        if named and all(name in left.attributes for name in right.attributes):
            divisor_positions = [left.index_of(name) for name in right.attributes]
        else:
            divisor_positions = list(range(left.arity - right.arity, left.arity))
        keep_positions = [i for i in range(left.arity) if i not in divisor_positions]
        return left, right, keep_positions, divisor_positions

    def output_schema(self, schema: DatabaseSchema) -> RelationSchema:
        left, _, keep_positions, _ = self._division_plan(schema)
        return RelationSchema(left.name, tuple(left.attributes[i] for i in keep_positions))

    def _interpret(self, database: Database) -> Relation:
        left_schema, _, keep_positions, divisor_positions = self._division_plan(database.schema)
        left = self.left._interpret(database)
        right = self.right._interpret(database)
        out_schema = self.output_schema(database.schema)

        divisor_rows = set(right.rows)
        groups: Dict[Tuple[Any, ...], Set[Tuple[Any, ...]]] = {}
        for row in left:
            key = tuple(row[i] for i in keep_positions)
            value = tuple(row[i] for i in divisor_positions)
            groups.setdefault(key, set()).add(value)
        rows = [key for key, values in groups.items() if divisor_rows <= values]
        if not divisor_rows:
            rows = list(groups)
        return Relation(out_schema, rows)

    def __str__(self) -> str:
        return f"divide({self.left}, {self.right})"


def expand_division(expression: Division, schema: DatabaseSchema) -> RAExpression:
    """Rewrite a division into projection, product and difference.

    ``R ÷ S ≡ π_A(R) − π_A( reorder(π_A(R) × S) − R )`` where ``A`` are the
    kept columns of ``R`` and ``reorder`` puts the candidate tuples back
    into ``R``'s column order so the inner difference lines up
    positionally.  Used by evaluators (c-table algebra, sound evaluation)
    that only implement the primitive operators.
    """
    left_schema, _, keep_positions, divisor_positions = expression._division_plan(schema)
    left, right = expression.left, expression.right

    all_a = Projection(left, tuple(keep_positions))
    candidate = Product(all_a, right)
    reorder: List[int] = []
    for position in range(left_schema.arity):
        if position in keep_positions:
            reorder.append(keep_positions.index(position))
        else:
            reorder.append(len(keep_positions) + divisor_positions.index(position))
    reordered = Projection(candidate, tuple(reorder))
    missing = Difference(reordered, left)
    bad_a = Projection(missing, tuple(keep_positions))
    return Difference(all_a, bad_a)


# ----------------------------------------------------------------------
# Convenience constructors mirroring textbook notation
# ----------------------------------------------------------------------
def relation(name: str) -> RelationRef:
    """A base-relation reference."""
    return RelationRef(name)


def select(child: RAExpression, predicate: Predicate) -> Selection:
    """``σ_predicate(child)``."""
    return Selection(child, predicate)


def project(child: RAExpression, attributes: Sequence[AttributeRef]) -> Projection:
    """``π_attributes(child)``."""
    return Projection(child, tuple(attributes))


def product(left: RAExpression, right: RAExpression) -> Product:
    """``left × right``."""
    return Product(left, right)


def join(left: RAExpression, right: RAExpression) -> NaturalJoin:
    """Natural join."""
    return NaturalJoin(left, right)


def union(left: RAExpression, right: RAExpression) -> Union_:
    """``left ∪ right``."""
    return Union_(left, right)


def difference(left: RAExpression, right: RAExpression) -> Difference:
    """``left − right``."""
    return Difference(left, right)


def intersection(left: RAExpression, right: RAExpression) -> Intersection:
    """``left ∩ right``."""
    return Intersection(left, right)


def divide(left: RAExpression, right: RAExpression) -> Division:
    """``left ÷ right``."""
    return Division(left, right)


def rename(child: RAExpression, name: str, attributes: Optional[Sequence[str]] = None) -> Rename:
    """``ρ_name(child)``."""
    return Rename(child, name, tuple(attributes) if attributes is not None else None)
