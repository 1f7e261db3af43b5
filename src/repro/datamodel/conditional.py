"""Conditional tables (c-tables) and their conditions.

A conditional table (paper, Section 2) is a table whose tuples ``t_i`` are
annotated with *local conditions* ``c_i`` and which carries a *global
condition* ``c``; conditions are Boolean combinations of equalities
``x = y`` with ``x, y ∈ Const ∪ Null``.  Under the closed-world semantics
the table represents::

    [[T]]_cwa = { { v(t_i) | v(c_i) is true } | v a valuation with v(c) true }

Conditional tables form a *strong representation system* for full
relational algebra under CWA (Imieliński–Lipski); the algebra acting on
them lives in :mod:`repro.algebra.ctable_algebra`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .matching import MayEqualIndex
from .relations import Relation, Row
from .schema import RelationSchema
from .valuation import Valuation
from .values import Null, check_value, is_null


# ----------------------------------------------------------------------
# Conditions
# ----------------------------------------------------------------------
class Condition:
    """Base class of condition expressions over ``Const ∪ Null``."""

    def evaluate(self, valuation: Valuation) -> bool:
        """Truth value of the condition once nulls are replaced by ``valuation``.

        The valuation must cover every null mentioned by the condition;
        uncovered nulls are compared symbolically (two distinct uncovered
        nulls are considered *not* equal), which matches the convention
        used while simplifying intermediate c-tables.
        """
        raise NotImplementedError

    def nulls(self) -> Set[Null]:
        """The nulls mentioned by the condition."""
        raise NotImplementedError

    def substitute(self, valuation: Valuation) -> "Condition":
        """Replace covered nulls by constants, keeping the condition symbolic."""
        raise NotImplementedError

    def simplify(self) -> "Condition":
        """Constant-fold the condition (without solving it)."""
        return self

    # -- connective helpers -------------------------------------------------
    def __and__(self, other: "Condition") -> "Condition":
        return And((self, other)).simplify()

    def __or__(self, other: "Condition") -> "Condition":
        return Or((self, other)).simplify()

    def __invert__(self) -> "Condition":
        return Not(self).simplify()


@dataclass(frozen=True)
class TrueCondition(Condition):
    """The condition that always holds."""

    def evaluate(self, valuation: Valuation) -> bool:
        return True

    def nulls(self) -> Set[Null]:
        return set()

    def substitute(self, valuation: Valuation) -> Condition:
        return self

    def __str__(self) -> str:
        return "true"


@dataclass(frozen=True)
class FalseCondition(Condition):
    """The condition that never holds."""

    def evaluate(self, valuation: Valuation) -> bool:
        return False

    def nulls(self) -> Set[Null]:
        return set()

    def substitute(self, valuation: Valuation) -> Condition:
        return self

    def __str__(self) -> str:
        return "false"


TRUE = TrueCondition()
FALSE = FalseCondition()


@dataclass(frozen=True)
class Eq(Condition):
    """The atomic condition ``left = right`` with ``left, right ∈ Const ∪ Null``."""

    left: Any
    right: Any

    def __post_init__(self) -> None:
        check_value(self.left)
        check_value(self.right)

    def evaluate(self, valuation: Valuation) -> bool:
        left = valuation(self.left) if is_null(self.left) else self.left
        right = valuation(self.right) if is_null(self.right) else self.right
        return left == right

    def nulls(self) -> Set[Null]:
        return {v for v in (self.left, self.right) if is_null(v)}

    def substitute(self, valuation: Valuation) -> Condition:
        return Eq(valuation(self.left), valuation(self.right)).simplify()

    def simplify(self) -> Condition:
        if not is_null(self.left) and not is_null(self.right):
            return TRUE if self.left == self.right else FALSE
        if is_null(self.left) and is_null(self.right) and self.left == self.right:
            return TRUE
        return self

    def __str__(self) -> str:
        return f"{self.left} = {self.right}"


def Neq(left: Any, right: Any) -> Condition:
    """The condition ``left ≠ right`` (sugar for ``¬(left = right)``)."""
    return Not(Eq(left, right)).simplify()


@dataclass(frozen=True)
class Not(Condition):
    """Negation of a condition."""

    operand: Condition

    def evaluate(self, valuation: Valuation) -> bool:
        return not self.operand.evaluate(valuation)

    def nulls(self) -> Set[Null]:
        return self.operand.nulls()

    def substitute(self, valuation: Valuation) -> Condition:
        return Not(self.operand.substitute(valuation)).simplify()

    def simplify(self) -> Condition:
        inner = self.operand.simplify()
        if isinstance(inner, TrueCondition):
            return FALSE
        if isinstance(inner, FalseCondition):
            return TRUE
        if isinstance(inner, Not):
            return inner.operand
        return Not(inner)

    def __str__(self) -> str:
        if isinstance(self.operand, Eq):
            return f"{self.operand.left} ≠ {self.operand.right}"
        return f"¬({self.operand})"


def _flatten(cls: type, operands: Iterable[Condition]) -> Tuple[Condition, ...]:
    flat: List[Condition] = []
    for op in operands:
        if isinstance(op, cls):
            flat.extend(op.operands)  # type: ignore[attr-defined]
        else:
            flat.append(op)
    return tuple(flat)


@dataclass(frozen=True)
class And(Condition):
    """Conjunction of conditions (empty conjunction is ``true``)."""

    operands: Tuple[Condition, ...]

    def __init__(self, operands: Iterable[Condition]) -> None:
        object.__setattr__(self, "operands", _flatten(And, operands))

    def evaluate(self, valuation: Valuation) -> bool:
        return all(op.evaluate(valuation) for op in self.operands)

    def nulls(self) -> Set[Null]:
        result: Set[Null] = set()
        for op in self.operands:
            result |= op.nulls()
        return result

    def substitute(self, valuation: Valuation) -> Condition:
        return And(tuple(op.substitute(valuation) for op in self.operands)).simplify()

    def simplify(self) -> Condition:
        simplified: List[Condition] = []
        for op in self.operands:
            op = op.simplify()
            if isinstance(op, FalseCondition):
                return FALSE
            if isinstance(op, TrueCondition):
                continue
            simplified.append(op)
        if not simplified:
            return TRUE
        if len(simplified) == 1:
            return simplified[0]
        return And(tuple(simplified))

    def __str__(self) -> str:
        return " ∧ ".join(f"({op})" if isinstance(op, Or) else str(op) for op in self.operands)


@dataclass(frozen=True)
class Or(Condition):
    """Disjunction of conditions (empty disjunction is ``false``)."""

    operands: Tuple[Condition, ...]

    def __init__(self, operands: Iterable[Condition]) -> None:
        object.__setattr__(self, "operands", _flatten(Or, operands))

    def evaluate(self, valuation: Valuation) -> bool:
        return any(op.evaluate(valuation) for op in self.operands)

    def nulls(self) -> Set[Null]:
        result: Set[Null] = set()
        for op in self.operands:
            result |= op.nulls()
        return result

    def substitute(self, valuation: Valuation) -> Condition:
        return Or(tuple(op.substitute(valuation) for op in self.operands)).simplify()

    def simplify(self) -> Condition:
        simplified: List[Condition] = []
        for op in self.operands:
            op = op.simplify()
            if isinstance(op, TrueCondition):
                return TRUE
            if isinstance(op, FalseCondition):
                continue
            simplified.append(op)
        if not simplified:
            return FALSE
        if len(simplified) == 1:
            return simplified[0]
        return Or(tuple(simplified))

    def __str__(self) -> str:
        return " ∨ ".join(str(op) for op in self.operands)


def conjunction(conditions: Iterable[Condition]) -> Condition:
    """The conjunction of ``conditions`` (simplified)."""
    return And(tuple(conditions)).simplify()


def disjunction(conditions: Iterable[Condition]) -> Condition:
    """The disjunction of ``conditions`` (simplified)."""
    return Or(tuple(conditions)).simplify()


def row_equality(left: Sequence[Any], right: Sequence[Any]) -> Condition:
    """The condition asserting component-wise equality of two rows."""
    if len(left) != len(right):
        raise ValueError("rows must have the same length")
    return conjunction(Eq(a, b) for a, b in zip(left, right))


# ----------------------------------------------------------------------
# Conditional tables
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ConditionalRow:
    """A tuple together with its local condition."""

    values: Row
    condition: Condition = TRUE

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(check_value(v) for v in self.values))

    @staticmethod
    def _from_trusted(values: Row, condition: Condition) -> "ConditionalRow":
        """Build a row from an already-validated value tuple (engine internal)."""
        row = object.__new__(ConditionalRow)
        object.__setattr__(row, "values", values)
        object.__setattr__(row, "condition", condition)
        return row

    def nulls(self) -> Set[Null]:
        """Nulls appearing in the tuple or its condition."""
        return {v for v in self.values if is_null(v)} | self.condition.nulls()

    def __str__(self) -> str:
        return f"{self.values}  if  {self.condition}"


class ConditionalTable:
    """A conditional table (c-table) with local and global conditions.

    Examples
    --------
    The paper's disjunction example, where the table represents either
    ``{0}`` or ``{1}`` depending on the value of the null ``⊥``:

    >>> from repro.datamodel import Null
    >>> bot = Null("b")
    >>> table = ConditionalTable.create(
    ...     "C", [((1,), Eq(bot, 1)), ((0,), Eq(bot, 0))],
    ...     global_condition=Or((Eq(bot, 0), Eq(bot, 1))))
    >>> worlds = table.possible_worlds(domain=[0, 1, 2])
    >>> sorted(sorted(rows) for rows in worlds)
    [[(0,)], [(1,)]]
    """

    __slots__ = ("_schema", "_rows", "_global", "_indexes")

    def __init__(
        self,
        schema: RelationSchema,
        rows: Iterable[ConditionalRow] = (),
        global_condition: Condition = TRUE,
    ) -> None:
        self._schema = schema
        checked: List[ConditionalRow] = []
        for row in rows:
            if len(row.values) != schema.arity:
                raise ValueError(
                    f"tuple {row.values!r} does not match arity {schema.arity} of {schema.name}"
                )
            checked.append(row)
        self._rows: Tuple[ConditionalRow, ...] = tuple(checked)
        self._global = global_condition
        self._indexes: Optional[Dict[int, MayEqualIndex]] = None

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        name: str,
        rows: Iterable[Tuple[Sequence[Any], Condition]],
        attributes: Optional[Sequence[str]] = None,
        global_condition: Condition = TRUE,
    ) -> "ConditionalTable":
        """Build a c-table from ``(tuple, condition)`` pairs."""
        rows = [(tuple(values), cond) for values, cond in rows]
        if attributes is not None:
            schema = RelationSchema(name, tuple(attributes))
        else:
            if not rows:
                raise ValueError("cannot infer the arity of an empty c-table; pass attributes")
            schema = RelationSchema.with_arity(name, len(rows[0][0]))
        return cls(schema, [ConditionalRow(values, cond) for values, cond in rows], global_condition)

    @classmethod
    def from_relation(cls, relation: Relation) -> "ConditionalTable":
        """Lift a naive table to a c-table with all-true conditions.

        A :class:`Relation` validated its rows (values and arity) when it
        was built, so they are lifted without a second check.
        """
        make_row = ConditionalRow._from_trusted
        return cls._from_trusted(
            relation.schema, tuple(make_row(row, TRUE) for row in relation.rows), TRUE
        )

    @classmethod
    def _from_trusted(
        cls,
        schema: RelationSchema,
        rows: Tuple[ConditionalRow, ...],
        global_condition: Condition,
    ) -> "ConditionalTable":
        """Build a table from rows known to match ``schema`` (engine internal)."""
        table = object.__new__(cls)
        table._schema = schema
        table._rows = rows
        table._global = global_condition
        table._indexes = None
        return table

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def schema(self) -> RelationSchema:
        """The table schema."""
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
    def rows(self) -> Tuple[ConditionalRow, ...]:
        """The conditional rows."""
        return self._rows

    @property
    def global_condition(self) -> Condition:
        """The global condition of the table."""
        return self._global

    def __len__(self) -> int:
        return len(self._rows)

    def __getstate__(self) -> Tuple[RelationSchema, Tuple[ConditionalRow, ...], Condition]:
        # Position indexes are per-process scratch, rebuilt on demand (as
        # for Relation): ship only the table itself.
        return (self._schema, self._rows, self._global)

    def __setstate__(self, state: Tuple[RelationSchema, Tuple[ConditionalRow, ...], Condition]) -> None:
        self._schema, self._rows, self._global = state
        self._indexes = None

    def __iter__(self) -> Iterator[ConditionalRow]:
        return iter(self._rows)

    def position_index(self, column: int) -> MayEqualIndex:
        """A :class:`MayEqualIndex` of the rows' values in ``column``.

        ``position_index(c).candidates((constant,))`` are the ascending
        positions of the rows holding ``constant`` or a null in ``c``.
        The index is cached on the table (tables are immutable), like
        :meth:`Relation.index_on`, and published with one attribute
        assignment of a fresh dict, so a concurrent reader never sees a
        half-built one.
        """
        indexes = self._indexes
        if indexes is not None:
            index = indexes.get(column)
            if index is not None:
                return index
        index = MayEqualIndex([(row.values[column],) for row in self._rows])
        self._indexes = {**(indexes or {}), column: index}
        return index

    def nulls(self) -> Set[Null]:
        """All nulls mentioned in tuples, local conditions or the global condition."""
        result: Set[Null] = set(self._global.nulls())
        for row in self._rows:
            result |= row.nulls()
        return result

    def constants(self) -> Set[Any]:
        """All constants mentioned in the tuples."""
        return {v for row in self._rows for v in row.values if not is_null(v)}

    def __repr__(self) -> str:
        return (
            f"ConditionalTable({self.name}/{self.arity}, {len(self._rows)} rows, "
            f"global={self._global})"
        )

    def __str__(self) -> str:
        lines = [f"{self.name} (global: {self._global})"]
        lines.extend(f"  {row}" for row in self._rows)
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # semantics
    # ------------------------------------------------------------------
    def instantiate(self, valuation: Valuation) -> Optional[Relation]:
        """The world ``{v(t_i) | v(c_i)}`` produced by ``valuation``.

        Returns ``None`` when the global condition is violated (the
        valuation produces no world at all).
        """
        if not self._global.evaluate(valuation):
            return None
        rows = [
            valuation.apply_row(row.values)
            for row in self._rows
            if row.condition.evaluate(valuation)
        ]
        return Relation(self._schema, rows)

    def possible_worlds(self, domain: Iterable[Any]) -> Set[FrozenSet[Row]]:
        """All worlds of ``[[T]]_cwa`` when nulls range over the finite ``domain``.

        Each world is returned as a frozen set of rows (the schema is fixed),
        so the result is directly comparable across representations.
        """
        from ..semantics.certain import space_over

        return space_over(lambda world: world.rows, self._worlds(domain))

    def certain_rows(self, domain: Iterable[Any]) -> Set[Row]:
        """Rows present in every world (intersection-based certainty)."""
        from ..semantics.certain import certain_over

        return set(certain_over(lambda world: world, self._worlds(domain), self._no_rows).rows)

    def possible_rows(self, domain: Iterable[Any]) -> Set[Row]:
        """Rows present in at least one world."""
        from ..semantics.certain import possible_over

        return set(possible_over(lambda world: world, self._worlds(domain), self._no_rows).rows)

    def _worlds(self, domain: Iterable[Any]) -> Iterator[Relation]:
        """The world of each valuation of the table's nulls into ``domain``."""
        from ..semantics.worlds import valuation_worlds

        return valuation_worlds(self.nulls(), domain, self.instantiate)

    def _no_rows(self) -> Relation:
        return Relation(self._schema, ())

    # ------------------------------------------------------------------
    # transformations
    # ------------------------------------------------------------------
    def with_global(self, condition: Condition) -> "ConditionalTable":
        """The table with its global condition strengthened by ``condition``."""
        return ConditionalTable(self._schema, self._rows, conjunction((self._global, condition)))

    def rename(self, new_name: str) -> "ConditionalTable":
        """The same table under a different relation name."""
        return ConditionalTable(self._schema.rename(new_name), self._rows, self._global)

    def simplified(self) -> "ConditionalTable":
        """Drop rows whose condition simplifies to ``false``; fold conditions."""
        global_condition = self._global.simplify()
        if isinstance(global_condition, FalseCondition):
            return ConditionalTable(self._schema, (), FALSE)
        rows = []
        for row in self._rows:
            condition = row.condition.simplify()
            if isinstance(condition, FalseCondition):
                continue
            rows.append(ConditionalRow(row.values, condition))
        return ConditionalTable(self._schema, rows, global_condition)
