"""Selection predicates for relational-algebra expressions.

Predicates are Boolean combinations of comparisons between *terms*, where a
term is either an attribute reference or a constant.  They are evaluated
against a single tuple (plus the schema used to resolve attribute names).

Two evaluation regimes are provided:

* :meth:`Predicate.holds` — ordinary two-valued evaluation.  This is what
  standard evaluation on complete databases uses, and also what *naive
  evaluation* uses on databases with nulls: a marked null is treated as a
  regular value, equal to itself and different from every constant and
  every other null.
* :meth:`Predicate.holds3` — SQL-style three-valued evaluation, returning
  ``True``, ``False`` or ``None`` (unknown).  Any comparison with at least
  one null operand is unknown; the connectives follow Kleene's strong
  three-valued logic.  The SQL layer builds on this.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional, Sequence, Set, Tuple, Union

from ..datamodel import Null, is_null
from ..datamodel.schema import RelationSchema

ThreeValued = Optional[bool]
"""Three-valued truth value: ``True``, ``False`` or ``None`` (unknown)."""


# ----------------------------------------------------------------------
# Terms
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Attr:
    """A reference to an attribute, by name (``"price"``) or position (``1``)."""

    ref: Union[str, int]

    def resolve(self, schema: RelationSchema) -> int:
        """Position of the referenced attribute in ``schema``."""
        return schema.index_of(self.ref)

    def value(self, row: Sequence[Any], schema: RelationSchema) -> Any:
        """The value of this attribute in ``row``."""
        return row[self.resolve(schema)]

    def __str__(self) -> str:
        return f"#{self.ref}" if isinstance(self.ref, int) else self.ref


@dataclass(frozen=True)
class Const:
    """A constant term."""

    value: Any

    def __post_init__(self) -> None:
        if self.value is None:
            raise TypeError("None is not a valid constant; use repro.Null() for nulls")

    def __str__(self) -> str:
        return repr(self.value)


Term = Union[Attr, Const]


def _coerce_term(term: Any) -> Term:
    """Accept ``Attr``/``Const`` objects or raw Python values as terms.

    Raw strings starting with ``#`` and raw integers are *not* auto-coerced
    to attribute references to avoid ambiguity; use :class:`Attr` explicitly
    in programmatic query construction (the RA parser does this for you).
    """
    if isinstance(term, (Attr, Const)):
        return term
    return Const(term)


def _term_value(term: Term, row: Sequence[Any], schema: RelationSchema) -> Any:
    if isinstance(term, Attr):
        return term.value(row, schema)
    return term.value


# ----------------------------------------------------------------------
# Predicates
# ----------------------------------------------------------------------
class Predicate:
    """Base class of selection predicates."""

    def holds(self, row: Sequence[Any], schema: RelationSchema) -> bool:
        """Two-valued truth of the predicate on ``row`` (naive/standard mode)."""
        raise NotImplementedError

    def holds3(self, row: Sequence[Any], schema: RelationSchema) -> ThreeValued:
        """Three-valued (SQL) truth of the predicate on ``row``."""
        raise NotImplementedError

    def attributes(self) -> Set[Union[str, int]]:
        """Attribute references mentioned by the predicate."""
        raise NotImplementedError

    def constants(self) -> Set[Any]:
        """Constants mentioned by the predicate."""
        raise NotImplementedError

    def is_equality_only(self) -> bool:
        """``True`` iff the predicate uses only ``=``/``≠`` comparisons."""
        raise NotImplementedError

    def is_positive(self) -> bool:
        """``True`` iff the predicate uses neither negation nor ``≠``/order.

        Positive predicates are the ones allowed in the positive relational
        algebra (selections with equality conditions combined with ∧/∨).
        """
        raise NotImplementedError

    def __and__(self, other: "Predicate") -> "Predicate":
        return PAnd((self, other))

    def __or__(self, other: "Predicate") -> "Predicate":
        return POr((self, other))

    def __invert__(self) -> "Predicate":
        return PNot(self)


_OPERATORS: dict = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}

_NEGATED_OP = {"=": "!=", "!=": "=", "<": ">=", ">=": "<", ">": "<=", "<=": ">"}


@dataclass(frozen=True)
class Comparison(Predicate):
    """An atomic comparison ``left op right`` with ``op ∈ {=, !=, <, <=, >, >=}``."""

    left: Term
    op: str
    right: Term

    def __post_init__(self) -> None:
        if self.op not in _OPERATORS:
            raise ValueError(f"unknown comparison operator {self.op!r}")
        object.__setattr__(self, "left", _coerce_term(self.left))
        object.__setattr__(self, "right", _coerce_term(self.right))

    def holds(self, row: Sequence[Any], schema: RelationSchema) -> bool:
        left = _term_value(self.left, row, schema)
        right = _term_value(self.right, row, schema)
        if self.op in ("=", "!="):
            return _OPERATORS[self.op](left, right)
        if is_null(left) or is_null(right):
            raise TypeError(
                f"order comparison {self.op!r} is undefined on nulls under naive "
                "evaluation; use SQL three-valued evaluation instead"
            )
        return _OPERATORS[self.op](left, right)

    def holds3(self, row: Sequence[Any], schema: RelationSchema) -> ThreeValued:
        left = _term_value(self.left, row, schema)
        right = _term_value(self.right, row, schema)
        if is_null(left) or is_null(right):
            return None
        return _OPERATORS[self.op](left, right)

    def attributes(self) -> Set[Union[str, int]]:
        return {t.ref for t in (self.left, self.right) if isinstance(t, Attr)}

    def constants(self) -> Set[Any]:
        return {t.value for t in (self.left, self.right) if isinstance(t, Const)}

    def is_equality_only(self) -> bool:
        return self.op in ("=", "!=")

    def is_positive(self) -> bool:
        return self.op == "="

    def negate(self) -> "Comparison":
        """The comparison with the complementary operator."""
        return Comparison(self.left, _NEGATED_OP[self.op], self.right)

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


@dataclass(frozen=True)
class PTrue(Predicate):
    """The always-true predicate."""

    def holds(self, row: Sequence[Any], schema: RelationSchema) -> bool:
        return True

    def holds3(self, row: Sequence[Any], schema: RelationSchema) -> ThreeValued:
        return True

    def attributes(self) -> Set[Union[str, int]]:
        return set()

    def constants(self) -> Set[Any]:
        return set()

    def is_equality_only(self) -> bool:
        return True

    def is_positive(self) -> bool:
        return True

    def __str__(self) -> str:
        return "true"


@dataclass(frozen=True)
class PAnd(Predicate):
    """Conjunction of predicates."""

    operands: Tuple[Predicate, ...]

    def __init__(self, operands: Iterable[Predicate]) -> None:
        object.__setattr__(self, "operands", tuple(operands))

    def holds(self, row: Sequence[Any], schema: RelationSchema) -> bool:
        return all(op.holds(row, schema) for op in self.operands)

    def holds3(self, row: Sequence[Any], schema: RelationSchema) -> ThreeValued:
        return kleene_and(op.holds3(row, schema) for op in self.operands)

    def attributes(self) -> Set[Union[str, int]]:
        return set().union(*(op.attributes() for op in self.operands)) if self.operands else set()

    def constants(self) -> Set[Any]:
        return set().union(*(op.constants() for op in self.operands)) if self.operands else set()

    def is_equality_only(self) -> bool:
        return all(op.is_equality_only() for op in self.operands)

    def is_positive(self) -> bool:
        return all(op.is_positive() for op in self.operands)

    def __str__(self) -> str:
        return " and ".join(f"({op})" for op in self.operands)


@dataclass(frozen=True)
class POr(Predicate):
    """Disjunction of predicates."""

    operands: Tuple[Predicate, ...]

    def __init__(self, operands: Iterable[Predicate]) -> None:
        object.__setattr__(self, "operands", tuple(operands))

    def holds(self, row: Sequence[Any], schema: RelationSchema) -> bool:
        return any(op.holds(row, schema) for op in self.operands)

    def holds3(self, row: Sequence[Any], schema: RelationSchema) -> ThreeValued:
        return kleene_or(op.holds3(row, schema) for op in self.operands)

    def attributes(self) -> Set[Union[str, int]]:
        return set().union(*(op.attributes() for op in self.operands)) if self.operands else set()

    def constants(self) -> Set[Any]:
        return set().union(*(op.constants() for op in self.operands)) if self.operands else set()

    def is_equality_only(self) -> bool:
        return all(op.is_equality_only() for op in self.operands)

    def is_positive(self) -> bool:
        return all(op.is_positive() for op in self.operands)

    def __str__(self) -> str:
        return " or ".join(f"({op})" for op in self.operands)


@dataclass(frozen=True)
class PNot(Predicate):
    """Negation of a predicate."""

    operand: Predicate

    def holds(self, row: Sequence[Any], schema: RelationSchema) -> bool:
        return not self.operand.holds(row, schema)

    def holds3(self, row: Sequence[Any], schema: RelationSchema) -> ThreeValued:
        return kleene_not(self.operand.holds3(row, schema))

    def attributes(self) -> Set[Union[str, int]]:
        return self.operand.attributes()

    def constants(self) -> Set[Any]:
        return self.operand.constants()

    def is_equality_only(self) -> bool:
        return self.operand.is_equality_only()

    def is_positive(self) -> bool:
        return False

    def __str__(self) -> str:
        return f"not ({self.operand})"


# ----------------------------------------------------------------------
# Kleene three-valued connectives
# ----------------------------------------------------------------------
def kleene_and(values: Iterable[ThreeValued]) -> ThreeValued:
    """Kleene conjunction: false dominates, otherwise unknown dominates."""
    result: ThreeValued = True
    for value in values:
        if value is False:
            return False
        if value is None:
            result = None
    return result


def kleene_or(values: Iterable[ThreeValued]) -> ThreeValued:
    """Kleene disjunction: true dominates, otherwise unknown dominates."""
    result: ThreeValued = False
    for value in values:
        if value is True:
            return True
        if value is None:
            result = None
    return result


def kleene_not(value: ThreeValued) -> ThreeValued:
    """Kleene negation: unknown stays unknown."""
    if value is None:
        return None
    return not value


# ----------------------------------------------------------------------
# Convenience constructors
# ----------------------------------------------------------------------
def eq(left: Any, right: Any) -> Comparison:
    """``left = right`` with raw values coerced to constants."""
    return Comparison(left, "=", right)


def neq(left: Any, right: Any) -> Comparison:
    """``left != right``."""
    return Comparison(left, "!=", right)


def attr(ref: Union[str, int]) -> Attr:
    """Shorthand for :class:`Attr`."""
    return Attr(ref)


def const(value: Any) -> Const:
    """Shorthand for :class:`Const`."""
    return Const(value)
