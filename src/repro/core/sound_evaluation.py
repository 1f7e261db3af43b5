"""Sound (no-false-positive) evaluation of full relational algebra over nulls.

Section 7 of the paper ("Evaluation techniques") points out that even when
naive evaluation is not *complete*, one can still ask for evaluation that
is *sound*: every returned tuple is a genuine certain answer, so no "good
guys are chased", even though some certain answers may be missed.  Reiter
[61] gave such an algorithm; this module implements a modern variant based
on computing, for every subexpression, a pair of naive tables

    ``(lower, upper)``   with   ``lower ⊑ certain answers``  and
                                ``upper ⊒ possible answers``

(both up to instantiation of nulls), using syntactic equality for the
"certainly equal" direction and *unification of marked nulls* for the
"possibly equal" direction:

* selection keeps a row in ``lower`` only when the predicate is certainly
  true (3-valued ``true``) and in ``upper`` when it is not certainly false;
* difference removes from ``lower`` every row that *unifies* with a
  possible row of the subtrahend, and removes from ``upper`` only rows that
  are syntactically identical to a certain row of the subtrahend;
* the positive operators apply component-wise.

The null-free part of the final ``lower`` table is then a sound
approximation of the certain answers of the query under CWA; the
experiments check soundness against brute-force enumeration and measure
how much of the certain answer the approximation recovers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Sequence, Tuple

from ..algebra.ast import (
    ActiveDomain,
    ConstantRelation,
    Delta,
    Difference,
    Division,
    Intersection,
    NaturalJoin,
    Product,
    Projection,
    RAExpression,
    RelationRef,
    Rename,
    Selection,
    Union_,
    expand_division,
)
from ..datamodel import Database, Relation
from ..datamodel.matching import MayEqualIndex
from ..datamodel.values import Null, is_null


# ----------------------------------------------------------------------
# Unification of rows with marked nulls
# ----------------------------------------------------------------------
class _UnionFind:
    """Union-find over constants and nulls used for row unification."""

    def __init__(self) -> None:
        self._parent: Dict[Any, Any] = {}

    def find(self, value: Any) -> Any:
        parent = self._parent.setdefault(value, value)
        if parent == value:
            return value
        root = self.find(parent)
        self._parent[value] = root
        return root

    def union(self, left: Any, right: Any) -> bool:
        """Merge the classes of ``left`` and ``right``; fail on constant clash."""
        left_root = self.find(left)
        right_root = self.find(right)
        if left_root == right_root:
            return True
        left_is_const = not is_null(left_root)
        right_is_const = not is_null(right_root)
        if left_is_const and right_is_const:
            return False
        if left_is_const:
            self._parent[right_root] = left_root
        else:
            self._parent[left_root] = right_root
        return True


def values_unifiable(pairs: Iterable[Tuple[Any, Any]]) -> bool:
    """Is there a valuation of the nulls making every pair equal?

    Marked nulls are respected: the same null must take the same value in
    every pair, which is what distinguishes naive tables from Codd tables.
    """
    union_find = _UnionFind()
    for left, right in pairs:
        if not union_find.union(left, right):
            return False
    return True


def rows_unifiable(left: Sequence[Any], right: Sequence[Any]) -> bool:
    """Is there a valuation making the two rows componentwise equal?"""
    if len(left) != len(right):
        return False
    return values_unifiable(zip(left, right))


# ----------------------------------------------------------------------
# The evaluator
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ApproximatePair:
    """The ``(lower, upper)`` pair computed for a subexpression."""

    lower: Relation
    upper: Relation


def _pair(lower: Relation, upper: Relation) -> ApproximatePair:
    return ApproximatePair(lower, upper)


def evaluate_pair(expression: RAExpression, database: Database) -> ApproximatePair:
    """Compute the ``(lower, upper)`` approximation pair for ``expression``."""
    schema = database.schema

    if isinstance(expression, (RelationRef, ConstantRelation, Delta, ActiveDomain)):
        value = expression.evaluate(database)
        return _pair(value, value)

    if isinstance(expression, Selection):
        child = evaluate_pair(expression.child, database)
        rel_schema = expression.output_schema(schema)
        lower_rows = [
            row for row in child.lower if expression.predicate.holds3(row, child.lower.schema) is True
        ]
        upper_rows = [
            row for row in child.upper if expression.predicate.holds3(row, child.upper.schema) is not False
        ]
        return _pair(Relation(rel_schema, lower_rows), Relation(rel_schema, upper_rows))

    if isinstance(expression, (Projection, Rename)):
        child = evaluate_pair(expression.child, database)
        rebuilt_lower = _apply_unary(expression, child.lower, database)
        rebuilt_upper = _apply_unary(expression, child.upper, database)
        return _pair(rebuilt_lower, rebuilt_upper)

    if isinstance(expression, (Product, NaturalJoin, Union_)):
        left = evaluate_pair(expression.left, database)
        right = evaluate_pair(expression.right, database)
        lower = _apply_binary(expression, left.lower, right.lower, database)
        if isinstance(expression, NaturalJoin):
            upper = _upper_natural_join(expression, left.upper, right.upper, database)
        else:
            upper = _apply_binary(expression, left.upper, right.upper, database)
        return _pair(lower, upper)

    if isinstance(expression, Intersection):
        left = evaluate_pair(expression.left, database)
        right = evaluate_pair(expression.right, database)
        out_schema = expression.output_schema(schema)
        lower = Relation(out_schema, left.lower.rows & right.lower.rows)
        unifies = _unifier(right.upper)
        upper_rows = [row for row in left.upper if unifies(row)]
        return _pair(lower, Relation(out_schema, upper_rows))

    if isinstance(expression, Difference):
        left = evaluate_pair(expression.left, database)
        right = evaluate_pair(expression.right, database)
        out_schema = expression.output_schema(schema)
        unifies = _unifier(right.upper)
        lower_rows = [row for row in left.lower if not unifies(row)]
        upper_rows = [row for row in left.upper if row not in right.lower.rows]
        return _pair(Relation(out_schema, lower_rows), Relation(out_schema, upper_rows))

    if isinstance(expression, Division):
        rewritten = expand_division(expression, schema)
        pair = evaluate_pair(rewritten, database)
        out_schema = expression.output_schema(schema)
        return _pair(Relation(out_schema, pair.lower.rows), Relation(out_schema, pair.upper.rows))

    raise TypeError(f"unsupported RA node for sound evaluation: {expression!r}")


def _unifier(relation: Relation) -> Callable[[Sequence[Any]], bool]:
    """A test of whether a row unifies with some row of ``relation``.

    A :class:`MayEqualIndex` of the relation yields the rows agreeing with
    the probe on their common constants; the union-find decides each.
    """
    rows = list(relation)
    index = MayEqualIndex(rows)
    return lambda row: any(rows_unifiable(row, rows[position]) for position in index.candidates(row))


def _apply_unary(expression: RAExpression, relation: Relation, database: Database) -> Relation:
    """Re-run a unary node's standard evaluation on an already-computed child."""
    substituted = _with_child(expression, ConstantRelation(relation))
    return substituted.evaluate(database)


def _apply_binary(
    expression: RAExpression, left: Relation, right: Relation, database: Database
) -> Relation:
    substituted = _with_children(expression, ConstantRelation(left), ConstantRelation(right))
    return substituted.evaluate(database)


def _with_child(expression: RAExpression, child: RAExpression) -> RAExpression:
    if isinstance(expression, Projection):
        return Projection(child, expression.attributes)
    if isinstance(expression, Rename):
        return Rename(child, expression.name, expression.attributes)
    if isinstance(expression, Selection):
        return Selection(child, expression.predicate)
    raise TypeError(f"unsupported unary node {expression!r}")


def _with_children(expression: RAExpression, left: RAExpression, right: RAExpression) -> RAExpression:
    if isinstance(expression, Product):
        return Product(left, right)
    if isinstance(expression, NaturalJoin):
        return NaturalJoin(left, right)
    if isinstance(expression, Union_):
        return Union_(left, right)
    raise TypeError(f"unsupported binary node {expression!r}")


def _upper_natural_join(
    expression: NaturalJoin, left: Relation, right: Relation, database: Database
) -> Relation:
    """Possible-join: join rows whose shared attributes are unifiable."""
    schema = database.schema
    left_schema = expression.left.output_schema(schema)
    right_schema = expression.right.output_schema(schema)
    shared = [name for name in right_schema.attributes if name in left_schema.attributes]
    join_pairs = [(left_schema.index_of(n), right_schema.index_of(n)) for n in shared]
    right_keep = [i for i, name in enumerate(right_schema.attributes) if name not in left_schema.attributes]
    out_schema = expression.output_schema(schema)
    right_rows = list(right)
    index = MayEqualIndex([tuple(r_row[j] for _, j in join_pairs) for r_row in right_rows])
    rows = []
    for l_row in left:
        for position in index.candidates(tuple(l_row[i] for i, _ in join_pairs)):
            r_row = right_rows[position]
            if values_unifiable((l_row[i], r_row[j]) for i, j in join_pairs):
                rows.append(l_row + tuple(r_row[i] for i in right_keep))
    return Relation(out_schema, rows)


# ----------------------------------------------------------------------
# Public entry points
# ----------------------------------------------------------------------
def sound_certain_answers(expression: RAExpression, database: Database) -> Relation:
    """A sound under-approximation of the CWA certain answers of ``expression``.

    Every returned tuple is null-free and guaranteed to be a certain
    answer; some certain answers may be missing (the price of staying
    polynomial for queries with difference).
    """
    return evaluate_pair(expression, database).lower.complete_part()


def possible_answer_bound(expression: RAExpression, database: Database) -> Relation:
    """An over-approximation (up to instantiation) of the possible answers."""
    return evaluate_pair(expression, database).upper
