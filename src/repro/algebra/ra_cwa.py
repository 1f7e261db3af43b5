"""Fragments of relational algebra: positive RA, RA(Δ,π,×,∪) and RA_cwa.

The paper (Section 6.2) singles out three syntactic classes:

* **positive relational algebra** — selection, projection, product/join,
  union over base relations; equivalent to UCQ.  OWA-naive evaluation is
  correct exactly for this class (for FO queries it is also optimal).
* **RA(Δ, π, ×, ∪)** — expressions built from base relations and the
  diagonal ``Δ`` using projection, product and union only.  These are the
  allowed divisors.
* **RA_cwa** — the smallest class containing base relations, closed under
  σ, π, ×, ∪, and under division ``Q ÷ Q'`` with ``Q ∈ RA_cwa`` and
  ``Q' ∈ RA(Δ, π, ×, ∪)``.  The paper shows ``RA_cwa = Pos∀G`` and that
  CWA-naive evaluation is correct for it.

This module provides the corresponding syntactic checks and a classifier
used by :func:`repro.core.naive_evaluation.naive_evaluation_applies`.
"""

from __future__ import annotations

from enum import Enum
from typing import Union

from .ast import (
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
)


class Fragment(Enum):
    """Query-language fragments ordered by naive-evaluation friendliness."""

    POSITIVE = "positive"
    """Positive relational algebra (UCQ): naive evaluation correct under OWA and CWA."""

    RA_CWA = "ra_cwa"
    """Positive algebra + division by RA(Δ,π,×,∪): naive evaluation correct under CWA."""

    FULL = "full"
    """Full relational algebra (uses difference or other non-positive features)."""


_POSITIVE_NODES = (
    RelationRef,
    ConstantRelation,
    Selection,
    Projection,
    Product,
    NaturalJoin,
    Union_,
    Rename,
)


def is_positive(expression: RAExpression) -> bool:
    """``True`` iff the expression is positive relational algebra (UCQ).

    Selections must use positive predicates (equality comparisons combined
    with ∧/∨ — no negation, no ``≠``, no order comparisons).
    """
    for node in expression.walk():
        if isinstance(node, Selection):
            if not node.predicate.is_positive():
                return False
        elif not isinstance(node, _POSITIVE_NODES):
            return False
    return True


def is_delta_fragment(expression: RAExpression) -> bool:
    """``True`` iff the expression is in RA(Δ, π, ×, ∪).

    Allowed nodes: base relations, ``Δ``, projection, product and union
    (renaming is allowed as it only relabels attributes).
    """
    allowed = (RelationRef, ConstantRelation, Delta, ActiveDomain, Projection, Product, Union_, Rename)
    return all(isinstance(node, allowed) for node in expression.walk())


def is_ra_cwa(expression: RAExpression) -> bool:
    """``True`` iff the expression is in the paper's ``RA_cwa`` class.

    The class is defined inductively (Section 6.2):

    * every base relation is an ``RA_cwa`` query;
    * ``RA_cwa`` is closed under σ (positive predicates), π, ×, ⋈ and ∪;
    * if ``Q`` is ``RA_cwa`` and ``Q'`` is in RA(Δ, π, ×, ∪) then
      ``Q ÷ Q'`` is ``RA_cwa``.
    """
    if isinstance(expression, (RelationRef, ConstantRelation)):
        return True
    if isinstance(expression, Selection):
        return expression.predicate.is_positive() and is_ra_cwa(expression.child)
    if isinstance(expression, (Projection, Rename)):
        return is_ra_cwa(expression.child)
    if isinstance(expression, (Product, NaturalJoin, Union_)):
        return is_ra_cwa(expression.left) and is_ra_cwa(expression.right)
    if isinstance(expression, Division):
        return is_ra_cwa(expression.left) and is_delta_fragment(expression.right)
    # Δ / adom on their own, difference, intersection: not RA_cwa.
    return False


def classify(expression: RAExpression) -> Fragment:
    """The smallest fragment of this module that contains ``expression``.

    The verdict is a pure function of the (immutable) expression tree, so
    it is computed once per expression object and pinned onto it: every
    ``certain()``/``explain()`` on the same object reuses it.  Two racing
    first calls store the same value, so the pin is safe on shared
    expressions and frozen sessions alike.
    """
    fragment = getattr(expression, "_fragment", None)
    if fragment is None:
        if is_positive(expression):
            fragment = Fragment.POSITIVE
        elif is_ra_cwa(expression):
            fragment = Fragment.RA_CWA
        else:
            fragment = Fragment.FULL
        object.__setattr__(expression, "_fragment", fragment)
    return fragment


def uses_difference(expression: RAExpression) -> bool:
    """``True`` iff the expression mentions the difference operator."""
    return any(isinstance(node, Difference) for node in expression.walk())


def uses_division(expression: RAExpression) -> bool:
    """``True`` iff the expression mentions the division operator."""
    return any(isinstance(node, Division) for node in expression.walk())
