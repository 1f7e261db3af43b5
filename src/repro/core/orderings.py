"""Information orderings on incomplete databases and relations.

Section 5 of the paper brings the ordering-based view of incompleteness
into the framework: the *information ordering* is defined from the
semantics by

    ``x ⊑ y   ⇔   [[y]] ⊆ [[x]]``

("the more objects an incomplete object can denote, the less information
it contains").  For relational databases the orderings of the standard
semantics have homomorphism characterisations (Section 5.2), exact and
efficient on the instance sizes used here; they are defined next to the
membership tests, in :mod:`repro.semantics.membership`, and re-exported
here.  The semantic definition is kept (over finite world
approximations) for cross-checking in the experiment suite.
"""

from __future__ import annotations

from typing import Callable, Iterable

from ..datamodel import Database, Relation
from ..semantics.membership import (  # re-exported: repro.core's orderings
    CWA_ORDERING, OWA_ORDERING, WCWA_ORDERING, InformationOrdering, cwa_leq, owa_leq, wcwa_leq,
)
from ..semantics.registry import semantics_named


# ----------------------------------------------------------------------
# Orderings on single relations (query answers)
# ----------------------------------------------------------------------
def _as_database(relation: Relation) -> Database:
    return Database.from_relations([relation.rename("__answer__")])


def relation_leq(left: Relation, right: Relation, semantics: str = "owa") -> bool:
    """The information ordering applied to two answer relations.

    Query answers are single relations; to compare them we wrap each in a
    one-relation database (under a common name, so only the tuples matter)
    and apply the database ordering of ``semantics`` (a name registered
    in :data:`repro.semantics.registry.SEMANTICS`, or its row).
    """
    order = semantics_named(semantics).ordering
    if left.arity != right.arity:
        raise ValueError("can only compare relations of equal arity")
    return order(_as_database(left), _as_database(right))


def semantic_leq(
    left: Database,
    right: Database,
    worlds_of: Callable[[Database], Iterable[Database]],
) -> bool:
    """The definitional ordering ``[[right]] ⊆ [[left]]`` over enumerated worlds.

    ``worlds_of`` must return the finite world approximation used for both
    sides.  Used only for cross-checking the homomorphism characterisations
    on small instances.
    """
    left_worlds = {w for w in worlds_of(left)}
    return all(world in left_worlds for world in worlds_of(right))
