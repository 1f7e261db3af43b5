"""Information orderings on incomplete databases and relations.

Section 5 of the paper brings the ordering-based view of incompleteness
into the framework: the *information ordering* is defined from the
semantics by

    ``x ⊑ y   ⇔   [[y]] ⊆ [[x]]``

("the more objects an incomplete object can denote, the less information
it contains").  For relational databases the orderings corresponding to
the standard semantics have homomorphism characterisations (Section 5.2):

* ``D ⊑_owa D'``  iff there is a homomorphism ``D → D'``;
* ``D ⊑_cwa D'``  iff there is a strong onto homomorphism ``D → D'``;
* ``D ⊑_wcwa D'`` iff there is a homomorphism ``D → D'`` onto ``adom(D')``.

Those characterisations are exact and efficient to check on the instance
sizes used here, so they are the primary implementation; the semantic
definition is kept (over finite world approximations) for cross-checking
in the experiment suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from ..datamodel import Database, Relation
from ..homomorphisms import (
    exists_homomorphism,
    exists_onto_homomorphism,
    exists_strong_onto_homomorphism,
)


@dataclass(frozen=True)
class InformationOrdering:
    """An information ordering ``⊑`` packaged with its name and comparator.

    The comparator takes two databases and returns ``True`` when the first
    is *less or equally informative* than the second.
    """

    name: str
    less_equal: Callable[[Database, Database], bool]

    def __call__(self, left: Database, right: Database) -> bool:
        return self.less_equal(left, right)

    def equivalent(self, left: Database, right: Database) -> bool:
        """Mutual comparability: ``left ⊑ right`` and ``right ⊑ left``."""
        return self(left, right) and self(right, left)

    def is_lower_bound(self, candidate: Database, objects: Iterable[Database]) -> bool:
        """``candidate ⊑ x`` for every ``x`` in ``objects``."""
        return all(self(candidate, obj) for obj in objects)

    def is_upper_bound(self, candidate: Database, objects: Iterable[Database]) -> bool:
        """``x ⊑ candidate`` for every ``x`` in ``objects``."""
        return all(self(obj, candidate) for obj in objects)

    def is_greatest_lower_bound(
        self,
        candidate: Database,
        objects: Sequence[Database],
        competitors: Iterable[Database],
    ) -> bool:
        """Check the glb property of ``candidate`` against a pool of ``competitors``.

        The true greatest lower bound quantifies over *all* objects; here we
        verify (i) ``candidate`` is a lower bound of ``objects`` and (ii) no
        supplied competitor is a strictly more informative lower bound.
        Experiments pass competitor pools that include the other natural
        answer candidates (intersection answer, naive answer, each world's
        answer), which is what the paper's comparisons require.
        """
        if not self.is_lower_bound(candidate, objects):
            return False
        for competitor in competitors:
            if self.is_lower_bound(competitor, objects) and not self(competitor, candidate):
                return False
        return True


def owa_leq(left: Database, right: Database) -> bool:
    """``left ⊑_owa right``: a homomorphism ``left → right`` exists."""
    return exists_homomorphism(left, right)


def cwa_leq(left: Database, right: Database) -> bool:
    """``left ⊑_cwa right``: a strong onto homomorphism ``left → right`` exists."""
    return exists_strong_onto_homomorphism(left, right)


def wcwa_leq(left: Database, right: Database) -> bool:
    """``left ⊑_wcwa right``: an onto-on-active-domain homomorphism exists."""
    return exists_onto_homomorphism(left, right)


OWA_ORDERING = InformationOrdering("owa", owa_leq)
CWA_ORDERING = InformationOrdering("cwa", cwa_leq)
WCWA_ORDERING = InformationOrdering("wcwa", wcwa_leq)


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
    from ..semantics.registry import semantics_named  # the registry holds the orderings

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
