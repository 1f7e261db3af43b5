"""Membership tests and information orderings for the OWA / CWA / weak-CWA semantics.

Given an incomplete database ``D`` and a *complete* database ``D'`` these
functions decide whether ``D' ∈ [[D]]_*``:

* ``D' ∈ [[D]]_cwa``  iff ``D' = v(D)`` for some valuation ``v`` — equivalently,
  iff there is a strong onto homomorphism ``D → D'``;
* ``D' ∈ [[D]]_owa``  iff ``D' ⊇ v(D)`` for some valuation ``v`` — equivalently,
  iff there is a homomorphism ``D → D'``;
* the weak CWA of Reiter [59] allows adding tuples as long as no new
  active-domain elements appear: ``D' ∈ [[D]]_wcwa`` iff ``D' ⊇ v(D)`` and
  ``adom(D') = adom(v(D))`` for some valuation ``v`` — equivalently, iff
  there is an onto (on active domains) homomorphism ``D → D'``.

Because the target ``D'`` is complete, every homomorphism into it maps
nulls to constants, i.e. *is* a valuation; the homomorphism and valuation
formulations therefore coincide and we reuse the homomorphism search.

The information orderings have the same characterisations between
incomplete databases (Section 5.2):

* ``D ⊑_owa D'``  iff there is a homomorphism ``D → D'``;
* ``D ⊑_cwa D'``  iff there is a strong onto homomorphism ``D → D'``;
* ``D ⊑_wcwa D'`` iff there is a homomorphism ``D → D'`` onto ``adom(D')``.

They live here, below :mod:`repro.core` (which re-exports them), so the
rows of :mod:`repro.semantics.registry` can carry them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from ..datamodel import Database
from ..homomorphisms import (
    exists_homomorphism,
    exists_onto_homomorphism,
    exists_strong_onto_homomorphism,
)


def _check_complete(world: Database) -> None:
    if not world.is_complete():
        raise ValueError(
            "membership is defined for complete databases on the right-hand side; "
            f"got a database with nulls: {world!r}"
        )


def in_cwa(database: Database, world: Database) -> bool:
    """``world ∈ [[database]]_cwa``."""
    _check_complete(world)
    return exists_strong_onto_homomorphism(database, world)


def in_owa(database: Database, world: Database) -> bool:
    """``world ∈ [[database]]_owa``."""
    _check_complete(world)
    return exists_homomorphism(database, world)


def in_wcwa(database: Database, world: Database) -> bool:
    """``world ∈ [[database]]_wcwa`` (weak CWA: no new active-domain values)."""
    _check_complete(world)
    return exists_onto_homomorphism(database, world)



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
