"""Membership tests for the OWA / CWA / weak-CWA semantics.

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
"""

from __future__ import annotations

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

