"""Integrity constraints over incomplete databases: functional dependencies.

Section 7 of the paper ("Handling constraints") observes that constraint
satisfaction over incomplete data has been studied mostly in isolation
(Atzeni–Morfuni, Levene–Loizou are the cited lines of work) and argues that
"constraints are queries, after all", so the semantics-based machinery of
the paper should apply to them too.  This module follows that advice for
the most common constraint class, functional dependencies (FDs):

* an FD ``X → Y`` over a relation is modelled as a Boolean *violation
  query* (two tuples agreeing on ``X`` but disagreeing on ``Y``);
* three satisfaction notions are provided, mirroring the certain/possible
  split of query answering:

  - **naive satisfaction** — evaluate the violation query naively (nulls
    equal only to themselves); this is the common implementation shortcut;
  - **certain satisfaction** — the FD holds in *every* possible world
    (no valuation can produce a violation);
  - **possible satisfaction** — the FD holds in *at least one* world
    (the classical "weak satisfaction" of Atzeni–Morfuni).

The implementations are exact: certain/possible satisfaction are decided
by unification-style reasoning on the pair of tuples, with the world
enumeration kept only as a cross-check in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, List, Sequence, Tuple, Union

from ..core.sound_evaluation import values_unifiable
from ..datamodel import ConstantPool, Database, Relation
from ..datamodel.values import is_null
from ..semantics.certain import enumerate_possible_boolean

AttributeRef = Union[str, int]


@dataclass(frozen=True)
class FunctionalDependency:
    """A functional dependency ``relation: lhs → rhs``.

    Attributes may be given by name or position.  ``lhs`` may be empty
    (a constancy constraint on ``rhs``).
    """

    relation: str
    lhs: Tuple[AttributeRef, ...]
    rhs: Tuple[AttributeRef, ...]

    def __init__(
        self,
        relation: str,
        lhs: Sequence[AttributeRef],
        rhs: Sequence[AttributeRef],
    ) -> None:
        object.__setattr__(self, "relation", relation)
        object.__setattr__(self, "lhs", tuple(lhs))
        object.__setattr__(self, "rhs", tuple(rhs))
        if not self.rhs:
            raise ValueError("a functional dependency needs at least one right-hand attribute")

    def __str__(self) -> str:
        lhs = ", ".join(str(a) for a in self.lhs) or "∅"
        rhs = ", ".join(str(a) for a in self.rhs)
        return f"{self.relation}: {lhs} → {rhs}"

    # ------------------------------------------------------------------
    def _positions(self, relation: Relation) -> Tuple[List[int], List[int]]:
        schema = relation.schema
        return (
            [schema.index_of(a) for a in self.lhs],
            [schema.index_of(a) for a in self.rhs],
        )

    def violating_pairs(self, database: Database) -> List[Tuple[Tuple, Tuple]]:
        """Pairs of tuples that violate the FD under *naive* equality."""
        relation = database.relation(self.relation)
        lhs_positions, rhs_positions = self._positions(relation)
        violations = []
        for first, second in combinations(sorted(relation.rows, key=str), 2):
            agree_lhs = all(first[i] == second[i] for i in lhs_positions)
            agree_rhs = all(first[i] == second[i] for i in rhs_positions)
            if agree_lhs and not agree_rhs:
                violations.append((first, second))
        return violations

    # ------------------------------------------------------------------
    # the three satisfaction notions
    # ------------------------------------------------------------------
    def satisfied_naively(self, database: Database) -> bool:
        """Naive satisfaction: no violation when nulls are treated as values."""
        return not self.violating_pairs(database)

    def satisfied_certainly(self, database: Database) -> bool:
        """The FD holds in every possible world (no valuation creates a violation).

        A pair of tuples can be turned into a violation by some valuation
        iff their left-hand sides are *unifiable* while their right-hand
        sides are not *forced equal* by that same unification.  We check
        this directly: unify the LHS; if that fails, the pair is harmless.
        If it succeeds, the pair violates in some world unless the RHS
        values are syntactically equal or forced equal by the LHS
        unification (i.e. the RHS also unifies **and** every way of
        instantiating the LHS equalities makes the RHS equal, which for
        equality constraints means the RHS pairs are already among the
        unified LHS classes).  The sound, complete and simple criterion:
        the pair is safe iff under the substitution induced by unifying the
        LHS, the RHS values become syntactically identical.
        """
        relation = database.relation(self.relation)
        lhs_positions, rhs_positions = self._positions(relation)
        for first, second in combinations(sorted(relation.rows, key=str), 2):
            lhs_pairs = [(first[i], second[i]) for i in lhs_positions]
            if not values_unifiable(lhs_pairs):
                continue
            if not self._rhs_forced_equal(lhs_pairs, first, second, rhs_positions):
                return False
        return True

    def satisfied_possibly(self, database: Database) -> bool:
        """The FD holds in at least one world (weak satisfaction).

        With *marked* nulls this is a genuine constraint-satisfaction
        question (a shared null may be pulled in incompatible directions by
        different tuple pairs), so the method combines three steps:

        1. if naive satisfaction holds, the "all distinct and fresh"
           valuation yields a satisfying world — possible;
        2. if some pair has syntactically equal LHS and two distinct
           constants on the RHS, the violation survives every valuation —
           impossible;
        3. otherwise, decide exactly by enumerating valuations of the
           relation's nulls over its active domain plus fresh constants
           (sufficient because renaming unused values preserves FD
           (non-)violations).
        """
        relation = database.relation(self.relation)
        lhs_positions, rhs_positions = self._positions(relation)
        forced_violation = False
        for first, second in combinations(sorted(relation.rows, key=str), 2):
            if all(first[i] == second[i] for i in lhs_positions):
                for i in rhs_positions:
                    left, right = first[i], second[i]
                    if left != right and not is_null(left) and not is_null(right):
                        forced_violation = True
        if forced_violation:
            return False
        if self.satisfied_naively(database):
            return True
        pool = ConstantPool(forbidden=relation.constants(), prefix="fd")
        domain = sorted(relation.constants(), key=str) + pool.take(len(relation.nulls()) + 1)
        return enumerate_possible_boolean(
            self.satisfied_naively, Database.from_relations([relation]), domain=domain
        )

    @staticmethod
    def _rhs_forced_equal(lhs_pairs, first, second, rhs_positions) -> bool:
        """Are the RHS values equal under *every* unifier of the LHS pairs?

        We use the representative map of the union-find built from the LHS
        pairs: two RHS values are forced equal iff they are syntactically
        equal or end up in the same union-find class (their equality is a
        consequence of the LHS equalities).
        """
        from ..core.sound_evaluation import _UnionFind

        union_find = _UnionFind()
        for left, right in lhs_pairs:
            union_find.union(left, right)
        for i in rhs_positions:
            left, right = first[i], second[i]
            if left == right:
                continue
            if union_find.find(left) != union_find.find(right):
                return False
        return True


class ConstraintSet:
    """A collection of functional dependencies with bulk checking helpers."""

    def __init__(self, dependencies: Iterable[FunctionalDependency] = ()) -> None:
        self.dependencies: List[FunctionalDependency] = list(dependencies)

    def add(self, dependency: FunctionalDependency) -> None:
        """Add one dependency."""
        self.dependencies.append(dependency)

    def __iter__(self):
        return iter(self.dependencies)

    def __len__(self) -> int:
        return len(self.dependencies)

    def satisfied_naively(self, database: Database) -> bool:
        """All dependencies hold under naive equality."""
        return all(fd.satisfied_naively(database) for fd in self.dependencies)

    def satisfied_certainly(self, database: Database) -> bool:
        """All dependencies hold in every possible world."""
        return all(fd.satisfied_certainly(database) for fd in self.dependencies)

    def satisfied_possibly(self, database: Database) -> bool:
        """Every dependency holds in at least one world (checked independently)."""
        return all(fd.satisfied_possibly(database) for fd in self.dependencies)

    def report(self, database: Database) -> List[Tuple[FunctionalDependency, str]]:
        """A per-dependency verdict: 'certain', 'possible', or 'violated'."""
        verdicts = []
        for fd in self.dependencies:
            if fd.satisfied_certainly(database):
                verdicts.append((fd, "certain"))
            elif fd.satisfied_possibly(database):
                verdicts.append((fd, "possible"))
            else:
                verdicts.append((fd, "violated"))
        return verdicts


def key(relation: str, attributes: Sequence[AttributeRef], all_attributes: Sequence[AttributeRef]) -> FunctionalDependency:
    """The key constraint ``attributes → (all other attributes)``."""
    rest = [a for a in all_attributes if a not in attributes]
    if not rest:
        raise ValueError("a key over all attributes is vacuous; give a proper subset")
    return FunctionalDependency(relation, tuple(attributes), tuple(rest))
