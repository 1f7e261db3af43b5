"""Inclusion dependencies (referential integrity) over incomplete databases.

An inclusion dependency (IND) ``R[X] ⊆ S[Y]`` requires every ``X``-value
combination appearing in ``R`` to appear as a ``Y``-value combination in
``S``.  Foreign keys are the ubiquitous special case.  Following the
paper's Section 7 advice that "constraints are queries, after all", an IND
is treated as a Boolean query (a containment of projections) and inherits
the three satisfaction notions used for functional dependencies:

* **naive** satisfaction — evaluate the containment treating nulls as
  ordinary values (a null matches only the very same null), the SQL-ish
  shortcut;
* **certain** satisfaction — the containment holds in *every* possible
  world of the database;
* **possible** satisfaction — it holds in *at least one* world.

Certain and possible satisfaction are decided exactly, by a direct
unification argument backed by valuation enumeration only where genuinely
needed (shared nulls can interact across tuples).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple, Union

from ..datamodel import ConstantPool, Database
from ..semantics.certain import enumerate_possible_boolean

AttributeRef = Union[str, int]


@dataclass(frozen=True)
class InclusionDependency:
    """An inclusion dependency ``lhs_relation[lhs] ⊆ rhs_relation[rhs]``.

    ``lhs`` and ``rhs`` are sequences of attribute names or positions of
    equal length.

    Examples
    --------
    >>> ind = InclusionDependency("Pay", ("ord",), "Orders", ("o_id",))
    >>> str(ind)
    'Pay[ord] ⊆ Orders[o_id]'
    """

    lhs_relation: str
    lhs: Tuple[AttributeRef, ...]
    rhs_relation: str
    rhs: Tuple[AttributeRef, ...]

    def __init__(
        self,
        lhs_relation: str,
        lhs: Sequence[AttributeRef],
        rhs_relation: str,
        rhs: Sequence[AttributeRef],
    ) -> None:
        object.__setattr__(self, "lhs_relation", lhs_relation)
        object.__setattr__(self, "lhs", tuple(lhs))
        object.__setattr__(self, "rhs_relation", rhs_relation)
        object.__setattr__(self, "rhs", tuple(rhs))
        if not self.lhs or not self.rhs:
            raise ValueError("an inclusion dependency needs at least one attribute on each side")
        if len(self.lhs) != len(self.rhs):
            raise ValueError("the two attribute lists of an inclusion dependency must have equal length")

    def __str__(self) -> str:
        lhs = ", ".join(str(a) for a in self.lhs)
        rhs = ", ".join(str(a) for a in self.rhs)
        return f"{self.lhs_relation}[{lhs}] ⊆ {self.rhs_relation}[{rhs}]"

    # ------------------------------------------------------------------
    def _projections(self, database: Database) -> Tuple[List[Tuple], List[Tuple]]:
        left_relation = database.relation(self.lhs_relation)
        right_relation = database.relation(self.rhs_relation)
        left_positions = [left_relation.schema.index_of(a) for a in self.lhs]
        right_positions = [right_relation.schema.index_of(a) for a in self.rhs]
        left = [tuple(row[i] for i in left_positions) for row in left_relation]
        right = [tuple(row[i] for i in right_positions) for row in right_relation]
        return left, right

    def unmatched_values(self, database: Database) -> List[Tuple]:
        """LHS value combinations with no naive match on the RHS (dangling references)."""
        left, right = self._projections(database)
        right_set = set(right)
        return sorted({value for value in left if value not in right_set}, key=str)

    # ------------------------------------------------------------------
    # the three satisfaction notions
    # ------------------------------------------------------------------
    def satisfied_naively(self, database: Database) -> bool:
        """Naive satisfaction: every LHS combination appears verbatim on the RHS."""
        return not self.unmatched_values(database)

    def satisfied_certainly(self, database: Database) -> bool:
        """The IND holds in every possible world.

        A single LHS tuple can escape the containment in some world unless
        its match is *forced*: naive satisfaction guarantees a syntactic
        match, but a syntactic match involving nulls is only forced when it
        uses the very same nulls on both sides (which naive matching already
        requires).  However, a world can also *break* a naive match it
        relied on — it cannot, since applying a valuation to syntactically
        equal values keeps them equal.  What a world can do is break
        nothing but also *create* nothing, so certain satisfaction would
        seem to equal naive satisfaction; the subtlety is that a naive
        mismatch may still be satisfied in every world only if every
        valuation happens to produce a match, which for the "all distinct
        fresh constants" valuation never happens.  Hence certain
        satisfaction coincides with naive satisfaction, and this method
        simply documents that argument (and is cross-checked against
        enumeration in the tests).
        """
        return self.satisfied_naively(database)

    def satisfied_possibly(self, database: Database) -> bool:
        """The IND holds in at least one possible world.

        Decided exactly: if naive satisfaction holds, any valuation keeps
        the matches.  Otherwise the dangling LHS combinations must be
        repaired by a valuation that makes them equal to some RHS
        combination; whether that is possible depends on how nulls are
        shared, so the method enumerates valuations of the involved nulls
        over the active domain (fresh constants cannot help equality).
        """
        if self.satisfied_naively(database):
            return True
        left_relation = database.relation(self.lhs_relation)
        right_relation = database.relation(self.rhs_relation)
        nulls = left_relation.nulls() | right_relation.nulls()
        if not nulls:
            return False
        constants = sorted(
            left_relation.constants() | right_relation.constants(), key=str
        )
        pool = ConstantPool(forbidden=constants, prefix="ind")
        domain = constants + pool.take(1)
        involved = [left_relation]
        if self.rhs_relation != self.lhs_relation:
            involved.append(right_relation)
        return enumerate_possible_boolean(
            self.satisfied_naively, Database.from_relations(involved), domain=domain
        )


def referential_integrity_report(
    database: Database,
    dependencies: Iterable[InclusionDependency],
) -> List[Tuple[InclusionDependency, str, List[Tuple]]]:
    """A per-IND verdict: 'certain', 'possible' or 'violated', plus dangling values."""
    report = []
    for dependency in dependencies:
        dangling = dependency.unmatched_values(database)
        if dependency.satisfied_certainly(database):
            verdict = "certain"
        elif dependency.satisfied_possibly(database):
            verdict = "possible"
        else:
            verdict = "violated"
        report.append((dependency, verdict, dangling))
    return report


def foreign_key(
    referencing: str,
    attributes: Sequence[AttributeRef],
    referenced: str,
    key_attributes: Sequence[AttributeRef],
) -> InclusionDependency:
    """A foreign key, i.e. an inclusion dependency with conventional naming."""
    return InclusionDependency(referencing, tuple(attributes), referenced, tuple(key_attributes))
