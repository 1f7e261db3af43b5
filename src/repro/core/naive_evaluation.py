"""When does naive evaluation work?  The paper's applicability criteria.

Section 6 gives both a semantic criterion and syntactic classes:

* **Semantic** (eq. (9)/(10)): if a query is *monotone* with respect to the
  input/answer information orderings and *generic*, then naive evaluation
  computes ``certainO``/``certainK``.
* **Syntactic**:
  - OWA-naive evaluation works for unions of conjunctive queries
    (positive relational algebra); for Boolean FO queries this is optimal;
  - CWA-naive evaluation works for ``RA_cwa`` = Pos∀G (positive algebra
    plus division by RA(Δ,π,×,∪) queries), because Pos∀G formulas are
    preserved under strong onto homomorphisms.

This module exposes the syntactic applicability test used by the public
certain-answer API, together with empirical monotonicity / preservation /
genericity checkers used by the experiment and property-test suites.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional, Tuple, Union

from ..algebra.ast import RAExpression
from ..algebra.ra_cwa import Fragment, classify
from ..datamodel import Database, Relation
from ..homomorphisms import Homomorphism
from ..logic.formulas import FOQuery
from ..logic.fragments import FormulaFragment, classify_formula
from .orderings import relation_leq

Query = Union[RAExpression, FOQuery]


@dataclass(frozen=True)
class Applicability:
    """The verdict of the naive-evaluation applicability test."""

    applies: bool
    semantics: str
    fragment: str
    reason: str

    def __bool__(self) -> bool:
        return self.applies


def naive_evaluation_applies(query: Query, semantics: str = "cwa") -> Applicability:
    """Syntactic test: is naive evaluation guaranteed correct for ``query``?

    ``semantics`` is a name registered in
    :data:`repro.semantics.registry.SEMANTICS` (or its row); the test is
    :func:`naive_verdict` on that row.
    """
    from ..semantics.registry import semantics_named  # the registry imports this module

    return naive_verdict(query, semantics_named(semantics))


def naive_verdict(query: Query, semantics: Any) -> Applicability:
    """The naive-evaluation test for a :mod:`repro.semantics.registry` row.

    The guaranteed class is positive relational algebra / UCQ; where worlds
    gain no facts (``not semantics.grows``: CWA) it widens to ``RA_cwa`` on
    the algebra side and Pos∀G on the calculus side, whose guarantee rests
    on strong onto homomorphisms and so does not transfer to OWA or weak CWA.
    """
    if isinstance(query, RAExpression):
        fragment = classify(query)
        positive, guarded = fragment is Fragment.POSITIVE, fragment is Fragment.RA_CWA
        reasons = (
            "positive relational algebra (UCQ)",
            "RA_cwa under CWA",
            "division is only safe under CWA, not OWA",
            "query uses non-positive features (e.g. difference)",
        )
    elif isinstance(query, FOQuery):
        fragment = classify_formula(query.formula)
        positive = fragment in (FormulaFragment.CQ, FormulaFragment.UCQ)
        guarded = fragment is FormulaFragment.POS_FORALL_GUARDED
        reasons = (
            "existential positive (UCQ)",
            "Pos∀G under CWA",
            "guarded universals are only safe under CWA",
            "formula is outside UCQ / Pos∀G; naive evaluation is not guaranteed",
        )
    else:
        raise TypeError(f"unsupported query type {type(query).__name__}")
    if positive:
        return Applicability(True, semantics.name, fragment.value, reasons[0])
    if guarded:
        closed = not semantics.grows
        return Applicability(closed, semantics.name, fragment.value, reasons[1 if closed else 2])
    return Applicability(False, semantics.name, fragment.value, reasons[3])


# ----------------------------------------------------------------------
# Empirical checks of the semantic criteria
# ----------------------------------------------------------------------
def evaluate_query(query: Query, database: Database) -> Relation:
    """Evaluate either kind of query object on a database (the seed oracle)."""
    if isinstance(query, RAExpression):
        return query.evaluate(database)
    if isinstance(query, FOQuery):
        return query.evaluate(database)
    raise TypeError(f"unsupported query type {type(query).__name__}")


def is_monotone_on(
    query: Query,
    pairs: Iterable[Tuple[Database, Database]],
    input_semantics: str = "cwa",
    answer_semantics: Optional[str] = None,
) -> bool:
    """Empirical monotonicity check on the supplied ``(smaller, larger)`` pairs.

    For every pair with ``smaller ⊑ larger`` in the input ordering, the
    answers must satisfy ``Q(smaller) ⊑ Q(larger)`` in the answer ordering.
    Pairs that are not ordered are skipped.
    """
    from ..semantics.registry import semantics_named  # the registry imports this module

    input_order = semantics_named(input_semantics).ordering
    answers = semantics_named(answer_semantics or input_semantics)
    for smaller, larger in pairs:
        if not input_order(smaller, larger):
            continue
        left = evaluate_query(query, smaller)
        right = evaluate_query(query, larger)
        if not relation_leq(left, right, semantics=answers):
            return False
    return True


def is_preserved_under_homomorphisms(
    query: FOQuery,
    pairs: Iterable[Tuple[Database, Database, Homomorphism]],
    strong_onto: bool = False,
) -> bool:
    """Check preservation of a Boolean query under (strong onto) homomorphisms.

    For every supplied triple ``(D, D', h)`` where ``h : D → D'`` (strong
    onto when requested), if ``D ⊨ Q`` then ``D' ⊨ Q`` must hold.  The
    callers produce the homomorphism pool; this function just checks the
    implication, which is the semantic property behind the paper's
    naive-evaluation theorems (UCQ ↔ homomorphisms, Pos∀G ↔ strong onto
    homomorphisms).
    """
    if query.head:
        raise ValueError("preservation checks are for Boolean queries")
    for source, target, hom in pairs:
        if strong_onto and hom.apply(source) != target:
            continue
        if query.formula.holds(source) and not query.formula.holds(target):
            return False
    return True


def is_generic_on(
    query: Query,
    database: Database,
    renamings: Iterable[Callable[[object], object]],
) -> bool:
    """Empirical genericity check: renaming constants commutes with the query.

    Each renaming must be injective on the active domain of ``database``;
    genericity requires ``Q(rename(D)) = rename(Q(D))``.
    """
    base_answer = evaluate_query(query, database)
    for renaming in renamings:
        renamed_db = database.map_values(renaming)
        renamed_answer = evaluate_query(query, renamed_db)
        expected = base_answer.map_values(renaming)
        if frozenset(renamed_answer.rows) != frozenset(expected.rows):
            return False
    return True
