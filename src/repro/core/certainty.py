"""Certainty as knowledge (``certainK``) and as object (``certainO``).

Section 5.3 of the paper defines, for a set ``X`` of objects, two notions
of the certain information contained in ``X``:

* ``certainK X`` — *knowledge*: a formula whose models are exactly the
  models of the theory ``Th(X)`` (equivalently, the greatest lower bound of
  ``Th(X)`` under implication);
* ``certainO X`` — *object*: the greatest lower bound ``⋀X`` of ``X`` under
  the information ordering.

Applied to query answering (Section 6), ``X = Q([[D]])`` and the paper's
main positive result (eqs. (9) and (10)) is that for monotone generic
queries, with a representation system on the answer side,

    ``certainO(Q, D) = Q(D)``      and      ``certainK(Q, D) = δ_{Q(D)}``,

i.e. naive evaluation produces both notions of certainty directly.  This
module implements the two operators for the relational instantiation —
producing the candidate objects/formulas — together with the verification
predicates the experiments use to check the glb / model-equivalence
properties against explicitly enumerated answer sets.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..datamodel import Database, Null, is_null
from ..homomorphisms import core as core_of
from ..logic.formulas import Formula
from ..semantics.registry import semantics_named
from .orderings import InformationOrdering


# ----------------------------------------------------------------------
# certainO: greatest lower bound of a set of objects
# ----------------------------------------------------------------------
def is_lower_bound(
    candidate: Database, objects: Iterable[Database], order: InformationOrdering
) -> bool:
    """``candidate ⊑ x`` for every ``x`` in ``objects``."""
    return order.is_lower_bound(candidate, objects)


def is_certain_object(
    candidate: Database,
    objects: Sequence[Database],
    order: InformationOrdering,
    competitors: Iterable[Database] = (),
) -> bool:
    """Verify that ``candidate`` behaves as ``certainO(objects) = ⋀ objects``.

    The candidate must be a lower bound of ``objects`` and at least as
    informative as every *competitor* lower bound supplied.  (The true glb
    quantifies over all objects of the domain; experiments pass the
    relevant competitor pool, e.g. the intersection-based answer and each
    individual world's answer.)
    """
    return order.is_greatest_lower_bound(candidate, objects, competitors)


def intersection_object(objects: Sequence[Database]) -> Optional[Database]:
    """The fact-wise intersection of a family of databases over one schema.

    This is the object the *classical* certain-answer definition produces.
    The paper's critique (Section 6) is precisely that this object need not
    be the greatest lower bound — under CWA it generally is not even a
    lower bound.
    """
    if not objects:
        return None
    schema = objects[0].schema
    result = objects[0]
    for other in objects[1:]:
        if other.schema != schema:
            raise ValueError("intersection_object expects databases over one schema")
        result = Database(
            schema,
            {
                name: result.relation(name).intersection(other.relation(name))
                for name in schema.names()
            },
        )
    return result


def product_object(left: Database, right: Database) -> Database:
    """The categorical product ``D₁ × D₂`` — a glb of ``{D₁, D₂}`` under ``⊑_owa``.

    Rows are combined position-wise over pairs of rows of the same
    relation: a pair of equal constants stays that constant; every other
    pair of values becomes a marked null, one per distinct pair, shared
    across the whole product.  The projections ``⊥_(u,v) ↦ u`` and
    ``⊥_(u,v) ↦ v`` are homomorphisms onto the factors, and any common
    lower bound maps into the product via ``e ↦ (h₁(e), h₂(e))`` — the
    universal property that makes the product the greatest lower bound in
    the homomorphism preorder (Section 5.2's ``⊑_owa``).
    """
    if left.schema != right.schema:
        raise ValueError("product_object expects databases over one schema")
    pair_nulls: Dict[Tuple[Any, Any], Null] = {}

    def combine(u: Any, v: Any) -> Any:
        if u == v and not is_null(u):
            return u
        pair = (u, v)
        null = pair_nulls.get(pair)
        if null is None:
            null = Null(f"prod_{len(pair_nulls)}")
            pair_nulls[pair] = null
        return null

    relations = {}
    for name in left.schema.names():
        # Sorting fixes the pair-null naming order (rows are frozensets,
        # whose iteration order varies with the hash seed).
        left_rows = sorted(left.relation(name).rows, key=lambda r: tuple(map(str, r)))
        right_rows = sorted(right.relation(name).rows, key=lambda r: tuple(map(str, r)))
        rows = set()
        for left_row in left_rows:
            for right_row in right_rows:
                rows.add(tuple(combine(u, v) for u, v in zip(left_row, right_row)))
        relations[name] = list(rows)
    return Database(left.schema, relations)


def certain_object_owa(objects: Sequence[Database], algorithm: str = "block") -> Database:
    """``certainO(objects) = ⋀ objects`` under ``⊑_owa``, as a concrete instance.

    The greatest lower bound of a finite family under the OWA ordering is
    the iterated categorical product; its core (computed with the
    block-based algorithm by default, ``algorithm`` as in
    :func:`repro.homomorphisms.core`) is the canonical small
    representative of that glb's homomorphism-equivalence class.  The
    product of ``n`` databases has up to ``∏ |Dᵢ|`` facts per relation, so
    this is intended for the finite families the experiments compare —
    exactly the situation the paper's ``certainO`` addresses.
    """
    objects = list(objects)
    if not objects:
        raise ValueError("certain_object_owa needs at least one object")
    result = objects[0]
    for other in objects[1:]:
        result = product_object(result, other)
    return core_of(result, algorithm=algorithm)


# ----------------------------------------------------------------------
# certainK: greatest lower bound of the theory
# ----------------------------------------------------------------------
def certain_knowledge_formula(database: Database, semantics: str = "cwa") -> Formula:
    """``certainK [[D]] = δ_D`` for the relational representation systems.

    For a single object the paper shows the certain knowledge of its
    semantics is its defining formula; for query answering (eq. (10)) the
    certain knowledge of ``Q([[D]])`` is ``δ_{Q(D)}`` — the δ-formula of the
    naively evaluated answer.  ``semantics`` is a name registered in
    :data:`repro.semantics.registry.SEMANTICS` (or its row).
    """
    return semantics_named(semantics).delta(database)


def knowledge_includes(formula: Formula, objects: Iterable[Database]) -> bool:
    """``formula ∈ Th(objects)``: the formula holds in every object of the set."""
    return all(formula.holds(obj) for obj in objects)


def is_certain_knowledge(
    formula: Formula,
    objects: Sequence[Database],
    candidates: Iterable[Database],
    competitors: Iterable[Formula] = (),
) -> bool:
    """Verify that ``formula`` behaves as ``certainK(objects)``.

    Checked properties (over the supplied finite candidate pool):

    * soundness — the formula holds in every object of ``objects``;
    * maximality — every competitor formula that also holds in all of
      ``objects`` is implied by ``formula`` on the candidate pool
      (``Mod(formula) ⊆ Mod(competitor)`` restricted to ``candidates``).
    """
    if not knowledge_includes(formula, objects):
        return False
    candidate_list = list(candidates)
    formula_models = [c for c in candidate_list if formula.holds(c)]
    for competitor in competitors:
        if not knowledge_includes(competitor, objects):
            continue
        if not all(competitor.holds(model) for model in formula_models):
            return False
    return True


def theory_of(objects: Iterable[Database], formulas: Iterable[Formula]) -> List[Formula]:
    """``Th(objects)`` restricted to a finite pool of formulas."""
    objects = list(objects)
    return [formula for formula in formulas if knowledge_includes(formula, objects)]
