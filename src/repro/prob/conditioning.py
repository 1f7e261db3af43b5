"""Conditioning a probabilistic c-table on a constraint.

Koch–Olteanu conditioning: given a constraint ``Φ`` (a condition over
the model's nulls), retract every world violating ``Φ`` and renormalize
— afterwards each answer's probability is ``P(lineage ∧ Φ) / P(Φ)``.
The pc-table's *global condition* is conditioned on the same way (worlds
violating it never existed), so ``Query.confidence()`` folds it into the
constraint.

The work is factorized with the same block locality
:mod:`repro.homomorphisms.blocks` gives core computation: the
constraint's conjuncts are partitioned into *components* touching
disjoint model groups (via :func:`fact_components` over pseudo-facts
whose "nulls" are group representatives).  Components are mutually
independent, so

* ``P(Φ) = ∏_k P(C_k)`` — each factor computed once and cached;
* ``P(lineage | Φ) = P(lineage ∧ ⋀overlapping C_k) / ∏overlapping
  P(C_k)`` — only the components sharing a group with the lineage join
  the (potentially exponential) joint evaluation; the rest cancel.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

from ..datamodel.condition_kernel import ConditionKernel
from ..datamodel.conditional import And, Condition, TRUE, TrueCondition
from ..datamodel.values import Null
from ..homomorphisms.blocks import fact_components
from ..obs import current_metrics
from ..resilience import InvalidRequestError
from .confidence import confidence
from .model import ProbabilityModel

__all__ = ["Conditioner"]


class _Component:
    """One independent slice of the constraint: condition + groups + P."""

    __slots__ = ("condition", "representatives", "probability")

    def __init__(
        self,
        condition: Condition,
        representatives: FrozenSet[Null],
        probability: float,
    ) -> None:
        self.condition = condition
        self.representatives = representatives
        self.probability = probability


class Conditioner:
    """``P(· | constraint)`` for conditions over one probability model.

    Construction computes (and caches) the per-component probabilities
    and the normalization ``P(constraint)``;
    :class:`~repro.resilience.InvalidRequestError` is raised when the
    constraint has probability zero (there is nothing to condition on).
    """

    __slots__ = ("constraint", "model", "kernel", "normalization", "_components")

    def __init__(
        self,
        constraint: Condition,
        model: ProbabilityModel,
        kernel: Optional[ConditionKernel] = None,
    ) -> None:
        kernel = kernel if kernel is not None else ConditionKernel()
        constraint = kernel.intern(constraint)
        model.require(kernel.nulls(constraint))
        self.constraint = constraint
        self.model = model
        self.kernel = kernel
        self._components: List[_Component] = []

        conjuncts: Tuple[Condition, ...]
        if isinstance(constraint, And):
            conjuncts = constraint.operands
        else:
            conjuncts = (constraint,)

        # Pseudo-facts whose "row" carries the conjunct's group
        # representatives: fact_components then computes exactly the
        # partition of conjuncts into group-connected components.
        pseudo = []
        normalization = 1.0
        for index, conjunct in enumerate(conjuncts):
            representatives = sorted(
                {model.representative(n) for n in kernel.nulls(conjunct)},
                key=lambda n: n.name,
            )
            if not representatives:
                # Ground conjunct: a fixed truth value (FALSE zeroes the
                # normalization below via confidence() == 0).
                normalization *= confidence(conjunct, model, kernel)
                continue
            pseudo.append((index, tuple(representatives)))

        for component in fact_components(pseudo):
            members = [conjuncts[index] for index, _ in component]
            representatives = frozenset(
                rep for _, reps in component for rep in reps
            )
            condition = (
                members[0] if len(members) == 1 else kernel.conjunction(members)
            )
            probability = confidence(condition, model, kernel)
            normalization *= probability
            self._components.append(
                _Component(condition, representatives, probability)
            )

        if normalization <= 0.0:
            raise InvalidRequestError(
                "cannot condition on a constraint with probability zero"
            )
        self.normalization = normalization
        metrics = current_metrics()
        if metrics is not None:
            metrics.count("prob.conditioning.components", len(self._components))

    def components(self) -> int:
        """How many independent constraint components were found."""
        return len(self._components)

    def probability(self, condition: Condition) -> float:
        """``P(condition | constraint)``.

        Only constraint components sharing a model group with
        ``condition`` enter the joint evaluation; independent components
        cancel against their cached factor.
        """
        condition = self.kernel.intern(condition)
        if isinstance(condition, TrueCondition):
            return 1.0
        self.model.require(self.kernel.nulls(condition))
        touched = {
            self.model.representative(n)
            for n in self.kernel.nulls(condition)
        }
        joint = [condition]
        denominator = 1.0
        for component in self._components:
            if component.representatives & touched:
                joint.append(component.condition)
                denominator *= component.probability
        if len(joint) == 1:
            return confidence(condition, self.model, self.kernel)
        numerator = confidence(
            self.kernel.conjunction(joint), self.model, self.kernel
        )
        if denominator <= 0.0:  # unreachable given normalization > 0
            raise InvalidRequestError("conditioning denominator vanished")
        return min(1.0, numerator / denominator)

    def given(self) -> Optional[Condition]:
        """The constraint for rejection sampling (``None`` when trivial)."""
        if isinstance(self.constraint, TrueCondition):
            return None
        return self.constraint

    def __repr__(self) -> str:
        return (
            f"Conditioner({len(self._components)} components, "
            f"P(constraint)={self.normalization:.4f})"
        )


def trivial_conditioner(model: ProbabilityModel, kernel: Optional[ConditionKernel] = None) -> Conditioner:
    """A conditioner on the trivially-true constraint (no retraction)."""
    return Conditioner(TRUE, model, kernel)
