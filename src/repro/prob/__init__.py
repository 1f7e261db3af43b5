"""Probabilistic c-tables: confidence computation on the condition kernel.

This package is the ``semantics="prob"`` evaluation tier.  A c-table
plus a :class:`ProbabilityModel` over its nulls is a *pc-table* (a
probabilistic database in the representation-system sense): each
possible world gets a probability, and the confidence of an answer
tuple is the probability of its lineage condition.

* :mod:`repro.prob.model` — :class:`ProbabilityModel` /
  :class:`ExclusiveBlock`: independent per-null distributions and
  block-exclusive joint alternatives, validated at construction.
* :mod:`repro.prob.lineage` — ``prob_lineage``: ground answer tuples
  with their lineage conditions, built by the c-table engine pruned to
  the model's supports (the input of ``Query.confidence()``).
* :mod:`repro.prob.confidence` — :func:`confidence`: exact evaluation
  by decomposition over the interned condition DAG (independent splits,
  exclusive-OR detection, Shannon expansion), memoized per
  (kernel, model), budget-aware.
* :mod:`repro.prob.montecarlo` — :func:`monte_carlo_confidence`: the
  sampling fallback when exact evaluation exceeds its budget, returning
  a :class:`~repro.resilience.ConfidenceInterval`.
* :mod:`repro.prob.conditioning` — :class:`Conditioner`: Koch–Olteanu
  conditioning on a constraint with block-local factorization.

End-to-end: ``repro.connect(semantics="prob", model=...)`` then
``Query.confidence()`` / ``Query.condition_on(constraint)``; see
``docs/probability.md``.
"""

from .conditioning import Conditioner
from .confidence import ConfidenceStats, brute_force_confidence, confidence
from .model import ExclusiveBlock, ProbabilityModel
from .montecarlo import monte_carlo_confidence, wilson_interval

__all__ = [
    "Conditioner",
    "ConfidenceStats",
    "ExclusiveBlock",
    "ProbabilityModel",
    "brute_force_confidence",
    "confidence",
    "monte_carlo_confidence",
    "wilson_interval",
]
