"""The paper's primary contribution: certainty, orderings, representation systems.

Contents:

* :mod:`repro.core.orderings` — information orderings ⊑_owa / ⊑_cwa /
  ⊑_wcwa and their homomorphism characterisations;
* :mod:`repro.core.representation_system` — the abstract domains and
  representation systems of Section 5.1–5.2 plus the relational OWA/CWA
  instantiations;
* :mod:`repro.core.certainty` — ``certainO`` / ``certainK`` (Section 5.3);
* :mod:`repro.core.naive_evaluation` — applicability of naive evaluation
  (syntactic fragments and the monotone+generic criterion of Section 6);
* :mod:`repro.core.answers` — the certain-answer strategies sessions dispatch to;
* :mod:`repro.core.sound_evaluation` — sound, no-false-positive evaluation
  of full relational algebra over nulls (Section 7).
"""

from .answers import (
    certain_strategy,
    enumeration_strategy,
    explain_method,
    knowledge_strategy,
    naive_strategy,
    object_strategy,
)
from .certainty import (
    certain_knowledge_formula,
    certain_object_owa,
    intersection_object,
    is_certain_knowledge,
    is_certain_object,
    is_lower_bound,
    knowledge_includes,
    product_object,
    theory_of,
)
from .naive_evaluation import (
    Applicability,
    evaluate_query,
    is_generic_on,
    is_monotone_on,
    is_preserved_under_homomorphisms,
    naive_evaluation_applies,
)
from .orderings import (
    CWA_ORDERING,
    InformationOrdering,
    OWA_ORDERING,
    WCWA_ORDERING,
    cwa_leq,
    owa_leq,
    relation_leq,
    semantic_leq,
    wcwa_leq,
)
from .answers import query_constants
from .representation_system import (
    Domain,
    RepresentationSystem,
    cwa_representation_system,
    owa_representation_system,
    relational_domain,
    wcwa_representation_system,
)
from .sound_evaluation import (
    ApproximatePair,
    evaluate_pair,
    possible_answer_bound,
    rows_unifiable,
    sound_certain_answers,
    values_unifiable,
)

__all__ = [
    "Applicability",
    "ApproximatePair",
    "CWA_ORDERING",
    "Domain",
    "InformationOrdering",
    "OWA_ORDERING",
    "RepresentationSystem",
    "WCWA_ORDERING",
    "certain_knowledge_formula",
    "certain_object_owa",
    "certain_strategy",
    "cwa_leq",
    "enumeration_strategy",
    "knowledge_strategy",
    "naive_strategy",
    "object_strategy",
    "cwa_representation_system",
    "evaluate_pair",
    "evaluate_query",
    "explain_method",
    "intersection_object",
    "is_certain_knowledge",
    "is_certain_object",
    "is_generic_on",
    "is_lower_bound",
    "is_monotone_on",
    "is_preserved_under_homomorphisms",
    "knowledge_includes",
    "naive_evaluation_applies",
    "owa_leq",
    "owa_representation_system",
    "possible_answer_bound",
    "product_object",
    "query_constants",
    "relation_leq",
    "relational_domain",
    "rows_unifiable",
    "wcwa_representation_system",
    "semantic_leq",
    "sound_certain_answers",
    "theory_of",
    "values_unifiable",
    "wcwa_leq",
]
