"""First-order logic over relational vocabularies.

Contents:

* :mod:`repro.logic.formulas` — terms, formulas, active-domain evaluation
  (naive satisfaction on databases with nulls) and :class:`FOQuery`;
* :mod:`repro.logic.fragments` — CQ / UCQ / positive / Pos∀G classifiers;
* :mod:`repro.logic.diagrams` — positive diagrams, the δ-formulas of
  Section 5.2 and the database-as-query duality of Section 4;
* :mod:`repro.logic.containment` — conjunctive-query containment
  (Chandra–Merlin) and certain answers via containment;
* :mod:`repro.logic.translation` — relational algebra → calculus
  translation used to relate RA_cwa and Pos∀G.
"""

from .containment import (
    are_equivalent,
    certain_boolean_via_containment,
    homomorphism_witnesses_containment,
    is_contained,
    is_contained_boolean,
)
from .diagrams import (
    adom_closure,
    database_as_query,
    delta_cwa,
    delta_owa,
    delta_wcwa,
    domain_closure,
    positive_diagram,
    tableau_of_query,
)
from .formulas import (
    And,
    Bottom,
    Equality,
    Exists,
    FOQuery,
    Forall,
    Formula,
    Implies,
    Not,
    Or,
    RelationAtom,
    Top,
    Variable,
    atom,
    conj,
    disj,
    equals,
    exists,
    forall,
    is_variable,
    term_value,
    var,
    variables,
)
from .fragments import (
    FormulaFragment,
    classify_formula,
    classify_query,
    is_conjunctive,
    is_existential_positive,
    is_pos_forall_guarded,
    is_positive,
    is_ucq,
)
from .translation import TranslationError, ra_to_calculus

__all__ = [
    "And",
    "Bottom",
    "Equality",
    "Exists",
    "FOQuery",
    "Forall",
    "Formula",
    "FormulaFragment",
    "Implies",
    "Not",
    "Or",
    "RelationAtom",
    "Top",
    "TranslationError",
    "Variable",
    "adom_closure",
    "are_equivalent",
    "atom",
    "certain_boolean_via_containment",
    "classify_formula",
    "classify_query",
    "conj",
    "database_as_query",
    "delta_cwa",
    "delta_owa",
    "delta_wcwa",
    "disj",
    "domain_closure",
    "equals",
    "exists",
    "forall",
    "homomorphism_witnesses_containment",
    "is_conjunctive",
    "is_contained",
    "is_contained_boolean",
    "is_existential_positive",
    "is_pos_forall_guarded",
    "is_positive",
    "is_ucq",
    "is_variable",
    "positive_diagram",
    "ra_to_calculus",
    "tableau_of_query",
    "term_value",
    "var",
    "variables",
]
