"""The duality between incomplete databases and logical formulas.

Section 4 of the paper views an incomplete database ``D`` as a query/formula
and Section 5.2 builds, for every ``D``, a formula ``δ_D`` whose complete
models are exactly the semantics of ``D``:

* under OWA, ``δ_D^owa = ∃x̄ PosDiag(D)`` where ``PosDiag(D)`` (the positive
  diagram) is the conjunction of the atoms of ``D`` with every null ``⊥_i``
  replaced by a variable ``x_i``; then ``Mod_C(δ_D^owa) = [[D]]_owa``;
* under CWA, ``δ_D^cwa`` adds, for every relation ``R``, the domain-closure
  conjunct ``∀ȳ (R(ȳ) → ⋁_{t̄ ∈ R^D} ȳ = t̄)``; then
  ``Mod_C(δ_D^cwa) = [[D]]_cwa``.

Conversely, a Boolean conjunctive query ``Q`` has a *tableau* (canonical
database) ``D_Q`` obtained by turning its variables into nulls; then
``Mod_C(Q) = [[D_Q]]_owa``, which is the duality used to reduce certain
answering to containment and to naive satisfaction (``D ⊨ Q``).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..datamodel import Database, Null
from ..datamodel.schema import DatabaseSchema
from .formulas import (
    Equality,
    Exists,
    FOQuery,
    Forall,
    Formula,
    Implies,
    RelationAtom,
    Variable,
    conj,
    disj,
)


def _null_variable_map(database: Database) -> Dict[Null, Variable]:
    """A fresh variable ``x_i`` for every null ``⊥_i`` of the database, by name."""
    return {
        null: Variable(f"x_{null.name}")
        for null in sorted(database.nulls(), key=lambda n: n.name)
    }


def _closed(database: Database, *closures: Formula) -> Formula:
    """``∃x̄ (PosDiag(D) ∧ closures)``, without the quantifier when ``D`` has no null."""
    diagram, variables = positive_diagram(database)
    body = conj(diagram, *closures) if closures else diagram
    return Exists(variables, body) if variables else body


def positive_diagram(database: Database) -> Tuple[Formula, List[Variable]]:
    """``PosDiag(D)``: the conjunction of the atoms of ``D`` with nulls as variables.

    Returns the (quantifier-free) conjunction together with the list of
    variables standing for the nulls, in a deterministic order.

    Examples
    --------
    For ``R = {(1,2), (2,⊥1), (⊥1,⊥2)}`` the diagram is
    ``R(1,2) ∧ R(2,x_1) ∧ R(x_1,x_2)`` (paper, Section 5.2).
    """
    mapping = _null_variable_map(database)
    atoms = [
        RelationAtom(rel.name, tuple(mapping.get(value, value) for value in row))
        for rel in database.relations()
        for row in rel.sorted_rows()
    ]
    return conj(*atoms), list(mapping.values())


def delta_owa(database: Database) -> Formula:
    """``δ_D`` under OWA: ``∃x̄ PosDiag(D)``, with ``Mod_C(δ_D) = [[D]]_owa``."""
    return _closed(database)


def domain_closure(database: Database) -> Formula:
    """The CWA closure conjunct: for every relation, every tuple equals a listed one.

    For a relation ``R`` with tuples ``t̄_1, …, t̄_n`` this is
    ``∀ȳ (R(ȳ) → ⋁_i ȳ = t̄_i)``; nulls in the ``t̄_i`` refer to the same
    variables used by :func:`positive_diagram`, so the conjunct must be
    used under the same quantifier prefix (see :func:`delta_cwa`).
    """
    mapping = _null_variable_map(database)
    closures: List[Formula] = []
    for rel in database.relations():
        arity = rel.arity
        if arity == 0:
            continue
        ys = [Variable(f"y_{rel.name}_{i}") for i in range(arity)]
        disjuncts: List[Formula] = []
        for row in rel.sorted_rows():
            equalities = [Equality(y, mapping.get(value, value)) for y, value in zip(ys, row)]
            disjuncts.append(conj(*equalities))
        body = Implies(RelationAtom(rel.name, tuple(ys)), disj(*disjuncts))
        closures.append(Forall(ys, body))
    return conj(*closures)


def delta_cwa(database: Database) -> Formula:
    """``δ_D`` under CWA: positive diagram plus domain closure, existentially closed.

    ``Mod_C(δ_D^cwa) = [[D]]_cwa`` (paper, Section 5.2).
    """
    return _closed(database, domain_closure(database))


def adom_closure(database: Database) -> Formula:
    """The weak-CWA closure: every active-domain element is one of D's values.

    Under the active-domain semantics of quantification, the positive
    formula ``∀y ⋁_{v ∈ values(D)} y = v`` says exactly that the complete
    database introduces no elements beyond those of ``v(D)`` (nulls refer to
    the same variables as :func:`positive_diagram`).  Tuples may still be
    added freely over the old elements — Reiter's weak closed-world
    assumption.
    """
    mapping = _null_variable_map(database)
    values = sorted(database.active_domain(), key=lambda v: (str(type(v)), str(v)))
    if not values:
        return conj()
    y = Variable("y_adom")
    return Forall([y], disj(*(Equality(y, mapping.get(value, value)) for value in values)))


def delta_wcwa(database: Database) -> Formula:
    """``δ_D`` under the weak CWA: diagram plus active-domain closure.

    The formula is *positive* (no implication or negation), matching the
    paper's remark that the weak-CWA representation system uses positive FO
    formulas, and ``Mod_C(δ_D^wcwa) = [[D]]_wcwa``.
    """
    return _closed(database, adom_closure(database))


def database_as_query(database: Database, name: str = "Q_D") -> FOQuery:
    """The Boolean conjunctive query ``Q_D = ∃x̄ PosDiag(D)`` (Section 4)."""
    return FOQuery(delta_owa(database), (), name=name)


def tableau_of_query(
    query: FOQuery,
    schema: DatabaseSchema,
    freeze_head: bool = False,
) -> Tuple[Database, Tuple[object, ...]]:
    """The canonical database (tableau) of a conjunctive query.

    Every variable of the query becomes a marked null; relational atoms
    become facts.  For queries with free variables, ``freeze_head=True``
    turns the head variables into distinguished *frozen constants*
    (strings ``"_frozen_<var>"``), which is the standard construction for
    containment of non-Boolean CQs.  Equality atoms are not supported —
    normalise them away by substitution before calling.

    Returns the tableau database and the tuple corresponding to the query
    head (nulls or frozen constants, depending on ``freeze_head``).
    """
    from .fragments import is_conjunctive

    if not is_conjunctive(query.formula):
        raise ValueError("tableau_of_query expects a conjunctive query")

    variable_map: Dict[Variable, object] = {}

    def to_value(term):
        if isinstance(term, Variable):
            if term not in variable_map:
                if freeze_head and term in query.head:
                    variable_map[term] = f"_frozen_{term.name}"
                else:
                    variable_map[term] = Null(f"v_{term.name}")
            return variable_map[term]
        return term

    facts = []
    for sub in query.formula.walk():
        if isinstance(sub, Equality):
            raise ValueError(
                "tableau_of_query does not support equality atoms; substitute them away first"
            )
        if isinstance(sub, RelationAtom):
            facts.append((sub.name, tuple(to_value(t) for t in sub.terms)))
    tableau = Database.from_facts(schema, facts)
    head = tuple(to_value(v) for v in query.head)
    return tableau, head
