"""The paper's abstract model of incompleteness: domains and representation systems.

Section 5.1 defines a minimalist, data-model-independent setting:

* a **domain** ``D = ⟨D, C, [[·]], Iso⟩`` consists of a set of database
  objects, the subset of complete objects, a semantics function assigning
  to each object a set of complete objects, and a family of equivalence
  relations ``Iso`` (in the relational case, ``≈_C`` for finite sets of
  constants ``C``) witnessing that there are "sufficiently many"
  valuations;
* a **representation system** ``RS = ⟨D, F⟩`` adds a set of formulas with a
  satisfaction relation such that every object ``x`` has a formula ``δ_x``
  with ``Mod_C(δ_x) = [[x]]``, satisfaction is preserved upwards in the
  information ordering, and formulas are closed under conjunction.

The two required structural conditions are:

1. a complete object denotes at least itself: ``c ∈ [[c]]``;
2. a complete object is above whatever it represents: ``c ∈ [[x]] ⇒ x ⊑ c``.

This module provides the abstract interfaces plus their relational
instantiations for OWA (formulas: UCQ, ``δ_D = ∃x̄ PosDiag(D)``) and CWA
(formulas: Pos∀G, ``δ_D`` adds domain closure).  Because ``Const`` is
infinite, the semantics function exposed here is a *finite approximation*
(world enumeration over a configurable domain); the information ordering
and the δ-formulas, however, are exact.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, List, Optional

from ..logic.diagrams import delta_cwa, delta_owa, delta_wcwa
from ..logic.formulas import Formula
from ..logic.fragments import is_pos_forall_guarded, is_positive, is_ucq


class Domain:
    """An abstract domain ``⟨D, C, [[·]], Iso⟩``.

    Subclasses (or direct instantiation with callables) supply:

    * ``is_complete(x)`` — membership in ``C``;
    * ``semantics(x)`` — an iterable of complete objects (finite
      approximation of ``[[x]]``);
    * ``contains(x, c)`` — exact membership ``c ∈ [[x]]`` when decidable;
    * ``less_equal(x, y)`` — the information ordering ``x ⊑ y``.
    """

    def __init__(
        self,
        is_complete: Callable[[Any], bool],
        semantics: Callable[[Any], Iterable[Any]],
        contains: Callable[[Any, Any], bool],
        less_equal: Callable[[Any, Any], bool],
        name: str = "domain",
    ) -> None:
        self.name = name
        self._is_complete = is_complete
        self._semantics = semantics
        self._contains = contains
        self._less_equal = less_equal

    def is_complete(self, obj: Any) -> bool:
        """``obj ∈ C``."""
        return self._is_complete(obj)

    def semantics(self, obj: Any) -> List[Any]:
        """A finite approximation of ``[[obj]]``."""
        return list(self._semantics(obj))

    def contains(self, obj: Any, complete: Any) -> bool:
        """``complete ∈ [[obj]]`` (exact)."""
        return self._contains(obj, complete)

    def less_equal(self, left: Any, right: Any) -> bool:
        """The information ordering ``left ⊑ right``."""
        return self._less_equal(left, right)

    # -- the two structural conditions of Section 5.1 -------------------
    def condition_reflexivity(self, complete: Any) -> bool:
        """Condition 1: a complete object denotes at least itself."""
        return self.contains(complete, complete)

    def condition_dominance(self, obj: Any, complete: Any) -> bool:
        """Condition 2: ``complete ∈ [[obj]]`` implies ``obj ⊑ complete``."""
        if not self.contains(obj, complete):
            return True
        return self.less_equal(obj, complete)


class RepresentationSystem:
    """An abstract representation system ``⟨D, F⟩``.

    Parameters
    ----------
    domain:
        The underlying :class:`Domain`.
    delta:
        The map ``x ↦ δ_x`` producing a formula whose complete models are
        ``[[x]]``.
    satisfies:
        The satisfaction relation between objects and formulas.
    in_fragment:
        Membership test for the formula class ``F`` (used to check that the
        produced δ-formulas actually live in the advertised fragment).
    """

    def __init__(
        self,
        domain: Domain,
        delta: Callable[[Any], Formula],
        satisfies: Callable[[Any, Formula], bool],
        in_fragment: Callable[[Formula], bool],
        name: str = "representation system",
    ) -> None:
        self.domain = domain
        self.name = name
        self._delta = delta
        self._satisfies = satisfies
        self._in_fragment = in_fragment

    def delta(self, obj: Any) -> Formula:
        """The defining formula ``δ_obj``."""
        return self._delta(obj)

    def satisfies(self, obj: Any, formula: Formula) -> bool:
        """``obj ⊨ formula``."""
        return self._satisfies(obj, formula)

    def in_fragment(self, formula: Formula) -> bool:
        """``formula ∈ F``."""
        return self._in_fragment(formula)

    # -- the defining properties ----------------------------------------
    def delta_defines_semantics(self, obj: Any, complete_objects: Iterable[Any]) -> bool:
        """Check ``Mod_C(δ_obj) = [[obj]]`` over the supplied complete objects."""
        formula = self.delta(obj)
        for complete in complete_objects:
            if not self.domain.is_complete(complete):
                raise ValueError("delta_defines_semantics expects complete objects")
            if self.satisfies(complete, formula) != self.domain.contains(obj, complete):
                return False
        return True

    def satisfaction_is_upward_closed(self, lower: Any, higher: Any, formulas: Iterable[Formula]) -> bool:
        """Check that ``lower ⊑ higher`` and ``lower ⊨ φ`` imply ``higher ⊨ φ``."""
        if not self.domain.less_equal(lower, higher):
            return True
        return all(
            (not self.satisfies(lower, formula)) or self.satisfies(higher, formula)
            for formula in formulas
        )

    def models_of_delta_are_upward_cone(self, obj: Any, candidates: Iterable[Any]) -> bool:
        """Check ``Mod(δ_obj) = ↑obj`` over the supplied candidate objects."""
        formula = self.delta(obj)
        return all(
            self.satisfies(candidate, formula) == self.domain.less_equal(obj, candidate)
            for candidate in candidates
        )


# ----------------------------------------------------------------------
# Relational instantiations
# ----------------------------------------------------------------------
def relational_domain(
    semantics: str = "cwa",
    extra_constants: Optional[int] = None,
    max_extra_facts: int = 1,
) -> Domain:
    """The relational domain of a registered semantics (Section 5.2).

    ``semantics`` names a row of :data:`repro.semantics.registry.SEMANTICS`
    (or is one).  The semantics function enumerates that row's worlds over
    the default finite domain (active domain plus fresh constants);
    membership and the ordering are the row's exact, homomorphism-based ones.
    """
    from ..semantics.registry import semantics_named  # the registry imports this package

    row = semantics_named(semantics)
    return Domain(
        is_complete=lambda database: database.is_complete(),
        semantics=lambda database: row.worlds(
            database, extra_constants=extra_constants, max_extra_facts=max_extra_facts
        ),
        contains=row.member,
        less_equal=row.ordering.less_equal,
        name=f"relational-{row.name}",
    )


def _relational_system(
    semantics: str, delta: Callable[[Any], Formula], in_fragment: Callable[[Formula], bool],
    name: str, extra_constants: Optional[int],
) -> RepresentationSystem:
    return RepresentationSystem(
        domain=relational_domain(semantics, extra_constants=extra_constants),
        delta=delta,
        satisfies=lambda database, formula: formula.holds(database),
        in_fragment=in_fragment,
        name=name,
    )


def owa_representation_system(extra_constants: Optional[int] = None) -> RepresentationSystem:
    """``RS_owa = ⟨D_owa, UCQ⟩`` with ``δ_D = ∃x̄ PosDiag(D)``."""
    return _relational_system("owa", delta_owa, is_ucq, "RS_owa (UCQ)", extra_constants)


def cwa_representation_system(extra_constants: Optional[int] = None) -> RepresentationSystem:
    """``RS_cwa = ⟨D_cwa, Pos∀G⟩`` with ``δ_D`` = diagram + domain closure."""
    return _relational_system(
        "cwa", delta_cwa, is_pos_forall_guarded, "RS_cwa (Pos∀G)", extra_constants
    )


def wcwa_representation_system(extra_constants: Optional[int] = None) -> RepresentationSystem:
    """``RS_wcwa = ⟨D_wcwa, Pos⟩``: Reiter's weak CWA with positive FO formulas.

    ``δ_D`` is the positive diagram plus the active-domain closure
    ``∀y ⋁ y = v`` (Section 5.2: "one can use a weaker version of CWA, in
    which tuples can be added as long as they do not add new elements to
    the active domain; then a representation system for this semantics will
    use the class of positive FO formulae").
    """
    return _relational_system("wcwa", delta_wcwa, is_positive, "RS_wcwa (Pos)", extra_constants)
