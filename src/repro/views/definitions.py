"""Conjunctive-query view definitions over a base schema.

A *view definition* is a conjunctive query ``V(x̄) :- R₁(...), …, R_k(...)``
over the base (global) schema.  In the local-as-view (LAV) approach to data
integration the sources expose extensions of such views, and the mediator
must answer queries phrased over the base schema knowing only those
extensions — the setting of the paper's references [1, 39].

Views are assumed *sound* (every tuple in a view extension is an answer of
the view over the hidden base database), which is the open-world reading
the integration literature uses and matches the paper's OWA semantics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, List, Sequence, Set, Tuple, Union

from ..datamodel import Database, Relation
from ..datamodel.schema import DatabaseSchema, RelationSchema
from ..exchange.mappings import MappingAtom
from ..logic.formulas import Variable, is_variable


@dataclass(frozen=True)
class ViewDefinition:
    """A view ``name(head) :- body`` defined by a conjunctive query.

    Parameters
    ----------
    name:
        The view's relation name (must not clash with base relations).
    head:
        The distinguished variables, in output order.  Every head variable
        must occur in the body.
    body:
        The body atoms, over the base schema.  Body variables not in the
        head are existential.

    Examples
    --------
    >>> from repro.logic import var
    >>> from repro.exchange import MappingAtom
    >>> x, y = var("x"), var("y")
    >>> v = ViewDefinition("V", (x,), [MappingAtom("R", (x, y))])
    >>> v.arity
    1
    >>> [str(e) for e in sorted(v.existential_variables(), key=str)]
    ['y']
    """

    name: str
    head: Tuple[Variable, ...]
    body: Tuple[MappingAtom, ...]

    def __init__(
        self,
        name: str,
        head: Sequence[Variable],
        body: Sequence[MappingAtom],
    ) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "head", tuple(head))
        object.__setattr__(self, "body", tuple(body))
        if not self.name:
            raise ValueError("a view needs a name")
        if not self.body:
            raise ValueError("a view definition needs at least one body atom")
        for variable in self.head:
            if not is_variable(variable):
                raise TypeError(f"head terms must be variables, got {variable!r}")
        body_variables = self.body_variables()
        for variable in self.head:
            if variable not in body_variables:
                raise ValueError(f"head variable {variable} does not occur in the body")

    @property
    def arity(self) -> int:
        """The arity of the view relation."""
        return len(self.head)

    def body_variables(self) -> Set[Variable]:
        """All variables occurring in the body."""
        result: Set[Variable] = set()
        for atom in self.body:
            result |= atom.variables()
        return result

    def existential_variables(self) -> Set[Variable]:
        """Body variables not exported by the head."""
        return self.body_variables() - set(self.head)

    def relation_schema(self) -> RelationSchema:
        """The schema of the view relation (positional attribute names)."""
        return RelationSchema.with_arity(self.name, self.arity)

    def __str__(self) -> str:
        head = ", ".join(str(v) for v in self.head)
        body = " ∧ ".join(str(a) for a in self.body)
        return f"{self.name}({head}) :- {body}"

    # ------------------------------------------------------------------
    # materialization on a (complete) base database
    # ------------------------------------------------------------------
    def evaluate(self, base: Database) -> Relation:
        """The view extension ``V(base)``: all head images over body matches.

        Matching is naive (nulls equal only to themselves), so on complete
        databases this is ordinary conjunctive-query evaluation.
        """
        rows: Set[Tuple[Any, ...]] = set()
        for assignment in _match(self.body, base):
            rows.add(tuple(assignment[v] for v in self.head))
        return Relation(self.relation_schema(), rows)


class _Unbound:
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<unbound>"


_UNBOUND = _Unbound()


def _match(atoms: Sequence[MappingAtom], database: Database) -> Iterator[Dict[Variable, Any]]:
    """Enumerate assignments of the atoms' variables matching ``database``."""
    atoms = list(atoms)

    def backtrack(index: int, assignment: Dict[Variable, Any]) -> Iterator[Dict[Variable, Any]]:
        if index == len(atoms):
            yield dict(assignment)
            return
        atom = atoms[index]
        relation = database.relation(atom.relation)
        for row in relation:
            extension: Dict[Variable, Any] = {}
            consistent = True
            for term, value in zip(atom.terms, row):
                if is_variable(term):
                    bound = assignment.get(term, extension.get(term, _UNBOUND))
                    if bound is _UNBOUND:
                        extension[term] = value
                    elif bound != value:
                        consistent = False
                        break
                elif term != value:
                    consistent = False
                    break
            if not consistent:
                continue
            assignment.update(extension)
            yield from backtrack(index + 1, assignment)
            for key in extension:
                del assignment[key]

    yield from backtrack(0, {})


class ViewCollection:
    """A set of view definitions over a common base schema.

    Examples
    --------
    >>> from repro.logic import var
    >>> from repro.exchange import MappingAtom
    >>> from repro.datamodel import DatabaseSchema
    >>> base = DatabaseSchema.from_arities({"R": 2})
    >>> x, y = var("x"), var("y")
    >>> views = ViewCollection(base, [ViewDefinition("V", (x,), [MappingAtom("R", (x, y))])])
    >>> views.view_schema().names()
    ['V']
    """

    def __init__(self, base_schema: DatabaseSchema, views: Iterable[ViewDefinition]) -> None:
        self.base_schema = base_schema
        self.views: List[ViewDefinition] = list(views)
        if not self.views:
            raise ValueError("a view collection needs at least one view")
        names = [view.name for view in self.views]
        if len(set(names)) != len(names):
            raise ValueError("view names must be distinct")
        self._validate()

    def _validate(self) -> None:
        for view in self.views:
            if view.name in self.base_schema:
                raise ValueError(f"view {view.name!r} clashes with a base relation")
            for atom in view.body:
                if atom.relation not in self.base_schema:
                    raise ValueError(
                        f"view {view.name!r} uses unknown base relation {atom.relation!r}"
                    )
                if atom.arity != self.base_schema.arity(atom.relation):
                    raise ValueError(
                        f"atom {atom} of view {view.name!r} has the wrong arity"
                    )

    def __iter__(self) -> Iterator[ViewDefinition]:
        return iter(self.views)

    def __len__(self) -> int:
        return len(self.views)

    def __str__(self) -> str:
        return "\n".join(str(view) for view in self.views)

    def view(self, name: str) -> ViewDefinition:
        """The definition of the view called ``name``."""
        for view in self.views:
            if view.name == name:
                return view
        raise KeyError(f"unknown view {name!r}")

    def view_schema(self) -> DatabaseSchema:
        """The schema exposing one relation per view."""
        return DatabaseSchema(view.relation_schema() for view in self.views)

    def materialize(self, base: Database) -> Database:
        """Evaluate every view on ``base`` and return the view-schema instance."""
        return Database(
            self.view_schema(),
            {view.name: view.evaluate(base) for view in self.views},
        )
