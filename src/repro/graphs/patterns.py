"""Conjunctive graph patterns over incomplete graphs.

A graph pattern is the graph analogue of a conjunctive query: a finite set
of edge atoms ``x -label-> y`` whose endpoints (and optionally labels) are
variables or constants, together with a tuple of output variables.  A
match is a homomorphism from the pattern into the graph; the answer is the
set of images of the output tuple.

As with relational conjunctive queries (paper, Sections 4 and 6), graph
patterns are monotone and generic, so naive evaluation over an incomplete
graph followed by dropping null-mentioning answers computes the certain
answers under both OWA and CWA
(:func:`naive_certain_answers_pattern`); the brute-force possible-world
intersection (:func:`certain_answers_pattern`) is retained as ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ..datamodel import Relation
from ..datamodel.values import is_null
from ..logic.formulas import Variable, is_variable
from ..semantics.certain import certain_over
from ..semantics.registry import semantics_named
from ..semantics.worlds import default_domain, valuation_worlds
from .model import IncompleteGraph

Term = Union[Variable, Any]


@dataclass(frozen=True)
class EdgeAtom:
    """A pattern atom ``source -label-> target``.

    ``source`` and ``target`` are variables or constants; ``label`` may
    likewise be a variable (matching any label) or a constant.
    """

    source: Term
    label: Term
    target: Term

    def terms(self) -> Tuple[Term, Term, Term]:
        """The three terms of the atom, in ``(source, label, target)`` order."""
        return (self.source, self.label, self.target)

    def variables(self) -> Set[Variable]:
        """The variables occurring in the atom."""
        return {t for t in self.terms() if is_variable(t)}

    def __str__(self) -> str:
        return f"{self.source} -{self.label}-> {self.target}"


class GraphPattern:
    """A conjunctive graph pattern with output variables.

    Examples
    --------
    >>> from repro.logic import var
    >>> from repro.graphs import GraphPattern, EdgeAtom, IncompleteGraph
    >>> x, y, z = var("x"), var("y"), var("z")
    >>> pattern = GraphPattern([EdgeAtom(x, "knows", y), EdgeAtom(y, "knows", z)], output=(x, z))
    >>> g = IncompleteGraph(edges=[("a", "knows", "b"), ("b", "knows", "c")])
    >>> sorted(pattern.evaluate(g).rows)
    [('a', 'c')]
    """

    def __init__(
        self,
        atoms: Iterable[EdgeAtom],
        output: Sequence[Variable] = (),
        name: str = "Pattern",
    ) -> None:
        self.atoms: Tuple[EdgeAtom, ...] = tuple(atoms)
        if not self.atoms:
            raise ValueError("a graph pattern needs at least one edge atom")
        self.output: Tuple[Variable, ...] = tuple(output)
        self.name = name
        pattern_variables = self.variables()
        for variable in self.output:
            if variable not in pattern_variables:
                raise ValueError(f"output variable {variable} does not occur in the pattern")

    def variables(self) -> Set[Variable]:
        """All variables of the pattern."""
        result: Set[Variable] = set()
        for atom in self.atoms:
            result |= atom.variables()
        return result

    def is_boolean(self) -> bool:
        """``True`` iff the pattern has no output variables."""
        return not self.output

    def __str__(self) -> str:
        body = " ∧ ".join(str(atom) for atom in self.atoms)
        head = ", ".join(str(v) for v in self.output)
        return f"({head}) ← {body}" if self.output else body

    def __repr__(self) -> str:
        return f"GraphPattern({self.name!r}, atoms={len(self.atoms)}, output={len(self.output)})"

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def matches(self, graph: IncompleteGraph) -> Iterator[Dict[Variable, Any]]:
        """Enumerate all homomorphisms from the pattern into ``graph``.

        Values are compared syntactically, so on an incomplete graph this
        is naive matching (a null matches only itself).
        """
        edges = list(graph.edges())
        atoms = sorted(self.atoms, key=lambda a: sum(1 for t in a.terms() if is_variable(t)))

        def backtrack(index: int, assignment: Dict[Variable, Any]) -> Iterator[Dict[Variable, Any]]:
            if index == len(atoms):
                yield dict(assignment)
                return
            atom = atoms[index]
            for edge in edges:
                extension: Dict[Variable, Any] = {}
                consistent = True
                for term, value in zip(atom.terms(), edge):
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

    def evaluate(self, graph: IncompleteGraph) -> Relation:
        """Naive evaluation: the images of the output tuple over all matches."""
        attributes = tuple(v.name for v in self.output) if self.output else ("match",)
        rows: Set[Tuple[Any, ...]] = set()
        for match in self.matches(graph):
            if self.output:
                rows.add(tuple(match[v] for v in self.output))
            else:
                rows.add(("true",))
        sorted_rows = sorted(rows, key=lambda r: tuple(str(v) for v in r))
        return Relation.create(self.name, sorted_rows, attributes=attributes) if sorted_rows else Relation.create(
            self.name, [], attributes=attributes)

    def evaluate_boolean(self, graph: IncompleteGraph) -> bool:
        """``True`` iff the pattern has at least one match in ``graph``."""
        for _match in self.matches(graph):
            return True
        return False


class _Unbound:
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<unbound>"


_UNBOUND = _Unbound()


# ----------------------------------------------------------------------
# Certain answers
# ----------------------------------------------------------------------
def naive_certain_answers_pattern(pattern: GraphPattern, graph: IncompleteGraph) -> Relation:
    """Certain answers of a graph pattern by naive evaluation plus null filtering.

    Graph patterns are monotone and generic, so the paper's naive-evaluation
    theorems apply verbatim: evaluate naively, keep only answers without
    nulls.  Correct under both OWA and CWA.
    """
    answer = pattern.evaluate(graph)
    rows = [row for row in answer.rows if not any(is_null(v) for v in row)]
    return Relation(answer.schema, rows)


def certain_answers_pattern(
    pattern: GraphPattern,
    graph: IncompleteGraph,
    semantics: str = "cwa",
    domain: Optional[Sequence[Any]] = None,
    extra_constants: Optional[int] = None,
) -> Relation:
    """Intersection-based certain answers by explicit valuation enumeration.

    As for RPQs, monotonicity makes the intersections of every registered
    semantics coincide, so a single enumeration over valuation images
    serves them all.
    """
    semantics_named(semantics)
    if domain is None:
        domain = default_domain(graph, extra_constants=extra_constants)
    return certain_over(
        pattern.evaluate,
        valuation_worlds(graph.nulls(), domain, graph.apply_valuation),
        lambda: pattern.evaluate(graph),
    )
