"""Conjunctive regular path queries (CRPQs) over incomplete graphs.

A CRPQ — the query class of the paper's Section 7 reference [14]
(Barceló–Libkin–Reutter, *Querying regular graph patterns*) — is a
conjunction of regular-path atoms ``x ─L→ y`` whose endpoints are variables
or constants and whose ``L`` is a regular language over edge labels, with a
tuple of output variables.  It generalises both conjunctive graph patterns
(every atom a single label) and plain RPQs (a single atom).

CRPQs are unions of (infinitely many) conjunctive queries, hence monotone
and generic, so the paper's naive-evaluation theorems carry over once more:
naive evaluation over the incomplete graph followed by dropping null
answers computes the certain answers, under OWA and CWA alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

from ..datamodel import Relation
from ..datamodel.values import is_null
from ..logic.formulas import Variable, is_variable
from ..semantics.certain import certain_over
from ..semantics.worlds import default_domain, valuation_worlds
from .model import IncompleteGraph
from .rpq import RegularPathQuery, parse_rpq

Term = Union[Variable, Any]


@dataclass(frozen=True)
class PathAtom:
    """A CRPQ atom ``source ─[rpq]→ target``.

    ``source`` and ``target`` are variables or constants; ``rpq`` is a
    :class:`~repro.graphs.rpq.RegularPathQuery` or a textual expression
    accepted by :func:`~repro.graphs.rpq.parse_rpq`.
    """

    source: Term
    rpq: RegularPathQuery
    target: Term

    def __init__(self, source: Term, rpq: Union[RegularPathQuery, str], target: Term) -> None:
        if isinstance(rpq, str):
            rpq = parse_rpq(rpq)
        if not isinstance(rpq, RegularPathQuery):
            raise TypeError("the middle component of a PathAtom must be an RPQ or its text")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "rpq", rpq)
        object.__setattr__(self, "target", target)

    def variables(self) -> Set[Variable]:
        """The endpoint variables of the atom."""
        return {t for t in (self.source, self.target) if is_variable(t)}

    def __str__(self) -> str:
        return f"{self.source} ─[{self.rpq}]→ {self.target}"


class ConjunctiveRPQ:
    """A conjunctive regular path query with output variables.

    Examples
    --------
    >>> from repro.logic import var
    >>> from repro.graphs import IncompleteGraph
    >>> x, y = var("x"), var("y")
    >>> g = IncompleteGraph(edges=[("a", "r", "b"), ("b", "r", "c"), ("c", "s", "d")])
    >>> q = ConjunctiveRPQ([PathAtom(x, "r . r", y), PathAtom(y, "s", var("z"))], output=(x,))
    >>> sorted(q.evaluate(g).rows)
    [('a',)]
    """

    def __init__(
        self,
        atoms: Sequence[PathAtom],
        output: Sequence[Variable] = (),
        name: str = "CRPQ",
    ) -> None:
        self.atoms: Tuple[PathAtom, ...] = tuple(atoms)
        if not self.atoms:
            raise ValueError("a CRPQ needs at least one path atom")
        self.output: Tuple[Variable, ...] = tuple(output)
        self.name = name
        declared = self.variables()
        for variable in self.output:
            if variable not in declared:
                raise ValueError(f"output variable {variable} does not occur in the query")

    def variables(self) -> Set[Variable]:
        """All endpoint variables of the query."""
        result: Set[Variable] = set()
        for atom in self.atoms:
            result |= atom.variables()
        return result

    def is_boolean(self) -> bool:
        """``True`` iff the query has no output variables."""
        return not self.output

    def __str__(self) -> str:
        body = " ∧ ".join(str(atom) for atom in self.atoms)
        head = ", ".join(str(v) for v in self.output)
        return f"({head}) ← {body}" if self.output else body

    def __repr__(self) -> str:
        return f"ConjunctiveRPQ({self.name!r}, atoms={len(self.atoms)}, output={len(self.output)})"

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def matches(self, graph: IncompleteGraph) -> Iterator[Dict[Variable, Any]]:
        """Enumerate the endpoint assignments satisfying every path atom.

        Each atom's reachable pairs are computed once with the RPQ
        evaluator; the conjunction is then solved by backtracking over those
        pair sets (smallest first).  Matching is naive over nulls.
        """
        atom_pairs: List[Tuple[PathAtom, Set[Tuple[Any, Any]]]] = [
            (atom, set(atom.rpq.evaluate(graph).rows)) for atom in self.atoms
        ]
        atom_pairs.sort(key=lambda item: len(item[1]))

        def backtrack(index: int, assignment: Dict[Variable, Any]) -> Iterator[Dict[Variable, Any]]:
            if index == len(atom_pairs):
                yield dict(assignment)
                return
            atom, pairs = atom_pairs[index]
            for source, target in pairs:
                extension: Dict[Variable, Any] = {}
                consistent = True
                for term, value in ((atom.source, source), (atom.target, target)):
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
        """Naive evaluation: images of the output tuple over all matches."""
        attributes = tuple(v.name for v in self.output) if self.output else ("match",)
        rows: Set[Tuple[Any, ...]] = set()
        for assignment in self.matches(graph):
            if self.output:
                rows.add(tuple(assignment[v] for v in self.output))
            else:
                rows.add(("true",))
        sorted_rows = sorted(rows, key=lambda r: tuple(str(v) for v in r))
        return Relation.create(self.name, sorted_rows, attributes=attributes) if sorted_rows else Relation.create(
            self.name, [], attributes=attributes)

    def evaluate_boolean(self, graph: IncompleteGraph) -> bool:
        """``True`` iff the query has at least one match."""
        for _assignment in self.matches(graph):
            return True
        return False


class _Unbound:
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<unbound>"


_UNBOUND = _Unbound()


# ----------------------------------------------------------------------
# Certain answers
# ----------------------------------------------------------------------
def naive_certain_answers_crpq(query: ConjunctiveRPQ, graph: IncompleteGraph) -> Relation:
    """Certain answers of a CRPQ by naive evaluation plus null filtering.

    CRPQs are monotone and generic, so the paper's eqs. (4)/(9) apply:
    the null-free naive answers are exactly the certain answers under both
    OWA and CWA.
    """
    answer = query.evaluate(graph)
    rows = [row for row in answer.rows if not any(is_null(v) for v in row)]
    return Relation(answer.schema, rows)


def certain_answers_crpq(
    query: ConjunctiveRPQ,
    graph: IncompleteGraph,
    semantics: str = "cwa",
    domain: Optional[Sequence[Any]] = None,
    extra_constants: Optional[int] = None,
) -> Relation:
    """Intersection-based certain answers by explicit valuation enumeration.

    Monotonicity makes the OWA and CWA intersections coincide, so one
    enumeration over valuation images serves both semantics; this is the
    exponential ground truth the naive shortcut is validated against.
    """
    if semantics not in ("cwa", "owa"):
        raise ValueError(f"unknown semantics {semantics!r}; use 'cwa' or 'owa'")
    if domain is None:
        domain = default_domain(graph, extra_constants=extra_constants)
    return certain_over(
        query.evaluate,
        valuation_worlds(graph.nulls(), domain, graph.apply_valuation),
        lambda: query.evaluate(graph),
    )
