"""Tree patterns over incomplete data trees, and their certain answers.

A *tree pattern* is a tree-shaped query: each pattern node tests a label
(or is a wildcard), optionally constrains the data value (to a constant or
to a variable — repeating the variable forces equal data values), and is
connected to its pattern children by ``child`` or ``descendant`` edges.
This is the pattern language of the paper's XML references [4, 13, 28],
restricted to complete structure.

A match is a mapping from pattern nodes to tree nodes respecting labels,
edges and data-value constraints; the answer of a pattern is the set of
images of its output variables.  Because data values only ever need to be
*equal* (never unequal), patterns are monotone and generic in the data
values, so the paper's naive-evaluation theorems apply: evaluating the
pattern over the incomplete tree as if nulls were ordinary values and
keeping the null-free answers yields exactly the certain answers
(:func:`naive_certain_answers_tree_pattern`).  The brute-force valuation
enumeration (:func:`certain_answers_tree_pattern`) is kept as ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..datamodel import Relation
from ..datamodel.values import is_null
from ..logic.formulas import Variable, is_variable
from ..semantics.certain import certain_over
from ..semantics.worlds import default_domain, valuation_worlds
from .model import DataTree

#: Edge types connecting a pattern node to its parent.
CHILD = "child"
DESCENDANT = "descendant"
EDGE_TYPES = (CHILD, DESCENDANT)

#: Wildcard label (matches any node label).
ANY_LABEL = None


@dataclass(frozen=True)
class PatternNode:
    """One node of a tree pattern.

    Parameters
    ----------
    label:
        The label the matched tree node must carry, or ``None`` (wildcard).
    value:
        A constraint on the data value: ``None`` (no constraint), a constant
        (the value must equal it naively), or a :class:`Variable` (binds the
        value; repeated variables force equality).
    children:
        Pairs ``(edge, node)`` where ``edge`` is ``"child"`` or
        ``"descendant"``.
    """

    label: Optional[str] = ANY_LABEL
    value: Any = None
    children: Tuple[Tuple[str, "PatternNode"], ...] = ()

    def __init__(
        self,
        label: Optional[str] = ANY_LABEL,
        value: Any = None,
        children: Sequence[Tuple[str, "PatternNode"]] = (),
    ) -> None:
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "children", tuple(children))
        for edge, child in self.children:
            if edge not in EDGE_TYPES:
                raise ValueError(f"pattern edges must be one of {EDGE_TYPES}, got {edge!r}")
            if not isinstance(child, PatternNode):
                raise TypeError("pattern children must be PatternNode instances")

    def variables(self) -> Set[Variable]:
        """All variables occurring at or below this pattern node."""
        result: Set[Variable] = set()
        if is_variable(self.value):
            result.add(self.value)
        for _edge, child in self.children:
            result |= child.variables()
        return result

    def __str__(self) -> str:
        label = self.label if self.label is not None else "*"
        rendered = label
        if self.value is not None:
            rendered += f"[{self.value}]"
        if self.children:
            parts = []
            for edge, child in self.children:
                arrow = "/" if edge == CHILD else "//"
                parts.append(f"{arrow}{child}")
            rendered += "(" + ", ".join(parts) + ")"
        return rendered


class TreePattern:
    """A tree pattern with output variables.

    Examples
    --------
    >>> from repro.logic import var
    >>> x = var("x")
    >>> pattern = TreePattern(
    ...     PatternNode("order", children=[("child", PatternNode("id", value=x))]),
    ...     output=(x,),
    ... )
    >>> tree = DataTree("order", children=[DataTree("id", value="oid1")])
    >>> sorted(pattern.evaluate(tree).rows)
    [('oid1',)]
    """

    def __init__(
        self,
        root: PatternNode,
        output: Sequence[Variable] = (),
        name: str = "TreeAnswer",
        anchored: bool = False,
    ) -> None:
        self.root = root
        self.output: Tuple[Variable, ...] = tuple(output)
        self.name = name
        #: When ``True`` the pattern root must match the tree root; otherwise
        #: the pattern may match anywhere in the tree (descendant-or-self).
        self.anchored = anchored
        declared = root.variables()
        for variable in self.output:
            if variable not in declared:
                raise ValueError(f"output variable {variable} does not occur in the pattern")

    def variables(self) -> Set[Variable]:
        """All variables of the pattern."""
        return self.root.variables()

    def is_boolean(self) -> bool:
        """``True`` iff the pattern has no output variables."""
        return not self.output

    def __str__(self) -> str:
        head = ", ".join(str(v) for v in self.output)
        return f"({head}) ← {self.root}" if self.output else str(self.root)

    def __repr__(self) -> str:
        return f"TreePattern({self.name!r}, output={len(self.output)}, anchored={self.anchored})"

    # ------------------------------------------------------------------
    # matching
    # ------------------------------------------------------------------
    def matches(self, tree: DataTree) -> Iterator[Dict[Variable, Any]]:
        """Enumerate the variable assignments of all matches of the pattern in ``tree``.

        Matching is naive: a null data value is equal only to itself, so a
        constant constraint never matches a null, while a variable happily
        binds to one.
        """
        starts = [tree] if self.anchored else list(tree.nodes())
        seen: Set[Tuple[Tuple[Variable, Any], ...]] = set()
        for start in starts:
            for assignment in _match_node(self.root, start, {}):
                key = tuple(sorted(assignment.items(), key=lambda kv: kv[0].name))
                if key not in seen:
                    seen.add(key)
                    yield assignment

    def evaluate(self, tree: DataTree) -> Relation:
        """Naive evaluation: images of the output tuple over all matches."""
        attributes = tuple(v.name for v in self.output) if self.output else ("match",)
        rows: Set[Tuple[Any, ...]] = set()
        for assignment in self.matches(tree):
            if self.output:
                rows.add(tuple(assignment[v] for v in self.output))
            else:
                rows.add(("true",))
        return Relation.create(self.name, sorted(rows, key=lambda r: tuple(str(v) for v in r)),
                               attributes=attributes) if rows else Relation.create(
            self.name, [], attributes=attributes)

    def evaluate_boolean(self, tree: DataTree) -> bool:
        """``True`` iff the pattern matches somewhere in ``tree``."""
        for _assignment in self.matches(tree):
            return True
        return False


def _match_node(
    pattern: PatternNode,
    node: DataTree,
    assignment: Dict[Variable, Any],
) -> Iterator[Dict[Variable, Any]]:
    """Match ``pattern`` at exactly ``node``, extending ``assignment``."""
    if pattern.label is not ANY_LABEL and pattern.label != node.label:
        return
    local = dict(assignment)
    constraint = pattern.value
    if constraint is not None:
        if node.value is None:
            return
        if is_variable(constraint):
            bound = local.get(constraint, _UNBOUND)
            if bound is _UNBOUND:
                local[constraint] = node.value
            elif bound != node.value:
                return
        elif constraint != node.value:
            return
    yield from _match_children(list(pattern.children), node, local)


def _match_children(
    edges: List[Tuple[str, PatternNode]],
    node: DataTree,
    assignment: Dict[Variable, Any],
) -> Iterator[Dict[Variable, Any]]:
    if not edges:
        yield dict(assignment)
        return
    edge, child_pattern = edges[0]
    rest = edges[1:]
    candidates = list(node.children) if edge == CHILD else list(node.descendants())
    for candidate in candidates:
        for extended in _match_node(child_pattern, candidate, assignment):
            yield from _match_children(rest, node, extended)


class _Unbound:
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<unbound>"


_UNBOUND = _Unbound()


# ----------------------------------------------------------------------
# Certain answers
# ----------------------------------------------------------------------
def naive_certain_answers_tree_pattern(pattern: TreePattern, tree: DataTree) -> Relation:
    """Certain answers of a tree pattern by naive evaluation plus null filtering.

    Tree patterns only compare data values for equality, so they are
    monotone and generic in the data values and the paper's
    naive-evaluation theorems carry over: the null-free naive answers are
    exactly the certain answers.
    """
    answer = pattern.evaluate(tree)
    rows = [row for row in answer.rows if not any(is_null(v) for v in row)]
    return Relation(answer.schema, rows)


def certain_answers_tree_pattern(
    pattern: TreePattern,
    tree: DataTree,
    domain: Optional[Sequence[Any]] = None,
    extra_constants: Optional[int] = None,
) -> Relation:
    """Intersection-based certain answers by explicit valuation enumeration.

    The possible worlds of an incomplete data tree are the valuation images
    ``v(t)``; the certain answers are the tuples present in the pattern's
    answer on every such world.  Exponential in the number of nulls — the
    ground truth the naive shortcut is validated against.
    """
    if domain is None:
        domain = default_domain(tree, extra_constants=extra_constants)
    return certain_over(
        pattern.evaluate,
        valuation_worlds(tree.nulls(), domain, tree.apply_valuation),
        lambda: pattern.evaluate(tree),
    )
