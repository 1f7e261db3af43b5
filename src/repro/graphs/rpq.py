"""Regular path queries over (incomplete) graphs.

A regular path query (RPQ) selects the pairs of nodes ``(u, v)`` connected
by a directed path whose sequence of edge labels spells a word of a regular
language.  RPQs are the core query language of graph databases and the one
studied by the paper's Section 7 reference [14] (Barceló–Libkin–Reutter,
*Querying regular graph patterns*).

The reproduction mirrors the relational story of the paper:

* RPQs are *monotone* (adding edges or nodes never removes an answer) and
  *generic* (renaming values uniformly renames answers), so by the paper's
  equations (9)/(10) **naive evaluation works**: evaluating the RPQ over
  the incomplete graph as if nulls were ordinary values and then dropping
  answer pairs that mention nulls yields exactly the certain answers, under
  both OWA and CWA (:func:`naive_certain_answers_rpq`);
* the brute-force intersection over possible worlds
  (:func:`certain_answers_rpq`) is kept as ground truth for the tests and
  as the expensive side of the graph benchmarks.

Regular expressions are given either as an AST (:class:`Label`,
:class:`Concat`, :class:`Alt`, :class:`Star`, :class:`Plus`, :class:`Opt`)
or as text parsed by :func:`parse_rpq`, e.g. ``"knows . (friend | colleague)* . worksFor"``.
"""

from __future__ import annotations

from collections import deque
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..datamodel import Relation
from ..datamodel.values import is_null
from ..semantics.certain import certain_over
from ..semantics.worlds import default_domain, valuation_worlds
from .model import IncompleteGraph


# ----------------------------------------------------------------------
# Regular-expression AST
# ----------------------------------------------------------------------
class RegularExpression:
    """Base class of regular expressions over edge labels."""

    def __or__(self, other: "RegularExpression") -> "Alt":
        return Alt(self, other)

    def __truediv__(self, other: "RegularExpression") -> "Concat":
        return Concat(self, other)

    def star(self) -> "Star":
        """Kleene star of this expression."""
        return Star(self)

    def plus(self) -> "Plus":
        """One-or-more repetitions of this expression."""
        return Plus(self)

    def optional(self) -> "Opt":
        """Zero-or-one occurrence of this expression."""
        return Opt(self)


class Label(RegularExpression):
    """A single edge label."""

    __slots__ = ("label",)

    def __init__(self, label: Any) -> None:
        self.label = label

    def __repr__(self) -> str:
        return f"Label({self.label!r})"

    def __str__(self) -> str:
        return str(self.label)


class Concat(RegularExpression):
    """Concatenation ``left . right``."""

    __slots__ = ("left", "right")

    def __init__(self, left: RegularExpression, right: RegularExpression) -> None:
        self.left = left
        self.right = right

    def __str__(self) -> str:
        return f"({self.left} . {self.right})"


class Alt(RegularExpression):
    """Alternation ``left | right``."""

    __slots__ = ("left", "right")

    def __init__(self, left: RegularExpression, right: RegularExpression) -> None:
        self.left = left
        self.right = right

    def __str__(self) -> str:
        return f"({self.left} | {self.right})"


class Star(RegularExpression):
    """Kleene star ``inner*``."""

    __slots__ = ("inner",)

    def __init__(self, inner: RegularExpression) -> None:
        self.inner = inner

    def __str__(self) -> str:
        return f"({self.inner})*"


class Plus(RegularExpression):
    """One or more repetitions ``inner+``."""

    __slots__ = ("inner",)

    def __init__(self, inner: RegularExpression) -> None:
        self.inner = inner

    def __str__(self) -> str:
        return f"({self.inner})+"


class Opt(RegularExpression):
    """Zero or one occurrence ``inner?``."""

    __slots__ = ("inner",)

    def __init__(self, inner: RegularExpression) -> None:
        self.inner = inner

    def __str__(self) -> str:
        return f"({self.inner})?"


# ----------------------------------------------------------------------
# Parser for the textual syntax
# ----------------------------------------------------------------------
class RPQParseError(ValueError):
    """Raised when an RPQ expression cannot be parsed."""


_OPERATORS = set("()|.*+?/")


def _tokenize(text: str) -> List[str]:
    tokens: List[str] = []
    index = 0
    while index < len(text):
        char = text[index]
        if char.isspace():
            index += 1
            continue
        if char in _OPERATORS:
            tokens.append(char)
            index += 1
            continue
        if char in "'\"":
            end = text.find(char, index + 1)
            if end == -1:
                raise RPQParseError(f"unterminated quoted label in {text!r}")
            tokens.append(text[index + 1 : end])
            index = end + 1
            continue
        start = index
        while index < len(text) and not text[index].isspace() and text[index] not in _OPERATORS:
            index += 1
        tokens.append(text[start:index])
    return tokens


class _Parser:
    def __init__(self, tokens: List[str], text: str) -> None:
        self._tokens = tokens
        self._text = text
        self._position = 0

    def peek(self) -> Optional[str]:
        if self._position < len(self._tokens):
            return self._tokens[self._position]
        return None

    def advance(self) -> str:
        token = self.peek()
        if token is None:
            raise RPQParseError(f"unexpected end of expression in {self._text!r}")
        self._position += 1
        return token

    def parse(self) -> RegularExpression:
        expression = self.parse_alt()
        if self.peek() is not None:
            raise RPQParseError(f"unexpected token {self.peek()!r} in {self._text!r}")
        return expression

    def parse_alt(self) -> RegularExpression:
        expression = self.parse_concat()
        while self.peek() == "|":
            self.advance()
            expression = Alt(expression, self.parse_concat())
        return expression

    def parse_concat(self) -> RegularExpression:
        parts = [self.parse_postfix()]
        while True:
            token = self.peek()
            if token in (".", "/"):
                self.advance()
                parts.append(self.parse_postfix())
            elif token is not None and token not in ("|", ")", "*", "+", "?"):
                # juxtaposition also concatenates: "a b" == "a . b"
                parts.append(self.parse_postfix())
            else:
                break
        expression = parts[0]
        for part in parts[1:]:
            expression = Concat(expression, part)
        return expression

    def parse_postfix(self) -> RegularExpression:
        expression = self.parse_primary()
        while self.peek() in ("*", "+", "?"):
            operator = self.advance()
            if operator == "*":
                expression = Star(expression)
            elif operator == "+":
                expression = Plus(expression)
            else:
                expression = Opt(expression)
        return expression

    def parse_primary(self) -> RegularExpression:
        token = self.advance()
        if token == "(":
            expression = self.parse_alt()
            if self.advance() != ")":
                raise RPQParseError(f"missing closing parenthesis in {self._text!r}")
            return expression
        if token in _OPERATORS:
            raise RPQParseError(f"unexpected operator {token!r} in {self._text!r}")
        return Label(token)


def parse_rpq(text: str) -> "RegularPathQuery":
    """Parse a textual RPQ such as ``"knows . (friend | colleague)* . worksFor"``.

    Labels are bare identifiers or quoted strings; ``.`` (or ``/``, or plain
    juxtaposition) concatenates, ``|`` alternates, and the usual postfix
    ``*``, ``+``, ``?`` apply.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise RPQParseError("empty regular path query")
    return RegularPathQuery(_Parser(tokens, text).parse(), name=text)


# ----------------------------------------------------------------------
# NFA compilation (Thompson construction)
# ----------------------------------------------------------------------
class _NFA:
    """A nondeterministic finite automaton with epsilon moves over edge labels."""

    def __init__(self) -> None:
        self.transitions: List[Dict[Any, Set[int]]] = []
        self.epsilon: List[Set[int]] = []
        self.start = 0
        self.accept = 0

    def new_state(self) -> int:
        self.transitions.append({})
        self.epsilon.append(set())
        return len(self.transitions) - 1

    def add_transition(self, source: int, label: Any, target: int) -> None:
        self.transitions[source].setdefault(label, set()).add(target)

    def add_epsilon(self, source: int, target: int) -> None:
        self.epsilon[source].add(target)

    def epsilon_closure(self, states: Iterable[int]) -> FrozenSet[int]:
        closure = set(states)
        stack = list(closure)
        while stack:
            state = stack.pop()
            for nxt in self.epsilon[state]:
                if nxt not in closure:
                    closure.add(nxt)
                    stack.append(nxt)
        return frozenset(closure)


def _compile(expression: RegularExpression, nfa: _NFA) -> Tuple[int, int]:
    """Thompson construction; returns (start, accept) fragment states."""
    if isinstance(expression, Label):
        start, accept = nfa.new_state(), nfa.new_state()
        nfa.add_transition(start, expression.label, accept)
        return start, accept
    if isinstance(expression, Concat):
        left_start, left_accept = _compile(expression.left, nfa)
        right_start, right_accept = _compile(expression.right, nfa)
        nfa.add_epsilon(left_accept, right_start)
        return left_start, right_accept
    if isinstance(expression, Alt):
        start, accept = nfa.new_state(), nfa.new_state()
        left_start, left_accept = _compile(expression.left, nfa)
        right_start, right_accept = _compile(expression.right, nfa)
        nfa.add_epsilon(start, left_start)
        nfa.add_epsilon(start, right_start)
        nfa.add_epsilon(left_accept, accept)
        nfa.add_epsilon(right_accept, accept)
        return start, accept
    if isinstance(expression, Star):
        start, accept = nfa.new_state(), nfa.new_state()
        inner_start, inner_accept = _compile(expression.inner, nfa)
        nfa.add_epsilon(start, inner_start)
        nfa.add_epsilon(start, accept)
        nfa.add_epsilon(inner_accept, inner_start)
        nfa.add_epsilon(inner_accept, accept)
        return start, accept
    if isinstance(expression, Plus):
        return _compile(Concat(expression.inner, Star(expression.inner)), nfa)
    if isinstance(expression, Opt):
        start, accept = nfa.new_state(), nfa.new_state()
        inner_start, inner_accept = _compile(expression.inner, nfa)
        nfa.add_epsilon(start, inner_start)
        nfa.add_epsilon(start, accept)
        nfa.add_epsilon(inner_accept, accept)
        return start, accept
    raise TypeError(f"unknown regular expression node {expression!r}")


# ----------------------------------------------------------------------
# The query object
# ----------------------------------------------------------------------
ANSWER_ATTRIBUTES = ("source", "target")


class RegularPathQuery:
    """A regular path query ``(x, y) : x -[L]-> y`` for a regular language ``L``.

    Examples
    --------
    >>> from repro.graphs import IncompleteGraph, parse_rpq
    >>> g = IncompleteGraph(edges=[("a", "r", "b"), ("b", "r", "c")])
    >>> q = parse_rpq("r . r")
    >>> sorted(q.evaluate(g).rows)
    [('a', 'c')]
    """

    def __init__(self, expression: RegularExpression, name: Optional[str] = None) -> None:
        if not isinstance(expression, RegularExpression):
            raise TypeError("expression must be a RegularExpression")
        self.expression = expression
        self.name = name if name is not None else str(expression)
        self._nfa = _NFA()
        self._start, self._accept = _compile(expression, self._nfa)

    def __repr__(self) -> str:
        return f"RegularPathQuery({self.name!r})"

    def __str__(self) -> str:
        return self.name

    # ------------------------------------------------------------------
    def labels(self) -> Set[Any]:
        """The edge labels mentioned by the expression."""
        result: Set[Any] = set()

        def walk(node: RegularExpression) -> None:
            if isinstance(node, Label):
                result.add(node.label)
            elif isinstance(node, (Concat, Alt)):
                walk(node.left)
                walk(node.right)
            elif isinstance(node, (Star, Plus, Opt)):
                walk(node.inner)

        walk(self.expression)
        return result

    # ------------------------------------------------------------------
    def evaluate(self, graph: IncompleteGraph) -> Relation:
        """Evaluate the RPQ on ``graph``, treating nulls as ordinary values.

        On a complete graph this is the standard RPQ semantics.  On an
        incomplete graph it is *naive evaluation*: a null edge label matches
        a query label only if they are (syntactically) equal, which for
        constant query labels means never; null nodes are traversed like
        any other node.
        """
        nfa = self._nfa
        adjacency = graph.successors()
        answers: Set[Tuple[Any, Any]] = set()
        initial = nfa.epsilon_closure({self._start})
        for start_node in graph.nodes():
            visited: Set[Tuple[Any, int]] = set()
            queue = deque((start_node, state) for state in initial)
            visited.update((start_node, state) for state in initial)
            if self._accept in initial:
                answers.add((start_node, start_node))
            while queue:
                node, state = queue.popleft()
                for label, target in adjacency.get(node, ()):
                    next_states = nfa.transitions[state].get(label)
                    if not next_states:
                        continue
                    for closure_state in nfa.epsilon_closure(next_states):
                        if (target, closure_state) in visited:
                            continue
                        visited.add((target, closure_state))
                        queue.append((target, closure_state))
                        if closure_state == self._accept:
                            answers.add((start_node, target))
        return Relation.create("Answer", sorted(answers, key=lambda p: (str(p[0]), str(p[1]))),
                               attributes=ANSWER_ATTRIBUTES) if answers else Relation.create(
            "Answer", [], attributes=ANSWER_ATTRIBUTES)

    def evaluate_boolean(self, graph: IncompleteGraph) -> bool:
        """``True`` iff the RPQ has at least one answer pair on ``graph``."""
        return bool(self.evaluate(graph).rows)


# ----------------------------------------------------------------------
# Certain answers
# ----------------------------------------------------------------------
def naive_certain_answers_rpq(query: RegularPathQuery, graph: IncompleteGraph) -> Relation:
    """Certain answers of an RPQ by naive evaluation (the paper's recipe, eq. (4)).

    RPQs are monotone (preserved under homomorphisms: a path maps to a
    path with the same label word) and generic, so by the paper's Section 6
    results naive evaluation followed by dropping null-mentioning answers
    computes exactly the certain answers — under both the OWA and the CWA
    interpretation of the incomplete graph.
    """
    answer = query.evaluate(graph)
    rows = [row for row in answer.rows if not any(is_null(v) for v in row)]
    return Relation(answer.schema, rows)


def certain_answers_rpq(
    query: RegularPathQuery,
    graph: IncompleteGraph,
    semantics: str = "cwa",
    domain: Optional[Sequence[Any]] = None,
    extra_constants: Optional[int] = None,
) -> Relation:
    """Intersection-based certain answers by explicit valuation enumeration.

    For ``semantics='cwa'`` the possible worlds are the valuation images
    ``v(G)``.  For ``semantics='owa'`` the worlds additionally include every
    extension of some ``v(G)``; because RPQs are monotone, extensions can
    only add answers, so the intersection over OWA worlds coincides with
    the intersection over the valuation images and the same enumeration is
    used.  This function is the exponential ground truth the naive shortcut
    is validated against.
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
