"""A small text syntax for relational-algebra expressions.

The syntax is functional and keyword-based so queries stay readable in
examples and documentation::

    project[o_id](Order)
    select[product = 'pr1'](Order)
    diff(project[#0](R), project[#0](S))
    divide(Pay, project[o_id](Order))
    union(R, S)
    join(Order, rename[Pay2(order, p_id, amount)](Pay))

Grammar (informal)::

    expr     := name
              | 'delta' | 'adom'
              | 'select'  '[' predicate ']' '(' expr ')'
              | 'project' '[' attrs ']' '(' expr ')'
              | 'rename'  '[' name ( '(' attrs ')' )? ']' '(' expr ')'
              | binop '(' expr ',' expr ')'
    binop    := 'union' | 'diff' | 'intersect' | 'product' | 'join' | 'divide'
    predicate:= disjunction of conjunctions of (possibly negated) comparisons
    term     := quoted string | number | '#' digits | attribute name

Bare identifiers inside predicates denote attributes; quoted strings and
numbers denote constants; ``#i`` denotes the attribute at position ``i``.
"""

from __future__ import annotations

import re
from typing import Any, List, Optional, Sequence, Tuple, Union

from .ast import (
    ActiveDomain,
    Delta,
    Difference,
    Division,
    Intersection,
    NaturalJoin,
    Product,
    Projection,
    RAExpression,
    RelationRef,
    Rename,
    Selection,
    Union_,
)
from .predicates import Attr, Comparison, Const, PAnd, PNot, POr, Predicate, PTrue


class RAParseError(ValueError):
    """Raised when an RA expression or predicate cannot be parsed."""


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<string>'[^']*'|"[^"]*")
  | (?P<number>-?\d+\.\d+|-?\d+)
  | (?P<position>\#\d+)
  | (?P<name>[A-Za-z_][A-Za-z_0-9.]*)
  | (?P<op><=|>=|!=|<>|=|<|>)
  | (?P<punct>[()\[\],])
    """,
    re.VERBOSE,
)

_BINARY_OPS = {
    "union": Union_,
    "diff": Difference,
    "difference": Difference,
    "intersect": Intersection,
    "intersection": Intersection,
    "product": Product,
    "join": NaturalJoin,
    "divide": Division,
    "division": Division,
}

_KEYWORDS = {"select", "project", "rename", "delta", "adom", "and", "or", "not", "true"} | set(
    _BINARY_OPS
)


class _Token:
    __slots__ = ("kind", "value")

    def __init__(self, kind: str, value: str) -> None:
        self.kind = kind
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind}, {self.value!r})"


def _tokenize(text: str) -> List[_Token]:
    tokens: List[_Token] = []
    position = 0
    while position < len(text):
        match = _TOKEN_RE.match(text, position)
        if match is None:
            raise RAParseError(f"unexpected character {text[position]!r} at offset {position}")
        position = match.end()
        kind = match.lastgroup or ""
        if kind == "ws":
            continue
        tokens.append(_Token(kind, match.group()))
    return tokens


class _Parser:
    def __init__(self, tokens: List[_Token]) -> None:
        self._tokens = tokens
        self._index = 0

    # -- token helpers -------------------------------------------------
    def _peek(self) -> Optional[_Token]:
        if self._index < len(self._tokens):
            return self._tokens[self._index]
        return None

    def _next(self) -> _Token:
        token = self._peek()
        if token is None:
            raise RAParseError("unexpected end of input")
        self._index += 1
        return token

    def _expect(self, value: str) -> _Token:
        token = self._next()
        if token.value != value:
            raise RAParseError(f"expected {value!r}, got {token.value!r}")
        return token

    def _at(self, value: str) -> bool:
        token = self._peek()
        return token is not None and token.value == value

    def at_end(self) -> bool:
        return self._index >= len(self._tokens)

    # -- expressions ---------------------------------------------------
    def parse_expression(self) -> RAExpression:
        token = self._next()
        if token.kind != "name":
            raise RAParseError(f"expected an operator or relation name, got {token.value!r}")
        word = token.value
        lowered = word.lower()
        if lowered == "delta":
            return Delta()
        if lowered == "adom":
            return ActiveDomain()
        if lowered == "select":
            predicate = self._bracketed_predicate()
            child = self._parenthesised_expression()
            return Selection(child, predicate)
        if lowered == "project":
            attributes = self._bracketed_attributes()
            child = self._parenthesised_expression()
            return Projection(child, tuple(attributes))
        if lowered == "rename":
            name, attributes = self._bracketed_rename()
            child = self._parenthesised_expression()
            return Rename(child, name, attributes)
        if lowered in _BINARY_OPS:
            self._expect("(")
            left = self.parse_expression()
            self._expect(",")
            right = self.parse_expression()
            self._expect(")")
            return _BINARY_OPS[lowered](left, right)
        if lowered in _KEYWORDS:
            raise RAParseError(f"misplaced keyword {word!r}")
        return RelationRef(word)

    def _parenthesised_expression(self) -> RAExpression:
        self._expect("(")
        child = self.parse_expression()
        self._expect(")")
        return child

    def _bracketed_attributes(self) -> List[Union[str, int]]:
        self._expect("[")
        attributes: List[Union[str, int]] = []
        while True:
            token = self._next()
            if token.kind == "position":
                attributes.append(int(token.value[1:]))
            elif token.kind == "name":
                attributes.append(token.value)
            elif token.kind == "number":
                attributes.append(int(token.value))
            else:
                raise RAParseError(f"expected an attribute, got {token.value!r}")
            if self._at("]"):
                self._next()
                return attributes
            self._expect(",")

    def _bracketed_rename(self) -> Tuple[str, Optional[Tuple[str, ...]]]:
        self._expect("[")
        name_token = self._next()
        if name_token.kind != "name":
            raise RAParseError(f"expected a relation name, got {name_token.value!r}")
        attributes: Optional[Tuple[str, ...]] = None
        if self._at("("):
            self._next()
            attrs: List[str] = []
            while True:
                token = self._next()
                if token.kind != "name":
                    raise RAParseError(f"expected an attribute name, got {token.value!r}")
                attrs.append(token.value)
                if self._at(")"):
                    self._next()
                    break
                self._expect(",")
            attributes = tuple(attrs)
        self._expect("]")
        return name_token.value, attributes

    # -- predicates ------------------------------------------------------
    def _bracketed_predicate(self) -> Predicate:
        self._expect("[")
        predicate = self.parse_predicate()
        self._expect("]")
        return predicate

    def parse_predicate(self) -> Predicate:
        return self._parse_or()

    def _parse_or(self) -> Predicate:
        operands = [self._parse_and()]
        while self._at("or"):
            self._next()
            operands.append(self._parse_and())
        if len(operands) == 1:
            return operands[0]
        return POr(tuple(operands))

    def _parse_and(self) -> Predicate:
        operands = [self._parse_not()]
        while self._at("and"):
            self._next()
            operands.append(self._parse_not())
        if len(operands) == 1:
            return operands[0]
        return PAnd(tuple(operands))

    def _parse_not(self) -> Predicate:
        if self._at("not"):
            self._next()
            return PNot(self._parse_not())
        if self._at("("):
            self._next()
            inner = self.parse_predicate()
            self._expect(")")
            return inner
        if self._at("true"):
            self._next()
            return PTrue()
        return self._parse_comparison()

    def _parse_comparison(self) -> Predicate:
        left = self._parse_term()
        op_token = self._next()
        if op_token.kind != "op":
            raise RAParseError(f"expected a comparison operator, got {op_token.value!r}")
        op = "!=" if op_token.value == "<>" else op_token.value
        right = self._parse_term()
        return Comparison(left, op, right)

    def _parse_term(self) -> Union[Attr, Const]:
        token = self._next()
        if token.kind == "string":
            return Const(token.value[1:-1])
        if token.kind == "number":
            text = token.value
            return Const(float(text) if "." in text else int(text))
        if token.kind == "position":
            return Attr(int(token.value[1:]))
        if token.kind == "name":
            return Attr(token.value)
        raise RAParseError(f"expected a term, got {token.value!r}")


def parse_ra(text: str) -> RAExpression:
    """Parse the textual RA syntax into an :class:`RAExpression`.

    Examples
    --------
    >>> from repro.algebra import parse_ra
    >>> expr = parse_ra("diff(project[#0](R), project[#0](S))")
    >>> str(expr)
    'diff(project[#0](R), project[#0](S))'
    """
    parser = _Parser(_tokenize(text))
    expression = parser.parse_expression()
    if not parser.at_end():
        raise RAParseError("trailing input after a complete expression")
    return expression


def parse_predicate(text: str) -> Predicate:
    """Parse just a selection predicate (the part between ``[`` and ``]``)."""
    parser = _Parser(_tokenize(text))
    predicate = parser.parse_predicate()
    if not parser.at_end():
        raise RAParseError("trailing input after a complete predicate")
    return predicate
