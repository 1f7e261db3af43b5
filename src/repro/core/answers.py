"""Certain-answer strategies: naive, enumeration, and the dispatch between them.

Three ways of answering a query ``Q`` over an incomplete database ``D``:

* :func:`naive_strategy` — the paper's recipe for the well-behaved
  classes (eq. (4)): naive evaluation followed by dropping tuples with
  nulls; cheap (same cost as ordinary evaluation).
* :func:`enumeration_strategy` — the classical definition (eq. (1))
  computed literally by possible-world enumeration; exponential in the
  number of nulls, used as ground truth and as the baseline in benchmarks.
* :func:`certain_strategy` — the "do the right thing" dispatch: walks the
  semantics' strategy list (:mod:`repro.semantics.registry`) for the
  first exact strategy — naive evaluation when the query's fragment
  guarantees it, enumeration otherwise.

The strategies are *thin*: each takes an ``evaluator`` — a function from
``(query, database)`` to a relation — so the caller decides which engine
state runs the query.  :class:`repro.session.Session` passes its own
session-scoped evaluator; :func:`~repro.core.naive_evaluation.evaluate_query`
is the seed-interpreter one.

The object/knowledge views of certainty (eqs. (9)/(10)) follow the same
pattern: :func:`object_strategy` (the naive answer itself, nulls
included) and :func:`knowledge_strategy` (its δ-formula).
"""

from __future__ import annotations

import functools
import hashlib
from collections import Counter
from typing import Any, Callable, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

from ..algebra import ast
from ..algebra.ast import ConstantRelation, RAExpression, Selection
from ..algebra.predicates import _OPERATORS, Attr, Comparison, PAnd, PNot, POr, Predicate
from ..datamodel import Database, Relation
from ..datamodel.values import is_null
from ..logic.formulas import FOQuery, Formula
from ..resilience import BudgetExceeded, InvalidRequestError, ResumeToken, active_budget
from ..semantics.certain import (
    enumerate_certain_answers,
    enumerate_possible_answers,
)
from ..semantics.worlds import check_world_options, default_domain, fresh_value_worlds
from .naive_evaluation import Applicability

Query = Union[RAExpression, FOQuery]

#: ``(query, database) -> Relation``: how a strategy runs the query.
QueryEvaluator = Callable[[Query, Database], Relation]


def query_constants(query: Query) -> set:
    """The constants mentioned by a query (selection predicates, literals, atoms).

    Possible-world enumeration must let nulls range over these constants too
    — a certain answer can be destroyed by a world in which a null takes a
    value that only the query mentions (e.g. ``¬Pref('alice', p)`` when the
    database never mentions ``'alice'``).
    """
    constants: set = set()
    if isinstance(query, RAExpression):
        for node in query.walk():
            if isinstance(node, Selection):
                constants |= node.predicate.constants()
            elif isinstance(node, ConstantRelation):
                constants |= node.relation.constants()
    elif isinstance(query, FOQuery):
        constants |= {c for c in query.formula.constants() if not is_null(c)}
    else:
        raise TypeError(f"unsupported query type {type(query).__name__}")
    return {c for c in constants if not is_null(c)}


def enumeration_domain(
    query: Query,
    database: Database,
    domain: Optional[Sequence[Any]] = None,
    extra_constants: Optional[int] = None,
) -> Sequence[Any]:
    """The valuation domain world enumeration should range over."""
    if domain is not None:
        return domain
    return default_domain(
        database, extra_constants=extra_constants, constants=query_constants(query)
    )


#: The operators whose answers commute with every renaming of constants
#: outside the query (genericity), given equality-only selections.
_GENERIC_OPERATORS = frozenset({
    ast.RelationRef, ast.ConstantRelation, ast.Delta, ast.ActiveDomain, ast.Selection,
    ast.Projection, ast.Rename, ast.Product, ast.NaturalJoin, ast.Union_, ast.Difference,
    ast.Intersection, ast.Division,
})


class ValuationSpace(NamedTuple):
    """The valuations a certain-answer enumeration runs, and why.

    ``interchangeable`` holds the domain values the query cannot tell
    apart; with them only canonical valuations run (one per renaming of
    these values).  Empty means every valuation, for ``reason``.
    """

    interchangeable: Tuple[Any, ...]
    reason: str = ""

    def describe(self) -> str:
        if self.interchangeable:
            return f"canonical valuations ({len(self.interchangeable)} interchangeable constants)"
        return f"every valuation ({self.reason})"


def valuation_space(
    query: Query, database: Database, domain: Sequence[Any], mode: str = "certain"
) -> ValuationSpace:
    """The valuations enumerating ``query``'s ``mode`` answers over ``domain`` needs.

    Certain answers of a generic query (relational algebra over the known
    operators with equality-only selections, or first-order logic) do not
    change when values outside the database and the query are renamed, so
    one valuation per renaming suffices.  The interchangeable values are
    the ``domain`` values outside ``database.constants()`` and the query's
    constants that equal no other value of ``domain``; canonical
    enumeration needs at least two.  Possible answers, order comparisons,
    other queries and databases without nulls keep every valuation.
    """
    if mode != "certain":
        return ValuationSpace((), "possible answers")
    if isinstance(query, RAExpression):
        for node in query.walk():
            if type(node) not in _GENERIC_OPERATORS:
                return ValuationSpace((), "unknown operator")
            if isinstance(node, Selection) and not node.predicate.is_equality_only():
                return ValuationSpace((), "order comparison")
    elif not isinstance(query, FOQuery):
        return ValuationSpace((), "unknown operator")
    if not database.nulls():
        return ValuationSpace((), "no nulls: one valuation")
    fixed = set(database.constants()) | query_constants(query)
    occurrences = Counter(domain)
    fresh = tuple(
        value for value in domain if occurrences[value] == 1 and value not in fixed
    )
    if len(fresh) < 2:
        return ValuationSpace((), "fewer than 2 fresh values")
    return ValuationSpace(fresh)


def _order_comparisons(predicate: Predicate) -> Iterator[Comparison]:
    """The ``<``/``<=``/``>``/``>=`` comparisons inside ``predicate``."""
    if isinstance(predicate, Comparison):
        if not predicate.is_equality_only():
            yield predicate
    elif isinstance(predicate, (PAnd, POr)):
        for operand in predicate.operands:
            yield from _order_comparisons(operand)
    elif isinstance(predicate, PNot):
        yield from _order_comparisons(predicate.operand)


def _incomparable(
    comparisons: List[Comparison], fresh: Sequence[Any], constants: Sequence[Any]
) -> Optional[Tuple[Comparison, Any, Any]]:
    """The first ``(comparison, fresh value, other value)`` the operator refuses.

    A fresh value stands in for an attribute: it meets the comparison's
    constant, or any of ``constants`` (the domain's database and query
    constants) when both sides are attributes.
    """
    for comparison in comparisons:
        compare = _OPERATORS[comparison.op]
        left, right = comparison.left, comparison.right
        if isinstance(left, Attr):
            others = constants if isinstance(right, Attr) else (right.value,)
            flipped = False
        elif isinstance(right, Attr):
            others, flipped = (left.value,), True
        else:
            continue
        for value in fresh:
            for other in others:
                try:
                    compare(other, value) if flipped else compare(value, other)
                except TypeError:
                    return comparison, value, other
    return None


def check_order_comparisons(
    query: Query,
    database: Database,
    domain: Sequence[Any],
    world_evaluator: Callable[[Database], Relation],
    semantics: Any,
    max_extra_facts: int,
) -> None:
    """Refuse, before enumerating, order comparisons a fresh value breaks.

    Worlds take the domain's fresh values too (outside the database's and
    the query's constants; :func:`default_domain` makes them strings
    ``w0, w1, ...``): nulls range over them, and open-world extra facts
    are made of them.  An order comparison that meets one it cannot
    compare — ``'w0' < 3`` — would stop the enumeration with a bare
    ``TypeError`` at the first world holding it.  So the few worlds of
    ``semantics`` (a registry row) that put the first fresh value
    everywhere it can go
    (:func:`~repro.semantics.worlds.fresh_value_worlds`; with an
    attribute-to-attribute comparison, also next to one database or
    query constant of each type) are evaluated up front; if one fails on
    an order comparison that a fresh value cannot meet, the request is
    refused with an :class:`~repro.resilience.InvalidRequestError`
    naming both.  Queries without order comparisons pay one AST walk.
    """
    if not isinstance(query, RAExpression):
        return
    comparisons = [
        comparison
        for node in query.walk()
        if isinstance(node, Selection)
        for comparison in _order_comparisons(node.predicate)
    ]
    if not comparisons:
        return
    fixed = set(database.constants()) | query_constants(query)
    fresh = [value for value in domain if value not in fixed]
    if not fresh:
        return
    constants = [value for value in domain if value in fixed]
    partners: List[Any] = []
    if any(isinstance(c.left, Attr) and isinstance(c.right, Attr) for c in comparisons):
        # Two nulls compared with each other: one takes the fresh value,
        # the others one constant of each type.
        by_type: dict = {}
        for value in constants:
            by_type.setdefault(type(value), value)
        partners = list(by_type.values())
    try:
        for world in fresh_value_worlds(
            database, semantics, fresh[0], max_extra_facts, partners
        ):
            world_evaluator(world)
    except TypeError as error:
        culprit = _incomparable(comparisons, fresh, constants)
        if culprit is None:
            raise
        comparison, value, other = culprit
        shown = " ".join(
            f"#{term.ref}" if isinstance(term, Attr) and isinstance(term.ref, int) else str(term)
            for term in (comparison.left, comparison.op, comparison.right)
        )
        raise InvalidRequestError(
            f"order comparison {shown} cannot be evaluated in every world: "
            f"worlds take the fresh value {value!r}, which {comparison.op!r} "
            f"cannot compare with {other!r} ({type(value).__name__} vs "
            f"{type(other).__name__}); pass domain= with comparable values"
        ) from error


# ----------------------------------------------------------------------
# Strategy functions
# ----------------------------------------------------------------------
def naive_strategy(query: Query, database: Database, evaluator: QueryEvaluator) -> Relation:
    """``Q(D)_cmpl``: naive evaluation, then drop tuples containing nulls.

    Correct (equal to the classical certain answers) for UCQs under OWA and
    CWA, and sound for the larger ``RA_cwa``/Pos∀G class under CWA.
    """
    return evaluator(query, database).complete_part()


def object_strategy(query: Query, database: Database, evaluator: QueryEvaluator) -> Relation:
    """``certainO(Q, D) = Q(D)``: the naive answer viewed as an object (eq. (9)).

    Unlike :func:`naive_strategy` the result may contain nulls — dropping
    them loses information (the paper's Section 6 example)."""
    return evaluator(query, database)


def knowledge_strategy(
    query: Query, database: Database, evaluator: QueryEvaluator, semantics: str = "cwa"
) -> Formula:
    """``certainK(Q, D) = δ_{Q(D)}``: the knowledge-level certain answer (eq. (10)),
    with the δ of ``semantics`` (a registered name, or its registry row)."""
    from ..semantics.registry import semantics_named

    delta = semantics_named(semantics).delta
    answer = evaluator(query, database)
    return delta(Database.from_relations([answer.rename("Answer")]))


def _fingerprint(
    query: Query,
    database: Database,
    semantics: str,
    domain: Sequence[Any],
    extra_constants: Optional[int],
    max_extra_facts: int,
    interchangeable: Sequence[Any],
) -> str:
    """Fingerprint of everything the world-enumeration order depends on."""
    digest = hashlib.sha256()
    # Databases are immutable, so the O(rows) content walk is cached on
    # the instance — consecutive stamps of the same database reuse it.
    for part in (
        query,
        semantics,
        (extra_constants, max_extra_facts),
        [repr(value) for value in domain],
        [repr(value) for value in interchangeable],
        database.content_digest(),
    ):
        digest.update(repr(part).encode("utf-8"))
        digest.update(b"\x1f")
    return digest.hexdigest()


def _check_resume(token: Any, key: str, kernel_epoch: Optional[int]) -> None:
    """Refuse a ``resume`` token minted for other inputs or kernel state."""
    if not isinstance(token, ResumeToken):
        raise InvalidRequestError(
            "resume= expects a PartialResult or ResumeToken, "
            f"got {type(token).__name__}"
        )
    if token.key != key:
        raise InvalidRequestError(
            "resume token does not match this enumeration: the query, "
            "database, semantics, domain, extra-facts cap or valuation space "
            "changed since it was minted"
        )
    if token.kernel_epoch is not None and token.kernel_epoch != kernel_epoch:
        raise InvalidRequestError(
            "resume token predates a condition-kernel eviction/clear on "
            "this session; re-run certain() from the start"
        )


def enumeration_strategy(
    query: Query,
    database: Database,
    evaluator: QueryEvaluator,
    semantics: str = "cwa",
    domain: Optional[Sequence[Any]] = None,
    extra_constants: Optional[int] = None,
    max_extra_facts: int = 1,
    workers: Optional[int] = None,
    world_evaluator: Optional[Callable[[Database], Relation]] = None,
    mode: str = "certain",
    resume: Optional[ResumeToken] = None,
    executor: Optional[Any] = None,
    kernel_epoch: Optional[int] = None,
) -> Relation:
    """Certain (or possible) answers computed literally by world enumeration.

    ``semantics`` is a row of :data:`repro.semantics.registry.SEMANTICS`
    (the registry's ``ENUMERATION`` strategy hands its own row down) or
    its name; its worlds are enumerated.  ``extra_constants`` and
    ``max_extra_facts`` are checked before anything runs.  ``world_evaluator`` overrides the
    per-world callable — sessions pass a *picklable* one when ``workers``
    should fan out over a process pool (``executor``: a live,
    caller-owned pool); the default closure works but forces the
    sequential path.  ``mode="certain"`` only: ``resume`` continues a
    checkpoint minted by an interrupted run.  It is refused unless its
    key (a fingerprint of the query, database, semantics, resolved domain
    and extra-facts cap) and kernel epoch match these inputs and
    ``kernel_epoch`` (the caller's condition-kernel epoch); a budget
    expiry stamps both on the checkpoint it raises.  A possible-answers
    union has no sound partial state to resume from.

    Each call decides its :func:`valuation_space` (certain answers of a
    generic query run canonical valuations only); the space is part of
    the token key.
    """
    from ..semantics.registry import semantics_named

    semantics = semantics_named(semantics)
    check_world_options(extra_constants, max_extra_facts)
    state = active_budget()
    if state is not None:
        # Refuse to even start an enumeration on an already-expired budget
        # (the per-world ticks inside would catch it one world later).
        state.check()
    if world_evaluator is None:
        world_evaluator = lambda world: evaluator(query, world)  # noqa: E731
    resolved_domain = enumeration_domain(query, database, domain, extra_constants)
    check_order_comparisons(
        query, database, resolved_domain, world_evaluator, semantics, max_extra_facts
    )
    inputs = (
        world_evaluator, database, semantics, resolved_domain, extra_constants, max_extra_facts,
    )
    if mode == "possible":
        return enumerate_possible_answers(*inputs)
    if mode != "certain":
        raise ValueError(f"unknown mode {mode!r}; expected 'certain' or 'possible'")
    fresh = valuation_space(query, database, resolved_domain).interchangeable
    # The fingerprint is computed only when a token comes in or goes out.
    key = functools.partial(
        _fingerprint, query, database, semantics.name, resolved_domain, extra_constants,
        max_extra_facts, fresh,
    )
    if resume is not None:
        _check_resume(resume, key(), kernel_epoch)
    try:
        return enumerate_certain_answers(
            *inputs, workers=workers, resume=resume, executor=executor, interchangeable=fresh
        )
    except BudgetExceeded as error:
        if error.resume_token is not None:
            error.resume_token.key = key()
            error.resume_token.kernel_epoch = kernel_epoch
        raise


def certain_strategy(
    query: Query,
    database: Database,
    evaluator: QueryEvaluator,
    semantics: str = "cwa",
    method: str = "auto",
    resume: Optional[ResumeToken] = None,
    **options: Any,
) -> Relation:
    """Certain answers with automatic method selection.

    ``method`` is ``'auto'`` (the first exact strategy of the semantics'
    list that applies: naive evaluation when the fragment guarantees it,
    enumeration otherwise), ``'naive'`` or ``'enumeration'``; anything
    else raises :class:`~repro.resilience.InvalidRequestError`.  A
    ``resume`` token forces enumeration — it checkpoints world
    enumeration, which the naive method does not perform.  ``options``
    (``domain``, ``workers``, ``world_evaluator``, ...) are the
    :func:`enumeration_strategy` ones.
    """
    from ..semantics.registry import semantics_named

    row = semantics_named(semantics)
    strategy = row.choose(query, method, resume)
    return strategy.run(row, query, database, evaluator, resume=resume, **options)


def explain_method(query: Query, semantics: str = "cwa") -> Applicability:
    """The naive-evaluation verdict :func:`certain_strategy` acts on."""
    from ..semantics.registry import NAIVE, semantics_named

    return NAIVE.applies(semantics_named(semantics), query)
